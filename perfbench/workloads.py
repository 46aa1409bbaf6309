"""The benchmark's workloads: the CLI commands of one op and their checks.

An op is one or two ``certbayes`` CLI commands called in-process through
``certbayes.cli.main(argv)``, with every output written under a work
directory. Each workload also knows how to check the files an op wrote
against independently computed references; ``check`` returns the reasons an
op is wrong (none when it is right) and the per-op figures the metrics need.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from certbayes import SyntheticSpec, generate_synthetic

import ess
from reference import Constants, bound_mismatches, reference_bounds

ROOT = Path(__file__).resolve().parent.parent
AUTO_MPG = ROOT / "data" / "auto_mpg.csv"

ONE_NINTH = 1.0 / 9.0
# Criterion 6 of the acceptance suite: the mean auto-mpg adversarial risk at
# delta_hat = 0.1 over seeds 0-4, and its tolerance.
CRITERION_6 = {"bayes": 1.0552, "robust": 1.0469, "tolerance": 0.03}
ACCEPT_RANGE = (0.6, 0.95)


def criterion_6_report(risks: list) -> list[str]:
    """Run means of the delta_hat = 0.1 risks against criterion 6's targets.

    Reported, not gated: the targets are means over seeds 0-4, and a run
    averages only its own three or four seeds (see perfbench/README.md).
    """
    lines = []
    for which in ("bayes", "robust") if risks else ():
        mean = sum(r[which] for r in risks) / len(risks)
        target, tol = CRITERION_6[which], CRITERION_6["tolerance"]
        verdict = "within" if abs(mean - target) <= tol else "OUTSIDE"
        lines.append(f"criterion-6 {which} mean risk at delta_hat=0.1 over {len(risks)} "
                     f"seeds: {mean:.4f}, {verdict} {target} +- {tol}")
    return lines


@dataclass
class Captured:
    """What the CLI's ``hmc_sample`` and ``load_csv`` returned during an op."""

    sample_sets: list = field(default_factory=list)
    datasets: list = field(default_factory=list)

    def clear(self) -> None:
        self.sample_sets.clear()
        self.datasets.clear()

    def install(self) -> None:
        """Route the CLI's ``hmc_sample`` and ``load_csv`` through this record.

        The wrappers look the library functions up at call time, so a tracer
        installed later still sees the calls.
        """
        from certbayes import cli, data_pipeline, posterior

        def hmc_sample(*args, **kwargs):
            result = posterior.hmc_sample(*args, **kwargs)
            self.sample_sets.append(result)
            return result

        def load_csv(*args, **kwargs):
            result = data_pipeline.load_csv(*args, **kwargs)
            self.datasets.append(result)
            return result

        cli.hmc_sample = hmc_sample
        cli.load_csv = load_csv


@dataclass
class OpCheck:
    """Outcome of checking one op; ``reasons`` is empty when the op is right."""

    reasons: list = field(default_factory=list)
    min_ess: float = 0.0
    draws: int = 0
    accept_rates: list = field(default_factory=list)
    risks: dict = field(default_factory=dict)


def _sampler_figures(out: OpCheck, captured: Captured, expected_sets: int) -> None:
    """Min-coordinate ESS over every draw set and the accept rates."""
    if len(captured.sample_sets) != expected_sets:
        out.reasons.append(
            f"expected {expected_sets} HMC draw sets, captured {len(captured.sample_sets)}"
        )
        return
    out.min_ess = min(ess.min_ess(s.draws) for s in captured.sample_sets)
    out.draws = sum(s.n_draws for s in captured.sample_sets)
    out.accept_rates = [float(s.accept_rate) for s in captured.sample_sets]


def synthetic_dataset(n: int, d: int, c: Constants, seed: int):
    spec = SyntheticSpec(n=n, d=d, sigma_x_sq=c.sigma_x_sq, sigma_sq=c.sigma_sq,
                         theta_star_norm_sq=c.theta_star_norm_sq, seed=seed)
    return generate_synthetic(spec)[0]


def _printed_bounds(path: Path) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        reports = json.load(fh)["reports"]
    return {r["theorem_id"]: r["bound_value"] for r in reports}


@dataclass(frozen=True)
class FitEval:
    """``fit-eval`` on auto-mpg: the paper's real-data experiment."""

    hmc_samples: int = 4000
    hmc_warmup: int = 2000
    name: str = "mpg-fit"

    def commands(self, seed: int, work: Path) -> list[list[str]]:
        return [[
            "fit-eval", "--data", str(AUTO_MPG), "--target", "mpg",
            "--sigma-p-sq", repr(ONE_NINTH), "--delta", "0.1",
            "--delta-hat", "0,0.1", "--seeds", "1",
            "--hmc-samples", str(self.hmc_samples),
            "--hmc-warmup", str(self.hmc_warmup), "--leapfrog", "32",
            "--seed", str(seed), "--out", str(work / "fit.json"),
        ]]

    def warmup(self) -> "FitEval":
        return replace(self, hmc_samples=200, hmc_warmup=200)

    def check(self, seed: int, work: Path, captured: Captured) -> OpCheck:
        out = OpCheck()
        with open(work / "fit.json", encoding="utf-8") as fh:
            run = json.load(fh)["runs"][0]
        for entry in run["metrics"]:
            for which in ("bayes", "robust"):
                values = entry[which]
                if not all(math.isfinite(values[k]) for k in ("value", "std_error")):
                    out.reasons.append(f"non-finite {which} risk at {entry['delta_hat']}")
                if entry["delta_hat"] == 0.1:
                    out.risks[which] = values["value"]
        accept = run["hmc"]["accept_rate"]
        if not ACCEPT_RANGE[0] < accept < ACCEPT_RANGE[1]:
            out.reasons.append(f"accept rate {accept} outside {ACCEPT_RANGE}")
        _sampler_figures(out, captured, 1)
        return out


@dataclass(frozen=True)
class Sweep:
    """``sweep`` at the criterion-5 settings over n = 100 and n = 4200."""

    n_grid: tuple = (100, 4200)
    n_test: int = 10_000
    hmc_samples: int = 2000
    hmc_warmup: int = 1000
    name: str = "synth-sweep"
    constants = Constants(sigma_sq=ONE_NINTH, sigma_p_sq=0.01, sigma_x_sq=1.0,
                          theta_star_norm_sq=0.5, delta=0.01, delta_hat=0.01)
    d = 5

    def commands(self, seed: int, work: Path) -> list[list[str]]:
        c = self.constants
        return [[
            "sweep", "--n-grid", ",".join(map(str, self.n_grid)), "--d", str(self.d),
            "--n-test", str(self.n_test), "--sigma-sq", repr(c.sigma_sq),
            "--sigma-p-sq", repr(c.sigma_p_sq),
            "--theta-star-norm-sq", repr(c.theta_star_norm_sq),
            "--delta", repr(c.delta), "--delta-hat", repr(c.delta_hat),
            "--theorem", "all", "--seeds", "1",
            "--hmc-samples", str(self.hmc_samples),
            "--hmc-warmup", str(self.hmc_warmup), "--leapfrog", "16", "--jobs", "1",
            "--seed", str(seed), "--out", str(work / "sweep.csv"),
        ]]

    def warmup(self) -> "Sweep":
        return replace(self, n_grid=(100,), n_test=1000, hmc_samples=200, hmc_warmup=200)

    def check(self, seed: int, work: Path, captured: Captured) -> OpCheck:
        out = OpCheck()
        with open(work / "sweep.csv", encoding="utf-8", newline="") as fh:
            fh.readline()  # "# config: ..." provenance line
            rows = list(csv.DictReader(fh))
        for n in self.n_grid:
            full = synthetic_dataset(n + self.n_test, self.d, self.constants, seed)
            expected = reference_bounds(full.X[:n], full.Y[:n], self.constants)
            cell = [r for r in rows if int(r["n"]) == n and int(r["seed"]) == seed]
            printed = {r["theorem"]: float(r["bound"]) for r in cell}
            out.reasons += [f"n={n} {p}" for p in bound_mismatches(printed, expected)]
            for r in cell:
                if not all(math.isfinite(float(r[k]))
                           for k in ("empirical_risk", "risk_std_error")):
                    out.reasons.append(f"n={n} {r['theorem']}: non-finite risk")
        if len(rows) != len(self.n_grid) * 5:
            out.reasons.append(f"expected {len(self.n_grid) * 5} rows, got {len(rows)}")
        _sampler_figures(out, captured, len(self.n_grid))
        return out


@dataclass(frozen=True)
class Certify:
    """``certify --theorem all`` on synthetic data generated by the CLI."""

    n: int = 200
    d: int = 2000
    name: str = "wide-certify"
    constants = Constants(sigma_sq=ONE_NINTH, sigma_p_sq=5e-5, sigma_x_sq=1.0,
                          theta_star_norm_sq=0.5, delta=0.01, delta_hat=0.01)

    def commands(self, seed: int, work: Path) -> list[list[str]]:
        return [[
            "certify", "--n", str(self.n), "--d", str(self.d),
            *self.constants.flags(), "--theorem", "all",
            "--seed", str(seed), "--out", str(work / "cert.json"),
        ]]

    def warmup(self) -> "Certify":
        return self

    def check(self, seed: int, work: Path, captured: Captured) -> OpCheck:
        data = synthetic_dataset(self.n, self.d, self.constants, seed)
        expected = reference_bounds(data.X, data.Y, self.constants)
        return OpCheck(reasons=bound_mismatches(_printed_bounds(work / "cert.json"), expected))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


@dataclass(frozen=True)
class CsvPipeline:
    """``gen-data`` to a CSV file, then ``certify --data`` on that file."""

    n: int = 100_000
    d: int = 10
    name: str = "csv-pipeline"
    constants = Constants(sigma_sq=ONE_NINTH, sigma_p_sq=0.005, sigma_x_sq=1.0,
                          theta_star_norm_sq=0.5, delta=0.001, delta_hat=0.001)

    def commands(self, seed: int, work: Path) -> list[list[str]]:
        c = self.constants
        data = str(work / "data.csv")
        return [
            ["gen-data", "--n", str(self.n), "--d", str(self.d),
             "--sigma-sq", repr(c.sigma_sq),
             "--theta-star-norm-sq", repr(c.theta_star_norm_sq),
             "--seed", str(seed), "--out", data],
            ["certify", "--data", data, *c.flags(), "--theorem", "all",
             "--out", str(work / "cert.json")],
        ]

    def warmup(self) -> "CsvPipeline":
        return replace(self, n=1000)

    def check(self, seed: int, work: Path, captured: Captured) -> OpCheck:
        out = OpCheck()
        data_path = work / "data.csv"
        with open(str(data_path) + ".json", encoding="utf-8") as fh:
            recorded = json.load(fh)["inputs_digest"]
        if recorded != _sha256(data_path):
            out.reasons.append(f"sidecar digest {recorded} is not the file's SHA-256")
        expected = synthetic_dataset(self.n, self.d, self.constants, seed)
        if len(captured.datasets) != 1:
            out.reasons.append(f"load_csv returned {len(captured.datasets)} datasets, not 1")
        else:
            loaded = captured.datasets[0]
            same = all(
                got.shape == want.shape and got.tobytes() == want.tobytes()
                for got, want in ((loaded.X, expected.X), (loaded.Y, expected.Y))
            )
            if not same:
                out.reasons.append("load_csv dataset differs from generate_synthetic output")
        bounds = reference_bounds(expected.X, expected.Y, self.constants)
        out.reasons += bound_mismatches(_printed_bounds(work / "cert.json"), bounds)
        return out


WORKLOADS = {w.name: w for w in (FitEval(), Sweep(), Certify(), CsvPipeline())}


def run_op(workload, seed: int, work: Path, captured: Captured) -> tuple[float, OpCheck]:
    """Run one op; returns its wall seconds and the outcome of its check."""
    from certbayes import cli

    commands = workload.commands(seed, work)
    captured.clear()
    failure = None
    start = time.perf_counter()
    try:
        for argv in commands:
            code = cli.main(argv)
            if code != 0:
                failure = f"{argv[0]} exited with code {code}"
                break
    except Exception as exc:  # an op that raises is a failed op, not a crash
        failure = f"{commands[0][0]} raised {exc!r}"
    seconds = time.perf_counter() - start
    if failure is not None:
        return seconds, OpCheck(reasons=[failure])
    try:
        return seconds, workload.check(seed, work, captured)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return seconds, OpCheck(reasons=[f"output unreadable: {exc!r}"])
