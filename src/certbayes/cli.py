"""Command-line surface.

Commands
--------
gen-data   write a synthetic dataset (CSV plus a JSON sidecar with the spec)
certify    compute generalization certificates for a dataset
fit-eval   fit Bayes + robust posteriors and evaluate test risks
sweep      certificates and empirical risks over a grid of training sizes

Exit codes: 0 success, 1 usage or IO error, 2 certificate precondition
violation, 3 sampler divergence.

Flags override --config (a JSON object whose keys are flag names with
dashes replaced by underscores); every output embeds the resolved
configuration and a digest of its inputs. CERTBAYES_SEED sets the default
base seed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import json
import os
import sys
from typing import Optional

import numpy as np

from . import certificates as certs
from .data_pipeline import (
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
    standardize_fit_transform,
)
from .errors import (
    BudgetMismatch,
    CertBayesError,
    CgfRangeViolation,
    DivergentTrajectory,
    NonFiniteDensity,
    PreconditionViolated,
)
from .model import (
    DataDistributionSpec,
    Dataset,
    IsotropicPrior,
    NoiseModel,
    PerturbationBudget,
    validate_dataset,
)
from .posterior import (
    HmcConfig,
    bayes_posterior,
    expected_risk,
    hmc_sample,
    robust_log_density_grad,
    robust_log_density_unnorm,
)

THEOREM_CHOICES = {
    "bayes-std": certs.cert_bayes_standard,
    "bayes-adv": certs.cert_bayes_adversarial,
    "robust-std": certs.cert_robust_standard,
    "robust-adv-matched": certs.cert_robust_adversarial_matched,
    "robust-adv-general": certs.cert_robust_adversarial_general,
}

_PLOTTED_DEFAULT = "bayes-std,bayes-adv,robust-std,robust-adv-matched"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for
    precondition violations, so remap usage errors to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _env_seed() -> int:
    return int(os.environ.get("CERTBAYES_SEED", "0"))


def _digest_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def _digest_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge precedence: explicit flag > config file entry > built-in default."""
    file_config = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            file_config = json.load(fh)
        unknown = set(file_config) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown config keys {sorted(unknown)}; expected a subset of "
                f"{sorted(defaults)}"
            )
    resolved = {}
    for name, default in defaults.items():
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            resolved[name] = flag_value
        elif name in file_config:
            resolved[name] = file_config[name]
        else:
            resolved[name] = default
    return resolved


def _public_config(resolved: dict) -> dict:
    """Resolved config minus the output path, for embedding in outputs:
    it describes what was computed, not where it was written, so reruns
    to different paths stay byte-identical."""
    return {k: v for k, v in resolved.items() if k != "out"}


def _parse_theorems(spec: str) -> list[str]:
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if names == ["all"]:
        return list(THEOREM_CHOICES)
    for name in names:
        if name not in THEOREM_CHOICES:
            raise ValueError(
                f"unknown theorem {name!r}; choose from "
                f"{', '.join(THEOREM_CHOICES)} or 'all'"
            )
    return names


def _parse_list(spec, kind) -> list:
    return [kind(s) for s in str(spec).split(",") if str(s).strip()]


def _write_json(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _synthetic_spec(resolved: dict, n, seed) -> SyntheticSpec:
    """The synthetic-data spec of a resolved config, at n rows and seed."""
    return SyntheticSpec(
        n=int(n),
        d=int(resolved["d"]),
        sigma_x_sq=float(resolved["sigma_x_sq"]),
        sigma_sq=float(resolved["sigma_sq"]),
        theta_star_norm_sq=float(resolved["theta_star_norm_sq"]),
        seed=int(seed),
    )


def _certificate_inputs(resolved: dict):
    """(noise, prior, distribution spec, budget, beta) of a resolved config."""
    return (
        NoiseModel(float(resolved["sigma_sq"])),
        IsotropicPrior(float(resolved["sigma_p_sq"])),
        DataDistributionSpec(
            sigma_x_sq=float(resolved["sigma_x_sq"]),
            theta_star_norm_sq=float(resolved["theta_star_norm_sq"]),
        ),
        PerturbationBudget(
            delta_train=float(resolved["delta"]),
            delta_test=float(resolved["delta_hat"]),
        ),
        float(resolved["beta"]),
    )


def _certificate(name: str, data: Dataset, noise, prior, dist, budget, beta):
    """Run one named certificate; bayes-std takes no perturbation budget."""
    fn = THEOREM_CHOICES[name]
    if name == "bayes-std":
        return fn(data, noise, prior, dist, beta)
    return fn(data, noise, prior, dist, budget, beta)


def _robust_hmc(train: Dataset, noise, prior, delta: float, seed: int, resolved: dict):
    """HMC draws from the robust posterior fitted at training radius delta."""
    return hmc_sample(
        lambda th: robust_log_density_unnorm(th, train, noise, prior, delta),
        lambda th: robust_log_density_grad(th, train, noise, prior, delta),
        train.d,
        HmcConfig(
            n_samples=int(resolved["hmc_samples"]),
            n_warmup=int(resolved["hmc_warmup"]),
            leapfrog_steps=int(resolved["leapfrog"]),
            seed=seed,
        ),
    )


def _risk(posterior, test: Dataset, noise, delta_hat: float, seed: int, resolved: dict):
    """Expected test risk at delta_hat; an exact posterior is sampled (seeded)
    as many times as HMC draws."""
    return expected_risk(
        posterior, test, noise, delta_hat, n_draws=int(resolved["hmc_samples"]), seed=seed
    )


# --------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        {
            "n": None,
            "d": None,
            "sigma_x_sq": 1.0,
            "sigma_sq": 1.0,
            "theta_star_norm_sq": 1.0,
            "seed": _env_seed(),
            "out": None,
        },
    )
    if resolved["n"] is None or resolved["d"] is None or resolved["out"] is None:
        raise ValueError("gen-data requires --n, --d and --out")
    data, theta_star = generate_synthetic(
        _synthetic_spec(resolved, resolved["n"], resolved["seed"])
    )
    save_csv(data, resolved["out"])
    sidecar = {
        "config": _public_config(resolved),
        "theta_star": list(theta_star),
        "inputs_digest": _digest_file(resolved["out"]),
    }
    with open(str(resolved["out"]) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# --------------------------------------------------------------------------
# certify


def _load_or_generate(resolved: dict) -> tuple[Dataset, str, str]:
    """Returns (dataset, inputs digest, distribution-spec source label)."""
    if resolved.get("data"):
        data = load_csv(resolved["data"], resolved["target"])
        return data, _digest_file(resolved["data"]), "plug-in, not certified"
    if resolved.get("n") is None or resolved.get("d") is None:
        raise ValueError("provide --data or a synthetic spec (--n and --d)")
    data, _ = generate_synthetic(
        _synthetic_spec(resolved, resolved["n"], resolved["seed"])
    )
    digest = _digest_text(json.dumps(_public_config(resolved), sort_keys=True))
    return data, digest, "synthetic"


def cmd_certify(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        {
            "data": None,
            "target": "y",
            "n": None,
            "d": None,
            "seed": _env_seed(),
            "sigma_sq": 1.0,
            "sigma_p_sq": None,
            "sigma_x_sq": None,
            "theta_star_norm_sq": None,
            "delta": 0.0,
            "delta_hat": 0.0,
            "beta": certs.DEFAULT_BETA,
            "theorem": "all",
            "out": None,
        },
    )
    for required in ("sigma_p_sq", "sigma_x_sq", "theta_star_norm_sq"):
        if resolved[required] is None:
            raise ValueError(f"certify requires --{required.replace('_', '-')}")
    data, digest, source = _load_or_generate(resolved)
    inputs = _certificate_inputs(resolved)
    reports = [
        _certificate(name, data, *inputs).to_dict()
        for name in _parse_theorems(str(resolved["theorem"]))
    ]
    _write_json(
        {
            "config": _public_config(resolved),
            "inputs_digest": digest,
            "distribution_spec_source": source,
            "reports": reports,
        },
        resolved["out"],
    )
    return 0


# --------------------------------------------------------------------------
# fit-eval


def _fit_eval_run(train: Dataset, test: Dataset, seed: int, resolved: dict) -> dict:
    """Fit both posteriors on one train/test pair and evaluate every radius."""
    if resolved["standardize"]:
        train, test, _ = standardize_fit_transform(train, test)
    noise = NoiseModel(float(resolved["sigma_sq"]))
    prior = IsotropicPrior(float(resolved["sigma_p_sq"]))
    delta = float(resolved["delta"])
    eval_deltas = [0.0] + [
        dh for dh in _parse_list(resolved["delta_hat"], float) if dh != 0.0
    ]

    exact = bayes_posterior(train, noise, prior)
    hmc = _robust_hmc(train, noise, prior, delta, seed, resolved)
    metrics = []
    for dh in eval_deltas:
        entry = {"delta_hat": dh}
        for which, posterior in (("bayes", exact), ("robust", hmc)):
            risk = _risk(posterior, test, noise, dh, seed, resolved)
            entry[which] = {"value": risk.value, "std_error": risk.std_error}
        metrics.append(entry)
    return {
        "seed": seed,
        "n_train": train.n,
        "n_test": test.n,
        "hmc": {"accept_rate": hmc.accept_rate, "step_size": hmc.step_size},
        "metrics": metrics,
    }


def cmd_fit_eval(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        {
            "data": None,
            "target": "y",
            "train": None,
            "test": None,
            "sigma_sq": 1.0,
            "sigma_p_sq": None,
            "delta": 0.0,
            "delta_hat": "0",
            "seed": _env_seed(),
            "seeds": 1,
            "train_fraction": 0.7,
            "standardize": True,
            "hmc_samples": 4000,
            "hmc_warmup": 2000,
            "leapfrog": 32,
            "out": None,
        },
    )
    if resolved["sigma_p_sq"] is None:
        raise ValueError("fit-eval requires --sigma-p-sq")

    runs = []
    if resolved["train"] or resolved["test"]:
        if not (resolved["train"] and resolved["test"]):
            raise ValueError("--train and --test must be given together")
        train = load_csv(resolved["train"], resolved["target"])
        test = load_csv(resolved["test"], resolved["target"])
        digest = _digest_file(resolved["train"]) + "+" + _digest_file(resolved["test"])
        runs.append(_fit_eval_run(train, test, int(resolved["seed"]), resolved))
    else:
        if not resolved["data"]:
            raise ValueError("fit-eval requires --data or --train/--test")
        data = load_csv(resolved["data"], resolved["target"])
        digest = _digest_file(resolved["data"])
        base = int(resolved["seed"])
        for rep in range(int(resolved["seeds"])):
            seed = base + rep
            train, test = split(
                data,
                SplitSpec(
                    train_fraction=float(resolved["train_fraction"]), seed=seed
                ),
            )
            runs.append(_fit_eval_run(train, test, seed, resolved))

    # Across-seed mean and standard deviation per (posterior, delta_hat).
    summary = []
    if runs:
        for slot, entry in enumerate(runs[0]["metrics"]):
            row = {"delta_hat": entry["delta_hat"]}
            for which in ("bayes", "robust"):
                vals = np.array([r["metrics"][slot][which]["value"] for r in runs])
                row[which] = {
                    "mean": float(vals.mean()),
                    "sd": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
                }
            summary.append(row)

    _write_json(
        {
            "config": _public_config(resolved),
            "inputs_digest": digest,
            "runs": runs,
            "summary": summary,
        },
        resolved["out"],
    )
    return 0


# --------------------------------------------------------------------------
# sweep


def _sweep_cell(payload: tuple) -> list[dict]:
    """One (n, seed) cell: shared data and posteriors, a row per theorem.

    Train and test rows are sliced from a single synthetic draw so they share
    the same ground-truth parameter vector; generating the test set from a
    second seed would score the fit against a different truth.
    """
    (n, seed, resolved) = payload
    full, _ = generate_synthetic(
        _synthetic_spec(resolved, n + int(resolved["n_test"]), seed)
    )
    train = validate_dataset(full.X[:n], full.Y[:n])
    test = validate_dataset(full.X[n:], full.Y[n:])
    noise, prior, dist, budget, beta = _certificate_inputs(resolved)
    theorems = _parse_theorems(str(resolved["theorem"]))

    exact = bayes_posterior(train, noise, prior)
    hmc = None
    if any(name.startswith("robust") for name in theorems):
        hmc = _robust_hmc(train, noise, prior, budget.delta_train, seed, resolved)

    rows = []
    risk_cache: dict = {}
    for name in theorems:
        report = _certificate(name, train, noise, prior, dist, budget, beta)
        bayes = name.startswith("bayes")
        dh = 0.0 if name.endswith("-std") else budget.delta_test
        if (bayes, dh) not in risk_cache:
            risk_cache[bayes, dh] = _risk(exact if bayes else hmc, test, noise, dh, seed, resolved)
        risk = risk_cache[bayes, dh]
        rows.append(
            {
                "n": n,
                "seed": seed,
                "theorem": report.theorem_id.value,
                "bound": report.bound_value,
                "cgf_c": report.cgf_c,
                "cgf_s_sq": report.cgf_s_sq,
                "beta": beta,
                "empirical_risk": risk.value,
                "risk_std_error": risk.std_error,
            }
        )
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        {
            "n_grid": "10,100,1000,10000",
            "d": 5,
            "n_test": 10000,
            "sigma_sq": 1.0,
            "sigma_p_sq": None,
            "sigma_x_sq": 1.0,
            "theta_star_norm_sq": 1.0,
            "delta": 0.0,
            "delta_hat": 0.0,
            "beta": certs.DEFAULT_BETA,
            "theorem": _PLOTTED_DEFAULT,
            "seed": _env_seed(),
            "seeds": 5,
            "hmc_samples": 2000,
            "hmc_warmup": 1000,
            "leapfrog": 16,
            "jobs": 1,
            "out": None,
        },
    )
    if resolved["sigma_p_sq"] is None:
        raise ValueError("sweep requires --sigma-p-sq")
    if resolved["out"] is None:
        raise ValueError("sweep requires --out")
    _parse_theorems(str(resolved["theorem"]))  # validate early

    base = int(resolved["seed"])
    cells = [
        (n, base + rep, resolved)
        for n in _parse_list(resolved["n_grid"], int)
        for rep in range(int(resolved["seeds"]))
    ]
    # A process pool starts all its workers at the first submit; never start
    # more than there are cells.
    workers = min(int(resolved["jobs"]), len(cells))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(cell) for cell in cells]

    rows = [row for cell_rows in results for row in cell_rows]
    rows.sort(key=lambda r: (r["n"], r["seed"], r["theorem"]))
    fieldnames = [
        "n", "seed", "theorem", "bound", "cgf_c", "cgf_s_sq", "beta",
        "empirical_risk", "risk_std_error",
    ]
    with open(resolved["out"], "w", newline="", encoding="utf-8") as fh:
        public = json.dumps(_public_config(resolved), sort_keys=True)
        fh.write(
            "# config: " + public + " inputs_digest: " + _digest_text(public) + "\n"
        )
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="certbayes", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags take precedence")
        p.add_argument("--seed", type=int, help="base seed (default CERTBAYES_SEED)")
        p.add_argument("--out", help="output path")

    p_gen = sub.add_parser("gen-data", help="generate a synthetic dataset")
    add_common(p_gen)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--d", type=int)
    p_gen.add_argument("--sigma-x-sq", type=float, dest="sigma_x_sq")
    p_gen.add_argument("--sigma-sq", type=float, dest="sigma_sq")
    p_gen.add_argument(
        "--theta-star-norm-sq", type=float, dest="theta_star_norm_sq"
    )
    p_gen.set_defaults(func=cmd_gen_data)

    p_cert = sub.add_parser("certify", help="compute generalization certificates")
    add_common(p_cert)
    p_cert.add_argument("--data", help="CSV dataset path")
    p_cert.add_argument("--target", help="target column name or index")
    p_cert.add_argument("--n", type=int, help="synthetic rows (when no --data)")
    p_cert.add_argument("--d", type=int, help="synthetic features (when no --data)")
    p_cert.add_argument("--sigma-sq", type=float, dest="sigma_sq")
    p_cert.add_argument("--sigma-p-sq", type=float, dest="sigma_p_sq")
    p_cert.add_argument("--sigma-x-sq", type=float, dest="sigma_x_sq")
    p_cert.add_argument("--theta-star-norm-sq", type=float, dest="theta_star_norm_sq")
    p_cert.add_argument("--delta", type=float)
    p_cert.add_argument("--delta-hat", type=float, dest="delta_hat")
    p_cert.add_argument("--beta", type=float)
    p_cert.add_argument("--theorem", help="comma list or 'all'")
    p_cert.set_defaults(func=cmd_certify)

    p_fit = sub.add_parser("fit-eval", help="fit posteriors and evaluate risks")
    add_common(p_fit)
    p_fit.add_argument("--data", help="CSV dataset to split per seed")
    p_fit.add_argument("--train", help="pre-split training CSV")
    p_fit.add_argument("--test", help="pre-split test CSV")
    p_fit.add_argument("--target", help="target column name or index")
    p_fit.add_argument("--sigma-sq", type=float, dest="sigma_sq")
    p_fit.add_argument("--sigma-p-sq", type=float, dest="sigma_p_sq")
    p_fit.add_argument("--delta", type=float, help="training perturbation radius")
    p_fit.add_argument(
        "--delta-hat", dest="delta_hat", help="comma list of evaluation radii"
    )
    p_fit.add_argument("--seeds", type=int, help="number of split seeds")
    p_fit.add_argument(
        "--train-fraction", type=float, dest="train_fraction"
    )
    p_fit.add_argument(
        "--no-standardize",
        action="store_false",
        dest="standardize",
        default=None,
        help="skip zero-mean unit-variance standardization",
    )
    p_fit.add_argument("--hmc-samples", type=int, dest="hmc_samples")
    p_fit.add_argument("--hmc-warmup", type=int, dest="hmc_warmup")
    p_fit.add_argument("--leapfrog", type=int)
    p_fit.set_defaults(func=cmd_fit_eval)

    p_sweep = sub.add_parser("sweep", help="bounds and risks over training sizes")
    add_common(p_sweep)
    p_sweep.add_argument("--n-grid", dest="n_grid", help="comma list of sizes")
    p_sweep.add_argument("--d", type=int)
    p_sweep.add_argument("--n-test", type=int, dest="n_test")
    p_sweep.add_argument("--sigma-sq", type=float, dest="sigma_sq")
    p_sweep.add_argument("--sigma-p-sq", type=float, dest="sigma_p_sq")
    p_sweep.add_argument("--sigma-x-sq", type=float, dest="sigma_x_sq")
    p_sweep.add_argument("--theta-star-norm-sq", type=float, dest="theta_star_norm_sq")
    p_sweep.add_argument("--delta", type=float)
    p_sweep.add_argument("--delta-hat", type=float, dest="delta_hat")
    p_sweep.add_argument("--beta", type=float)
    p_sweep.add_argument("--theorem", help="comma list or 'all'")
    p_sweep.add_argument("--seeds", type=int, help="seed repetitions per n")
    p_sweep.add_argument("--hmc-samples", type=int, dest="hmc_samples")
    p_sweep.add_argument("--hmc-warmup", type=int, dest="hmc_warmup")
    p_sweep.add_argument("--leapfrog", type=int)
    p_sweep.add_argument("--jobs", type=int, help="parallel (n, seed) cells")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PreconditionViolated, CgfRangeViolation, BudgetMismatch) as exc:
        print(f"certbayes: precondition violation: {exc}", file=sys.stderr)
        return 2
    except (DivergentTrajectory, NonFiniteDensity) as exc:
        print(f"certbayes: sampler failure: {exc}", file=sys.stderr)
        return 3
    except (CertBayesError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"certbayes: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
