"""Command-line surface.

Commands
--------
gen-data   write a synthetic dataset (CSV plus a JSON sidecar with the spec)
certify    compute generalization certificates for a dataset
fit-eval   fit Bayes + robust posteriors and evaluate test risks
sweep      certificates and empirical risks over a grid of training sizes

Exit codes: 0 success, 1 usage or IO error, 2 certificate precondition
violation, 3 sampler divergence.

Flags override --config, a JSON object keyed by flag names with dashes
replaced by underscores, which overrides the defaults. Config values are
typed like the flags: an int option takes a JSON integer, a float option any
JSON number, ``standardize`` true or false, and ``target`` a header name or a
0-based column index; ``null`` leaves a key unset. Every output embeds the
resolved configuration and a digest of its inputs. The embedded
configuration leaves out --out and --jobs, and the options a run did not
read: --n, --d and --seed for ``certify --data``, --data and --target for
synthetic ``certify``, --seeds, --train-fraction and --data for
``fit-eval --train/--test``, and --train and --test for ``fit-eval --data``.
CERTBAYES_SEED sets the default base seed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import hashlib
import json
import os
import sys
from typing import Callable, NamedTuple, Optional

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
    TheoremId,
    _check_nonnegative,
    validate_dataset,
)
from .posterior import (
    HmcConfig,
    bayes_posterior,
    default_n_chains,
    expected_risk,
    hmc_sample,
    robust_log_density_grad,
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


def _digest_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def _digest_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _public_config(resolved: dict, unread=()) -> dict:
    """Resolved config minus the options not embedded (the output path and
    the worker count) and the options ``unread`` that this run ignored, for
    embedding in outputs: it describes what was computed, not where or how,
    so such reruns stay byte-identical."""
    return {
        k: v for k, v in resolved.items() if _OPTIONS[k].embed and k not in unread
    }


def _parse_theorems(spec: str) -> list[str]:
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        raise ValueError(f"--theorem lists no theorem: {spec!r}")
    if names == ["all"]:
        return list(THEOREM_CHOICES)
    if "all" in names:
        raise ValueError(f"--theorem 'all' must stand alone, got {spec!r}")
    for name in names:
        if name not in THEOREM_CHOICES:
            raise ValueError(
                f"unknown theorem {name!r}; choose from "
                f"{', '.join(THEOREM_CHOICES)} or 'all'"
            )
    return names


def _parse_list(spec: str, kind) -> list:
    return [kind(s) for s in spec.split(",") if s.strip()]


def _write_json(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _synthetic_spec(resolved: dict, n: int, seed: int) -> SyntheticSpec:
    """The synthetic-data spec of a resolved config, at n rows and seed."""
    return SyntheticSpec(
        n=n,
        d=resolved["d"],
        sigma_x_sq=resolved["sigma_x_sq"],
        sigma_sq=resolved["sigma_sq"],
        theta_star_norm_sq=resolved["theta_star_norm_sq"],
        seed=seed,
    )


def _certificate_inputs(resolved: dict):
    """(noise, prior, distribution spec, budget, beta) of a resolved config."""
    return (
        NoiseModel(resolved["sigma_sq"]),
        IsotropicPrior(resolved["sigma_p_sq"]),
        DataDistributionSpec(
            sigma_x_sq=resolved["sigma_x_sq"],
            theta_star_norm_sq=resolved["theta_star_norm_sq"],
        ),
        PerturbationBudget(
            delta_train=resolved["delta"], delta_test=resolved["delta_hat"]
        ),
        resolved["beta"],
    )


def _certificate(name: str, data: Dataset, noise, prior, dist, budget, beta):
    """Run one named certificate; bayes-std takes no perturbation budget."""
    fn = THEOREM_CHOICES[name]
    if name == "bayes-std":
        return fn(data, noise, prior, dist, beta)
    return fn(data, noise, prior, dist, budget, beta)


def _fit_and_score(
    train, test, noise, prior, delta: float, radii: dict, seed: int, resolved: dict
):
    """Fit and score the posteriors of one train/test pair.

    ``radii`` maps "bayes" and "robust" to the test radii each posterior is
    scored at, with one expected_risk call. The robust posterior is fitted by
    HMC at training radius delta, preconditioned by the Bayes precision and
    started from draws of the Bayes posterior, with the chains
    default_n_chains picks for the training size, only if it has radii.
    Returns the risks keyed by (posterior, radius) and the robust draws, or
    None. hmc_sample, expected_risk and robust_log_density_grad are called
    through this module's names so that callers can rebind them: the
    benchmark captures draw sets through ``cli.hmc_sample`` and times each
    gradient call through ``cli.robust_log_density_grad``, and tests record
    calls.
    """
    exact = bayes_posterior(train, noise, prior)
    posteriors = {"bayes": exact}
    if radii["robust"]:
        posteriors["robust"] = hmc_sample(
            lambda th, value=True: robust_log_density_grad(
                th, train, noise, prior, delta, value
            ),
            HmcConfig(
                n_samples=resolved["hmc_samples"],
                n_warmup=resolved["hmc_warmup"],
                leapfrog_steps=resolved["leapfrog"],
                seed=seed,
                n_chains=default_n_chains(train.n, resolved["hmc_samples"]),
            ),
            exact,
        )
    risks = {}
    for which, posterior in posteriors.items():
        if radii[which]:
            found = expected_risk(
                posterior, test, noise, radii[which],
                n_draws=resolved["hmc_samples"], seed=seed,
            )
            risks.update(((which, dh), risk) for dh, risk in zip(radii[which], found))
    return risks, posteriors.get("robust")


# --------------------------------------------------------------------------
# gen-data


def cmd_gen_data(resolved: dict) -> int:
    data, theta_star = generate_synthetic(
        _synthetic_spec(resolved, resolved["n"], resolved["seed"])
    )
    save_csv(data, resolved["out"])
    sidecar = {
        "config": _public_config(resolved),
        "theta_star": list(theta_star),
        "inputs_digest": _digest_file(resolved["out"]),
    }
    _write_json(sidecar, resolved["out"] + ".json")
    return 0


# --------------------------------------------------------------------------
# certify


def _load_or_generate(resolved: dict, config: dict) -> tuple[Dataset, str, str]:
    """Returns (dataset, inputs digest, distribution-spec source label); a
    synthetic dataset's digest hashes the embedded ``config``."""
    if resolved["data"]:
        data = load_csv(resolved["data"], resolved["target"])
        return data, _digest_file(resolved["data"]), "plug-in, not certified"
    if resolved["n"] is None or resolved["d"] is None:
        raise ValueError("provide --data or a synthetic spec (--n and --d)")
    data, _ = generate_synthetic(
        _synthetic_spec(resolved, resolved["n"], resolved["seed"])
    )
    digest = _digest_text(json.dumps(config, sort_keys=True))
    return data, digest, "synthetic"


def cmd_certify(resolved: dict) -> int:
    theorems = _parse_theorems(resolved["theorem"])  # before any data is read
    # A dataset read from a file leaves the synthetic spec unread, and a
    # synthetic one the file and its target column.
    unread = ("n", "d", "seed") if resolved["data"] else ("data", "target")
    config = _public_config(resolved, unread)
    data, digest, source = _load_or_generate(resolved, config)
    inputs = _certificate_inputs(resolved)
    reports = [_certificate(name, data, *inputs).to_dict() for name in theorems]
    _write_json(
        {
            "config": config,
            "inputs_digest": digest,
            "distribution_spec_source": source,
            "reports": reports,
        },
        resolved["out"],
    )
    return 0


# --------------------------------------------------------------------------
# fit-eval


def cmd_fit_eval(resolved: dict) -> int:
    # The radii, 0 and then each given one once, in order, are checked before
    # any file is read or any chain is run.
    _check_nonnegative("delta", resolved["delta"])
    radii = list(dict.fromkeys([0.0, *_parse_list(resolved["delta_hat"], float)]))
    for dh in radii:
        _check_nonnegative("delta_test", dh)
    # (train, test, seed) of each run: the given split, or one split per seed.
    if resolved["train"] or resolved["test"]:
        if not (resolved["train"] and resolved["test"]):
            raise ValueError("--train and --test must be given together")
        if resolved["data"]:
            raise ValueError("fit-eval takes --data or --train/--test, not both")
        train = load_csv(resolved["train"], resolved["target"])
        test = load_csv(resolved["test"], resolved["target"])
        if test.d != train.d:  # before any fit, standardized or not
            raise ValueError(f"train has {train.d} features but test has {test.d}")
        digest = _digest_file(resolved["train"]) + "+" + _digest_file(resolved["test"])
        pairs = [(train, test, resolved["seed"])]
        unread = ("seeds", "train_fraction", "data")  # the split is given
    else:
        if not resolved["data"]:
            raise ValueError("fit-eval requires --data or --train/--test")
        data = load_csv(resolved["data"], resolved["target"])
        digest = _digest_file(resolved["data"])
        seeds = range(resolved["seed"], resolved["seed"] + resolved["seeds"])
        pairs = [
            (*split(data, SplitSpec(train_fraction=resolved["train_fraction"], seed=seed)), seed)
            for seed in seeds
        ]
        unread = ("train", "test")

    runs = []
    for train, test, seed in pairs:
        if resolved["standardize"]:
            train, test = standardize_fit_transform(train, test)
        risks, hmc = _fit_and_score(
            train, test, NoiseModel(resolved["sigma_sq"]),
            IsotropicPrior(resolved["sigma_p_sq"]), resolved["delta"],
            {"bayes": radii, "robust": radii}, seed, resolved,
        )
        runs.append({
            "seed": seed,
            "n_train": train.n,
            "n_test": test.n,
            "hmc": {
                key: getattr(hmc, key)
                for key in (
                    "accept_rate", "divergences", "grad_evals", "max_leapfrog", "n_chains",
                    "step_size",
                )
            },
            "metrics": [
                {"delta_hat": dh, **{w: risks[w, dh]._asdict() for w in ("bayes", "robust")}}
                for dh in radii
            ],
        })

    # Across-seed mean and standard deviation per (posterior, delta_hat).
    summary = []
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
            "config": _public_config(resolved, unread),
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
        _synthetic_spec(resolved, n + resolved["n_test"], seed)
    )
    train = validate_dataset(full.X[:n], full.Y[:n])
    test = validate_dataset(full.X[n:], full.Y[n:])
    noise, prior, dist, budget, beta = _certificate_inputs(resolved)
    theorems = _parse_theorems(resolved["theorem"])

    # The posterior and test radius each theorem's row is scored at; each
    # posterior is fitted and scored only at the radii its rows need.
    scored = [
        (name.split("-")[0], 0.0 if name.endswith("-std") else budget.delta_test)
        for name in theorems
    ]
    radii = {w: sorted({dh for v, dh in scored if v == w}) for w in ("bayes", "robust")}
    risks, _ = _fit_and_score(train, test, noise, prior, budget.delta_train, radii, seed, resolved)
    reports = [
        _certificate(name, train, noise, prior, dist, budget, beta) for name in theorems
    ]

    return [
        {
            "n": n,
            "seed": seed,
            "theorem": report.theorem_id.value,
            "bound": report.bound_value,
            "cgf_c": report.cgf_c,
            "cgf_s_sq": report.cgf_s_sq,
            "beta": beta,
            "empirical_risk": risks[key].value,
            "risk_std_error": risks[key].std_error,
        }
        for key, report in zip(scored, reports)
    ]


def cmd_sweep(resolved: dict) -> int:
    theorems = _parse_theorems(resolved["theorem"])
    sizes = list(dict.fromkeys(_parse_list(resolved["n_grid"], int)))  # each once, in order
    if not sizes:
        raise ValueError(f"--n-grid lists no training sizes: {resolved['n_grid']!r}")
    # Refuse in cell order, before the first fit, what a cell would refuse
    # only after its HMC run: an invalid data spec (exit 1), then a failing
    # precondition (exit 2), which reads only n and d.
    noise, prior, dist, budget, beta = _certificate_inputs(resolved)
    for n in sizes:
        _synthetic_spec(resolved, n, resolved["seed"])
        for name in theorems:
            tid = TheoremId("".join(map(str.capitalize, name.split("-"))))  # bayes-adv: BayesAdv
            certs._require_preconditions(tid, noise, prior, dist, budget, n, resolved["d"], beta)
    cells = [
        (n, resolved["seed"] + rep, resolved)
        for n in sizes
        for rep in range(resolved["seeds"])
    ]
    # A process pool starts all its workers at the first submit; never start
    # more than there are cells.
    workers = min(resolved["jobs"], len(cells))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(cell) for cell in cells]

    rows = [row for cell_rows in results for row in cell_rows]
    rows.sort(key=lambda r: (r["n"], r["seed"], r["theorem"]))
    with open(resolved["out"], "w", newline="", encoding="utf-8") as fh:
        public = json.dumps(_public_config(resolved), sort_keys=True)
        fh.write(
            "# config: " + public + " inputs_digest: " + _digest_text(public) + "\n"
        )
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))  # _sweep_cell's order
        writer.writeheader()
        writer.writerows(rows)
    return 0


# --------------------------------------------------------------------------
# options: each declared once, in _OPTIONS (type, help) and _COMMANDS (the
# defaults of each command); the parser and _resolve are built from them.

_REQUIRED = object()  # a default: the command cannot run without the value
_ENV_SEED = object()  # a default: the integer CERTBAYES_SEED holds, 0 if unset


class _Option(NamedTuple):
    """An option's value type (int, float, str or bool) and help. A bool
    option is the flag --no-<name>, which sets it false. A config file may
    give ``kind``, a type in ``also``, or a JSON integer for a float."""

    kind: type
    help: str
    also: tuple = ()
    minimum: Optional[int] = None
    embed: bool = True  # False: outputs leave the value out of their config


class _Command(NamedTuple):
    handler: Callable[[dict], int]
    help: str
    defaults: dict  # option name -> default, _REQUIRED or _ENV_SEED


_OPTIONS = {
    "seed": _Option(int, "base seed (default CERTBAYES_SEED)", minimum=0),
    "out": _Option(str, "output path", embed=False),
    "data": _Option(str, "CSV dataset path"),
    "target": _Option(
        str, "target column header name (a config file may give a 0-based index)",
        also=(int,),
    ),
    "train": _Option(str, "pre-split training CSV"),
    "test": _Option(str, "pre-split test CSV"),
    "n": _Option(int, "synthetic rows"),
    "d": _Option(int, "synthetic features"),
    "n_grid": _Option(str, "comma list of training sizes"),
    "n_test": _Option(int, "synthetic test rows per (n, seed) cell", minimum=1),
    "sigma_sq": _Option(float, "noise variance"),
    "sigma_p_sq": _Option(float, "prior variance"),
    "sigma_x_sq": _Option(float, "feature variance"),
    "theta_star_norm_sq": _Option(float, "squared norm of the true parameter"),
    "delta": _Option(float, "training perturbation radius"),
    "delta_hat": _Option(float, "test perturbation radius"),
    ("fit-eval", "delta_hat"): _Option(str, "comma list of evaluation radii"),
    "beta": _Option(float, "confidence level of the certificates"),
    "theorem": _Option(str, "comma list or 'all'"),
    "seeds": _Option(int, "number of seeds: splits, or repetitions per n", minimum=1),
    "train_fraction": _Option(float, "share of rows in each training split"),
    "standardize": _Option(bool, "skip zero-mean unit-variance standardization"),
    "hmc_samples": _Option(int, "HMC draws kept", minimum=1),
    "hmc_warmup": _Option(int, "HMC warmup iterations, summed over the chains", minimum=1),
    "leapfrog": _Option(
        int, "upper bound on the warmup-adapted leapfrog steps per HMC iteration", minimum=1
    ),
    "jobs": _Option(int, "parallel (n, seed) cells", minimum=1, embed=False),
}

_COMMANDS = {
    "gen-data": _Command(cmd_gen_data, "generate a synthetic dataset", {
        "n": _REQUIRED, "d": _REQUIRED,
        "sigma_x_sq": 1.0, "sigma_sq": 1.0, "theta_star_norm_sq": 1.0,
        "seed": _ENV_SEED, "out": _REQUIRED,
    }),
    "certify": _Command(cmd_certify, "compute generalization certificates", {
        "data": None, "target": "y", "n": None, "d": None, "seed": _ENV_SEED,
        "sigma_sq": 1.0, "sigma_p_sq": _REQUIRED,
        "sigma_x_sq": _REQUIRED, "theta_star_norm_sq": _REQUIRED,
        "delta": 0.0, "delta_hat": 0.0, "beta": certs.DEFAULT_BETA,
        "theorem": "all", "out": None,
    }),
    "fit-eval": _Command(cmd_fit_eval, "fit posteriors and evaluate risks", {
        "data": None, "target": "y", "train": None, "test": None,
        "sigma_sq": 1.0, "sigma_p_sq": _REQUIRED, "delta": 0.0, "delta_hat": "0",
        "seed": _ENV_SEED, "seeds": 1, "train_fraction": 0.7, "standardize": True,
        "hmc_samples": 4000, "hmc_warmup": 2000, "leapfrog": 32, "out": None,
    }),
    "sweep": _Command(cmd_sweep, "bounds and risks over training sizes", {
        "n_grid": "10,100,1000,10000", "d": 5, "n_test": 10000,
        "sigma_sq": 1.0, "sigma_p_sq": _REQUIRED,
        "sigma_x_sq": 1.0, "theta_star_norm_sq": 1.0,
        "delta": 0.0, "delta_hat": 0.0, "beta": certs.DEFAULT_BETA,
        "theorem": _PLOTTED_DEFAULT, "seed": _ENV_SEED, "seeds": 5,
        "hmc_samples": 2000, "hmc_warmup": 1000, "leapfrog": 16, "jobs": 1,
        "out": _REQUIRED,
    }),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _options(command: str):
    """(name, default, table row) of each of a command's options; a
    (command, name) row overrides the shared one."""
    for name, default in _COMMANDS[command].defaults.items():
        yield name, default, _OPTIONS.get((command, name)) or _OPTIONS[name]


def _config_value(name: str, value, option: _Option):
    """A config-file value as its option's type; None means unset."""
    if value is None or type(value) in (option.kind, *option.also):
        return value
    if option.kind is float and type(value) is int:
        return float(value)
    expected = " or ".join(kind.__name__ for kind in (option.kind, *option.also))
    raise ValueError(f"config key {name!r} must be {expected}, got {json.dumps(value)}")


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """The command's options by precedence: flag > config file > default.

    Raises ValueError for a config file that is not a JSON object, an
    unknown config key, a config value of the wrong type, a CERTBAYES_SEED
    that is not an integer, a value below its option's minimum (naming the
    flag, config key or environment variable it came from), and a required
    option left unset.
    """
    defaults = _COMMANDS[command].defaults
    file_config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_config = json.load(fh)
        if not isinstance(file_config, dict):
            raise ValueError(f"config file must hold a JSON object, got {json.dumps(file_config)}")
        unknown = set(file_config) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown config keys {sorted(unknown)}; expected a subset of "
                f"{sorted(defaults)}"
            )
    resolved = {}
    for name, default, option in _options(command):
        value, source = getattr(args, name), _flag(name)
        if value is None:
            value = _config_value(name, file_config.get(name), option)
            source = f"config key {name!r}"
        if value is None:
            value, source = default, "the default"
        if value is _ENV_SEED:
            text, source = os.environ.get("CERTBAYES_SEED", "0"), "CERTBAYES_SEED"
            try:
                value = int(text)
            except ValueError:
                raise ValueError(f"{source} must be an integer, got {text!r}") from None
        if value is _REQUIRED:
            raise ValueError(f"{command} requires {_flag(name)}")
        if option.minimum is not None and value < option.minimum:
            raise ValueError(f"{source} must be at least {option.minimum}, got {value}")
        resolved[name] = value
    return resolved


@functools.cache
def build_parser() -> _Parser:
    """The argparse parser of every command, built once from ``_COMMANDS``;
    parsing leaves it unchanged, so every :func:`main` call shares it."""
    parser = _Parser(prog="certbayes", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        p.add_argument("--config", help="JSON config file; flags take precedence")
        for name, _, option in _options(command):
            flag, kwargs = _flag(name), {"type": option.kind}
            if option.kind is bool:
                flag, kwargs = _flag("no_" + name), {"action": "store_false", "default": None}
            p.add_argument(flag, dest=name, help=option.help, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command].handler(_resolve(args, args.command))
    except (PreconditionViolated, CgfRangeViolation, BudgetMismatch) as exc:
        print(f"certbayes: precondition violation: {exc}", file=sys.stderr)
        return 2
    except (DivergentTrajectory, NonFiniteDensity) as exc:
        print(f"certbayes: sampler failure: {exc}", file=sys.stderr)
        return 3
    except (CertBayesError, OSError, ValueError, OverflowError, csv.Error) as exc:
        print(f"certbayes: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
