"""certbayes benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload mpg-fit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

One run measures one workload. The workload runs in child processes with the
BLAS thread count pinned to one: ``SETUP_REPEATS`` fresh processes each time
their set-up (imports, inputs, a warm-up op), and the last of them then runs
ops back to back, one client in a closed loop, for ``--seconds``: at least
``MIN_OPS``, and a new op starts only while half a median op still fits
before the deadline, so a run ends within half an op of it. Op ``i``
uses seed ``1000 * seed + i``. Every op's output files are checked against
independent references between ops, outside the op's timing.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics. With ``--trace 1`` every other op runs under the span
tracer and the result carries the per-layer metrics instead; the untraced
ops of the same run give the tracing overhead. The lines before the result
print every metric by name and unit, and the environment block. Result
records and trace spans are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
SEED_STRIDE = 1000
MIN_OPS = 3
P90_MIN_OPS = 100
WORKLOAD_NAMES = ("mpg-fit", "synth-sweep", "wide-certify", "csv-pipeline")

CERTS = ("cert_bayes_standard", "cert_bayes_adversarial", "cert_robust_standard",
         "cert_robust_adversarial_matched", "cert_robust_adversarial_general")
GRAD = "posterior.robust_log_density_grad"


# --------------------------------------------------------------------------
# child process: set-up and the closed loop


def child_main(args) -> int:
    spawn_t = float(os.environ["PERFBENCH_SPAWN_T"])
    from environment import environment_block
    from tracer import Tracer, wrapper_cost_us
    from workloads import WORKLOADS, Captured, criterion_6_report, run_op

    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        captured = Captured()
        captured.install()
        base = args.seed * SEED_STRIDE
        run_op(workload.warmup(), base, work, captured)
        setup_s = time.monotonic() - spawn_t
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = Tracer()
        ops = []
        loop_start = time.perf_counter()
        while len(ops) < SEED_STRIDE - 1 and (
            len(ops) < MIN_OPS or time.perf_counter() - loop_start
            + statistics.median(op["seconds"] for op in ops) / 2 < args.seconds
        ):
            index = len(ops)
            traced = bool(args.trace) and index % 2 == 1
            if traced:
                tracer.begin_op(index)
                with tracer.installed():
                    seconds, check = run_op(workload, base + index, work, captured)
            else:
                seconds, check = run_op(workload, base + index, work, captured)
            ops.append({
                "seed": base + index, "seconds": seconds, "traced": traced,
                "reasons": check.reasons, "min_ess": check.min_ess,
                "draws": check.draws, "accept_rates": check.accept_rates,
                "risks": check.risks,
            })
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans_as_records():
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({
        "setup_s": setup_s, "ops": ops, "peak_rss_mb": rss_mb,
        "run_checks": criterion_6_report([op["risks"] for op in ops if op["risks"]]),
        "stats": tracer.stats, "counters": tracer.counters,
        "wrapper_us_per_call": wrapper_cost_us() if args.trace else 0.0,
        "environment": environment_block(ROOT),
    }))
    return 0


# --------------------------------------------------------------------------
# parent process: spawn, aggregate, report


def _spawn(args, extra, timeout):
    from environment import pinned_environment

    env = pinned_environment(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
    argv = [sys.executable, str(HERE / "run.py"), "--child",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(raw, setups):
    """The bounded metrics, from the untraced ops. Name -> (value, unit)."""
    seconds = [op["seconds"] for op in raw["ops"] if not op["traced"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(seconds), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def _run_figures(raw):
    """Figures defined only on some workloads or ops. Name -> (value, unit)."""
    untraced = [op for op in raw["ops"] if not op["traced"]]
    traced = [op for op in raw["ops"] if op["traced"]]
    seconds = [op["seconds"] for op in untraced]
    failed = sum(1 for op in raw["ops"] if op["reasons"])
    p90 = (statistics.quantiles(seconds, n=10)[-1]
           if len(seconds) >= P90_MIN_OPS else 0.0)
    ess_rates = [op["min_ess"] / op["seconds"] for op in untraced if op["draws"]]
    figures = {
        "run.ops_per_s": (len(seconds) / sum(seconds), "1/s"),
        "run.op_s_p90": (p90, "s"),
        "run.min_ess_per_s": (_median(ess_rates), "1/s"),
        "run.error_rate": (failed / len(raw["ops"]), "ratio"),
    }
    if traced:
        stats = raw["stats"]
        wrapped_calls = sum(s[0] for s in stats.values()) / len(traced)
        untraced_p50 = statistics.median(seconds)
        traced_p50 = statistics.median(op["seconds"] for op in traced)
        overhead = traced_p50 - untraced_p50
        figures.update({
            "run.op_s_p50_untraced": (untraced_p50, "s"),
            "run.op_s_p50_traced": (traced_p50, "s"),
            "run.tracing_overhead_s": (overhead, "s"),
            "run.tracing_overhead_us_per_call": (
                1e6 * overhead / wrapped_calls if wrapped_calls else 0.0, "us"),
            "run.tracing_wrapper_us_per_call": (raw["wrapper_us_per_call"], "us"),
        })
    return figures


def per_layer(raw):
    """The per-layer metrics of the traced ops. Name -> (value, unit)."""
    traced = [op for op in raw["ops"] if op["traced"]]
    n_ops = len(traced)
    op_seconds = sum(op["seconds"] for op in traced)
    stats, counters = raw["stats"], raw["counters"]

    def stat(fn, i):
        return stats.get(fn, [0, 0.0, 0.0])[i]

    out = {}

    def calls(fn):
        out[f"{fn}.calls"] = (stat(fn, 0) / n_ops, "count")

    def self_s(fn):
        out[f"{fn}.self_s"] = (stat(fn, 2) / n_ops, "s")

    for fn in (GRAD, "posterior.robust_log_density_unnorm",
               "adversarial_loss.gaussian_adv_nll", "posterior.expected_risk"):
        calls(fn)
        self_s(fn)
    out[f"{GRAD}.us_per_call"] = (
        1e6 * stat(GRAD, 1) / stat(GRAD, 0) if stat(GRAD, 0) else 0.0, "us")

    sampled = [op for op in raw["ops"] if op["draws"]]
    traced_draws = sum(op["draws"] for op in traced)
    self_s("posterior.hmc_sample")
    out["posterior.hmc_sample.grad_evals_per_draw"] = (
        stat(GRAD, 0) / traced_draws if traced_draws else 0.0, "count")
    out["posterior.hmc_sample.min_ess"] = (_median([op["min_ess"] for op in sampled]), "count")
    out["posterior.hmc_sample.ess_per_draw"] = (_median(
        [op["min_ess"] * len(op["accept_rates"]) / op["draws"] for op in sampled]), "ratio")
    rates = [r for op in sampled for r in op["accept_rates"]]
    out["posterior.hmc_sample.accept_rate"] = (statistics.fmean(rates) if rates else 0.0,
                                               "ratio")
    self_s("posterior.bayes_posterior")

    for cert in CERTS:
        self_s(f"certificates.{cert}")
    calls("certificates.validate_preconditions")

    for fn in ("numerics.SpdMatrix.from_array", "numerics.spd_solve",
               "numerics.spd_logdet", "numerics.quad_form_inv"):
        calls(fn)
        self_s(fn)
    out["numerics.SpdMatrix.from_array.flops_computed"] = (
        counters["numerics.SpdMatrix.from_array.flops"] / n_ops, "flop")
    out["numerics.SpdMatrix.from_array.bytes_computed"] = (
        counters["numerics.SpdMatrix.from_array.bytes"] / n_ops, "B")

    for fn in ("data_pipeline.load_csv", "data_pipeline.save_csv"):
        self_s(fn)
        moved = counters[f"{fn}.bytes"]
        out[f"{fn}.bytes"] = (moved / n_ops, "B")
        out[f"{fn}.mb_per_s"] = (moved / stat(fn, 1) / 1e6 if stat(fn, 1) else 0.0, "MB/s")
    for fn in ("generate_synthetic", "split", "standardize_fit_transform"):
        self_s(f"data_pipeline.{fn}")
    self_s("cli.main")

    def share(*fns):
        return (sum(stat(fn, 1) for fn in fns) / op_seconds, "ratio")

    out["share.gradient"] = share(GRAD)
    out["share.certificates_and_generate"] = share(
        *(f"certificates.{c}" for c in CERTS), "data_pipeline.generate_synthetic")
    out["share.csv_io"] = share("data_pipeline.load_csv", "data_pipeline.save_csv")
    out.update(_run_figures(raw))
    return out


def parent_main(args) -> int:
    if not (ROOT / "src" / "certbayes" / "__init__.py").is_file():
        print(f"perfbench: no certbayes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = [_spawn(args, ["--setup-only"], 120)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        raw = _spawn(args, [], args.seconds + 150)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(raw["setup_s"])

    attempted = len(raw["ops"])
    failed = sum(1 for op in raw["ops"] if op["reasons"])
    e2e = end_to_end(raw, setups)
    figures = per_layer(raw) if args.trace else _run_figures(raw)
    n_untraced = sum(1 for op in raw["ops"] if not op["traced"])

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} attempted={attempted} failed={failed}")
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "op_s_p50": f"n={n_untraced} untraced ops",
        "run.ops_per_s": "closed loop, 1 client; 1 / mean op seconds",
        "run.op_s_p90": f"0 when fewer than {P90_MIN_OPS} untraced ops",
        "run.min_ess_per_s": "0 on workloads without a sampler",
    }
    for name, (value, unit) in {**e2e, **figures}.items():
        print(f"  {name:52s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    for op in raw["ops"]:
        for reason in op["reasons"]:
            print(f"  FAILED op seed={op['seed']}: {reason}")
    for line in raw["run_checks"]:
        print(f"  {line}")
    print("environment " + json.dumps(raw["environment"], sort_keys=True))

    metrics = figures if args.trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "end_to_end": e2e, "figures": figures,
                   "setups": setups, "ops": raw["ops"],
                   "environment": raw["environment"]}, fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the checkers, the ESS estimator and the tracer")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.self_test:
        from environment import pinned_environment

        os.environ.update(pinned_environment({}))
        sys.path.insert(0, str(ROOT / "src"))
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
