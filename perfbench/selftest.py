"""Self-tests of the benchmark's checkers, ESS estimator, tracer and metric names.

Run with ``python3 perfbench/run.py --self-test``; it prints one line per test
and exits non-zero if any fails.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import traceback
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

import run
from ess import bulk_ess
from reference import Constants, bound_mismatches, oracle_bounds, spectral_bounds
from tracer import Tracer
from workloads import WORKLOADS, Captured, Certify, CsvPipeline, run_op, synthetic_dataset


def test_ess_matches_ar1():
    """AR(1) with coefficient rho has ESS n (1 - rho) / (1 + rho)."""
    rng = np.random.default_rng(20210101)
    n = 100_000
    for rho in (0.0, 0.5, 0.9):
        noise = rng.standard_normal(n) * math.sqrt(1.0 - rho * rho)
        series = lfilter([1.0], [1.0, -rho], noise)
        expected = n * (1.0 - rho) / (1.0 + rho)
        got = bulk_ess(series)
        assert abs(got / expected - 1.0) < 0.1, f"rho={rho}: ESS {got:.0f}, want {expected:.0f}"


def test_spectral_bounds_match_oracles():
    """The large-problem reference agrees with tests/oracles.py at 1e-9."""
    general = Constants(sigma_sq=1 / 9, sigma_p_sq=0.01, sigma_x_sq=1.0,
                        theta_star_norm_sq=0.5, delta=0.01, delta_hat=0.03)
    cases = [(60, 8, general), (30, 80, general),
             (200, 2000, WORKLOADS["wide-certify"].constants),
             (500, 10, WORKLOADS["csv-pipeline"].constants),
             (400, 5, WORKLOADS["synth-sweep"].constants)]
    for n, d, c in cases:
        data = synthetic_dataset(n, d, c, seed=n + d)
        problems = bound_mismatches(spectral_bounds(data.X, data.Y, c),
                                    oracle_bounds(data.X, data.Y, c))
        assert not problems, f"n={n} d={d}: {problems}"


def test_checker_flags_corrupted_bound(work: Path):
    workload = Certify(n=40, d=60)
    captured = Captured()
    captured.install()
    _, check = run_op(workload, 7, work, captured)
    assert not check.reasons, f"clean op flagged: {check.reasons}"
    path = work / "cert.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["reports"][2]["bound_value"] *= 1.0 + 1e-6
    path.write_text(json.dumps(payload), encoding="utf-8")
    reasons = workload.check(7, work, captured).reasons
    assert len(reasons) == 1 and reasons[0].startswith("RobustStd"), reasons


def test_checker_flags_truncated_csv(work: Path):
    from certbayes import cli

    workload = CsvPipeline(n=2000)
    captured = Captured()
    captured.install()
    _, check = run_op(workload, 11, work, captured)
    assert not check.reasons, f"clean op flagged: {check.reasons}"
    generate, certify = workload.commands(11, work)
    assert cli.main(generate) == 0
    data = work / "data.csv"
    lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
    data.write_text("".join(lines[:1001]), encoding="utf-8")
    captured.clear()
    assert cli.main(certify) == 0
    reasons = workload.check(11, work, captured).reasons
    assert any("digest" in r for r in reasons), reasons
    assert any("differs from generate_synthetic" in r for r in reasons), reasons


def test_tracer_wraps_and_restores(work: Path):
    from certbayes import cli, numerics, posterior

    before = (cli.main, cli.THEOREM_CHOICES["bayes-std"], posterior.spd_solve,
              numerics.SpdMatrix.from_array)
    tracer = Tracer()
    tracer.begin_op(0)
    with tracer.installed():
        assert cli.main is not before[0]
        assert cli.THEOREM_CHOICES["bayes-std"] is not before[1]
        assert cli.main(Certify(n=30, d=4).commands(3, work)[0]) == 0
    after = (cli.main, cli.THEOREM_CHOICES["bayes-std"], posterior.spd_solve,
             numerics.SpdMatrix.from_array)
    assert after == before, "tracer left a binding patched"
    calls, total, self_s = tracer.stats["cli.main"]
    assert calls == 1 and 0.0 < self_s < total
    assert tracer.stats["certificates.cert_bayes_standard"][0] == 1
    spans = tracer.spans_as_records()
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] == -1
    assert all(s["parent"] == 0 for s in spans if s["name"].startswith("certificates.cert_"))


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    op = {"seed": 0, "seconds": 1.0, "traced": False, "reasons": [], "min_ess": 0.0,
          "draws": 0, "accept_rates": [], "risks": {}}
    raw = {"ops": [op, dict(op, traced=True)], "peak_rss_mb": 1.0, "stats": {},
           "counters": Tracer().counters, "wrapper_us_per_call": 1.0}
    e2e = {name: unit for name, (_, unit) in run.end_to_end(raw, [1.0]).items()}
    layers = {name: unit for name, (_, unit) in run.per_layer(raw).items()}
    assert e2e == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert layers == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def main() -> int:
    tests = [test_ess_matches_ar1, test_spectral_bounds_match_oracles,
             test_checker_flags_corrupted_bound, test_checker_flags_truncated_csv,
             test_tracer_wraps_and_restores, test_metric_names_match_benchmark_json]
    run.WORK_DIR.mkdir(exist_ok=True)
    failures = 0
    for test in tests:
        work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR))
        try:
            test(work) if test.__code__.co_argcount else test()
            print(f"PASS {test.__name__}")
        except Exception:  # report every test, then fail the run
            failures += 1
            print(f"FAIL {test.__name__}\n{traceback.format_exc()}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0
