"""Golden outputs of the command line, recorded before the certificate code
was refactored.

Each case runs ``cli.main(argv)`` in-process from the repository root and
compares its exit code, stdout, stderr and (for ``sweep`` and ``gen-data``)
the written CSV, or that none was written, with ``tests/golden/<case>.json``. Every float is compared at
1e-12 relative (1e-12 absolute where the recorded value is zero); every other
value, and any output that is not JSON or CSV, must match exactly. The
``gen-data`` CSV, line ends included, and its JSON sidecar must match byte for
byte, because the sidecar's digest is the SHA-256 of those bytes.

The recordings are the gate for refactors that must not change results.
Regenerate them only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

from certbayes import SyntheticSpec, cli, generate_synthetic, load_csv

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

_CONSTANTS = [
    "--sigma-sq", "0.1111111111111111", "--sigma-p-sq", "0.01",
    "--sigma-x-sq", "1.0", "--theta-star-norm-sq", "0.5",
]
_MATCHED = [*_CONSTANTS, "--delta", "0.01", "--delta-hat", "0.01"]
_HMC = ["--hmc-samples", "50", "--hmc-warmup", "50", "--leapfrog", "4"]

# name -> argv; a case whose command is in _WRITES_OUT also gets ``--out <file>``.
_WRITES_OUT = ("sweep", "gen-data")
CASES = {
    "certify_all_n300_d5": ["certify", "--n", "300", "--d", "5", *_MATCHED, "--theorem", "all"],
    "certify_all_n200_d2000": [
        "certify", "--n", "200", "--d", "2000", *_MATCHED, "--theorem", "all",
    ],
    "certify_all_delta_zero": [
        "certify", "--n", "300", "--d", "5", *_CONSTANTS, "--delta", "0.0",
        "--delta-hat", "0.0", "--theorem", "all",
    ],
    "certify_all_n1_d3": ["certify", "--n", "1", "--d", "3", *_MATCHED, "--theorem", "all"],
    "certify_all_auto_mpg": [
        "certify", "--data", "data/auto_mpg.csv", "--target", "mpg", *_MATCHED,
        "--theorem", "all",
    ],
    "certify_general_test_budget_larger": [
        "certify", "--n", "300", "--d", "5", *_CONSTANTS, "--delta", "0.01",
        "--delta-hat", "0.03", "--theorem", "bayes-adv,robust-adv-general",
    ],
    "certify_general_test_budget_smaller": [
        "certify", "--n", "300", "--d", "5", *_CONSTANTS, "--delta", "0.03",
        "--delta-hat", "0.01", "--theorem", "bayes-adv,robust-adv-general",
    ],
    "certify_budget_mismatch": [
        "certify", "--n", "300", "--d", "5", *_CONSTANTS, "--theorem",
        "robust-adv-matched", "--delta", "0.01", "--delta-hat", "0.02",
    ],
    "certify_denominator_fails": [
        "certify", "--theorem", "bayes-adv", "--n", "300000", "--d", "5",
        "--delta", "0.1", "--delta-hat", "0.1", "--sigma-sq", "0.1111111111111111",
        "--sigma-p-sq", "5e-5", "--sigma-x-sq", "1.0", "--theta-star-norm-sq", "0.5",
    ],
    "fit_eval_auto_mpg": [
        "fit-eval", "--data", "data/auto_mpg.csv", "--target", "mpg",
        "--sigma-p-sq", "0.05", *_HMC,
    ],
    "gen_data_n200_d3": [
        "gen-data", "--n", "200", "--d", "3", "--sigma-sq", "0.1111111111111111",
        "--sigma-x-sq", "1.0", "--theta-star-norm-sq", "0.5", "--seed", "0",
    ],
    "sweep_all": [
        "sweep", "--n-grid", "10,20", "--d", "2", "--n-test", "50", "--seeds", "1",
        "--sigma-p-sq", "0.25", "--delta", "0.1", "--delta-hat", "0.1", *_HMC,
        "--theorem", "all",
    ],
    "sweep_denominator_fails": [
        "sweep", "--n-grid", "10,2000", "--d", "2", "--n-test", "50", "--seeds", "2",
        "--sigma-p-sq", "0.25", "--delta", "0.1", "--delta-hat", "0.1", *_HMC,
        "--theorem", "all",
    ],
}


def _run(argv: list, out_dir: Path) -> dict:
    """Run one case; returns what the golden file records."""
    out = out_dir / "out.csv" if argv[0] in _WRITES_OUT else None
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + (["--out", str(out)] if out else []))
    record = {
        "argv": argv,
        "exit_code": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "out": out.read_text(encoding="utf-8") if out and out.exists() else None,
    }
    if argv[0] == "gen-data":  # read_text would turn its CRLF line ends into LF
        record["out"] = out.read_bytes().decode("utf-8")
        record["sidecar"] = Path(f"{out}.json").read_bytes().decode("utf-8")
    return record


def _scalar(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _parsed(text):
    """JSON or CSV output as values, so floats compare with a tolerance."""
    if text is None or not text.strip():
        return text
    if text.startswith("# config: "):
        first, rest = text.split("\n", 1)
        return [first] + [[_scalar(c) for c in row] for row in csv.reader(io.StringIO(rest))]
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _mismatches(got, want, where="$"):
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        tol = RTOL * abs(want) if want != 0.0 else RTOL
        close = math.isfinite(got) and abs(got - want) <= tol
        return [] if close or got == want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


@pytest.fixture(autouse=True)
def _from_root(monkeypatch):
    monkeypatch.delenv("CERTBAYES_SEED", raising=False)
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert want["argv"] == CASES[name], "case changed; its golden file is stale"
    got = _run(CASES[name], tmp_path)
    assert got["exit_code"] == want["exit_code"], got["stderr"]
    problems = [
        m
        for key in ("stdout", "stderr", "out")
        for m in _mismatches(_parsed(got[key]), _parsed(want[key]), key)
    ]
    assert not problems, "\n".join(problems[:20])
    assert got.get("sidecar") == want.get("sidecar")


def test_golden_gen_data_csv_loads_bit_for_bit(tmp_path):
    want = json.loads((GOLDEN / "gen_data_n200_d3.json").read_text(encoding="utf-8"))
    path = tmp_path / "golden.csv"
    path.write_bytes(want["out"].encode("utf-8"))
    data, _ = generate_synthetic(
        SyntheticSpec(n=200, d=3, sigma_x_sq=1.0, sigma_sq=0.1111111111111111,
                      theta_star_norm_sq=0.5, seed=0)
    )
    loaded = load_csv(path, "y")
    assert loaded.X.tobytes() == data.X.tobytes()
    assert loaded.Y.tobytes() == data.Y.tobytes()


def _write_all() -> None:
    import os
    import tempfile

    os.environ.pop("CERTBAYES_SEED", None)
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            record = _run(argv, Path(tmp))
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {name}: exit {record['exit_code']}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    _write_all()
