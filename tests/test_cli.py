"""End-to-end checks of the command-line surface.

Everything runs in-process through cli.main(argv) so coverage and monkeypatch
work. One subprocess test confirms the console-script wiring: it builds the
`certbayes` launcher from the `[project.scripts]` declaration in
pyproject.toml and runs it by name, so it needs no install. Two more check
`python -m certbayes.cli` and what importing the CLI loads.
"""

import concurrent.futures
import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import certbayes
from certbayes import cli, posterior
from certbayes.errors import DivergentTrajectory
from certbayes.posterior import expected_risk


AUTO_MPG = str(Path(__file__).resolve().parents[1] / "data" / "auto_mpg.csv")
# A fit-eval on auto-mpg with a short sampler run.
FIT_EVAL = [
    "fit-eval", "--data", AUTO_MPG, "--target", "mpg", "--sigma-p-sq", "0.05",
    "--hmc-warmup", "10", "--leapfrog", "2",
]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("CERTBAYES_SEED", raising=False)


def _gen(tmp_path, name="d.csv", n=40, d=2, extra=()):
    out = tmp_path / name
    rc = cli.main(
        ["gen-data", "--n", str(n), "--d", str(d), "--out", str(out), *extra]
    )
    assert rc == 0
    return out


# --- gen-data ---------------------------------------------------------------


def test_gen_data_writes_csv_and_sidecar(tmp_path):
    out = _gen(tmp_path)
    assert out.exists()
    sidecar = json.loads((tmp_path / "d.csv.json").read_text())
    assert set(sidecar) == {"config", "theta_star", "inputs_digest"}
    assert sidecar["config"]["n"] == 40
    assert sidecar["inputs_digest"].startswith("sha256:")
    assert len(sidecar["theta_star"]) == 2
    header = out.read_text().splitlines()[0]
    assert header == "x1,x2,y"


def test_gen_data_same_seed_same_bytes(tmp_path):
    a = _gen(tmp_path, "a.csv", extra=("--seed", "3"))
    b = _gen(tmp_path, "b.csv", extra=("--seed", "3"))
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_invalid_spec_exits_1(tmp_path, capsys):
    rc = cli.main(["gen-data", "--n", "0", "--d", "2", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_env_seed_matches_explicit_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("CERTBAYES_SEED", "9")
    a = _gen(tmp_path, "env.csv")
    monkeypatch.delenv("CERTBAYES_SEED")
    b = _gen(tmp_path, "flag.csv", extra=("--seed", "9"))
    assert a.read_bytes() == b.read_bytes()
    assert json.loads((tmp_path / "env.csv.json").read_text())["config"]["seed"] == 9


@pytest.mark.parametrize(
    "env, flags, config, named",
    [
        ("abc", [], None, "CERTBAYES_SEED must be an integer, got 'abc'"),
        ("", [], None, "CERTBAYES_SEED must be an integer, got ''"),
        ("-3", [], None, "CERTBAYES_SEED must be at least 0, got -3"),
        (None, ["--seed", "-1"], None, "--seed must be at least 0, got -1"),
        (None, [], {"seed": -2}, "config key 'seed' must be at least 0, got -2"),
    ],
    ids=["env-abc", "env-empty", "env-negative", "flag-negative", "config-negative"],
)
def test_bad_seed_exits_1_naming_its_source(
    env, flags, config, named, tmp_path, monkeypatch, capsys
):
    if env is not None:
        monkeypatch.setenv("CERTBAYES_SEED", env)
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        flags = ["--config", str(tmp_path / "c.json")]
    out = tmp_path / "d.csv"
    rc = cli.main(["gen-data", "--n", "4", "--d", "2", "--out", str(out), *flags])
    assert rc == 1
    assert f"certbayes: error: {named}" in capsys.readouterr().err
    assert not out.exists()


# --- certify -----------------------------------------------------------------


def test_certify_degenerate_dataset_bound_is_one(tmp_path):
    data = tmp_path / "zero.csv"
    data.write_text("x1,y\n0,0\n")
    out = tmp_path / "cert.json"
    rc = cli.main(
        [
            "certify", "--data", str(data), "--sigma-sq", "1", "--sigma-p-sq", "0.5",
            "--sigma-x-sq", "1", "--theta-star-norm-sq", "0", "--beta", "1",
            "--theorem", "bayes-std", "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["distribution_spec_source"] == "plug-in, not certified"
    (report,) = payload["reports"]
    assert report["theorem_id"] == "BayesStd"
    assert report["bound_value"] == 1.0


def test_certify_all_theorems_to_stdout(capsys):
    rc = cli.main(
        [
            "certify", "--n", "30", "--d", "3", "--seed", "1",
            "--sigma-p-sq", "0.05", "--sigma-x-sq", "1.0",
            "--theta-star-norm-sq", "0.5", "--delta", "0.1", "--delta-hat", "0.1",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distribution_spec_source"] == "synthetic"
    by_id = {r["theorem_id"]: r for r in payload["reports"]}
    assert set(by_id) == {
        "BayesStd", "BayesAdv", "RobustStd", "RobustAdvMatched", "RobustAdvGeneral"
    }
    for r in by_id.values():
        assert np.isfinite(r["bound_value"])
    # with delta_hat == delta the matched certificate is the sharper one
    assert by_id["RobustAdvMatched"]["bound_value"] <= by_id["RobustAdvGeneral"]["bound_value"]


def test_certify_precondition_violation_exits_2(capsys):
    rc = cli.main(
        [
            "certify", "--n", "10", "--d", "2", "--sigma-p-sq", "2.0",
            "--sigma-x-sq", "1.0", "--theta-star-norm-sq", "1.0",
            "--theorem", "bayes-std",
        ]
    )
    assert rc == 2
    assert "precondition violation" in capsys.readouterr().err


def test_certify_missing_required_flag_exits_1(capsys):
    rc = cli.main(["certify", "--n", "10", "--d", "2"])
    assert rc == 1
    assert "sigma-p-sq" in capsys.readouterr().err


def test_certify_missing_file_exits_1(tmp_path, capsys):
    rc = cli.main(
        [
            "certify", "--data", str(tmp_path / "nope.csv"), "--sigma-p-sq", "0.1",
            "--sigma-x-sq", "1", "--theta-star-norm-sq", "1",
        ]
    )
    assert rc == 1


def test_certify_field_over_csv_limit_exits_1(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text("x1,y\n" + "1" * 131073 + ",2\n", encoding="utf-8")
    rc = cli.main([
        "certify", "--data", str(path), "--sigma-p-sq", "0.1",
        "--sigma-x-sq", "1", "--theta-star-norm-sq", "1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("certbayes: error: ") and "field larger than field limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--sigma-p-sq", "0.1", "--sigma-x-sq", "1", "--theta-star-norm-sq", "1"],
         "provide --data or a synthetic spec (--n and --d)"),
        (["fit-eval", "--train", AUTO_MPG, "--sigma-p-sq", "0.25"],
         "--train and --test must be given together"),
        (["fit-eval", "--sigma-p-sq", "0.25"], "fit-eval requires --data or --train/--test"),
    ],
    ids=["certify-no-data", "fit-eval-train-only", "fit-eval-no-data"],
)
def test_missing_input_exits_1(argv, message, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert f"certbayes: error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_exits_1(capsys):
    rc = cli.main(["certify", "--bogus", "1"])
    assert rc == 1


# --- config file -----------------------------------------------------------------


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "d": 2, "sigma_x_sq": 2.0}))
    a = _gen(tmp_path, "a.csv", n=5, d=2, extra=("--sigma-x-sq", "1.0"))
    out_b = tmp_path / "b.csv"
    rc = cli.main(
        [
            "gen-data", "--config", str(cfg), "--sigma-x-sq", "1.0",
            "--out", str(out_b),
        ]
    )
    assert rc == 0
    # n and d came from the config; the flag overrode sigma_x_sq
    assert a.read_bytes() == out_b.read_bytes()
    sidecar = json.loads((tmp_path / "b.csv.json").read_text())
    assert sidecar["config"]["n"] == 5
    assert sidecar["config"]["sigma_x_sq"] == 1.0


def test_config_file_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = cli.main(
        ["gen-data", "--config", str(cfg), "--n", "5", "--d", "2",
         "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


def _every_option(tmp_path):
    """case -> (command, a value for every option the command takes but out).

    The values carry the JSON types that argparse gives the flags, so a
    config file holding them must resolve to exactly what the flags do.
    """
    data = _gen(tmp_path, "data.csv", n=60, d=2)
    train = _gen(tmp_path, "train.csv", n=30, d=2, extra=("--seed", "1"))
    test = _gen(tmp_path, "test.csv", n=30, d=2, extra=("--seed", "2"))
    constants = {
        "sigma_sq": 0.5, "sigma_p_sq": 0.05, "sigma_x_sq": 1.0,
        "theta_star_norm_sq": 0.5, "delta": 0.1, "delta_hat": 0.1, "beta": 0.1,
    }
    hmc = {"hmc_samples": 50, "hmc_warmup": 50, "leapfrog": 4}
    return {
        "gen-data": ("gen-data", {
            "n": 40, "d": 2, "sigma_x_sq": 2.0, "sigma_sq": 0.5,
            "theta_star_norm_sq": 0.5, "seed": 3,
        }),
        "certify": ("certify", {
            "data": str(data), "target": "y", "n": 30, "d": 3, "seed": 3,
            **constants, "theorem": "all",
        }),
        "fit-eval": ("fit-eval", {
            "train": str(train), "test": str(test),
            "target": "y", "sigma_sq": 0.5, "sigma_p_sq": 0.25, "delta": 0.1,
            "delta_hat": "0,0.1", "seed": 3, "seeds": 2, "train_fraction": 0.6,
            "standardize": False, **hmc,
        }),
        # --data and --train/--test exclude each other.
        "fit-eval, split from --data": ("fit-eval", {
            "data": str(data), "target": "y", "sigma_sq": 0.5, "sigma_p_sq": 0.25,
            "delta": 0.1, "delta_hat": "0,0.1", "seed": 3, "seeds": 2,
            "train_fraction": 0.6, "standardize": False, **hmc,
        }),
        "sweep": ("sweep", {
            "n_grid": "10,20", "d": 2, "n_test": 50, **constants, "theorem": "all",
            "seed": 3, "seeds": 1, **hmc, "jobs": 1,
        }),
        # A config file may write a whole-valued float as a JSON integer.
        "certify, floats as JSON integers": ("certify", {
            "n": 30, "d": 3, "seed": 3, "sigma_sq": 1, "sigma_p_sq": 0.05,
            "sigma_x_sq": 1, "theta_star_norm_sq": 1, "delta": 0, "delta_hat": 0,
            "beta": 1, "theorem": "all",
        }),
    }


@pytest.mark.parametrize("case", [
    "gen-data", "certify", "fit-eval", "fit-eval, split from --data", "sweep",
    "certify, floats as JSON integers",
])
def test_config_file_matches_flags(case, tmp_path):
    """One run with every option as a flag and one with the same values in a
    --config file write byte-identical outputs."""
    command, values = _every_option(tmp_path)[case]
    flags = []
    for name, value in values.items():
        if value is False:
            flags.append(f"--no-{name}")
        else:
            flags += ["--" + name.replace("_", "-"), str(value)]
    suffix = ".csv" if command in ("gen-data", "sweep") else ".json"
    by_flags, by_config = tmp_path / f"flags{suffix}", tmp_path / f"config{suffix}"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**values, "out": str(by_config)}))

    assert cli.main([command, *flags, "--out", str(by_flags)]) == 0
    assert cli.main([command, "--config", str(cfg)]) == 0
    assert by_config.read_bytes() == by_flags.read_bytes()
    if command == "gen-data":
        sidecar = Path(f"{by_config}.json").read_bytes()
        assert sidecar == Path(f"{by_flags}.json").read_bytes()


def test_outputs_embed_only_the_options_read(tmp_path):
    """certify --data reads no synthetic spec and synthetic certify no file,
    fit-eval --train/--test no split settings and fit-eval --data no pre-split
    files, so their configs leave those out; the other modes keep them. The
    synthetic digest hashes the embedded config, so an unread option cannot
    move it."""
    data = _gen(tmp_path, "data.csv", n=30, d=2)
    constants = ["--sigma-p-sq", "0.05", "--sigma-x-sq", "1", "--theta-star-norm-sq", "0.5"]
    hmc = ["--sigma-p-sq", "0.25", "--hmc-samples", "20", "--hmc-warmup", "10",
           "--leapfrog", "2", "--seeds", "2", "--train-fraction", "0.6"]
    synthetic = ["certify", "--n", "5", "--d", "2", "--seed", "4", *constants]
    runs = {
        "certify-data": ["certify", "--data", str(data), "--n", "5", "--d", "2",
                         "--seed", "4", *constants],
        "certify-synthetic": synthetic,
        "certify-synthetic-target": [*synthetic, "--target", "z"],
        "fit-eval-split": ["fit-eval", "--train", str(data), "--test", str(data), *hmc],
        "fit-eval-data": ["fit-eval", "--data", str(data), *hmc],
    }
    outputs = {}
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        assert cli.main([*argv, "--out", str(out)]) == 0
        outputs[name] = json.loads(out.read_text())
    configs = {name: output["config"] for name, output in outputs.items()}
    assert not {"n", "d", "seed"} & set(configs["certify-data"])
    assert {"data", "target"} <= set(configs["certify-data"])
    assert {"n", "d", "seed"} <= set(configs["certify-synthetic"])
    assert not {"data", "target"} & set(configs["certify-synthetic"])
    assert outputs["certify-synthetic-target"] == outputs["certify-synthetic"]
    assert not {"seeds", "train_fraction", "data"} & set(configs["fit-eval-split"])
    assert {"train", "test"} <= set(configs["fit-eval-split"])
    assert {"seeds", "train_fraction", "data"} <= set(configs["fit-eval-data"])
    assert not {"train", "test"} & set(configs["fit-eval-data"])


@pytest.mark.parametrize("config, argv, named", [
    ({"hmc_samples": 20.9}, FIT_EVAL, "'hmc_samples'"),
    ({"standardize": "false"}, FIT_EVAL, "'standardize'"),
    ({"d": [5]}, ["gen-data", "--n", "5"], "'d'"),
    (5, ["gen-data", "--n", "5", "--d", "2"], "JSON object"),
    ({"sigma_sq": 10**400}, ["gen-data", "--n", "5", "--d", "2"], "too large"),
], ids=["float-for-int", "string-for-bool", "list-for-int", "not-an-object", "huge"])
def test_config_value_of_wrong_type_exits_1(config, argv, named, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("certbayes: error: ") and named in err
    assert "Traceback" not in err


def test_config_null_means_unset(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "d": 2, "sigma_sq": None}))
    by_config = tmp_path / "config.csv"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(by_config)]) == 0
    by_flags = _gen(tmp_path, "flags.csv", n=5, d=2)
    assert by_config.read_bytes() == by_flags.read_bytes()
    assert Path(f"{by_config}.json").read_bytes() == Path(f"{by_flags}.json").read_bytes()


def test_config_target_may_be_a_column_index(tmp_path):
    """--target takes a header name; a config file may also give an index."""
    data = _gen(tmp_path, "d.csv", n=30, d=2)  # columns x1, x2, y
    argv = [
        "certify", "--data", str(data), "--sigma-p-sq", "0.05", "--sigma-x-sq", "1",
        "--theta-star-norm-sq", "0.5",
    ]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target": 2}))
    by_index, by_name = tmp_path / "index.json", tmp_path / "name.json"
    assert cli.main([*argv, "--config", str(cfg), "--out", str(by_index)]) == 0
    assert cli.main([*argv, "--target", "y", "--out", str(by_name)]) == 0
    reports = [json.loads(p.read_text())["reports"] for p in (by_index, by_name)]
    assert reports[0] == reports[1]


# --- fit-eval -----------------------------------------------------------------------


def test_fit_eval_structure(tmp_path):
    data = _gen(tmp_path, "fe.csv", n=40, d=2)
    out = tmp_path / "fe.json"
    rc = cli.main(
        [
            "fit-eval", "--data", str(data), "--sigma-p-sq", "0.25",
            "--delta", "0.1", "--delta-hat", "0,0.1", "--seeds", "2",
            "--hmc-samples", "200", "--hmc-warmup", "100", "--leapfrog", "8",
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["runs"]) == 2
    for run in payload["runs"]:
        assert run["n_train"] == 28 and run["n_test"] == 12
        assert 0.0 < run["hmc"]["accept_rate"] <= 1.0
        assert [m["delta_hat"] for m in run["metrics"]] == [0.0, 0.1]
        for m in run["metrics"]:
            for which in ("bayes", "robust"):
                assert np.isfinite(m[which]["value"])
                assert m[which]["std_error"] >= 0.0
    assert [s["delta_hat"] for s in payload["summary"]] == [0.0, 0.1]
    for s in payload["summary"]:
        assert s["bayes"]["sd"] >= 0.0 and s["robust"]["sd"] >= 0.0


def _record_hmc_calls(monkeypatch):
    """Route the CLI's hmc_sample through a recorder that still samples."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[1])  # the config
        return posterior.hmc_sample(*args, **kwargs)

    monkeypatch.setattr(cli, "hmc_sample", recording)
    return calls


@pytest.mark.parametrize("flag, named", [("--delta-hat", "delta_test"), ("--delta", "delta")])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
def test_fit_eval_non_finite_radius_exits_1(flag, named, value, tmp_path, monkeypatch, capsys):
    """The wording certify and sweep already print for a bad test radius,
    given before anything is sampled."""
    sampled = _record_hmc_calls(monkeypatch)
    out = tmp_path / "fe.json"
    rc = cli.main([*FIT_EVAL, "--hmc-samples", "20", flag, value, "--out", str(out)])
    assert rc == 1
    assert f"certbayes: error: {named} must be finite and >= 0, got {value}" in (
        capsys.readouterr().err
    )
    assert not out.exists()
    assert sampled == []


def _count_risk_calls(monkeypatch):
    """Route the CLI's expected_risk through a recorder of the radii each
    call was given, keyed by posterior type."""
    calls = []

    def recording(posterior, test, noise, radii, **kwargs):
        calls.append((type(posterior).__name__, np.ravel(radii).tolist()))
        return expected_risk(posterior, test, noise, radii, **kwargs)

    monkeypatch.setattr(cli, "expected_risk", recording)
    return calls


def test_fit_eval_scores_each_posterior_once(tmp_path, monkeypatch):
    argv = [*FIT_EVAL, "--hmc-samples", "20", "--delta-hat", "0.2,0,0.1"]
    plain, counted = tmp_path / "plain.json", tmp_path / "counted.json"
    assert cli.main([*argv, "--out", str(plain)]) == 0
    calls = _count_risk_calls(monkeypatch)
    assert cli.main([*argv, "--out", str(counted)]) == 0
    assert calls == [("GaussianPosterior", [0.0, 0.2, 0.1]), ("SampleSet", [0.0, 0.2, 0.1])]
    assert counted.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize(
    "theorem, expected",
    [
        ("all", [("GaussianPosterior", [0.0, 0.1]), ("SampleSet", [0.0, 0.1])]),
        ("bayes-std", [("GaussianPosterior", [0.0])]),
        ("robust-adv-matched,robust-adv-general", [("SampleSet", [0.1])]),
    ],
)
def test_sweep_scores_each_posterior_once_per_cell(theorem, expected, tmp_path, monkeypatch):
    """One expected_risk call per posterior and cell, over only the radii the
    cell's theorems need; a posterior no theorem scores gets no call."""
    argv = [
        "sweep", "--n-grid", "10,20", "--d", "2", "--n-test", "50", "--sigma-p-sq", "0.25",
        "--delta", "0.1", "--delta-hat", "0.1", "--seeds", "1", "--theorem", theorem,
        "--hmc-samples", "30", "--hmc-warmup", "30", "--leapfrog", "4",
    ]
    plain, counted = tmp_path / "plain.csv", tmp_path / "counted.csv"
    assert cli.main([*argv, "--out", str(plain)]) == 0
    calls = _count_risk_calls(monkeypatch)
    assert cli.main([*argv, "--out", str(counted)]) == 0
    assert calls == expected * 2  # two cells
    assert counted.read_bytes() == plain.read_bytes()


def test_fit_eval_writes_each_radius_once(tmp_path):
    """A repeated radius, 0 among them, gets one entry, at its first place;
    the embedded config keeps the list as given."""
    out = tmp_path / "fe.json"
    argv = [*FIT_EVAL, "--hmc-samples", "20", "--delta-hat", "0.1,0,0.1,0.2,0.1"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    (run,) = payload["runs"]
    assert [m["delta_hat"] for m in run["metrics"]] == [0.0, 0.1, 0.2]
    assert [s["delta_hat"] for s in payload["summary"]] == [0.0, 0.1, 0.2]
    assert payload["config"]["delta_hat"] == "0.1,0,0.1,0.2,0.1"


def test_sweep_runs_each_size_once(tmp_path, monkeypatch):
    """A repeated size is fitted and written once per seed; the embedded
    config keeps the grid as given."""
    sampled = _record_hmc_calls(monkeypatch)
    out = tmp_path / "sw.csv"
    rc = cli.main([
        "sweep", "--n-grid", "10,20,10", "--d", "2", "--n-test", "50", "--sigma-p-sq", "0.25",
        "--delta", "0.1", "--delta-hat", "0.1", "--seeds", "1", "--theorem", "robust-std",
        "--hmc-samples", "30", "--hmc-warmup", "30", "--leapfrog", "4", "--out", str(out),
    ])
    assert rc == 0
    assert len(sampled) == 2
    lines = out.read_text().splitlines()
    assert '"n_grid": "10,20,10"' in lines[0]
    assert [line.split(",")[:2] for line in lines[2:]] == [["10", "0"], ["20", "0"]]


def test_fit_eval_divergence_exits_3(tmp_path, monkeypatch, capsys):
    data = _gen(tmp_path, "dv.csv", n=20, d=2)

    def boom(*args, **kwargs):
        raise DivergentTrajectory("forced for the exit-code contract")

    monkeypatch.setattr(cli, "hmc_sample", boom)
    rc = cli.main(
        ["fit-eval", "--data", str(data), "--sigma-p-sq", "0.25",
         "--out", str(tmp_path / "x.json")]
    )
    assert rc == 3
    assert "sampler failure" in capsys.readouterr().err


# --- sweep ----------------------------------------------------------------------


def test_sweep_csv_shape_and_determinism(tmp_path):
    args = [
        "sweep", "--n-grid", "10,20", "--d", "2", "--n-test", "50",
        "--sigma-p-sq", "0.25", "--seeds", "2", "--theorem", "bayes-std",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    lines = out_a.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert "inputs_digest: sha256:" in lines[0]
    assert lines[1] == "n,seed,theorem,bound,cgf_c,cgf_s_sq,beta,empirical_risk,risk_std_error"
    rows = [line.split(",") for line in lines[2:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("10", "0"), ("10", "1"), ("20", "0"), ("20", "1")
    ]
    assert all(r[2] == "BayesStd" for r in rows)
    assert all(np.isfinite(float(r[3])) for r in rows)


def test_sweep_jobs_never_exceed_cells(tmp_path, monkeypatch):
    """--jobs asks the pool for at most one worker per (n, seed) cell, runs a
    single cell in-process, and leaves the rows unchanged. The pool is a fake
    that maps in-process, so no worker is ever started."""
    asked = []

    class InProcessPool:
        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    args = [
        "sweep", "--n-test", "50", "--d", "2", "--sigma-p-sq", "0.25",
        "--seeds", "1", "--theorem", "bayes-std",
    ]
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert cli.main(args + ["--n-grid", "10,20", "--out", str(serial)]) == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    assert cli.main(args + ["--n-grid", "10,20", "--jobs", "8", "--out", str(pooled)]) == 0
    assert asked == [2]
    assert pooled.read_bytes() == serial.read_bytes()

    one = tmp_path / "one.csv"
    assert cli.main(args + ["--n-grid", "10", "--jobs", "8", "--out", str(one)]) == 0
    assert asked == [2], "a single cell must run without a pool"
    assert len(one.read_text().splitlines()) == 3


_SWEEP = ["sweep", "--sigma-p-sq", "0.25", "--n-grid", "100"]


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (FIT_EVAL, "--seeds", "0"),
        (_SWEEP, "--seeds", "0"),
        (FIT_EVAL, "--hmc-samples", "0"),
        (FIT_EVAL, "--hmc-warmup", "0"),
        (FIT_EVAL, "--leapfrog", "0"),
        (_SWEEP, "--leapfrog", "-1"),
        (_SWEEP, "--n-test", "0"),
        (_SWEEP, "--n-test", "-200"),
        (_SWEEP, "--jobs", "0"),
    ],
    ids=[
        "fit-eval", "sweep", "fit-eval-hmc-samples", "fit-eval-hmc-warmup",
        "fit-eval-leapfrog", "sweep-leapfrog", "sweep-n-test-0", "sweep-n-test-negative",
        "sweep-jobs-0",
    ],
)
def test_seeds_below_one_exits_1(argv, flag, value, tmp_path, monkeypatch, capsys):
    """A count below 1 is refused by its flag and value, before any data is
    read or generated."""
    read = []
    monkeypatch.setattr(cli, "load_csv", lambda *args: read.append(args))
    monkeypatch.setattr(cli, "generate_synthetic", lambda *args: read.append(args))
    rc = cli.main([*argv, flag, value, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"certbayes: error: {flag} must be at least 1, got {value}" in (
        capsys.readouterr().err
    )
    assert read == []


def test_sweep_empty_n_grid_exits_1(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    rc = cli.main(["sweep", "--sigma-p-sq", "0.25", "--n-grid", ",", "--out", str(out)])
    assert rc == 1
    assert "certbayes: error: --n-grid lists no training sizes" in capsys.readouterr().err
    assert not out.exists()


_CERTIFY_SYNTHETIC = [
    "certify", "--n", "20", "--d", "2", "--sigma-p-sq", "0.1", "--sigma-x-sq", "1",
    "--theta-star-norm-sq", "1",
]


@pytest.mark.parametrize(
    "argv, spec, message",
    [
        (_CERTIFY_SYNTHETIC, ",", "--theorem lists no theorem: ','"),
        (["sweep", "--sigma-p-sq", "0.25", "--n-grid", "10"], ",",
         "--theorem lists no theorem: ','"),
        (_CERTIFY_SYNTHETIC, "all,bayes-std",
         "--theorem 'all' must stand alone, got 'all,bayes-std'"),
    ],
    ids=["certify", "sweep", "certify-all-not-alone"],
)
def test_empty_theorem_list_exits_1(argv, spec, message, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main([*argv, "--theorem", spec, "--out", str(out)])
    assert rc == 1
    assert f"certbayes: error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_certify_checks_theorem_before_reading_data(tmp_path, monkeypatch, capsys):
    data = _gen(tmp_path, n=20, d=2)
    read = []

    def recording(*args, **kwargs):
        read.append(args)
        return certbayes.load_csv(*args, **kwargs)

    monkeypatch.setattr(cli, "load_csv", recording)
    rc = cli.main([
        "certify", "--data", str(data), "--sigma-p-sq", "0.1", "--sigma-x-sq", "1",
        "--theta-star-norm-sq", "1", "--theorem", "bayes-sdt",
    ])
    assert rc == 1
    assert "unknown theorem 'bayes-sdt'" in capsys.readouterr().err
    assert read == []


# A sweep whose n = 2000 cell fails denominator_positive for bayes-adv.
SWEEP_REFUSED = [
    "sweep", "--sigma-p-sq", "0.25", "--delta", "0.1", "--delta-hat", "0.1",
    "--n-grid", "10,2000", "--seeds", "2", "--theorem", "all",
]


def test_sweep_refuses_before_its_first_fit(tmp_path, monkeypatch, capsys):
    """Every (size, theorem) precondition is checked before any cell samples."""
    sampled = _record_hmc_calls(monkeypatch)
    out = tmp_path / "refused.csv"
    rc = cli.main([*SWEEP_REFUSED, "--out", str(out)])
    assert rc == 2
    assert "denominator_positive" in capsys.readouterr().err
    assert not out.exists()
    assert sampled == []


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--n-grid", "0,10"], "n must be an integer >= 1, got 0"),
        (["--n-grid=-5"], "n must be an integer >= 1, got -5"),
        (["--n-grid", "10", "--d", "0"], "d must be an integer >= 1, got 0"),
    ],
    ids=["n-zero", "n-negative", "d-zero"],
)
def test_sweep_invalid_size_or_dimension_exits_1(flags, named, tmp_path, monkeypatch, capsys):
    """A size or dimension the data cannot have is a usage error, not a
    precondition violation, and is refused before any cell samples."""
    sampled = _record_hmc_calls(monkeypatch)
    out = tmp_path / "bad.csv"
    rc = cli.main(["sweep", "--sigma-p-sq", "0.25", "--n-test", "50", *flags, "--out", str(out)])
    assert rc == 1
    assert f"certbayes: error: {named}" in capsys.readouterr().err
    assert not out.exists()
    assert sampled == []


def test_fit_eval_data_with_train_and_test_exits_1(tmp_path, capsys):
    train, test = _gen(tmp_path, "tr.csv", n=20), _gen(tmp_path, "te.csv", n=20)
    out = tmp_path / "fe.json"
    rc = cli.main([
        "fit-eval", "--train", str(train), "--test", str(test), "--data", AUTO_MPG,
        "--sigma-p-sq", "0.25", "--hmc-samples", "20", "--hmc-warmup", "10",
        "--leapfrog", "2", "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "certbayes: error: fit-eval takes --data or --train/--test, not both" in err
    assert not out.exists()


@pytest.mark.parametrize("standardize", [[], ["--no-standardize"]])
def test_fit_eval_width_mismatch_exits_1_before_sampling(
    standardize, tmp_path, monkeypatch, capsys
):
    """Train and test files of different widths are refused, with one
    message, before any chain runs, whether or not they are standardized."""
    train, test = _gen(tmp_path, "tr.csv", n=60, d=3), _gen(tmp_path, "te.csv", n=30, d=4)

    def never(*args, **kwargs):
        raise AssertionError("hmc_sample was called")

    monkeypatch.setattr(cli, "hmc_sample", never)
    out = tmp_path / "fe.json"
    rc = cli.main([
        "fit-eval", "--train", str(train), "--test", str(test), "--sigma-p-sq", "0.25",
        *standardize, "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "certbayes: error: train has 3 features but test has 4" in err
    assert not out.exists()


def test_sweep_requires_out(capsys):
    rc = cli.main(["sweep", "--sigma-p-sq", "0.25"])
    assert rc == 1
    assert "requires --out" in capsys.readouterr().err


# --- console script ------------------------------------------------------------


def _console_script_entry_point():
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    assert "certbayes" in scripts, "pyproject.toml declares no certbayes script"
    return EntryPoint(
        name="certbayes", value=scripts["certbayes"], group="console_scripts"
    )


def _write_launcher(bin_dir, ep):
    """The launcher an installer writes for a console_scripts entry point."""
    bin_dir.mkdir()
    script = bin_dir / ep.name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        f"sys.exit({ep.attr}())\n"
    )
    script.chmod(0o755)


def _child_env():
    """os.environ with the imported package's root first on PYTHONPATH, so a
    child process imports the same certbayes without an install."""
    env = dict(os.environ)
    package_root = str(Path(certbayes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [package_root, env.get("PYTHONPATH")] if p
    )
    return env


def test_console_script_runs(tmp_path):
    ep = _console_script_entry_point()
    bin_dir = tmp_path / "bin"
    _write_launcher(bin_dir, ep)
    env = _child_env()
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])

    def run(*args):
        return subprocess.run(
            ["certbayes", *args], capture_output=True, text=True, env=env
        )

    out = tmp_path / "cs.csv"
    proc = run("gen-data", "--n", "4", "--d", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.exists() and (tmp_path / "cs.csv.json").exists()

    # main()'s return value must become the process exit status.
    bad = tmp_path / "bad.csv"
    proc = run("gen-data", "--n", "0", "--d", "2", "--out", str(bad))
    assert proc.returncode == 1, proc.stderr
    assert "certbayes: error" in proc.stderr


def test_module_invocation_help():
    proc = subprocess.run(
        [sys.executable, "-m", "certbayes.cli", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout and "sweep" in proc.stdout


def test_cli_import_leaves_scipy_special_out():
    """No command uses the Bernoulli or Poisson family, so importing the CLI
    must not pay for scipy.special."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, certbayes.cli; print('scipy.special' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
