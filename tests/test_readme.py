"""The README's library example and command-line examples run as written."""

import re
import shlex
from pathlib import Path

from certbayes import cli
from test_acceptance import _robust_hmc

README = Path(__file__).resolve().parents[1] / "README.md"


def _example() -> dict:
    """Run the README's python block; returns the names it binds."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "expected one python block in README.md"
    names = {"__name__": "readme_example"}
    exec(compile(blocks[0], str(README), "exec"), names)
    return names


def test_readme_library_example_runs(capsys):
    _example()
    printed = capsys.readouterr().out
    match = re.fullmatch(r"adversarial risk (\S+) <= bound (\S+)\n", printed)
    assert match, printed
    assert float(match[1]) <= float(match[2])


def test_readme_acceptance_and_cli_fit_the_same_robust_posterior():
    """The README example, the acceptance suite's ``_robust_hmc`` and the
    CLI's ``_fit_and_score`` are three copies of the robust fit; on the
    README's inputs they return the same draws and diagnostics, so the
    acceptance suite checks the sampler the CLI ships."""
    example = _example()
    train, test, noise, prior, delta = (
        example[name] for name in ("train", "test", "noise", "prior", "delta")
    )
    hmc = {"hmc_samples": 2000, "hmc_warmup": 1000, "leapfrog": 16}  # the README's
    _, shipped = cli._fit_and_score(
        train, test, noise, prior, delta, {"bayes": [], "robust": [delta]}, 0, hmc
    )
    acceptance = _robust_hmc(train, noise, prior, delta, 2000, 1000, 16, seed=0)
    for fit in (shipped, acceptance):
        assert fit.draws.tobytes() == example["samples"].draws.tobytes()
        for field in ("step_size", "grad_evals", "n_chains"):
            assert getattr(fit, field) == getattr(example["samples"], field), field


def _commands() -> list:
    """The argv of each ``certbayes`` command in the README's ``sh`` blocks,
    continuation lines joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("certbayes ")]


def test_readme_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CERTBAYES_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    assert [argv[0] for argv in commands] == ["gen-data", "certify", "fit-eval", "sweep"]
    for argv in commands:
        code = cli.main(argv)
        assert code == 0, (argv, capsys.readouterr().err)
