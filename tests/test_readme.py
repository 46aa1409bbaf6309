"""The README's library example runs as written against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "expected one python block in README.md"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out
    match = re.fullmatch(r"adversarial risk (\S+) <= bound (\S+)\n", printed)
    assert match, printed
    assert float(match[1]) <= float(match[2])
