"""The library sketch in README.md runs as written and prints what it
promises, so the API the README shows cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    battery, verdict = capsys.readouterr().out.splitlines()
    assert battery.split()[0] == "True"
    assert verdict == "NOT_SEMIMARTINGALE"
