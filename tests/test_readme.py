import re
import shlex
from pathlib import Path

from fogsim.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(heading: str) -> str:
    """The README's section under ``## heading``, up to the next heading."""
    text = README.read_text()
    start = text.index(f"## {heading}")
    return text[start:text.index("\n## ", start)]


def test_quick_start_runs(tmp_path, monkeypatch):
    """Each fogsim line of the quick-start block exits 0, and every file the
    section names exists afterwards."""
    section = _section("Quick start (CLI)")
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("fogsim ")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    named = set(re.findall(r"[\w-]+\.(?:csv|json)\b", section))
    assert named
    assert sorted(name for name in named if not (tmp_path / name).is_file()) == []


def test_python_api_runs():
    """The "Python API" block runs as it stands and ends with a detection limit."""
    block = re.search(r"```python\n(.*?)```", _section("Python API"), re.S).group(1)
    names = {}
    exec(block, names)
    assert names["sigma_dl"] > 0
