"""The default chain writes the bytes recorded in tools/reference_digests.json."""

import importlib.util
from pathlib import Path

import pytest

from fogsim.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reference_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("reference_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_chain_writes_the_recorded_bytes(tmp_path, capsys):
    """Each of the default chain's ten files has its recorded digest, run in
    this process; fisher.csv only under the recorded SIMD extensions."""
    tool = _tool()
    reference, found = tool.read_reference(), tool.environment()
    reason = tool.version_mismatch(reference, found)
    if reason is not None:
        pytest.skip(f"reference digests {reason}")
    for arguments in tool.chain_arguments(tmp_path, "default"):
        assert main(arguments) == 0, arguments
    digests = {"default": tool.file_digests(tmp_path / "default")}
    assert tool.differences(digests, reference, found) == []
