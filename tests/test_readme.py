"""The python blocks of README.md run as written, so a name the README
uses cannot leave the public API unnoticed, and its config block runs
through the command line."""

import re
from pathlib import Path

import pytest

from orfkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("command", ["synth", "arf", "verify"])
def test_config_block_runs(tmp_path, command):
    # beta_2 = beta_0 and both sources: every check, interpolation at all
    # three levels included, must pass
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    config = tmp_path / "config.json"
    config.write_text(block)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
