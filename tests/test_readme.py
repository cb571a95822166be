"""The python blocks of README.md run as written, so a name the README
uses cannot leave the public API unnoticed, and its config block runs
through the command line."""

import dataclasses
import re
from pathlib import Path

import pytest

import orfkit
from orfkit.cli import JobConfig, main
from orfkit.transforms import ArfSystem
from orfkit.verify import CHECK_NAMES

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


def _known_names():
    """Attributes of every orfkit module and of the classes they define,
    the check names and the fields of a config and of an associated ladder."""
    modules = [orfkit] + [getattr(orfkit, name) for name in ("cli", "engine", "errors", "measure",
                                                             "ratfun", "serialize", "transforms", "verify")]
    members = [getattr(module, name) for module in modules for name in dir(module)]
    names = {name for obj in modules + [m for m in members if isinstance(m, type)] for name in dir(obj)}
    names |= set(CHECK_NAMES)
    return names | {f.name for cls in (JobConfig, ArfSystem) for f in dataclasses.fields(cls)}


# names the prose uses for things that are not attributes: the callable a
# ratio C-function takes, and a generic function
NOT_ATTRIBUTES = {"terms", "f"}


def test_backticked_names_resolve():
    # a backticked call name(...) or snake_case name outside the code blocks
    # must name something orfkit still has; file names (x.json, x.csv) are not names
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    used = set()
    for span in re.findall(r"`([^`\n]+)`", prose):
        used |= set(re.findall(r"(\w+)\(", span))
        parts = span.split(".")
        if re.fullmatch(r"\w+(\.\w+)*", span) and parts[-1] not in ("json", "csv"):
            used |= {part for part in parts if "_" in part}
    missing = sorted(used - _known_names() - NOT_ATTRIBUTES)
    assert not missing, f"README names what orfkit does not have: {missing}"
