"""Every exception class orfkit declares is raised somewhere in orfkit and
named by some test, so a class left without a raise site shows here."""

import re
from pathlib import Path

import pytest

from orfkit import errors

ROOT = Path(__file__).resolve().parents[1]
CLASSES = sorted(name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, Exception))


def _text(folder):
    return "\n".join(path.read_text() for path in sorted((ROOT / folder).rglob("*.py")))


@pytest.mark.parametrize("name", CLASSES)
def test_error_class_is_raised_and_tested(name):
    assert re.search(rf"\braise {name}\b", _text("src/orfkit")), f"nothing in orfkit raises {name}"
    assert re.search(rf"\b{name}\b", _text("tests")), f"no test names {name}"
