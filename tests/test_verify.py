import numpy as np
import pytest

from orfkit import PoleSequence, ratfun, synthesize, transforms, verify
from orfkit.verify import CHECK_NAMES, VerifyContext, run_verification


def _ladder():
    # beta_0 = 0 keeps roundtrip_measure on its well-conditioned path
    rng = np.random.default_rng(4)
    lams, betas = (
        cap * np.sqrt(rng.uniform(size=4)) * np.exp(2j * np.pi * rng.uniform(size=4)) for cap in (0.5, 0.6)
    )
    return synthesize(lams, PoleSequence(np.concatenate([[0.0], betas])))


def _count(monkeypatch, calls, module, name):
    original = getattr(module, name)
    calls.setdefault(name, 0)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_verify_builds_each_order_once(monkeypatch):
    s = _ladder()
    calls = {}
    for module, name in (
        (transforms, "check_quad"),
        (transforms, "arf_caratheodory"),
        (verify, "measure_from_system"),
        (verify, "arf_recurrence"),
        (transforms, "arf_recurrence"),
        (verify, "arf_anchor_residual"),
        (transforms, "arf_anchor_residual"),
    ):
        # a name counts wherever a caller looks it up
        if hasattr(module, name):
            _count(monkeypatch, calls, module, name)
    report = run_verification(VerifyContext(s, seed=0, tolerances={}))
    assert [name for name, entry in report.items() if entry["pass"]] == list(CHECK_NAMES)
    # orders 0..3 each get one ladder, one quad, one transformed C-function
    # and one anchor residual, which positivity reads back
    assert calls == {
        "check_quad": 4,
        "arf_caratheodory": 4,
        "measure_from_system": 1,
        "arf_recurrence": 4,
        "arf_anchor_residual": 4,
    }


@pytest.mark.parametrize("k", [1, 3])
def test_check_quad_evaluates_on_arrays(monkeypatch, k):
    s = _ladder()
    quad = transforms.arf_quad(s, k)
    calls = {}
    _count(monkeypatch, calls, ratfun, "evaluate")
    report = transforms.check_quad(quad, s.caratheodory, s.poles, depth=s.n_max - k)
    assert report == quad.report and report.passed
    assert calls["evaluate"] <= 40
