import numpy as np

from orfkit import PoleSequence, synthesize, transforms, verify
from orfkit.verify import CHECK_NAMES, VerifyContext, run_verification


def test_verify_builds_each_order_once(monkeypatch):
    # beta_0 = 0 keeps roundtrip_measure on its well-conditioned path
    rng = np.random.default_rng(4)
    lams, betas = (
        cap * np.sqrt(rng.uniform(size=4)) * np.exp(2j * np.pi * rng.uniform(size=4)) for cap in (0.5, 0.6)
    )
    s = synthesize(lams, PoleSequence(np.concatenate([[0.0], betas])))
    calls = {}

    def counted(module, name):
        original = getattr(module, name)
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(transforms, "check_quad")
    counted(transforms, "arf_caratheodory")
    counted(verify, "measure_from_system")
    report = run_verification(VerifyContext(s, seed=0, tolerances={}))
    assert [name for name, entry in report.items() if entry["pass"]] == list(CHECK_NAMES)
    # orders 0..3 each get one quad and one transformed C-function
    assert calls == {"check_quad": 4, "arf_caratheodory": 4, "measure_from_system": 1}
