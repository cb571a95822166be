import numpy as np
import pytest

from orfkit import PoleSequence, builtin_measure, cli, gram_schmidt_orf, measure, ratfun, synthesize, transforms, verify
from orfkit.verify import CHECK_NAMES, VerifyContext, run_verification


def _ladder():
    rng = np.random.default_rng(4)
    lams, betas = (
        cap * np.sqrt(rng.uniform(size=4)) * np.exp(2j * np.pi * rng.uniform(size=4)) for cap in (0.5, 0.6)
    )
    return synthesize(lams, PoleSequence(np.concatenate([[0.0], betas])))


def _disk(rng, cap, size):
    return cap * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))


def _measure_ladder(kind, n, seed, beta0=0.0):
    # beta_0 as given, the other poles up to 0.7 and a Poisson alpha up to 0.6
    rng = np.random.default_rng(seed)
    poles = PoleSequence(np.concatenate([[beta0], _disk(rng, 0.7, n)]))
    if kind == "lebesgue":
        return gram_schmidt_orf(builtin_measure("lebesgue"), poles, n)
    return gram_schmidt_orf(builtin_measure("poisson", alpha=complex(_disk(rng, 0.6, 1)[0])), poles, n)


def _failing(system, which=None):
    report = run_verification(VerifyContext(system, seed=0, tolerances={}), which)
    return {name: entry["residual"] for name, entry in report.items() if not entry["pass"]}


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
        (transforms, "apply_transform"),
        (verify, "apply_transform"),
    ):
        # a name counts wherever a caller looks it up
        if hasattr(module, name):
            _count(monkeypatch, calls, module, name)
    report = run_verification(VerifyContext(s, seed=0, tolerances={}))
    assert [name for name, entry in report.items() if entry["pass"]] == list(CHECK_NAMES)
    # orders 0..3 each get one ladder, one quad, one transformed C-function
    # and one anchor residual, which positivity reads back; the explicit
    # transforms of levels k + 1..4 are built once (4 + 3 + 2 + 1) and the
    # remark check reuses those of orders 1..3
    assert calls == {
        "check_quad": 4,
        "arf_caratheodory": 4,
        "measure_from_system": 1,
        "arf_recurrence": 4,
        "arf_anchor_residual": 4,
        "apply_transform": 10,
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


@pytest.mark.parametrize(
    "kind, n, seed, beta0",
    [
        pytest.param("poisson", 16, 0, 0.0, id="poisson-16-0"),
        pytest.param("lebesgue", 24, 1, 0.0, id="lebesgue-24-1"),
        pytest.param("poisson", 20, 2, 0.3 - 0.4j, id="poisson-20-2-beta0"),
    ],
)
def test_measure_ladder_beyond_n_12(kind, n, seed, beta0):
    # the second-kind companions set the accuracy of every check and of the
    # associated ladder built from them
    s = _measure_ladder(kind, n, seed, beta0)
    assert _failing(s) == {}
    assert transforms.arf_discrepancy(transforms.arf_recurrence(s, 1)) < cli.ARF_AGREEMENT


@pytest.mark.parametrize("n", [16, 32])
def test_polynomial_ladder(n):
    # Lebesgue with every pole at 0 is the monomial ladder, all lambda_n = 0
    s = gram_schmidt_orf(builtin_measure("lebesgue"), PoleSequence([0.0] * (n + 1)), n)
    assert max(abs(lv.lam) for lv in s.levels[1:]) < 1e-12
    assert _failing(s) == {}


def test_synthesized_n_32_second_kind():
    rng = np.random.default_rng(2)
    s = synthesize(_disk(rng, 0.2, 32), PoleSequence(_disk(rng, 0.7, 33)))
    assert _failing(s, ["second_kind", "multiplier_identities"]) == {}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roundtrip_measure_on_lambda_ladder(seed):
    # beta_0 is drawn with the other poles, so the moment series runs
    # through zeta_0 with beta_0 != 0
    rng = np.random.default_rng(seed)
    lams, betas = _disk(rng, 0.4, 6), _disk(rng, 0.7, 7)
    assert abs(betas[0]) > 0.1
    assert _failing(synthesize(lams, PoleSequence(betas)), ["roundtrip_measure"]) == {}


def test_poisson_ladder_with_random_beta0(monkeypatch):
    # alpha first, then all 17 poles with beta_0 among them; |zeta_0(alpha)|
    # is 0.88, so the moments decay slowly, yet the first grid resolves them
    grids = []
    original = measure._moment_series
    monkeypatch.setattr(measure, "_moment_series", lambda mu, kp, n: grids.append(n) or original(mu, kp, n))
    rng = np.random.default_rng(1032)
    mu = builtin_measure("poisson", alpha=complex(_disk(rng, 0.6, 1)[0]))
    s = gram_schmidt_orf(mu, PoleSequence(_disk(rng, 0.7, 17)), 16)
    assert _failing(s) == {}
    assert grids and max(grids) <= 2048
