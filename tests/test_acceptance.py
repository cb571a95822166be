"""Acceptance gate: every shipped criterion at its pinned tolerance.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them. Randomized configurations are seeded and fixed.
"""

import time

import numpy as np
import pytest

from orfkit import (
    DomainError,
    PoleSequence,
    arf_quad,
    arf_recurrence,
    blaschke_factor,
    builtin_measure,
    caratheodory_from_measure,
    evaluate_stack,
    gram_schmidt_orf,
    para_zeros,
    relation_residuals,
    superstar,
    synthesize,
    weight_from_caratheodory,
)
from orfkit.engine import (
    _fit_ladder,
    _four,
    grid_quadrature,
    identity_residual_stack,
    interpolation_residual_stack,
    recurrence_step,
    second_kind_integral_stack,
)
from orfkit.transforms import apply_transform_stack
from orfkit.measure import boundary_grid
from orfkit.serialize import dumps, system_from_dict, system_to_dict
from orfkit.transforms import relation_residual_stack

SQ3 = np.sqrt(3.0)


def _line(name, value, tol, ok=None):
    ok = (value < tol) if ok is None else ok
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {value:.3e} (tol {tol:.1e})")
    return ok


def _random_synth(seed, n, pole_cap=0.7, lam_cap=0.6):
    rng = np.random.default_rng(seed)
    beta = pole_cap * np.sqrt(rng.uniform(size=n + 1)) * np.exp(2j * np.pi * rng.uniform(size=n + 1))
    lams = lam_cap * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    return synthesize(lams, PoleSequence(beta)), lams


@pytest.fixture(scope="module")
def golden():
    return gram_schmidt_orf(builtin_measure("lebesgue"), PoleSequence([0.0, 0.5, 0.0]), 2)


@pytest.fixture(scope="module")
def measure_systems():
    lebesgue8 = gram_schmidt_orf(
        builtin_measure("lebesgue"),
        PoleSequence([0.0, 0.5, -0.3 + 0.2j, 0.4j, 0.25, -0.15 - 0.35j, 0.3, 0.1 + 0.45j, -0.2]),
        8,
    )
    poisson8 = gram_schmidt_orf(
        builtin_measure("poisson", alpha=0.35 - 0.2j),
        PoleSequence([0.1 + 0.1j, -0.35, 0.2 + 0.4j, 0.45j, -0.1 - 0.3j, 0.5, -0.4 + 0.1j, 0.05 - 0.45j, 0.3j]),
        8,
    )
    return [lebesgue8, poisson8]


@pytest.fixture(scope="module")
def synth_systems():
    return [_random_synth(seed, 8)[0] for seed in range(5)]


def test_criterion_01_golden_example():
    t0 = time.perf_counter()
    system = gram_schmidt_orf(builtin_measure("lebesgue"), PoleSequence([0.0, 0.5, 0.0]), 2)
    _, t = boundary_grid(256)
    phi1_err = float(np.max(np.abs(system.level(1).phi(t) - (SQ3 / 2) * t / (1 - 0.5 * t))))
    lam_err = max(abs(system.level(1).lam), abs(system.level(2).lam))
    rng = np.random.default_rng(0)
    zs = 0.8 * np.sqrt(rng.uniform(size=50)) * np.exp(2j * np.pi * rng.uniform(size=50))
    f_err = float(np.max(np.abs(system.caratheodory(zs) - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = _line("criterion 1: golden example (phi_1)", phi1_err, 1e-10)
    ok &= _line("criterion 1: golden example (lambda)", lam_err, 1e-10)
    ok &= _line("criterion 1: golden example (F == 1)", f_err, 1e-10)
    ok &= _line("criterion 1: golden example (runtime s)", elapsed, 1.0)
    assert ok


def test_criterion_02_orthonormality():
    rng = np.random.default_rng(42)
    worst = 0.0
    for mu in (builtin_measure("lebesgue"), builtin_measure("poisson", alpha=0.3 + 0.2j)):
        beta = 0.8 * np.sqrt(rng.uniform(size=11)) * np.exp(2j * np.pi * rng.uniform(size=11))
        system = gram_schmidt_orf(mu, PoleSequence(beta), 10, n_points=2048)
        theta, t = boundary_grid(2048)
        w = mu.weight(theta)
        vals = [system.level(n).phi(t) for n in range(11)]
        for i, vi in enumerate(vals):
            for j, vj in enumerate(vals):
                worst = max(worst, abs((vi * np.conj(vj) * w).mean() - (i == j)))
    assert _line("criterion 2: orthonormality (n = 10, grid 2048)", worst, 1e-9)


def test_criterion_03_determinant_formula(synth_systems):
    worst = 0.0
    for system in synth_systems:
        phi, phi_s, psi, psi_s = zip(*map(_four, system.levels))
        worst = max(worst, np.max(identity_residual_stack(phi, psi, phi_s, psi_s)))
    assert _line("criterion 3: determinant formula (5 random configs)", worst, 1e-10)


def test_criterion_04_para_zeros(synth_systems, measure_systems):
    worst_mod, min_sep = 0.0, np.inf
    for system in synth_systems + measure_systems:
        for n in range(1, 9):
            for tau in (1.0, 1.0j, -1.0, -1.0j):
                zs = para_zeros(system, n, tau)
                worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(zs) - 1.0))))
                if len(zs) > 1:
                    d = np.abs(zs[:, None] - zs[None, :])
                    np.fill_diagonal(d, np.inf)
                    min_sep = min(min_sep, float(d.min()))
    ok = _line("criterion 4: para zeros on the circle", worst_mod, 1e-9)
    ok &= _line("criterion 4: para zeros separated", min_sep, 1e-8, ok=min_sep > 1e-8)
    assert ok


def test_criterion_05_second_kind_cross_check(measure_systems):
    worst = 0.0
    _, t = boundary_grid(512)
    for system in measure_systems:
        lv = system.level(0)
        rebuilt = [lv]
        for n in range(1, 9):
            src = system.level(n)
            rebuilt.append(recurrence_step(rebuilt[-1], src.lam, src.rho, system.poles, n))
        stacked = second_kind_integral_stack(grid_quadrature(system.measure, system.n_points), system)
        for psi, ref in zip(stacked, rebuilt, strict=True):
            worst = max(worst, float(np.max(np.abs(psi(t) - ref.psi(t)))))
    assert _line("criterion 5: second-kind integral vs recurrence", worst, 1e-8)


def test_criterion_06_interpolation(measure_systems, synth_systems):
    worst = 0.0
    g_ok = True
    for system in measure_systems + synth_systems[:2]:
        resid, witness = interpolation_residual_stack(system)
        worst = max(worst, float(np.max(resid)))
        g_ok = g_ok and bool(np.all(witness > 1e-8))
    ok = _line("criterion 6: interpolation residuals", worst, 1e-10)
    ok &= _line("criterion 6: witness g stays zero-free", 0.0 if g_ok else 1.0, 0.5, ok=g_ok)
    assert ok


def test_criterion_07_arf_dual_construction(golden, measure_systems, synth_systems):
    _, t = boundary_grid(512)
    worst = 0.0
    for system in [measure_systems[1], synth_systems[0]]:
        assert system.n_max == 8
        for k in range(4):
            rec = arf_recurrence(system, k)
            for n, (phi_e, psi_e) in enumerate(rec.explicit, start=k):
                worst = max(worst, float(np.max(np.abs(phi_e(t) - rec.level(n).phi(t)))))
                worst = max(worst, float(np.max(np.abs(psi_e(t) - rec.level(n).psi(t)))))
    ok = _line("criterion 7: explicit vs recursive associated ladders", worst, 1e-9)
    phi, _ = arf_recurrence(golden, 1).explicit[1]
    closed = float(np.max(np.abs(phi.numer - np.array([-1.0, 2.0]) / SQ3)))
    ok &= _line("criterion 7: worked closed form (2/sqrt(3))(z - 0.5)", closed, 1e-10)
    assert ok


def test_criterion_08_transformed_measure(golden):
    arf = arf_recurrence(golden, 1)
    theta = np.asarray(arf.mu_k.params["theta"])
    w = np.asarray(arf.mu_k.params["w"])
    target = 0.75 / np.abs(np.exp(1j * theta) - 0.5) ** 2
    w_err = float(np.max(np.abs(w - target)))
    _, t = boundary_grid(1024)
    wq = arf.mu_k.weight(boundary_grid(1024)[0])
    gram = 0.0
    for i in range(2):
        for j in range(2):
            g = (arf.system.level(i).phi(t) * np.conj(arf.system.level(j).phi(t)) * wq).mean()
            gram = max(gram, abs(g - (i == j)))
    ok = _line("criterion 8: recovered order-1 density", w_err, 1e-8)
    ok &= _line("criterion 8: associated ladder orthonormal under it", gram, 1e-8)
    assert ok


def test_criterion_09_relations(measure_systems, synth_systems):
    worst = 0.0
    for system in [measure_systems[0], synth_systems[1]]:
        for j, k, n in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            rep = relation_residuals(arf_recurrence(system, j), arf_recurrence(system, k), n)
            worst = max(worst, rep.max_residual())
    assert _line("criterion 9: order-mixing relations (incl. swapped)", worst, 1e-10)


def test_criterion_10_transformed_cfunction(golden, measure_systems, synth_systems):
    rng = np.random.default_rng(7)
    zs = 0.9 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    anchor_worst, re_min = 0.0, np.inf
    for system in [golden] + measure_systems + synth_systems[:2]:
        for k in range(min(3, system.n_max) + 1):
            arf = arf_recurrence(system, k)
            anchor_worst = max(anchor_worst, arf.F_k.anchor_residual)
            re_min = min(re_min, float(np.min(np.real(arf.F_k(zs)))))
    ok = _line("criterion 10: transformed C-function anchored at 1", anchor_worst, 1e-9)
    ok &= _line("criterion 10: positive real part (min Re)", re_min, 0.0, ok=re_min > 0.0)
    assert ok


def test_criterion_11_remark_identity(measure_systems, synth_systems):
    worst = 0.0
    for system in [measure_systems[1], synth_systems[2]]:
        for k in (1, 2, 3):
            quad = arf_quad(system, k)
            for n in range(1, system.n_max - k + 1):
                ((G, _, J, _),) = apply_transform_stack(system, quad, 2.0, [n])
                (resid,) = identity_residual_stack([G], [J], [superstar(G)], [superstar(J)])
                worst = max(worst, resid)
    assert _line("criterion 11: transformed determinant identity", worst, 1e-10)


def test_criterion_12_round_trips(measure_systems):
    # synthesize -> extract
    system, lams = _random_synth(99, 8)
    worst = 0.0
    fits = _fit_ladder(system.poles, [lv.phi for lv in system.levels], [lv.phi_star for lv in system.levels])
    for n, (a, b, _, _) in enumerate(fits, start=1):
        worst = max(worst, abs(np.conj(b / a) - lams[n - 1]))
    ok = _line("criterion 12: synthesize -> extract recovers parameters", worst, 1e-10)

    # measure -> C-function -> density
    w_err = 0.0
    theta, _ = boundary_grid(512)
    for mu, b0 in (
        (builtin_measure("poisson", alpha=0.4 - 0.3j), 0.1 + 0.1j),
        (builtin_measure("samples", theta=boundary_grid(256)[0],
                         w=1.1 + 0.4 * np.cos(boundary_grid(256)[0]) + 0.2 * np.sin(2 * boundary_grid(256)[0])),
         -0.2),
    ):
        F = caratheodory_from_measure(mu, b0)
        w = weight_from_caratheodory(F, theta)
        w_err = max(w_err, float(np.max(np.abs(w - mu.weight(theta)))))
    ok &= _line("criterion 12: measure -> C-function -> density", w_err, 1e-6)

    # serialization
    exact = True
    for system in measure_systems:
        blob = dumps(system_to_dict(system))
        import json

        again = system_from_dict(json.loads(blob))
        exact = exact and dumps(system_to_dict(again)) == blob
    ok &= _line("criterion 12: serialization bit-exact", 0.0 if exact else 1.0, 0.5, ok=exact)
    assert ok


@pytest.mark.parametrize(
    "call, outcome",
    [
        pytest.param(lambda s: evaluate_stack([], np.zeros((2, 3))).shape, (0, 2, 3), id="evaluate-nothing"),
        pytest.param(lambda s: relation_residual_stack({}, []), [], id="relations-of-nothing"),
        pytest.param(
            lambda s: relation_residual_stack({0: arf_recurrence(s, 0)}, [(0, 1, 2)]),
            "no ladder of order 1",
            id="relations-missing-order",
        ),
        pytest.param(lambda s: blaschke_factor(s.poles, len(s.poles), 0.5), "index 5 outside", id="blaschke-past-end"),
        pytest.param(lambda s: blaschke_factor(s.poles, -1, 0.5), "index -1 outside", id="blaschke-negative"),
        pytest.param(lambda s: arf_recurrence(s, 1.5), "arf order k", id="arf-recurrence-float-order"),
        pytest.param(lambda s: arf_quad(s, 1.0), "arf order k", id="arf-quad-float-order"),
        pytest.param(lambda s: builtin_measure("poisson"), "numeric alpha", id="poisson-without-alpha"),
        pytest.param(lambda s: builtin_measure("poisson", alpha="0.3"), "numeric alpha", id="poisson-string-alpha"),
    ],
)
def test_public_api_edges(synth_system, call, outcome):
    # an empty request gets an empty answer; a bad argument a DomainError
    # that names it, never a bare Python error from inside
    if isinstance(outcome, str):
        with pytest.raises(DomainError, match=outcome):
            call(synth_system)
    else:
        assert call(synth_system) == outcome
