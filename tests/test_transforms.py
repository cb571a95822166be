import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

from orfkit import (
    ConditionUnchecked,
    DivisionRemainderTooLarge,
    DomainError,
    PoleSequence,
    RatFun,
    SelfReciprocalQuad,
    apply_transform,
    arf_caratheodory,
    arf_explicit,
    arf_quad,
    arf_recurrence,
    check_quad,
    gram_schmidt_orf,
    identity_quad,
    lebesgue_arf,
    relation_residuals,
    remark_identity_residual,
    superstar,
    transformed_caratheodory,
)
from orfkit import transforms
from orfkit.engine import _fit_step, zeros_factor
from orfkit.measure import CaratheodoryFn, boundary_grid
from orfkit.ratfun import blaschke_factor
from orfkit.transforms import arf_anchor_residual, arf_discrepancy, relation_residual_stack

SQ3 = np.sqrt(3.0)


def sup_diff(f, g, n=512):
    _, t = boundary_grid(n)
    return float(np.max(np.abs(np.asarray(f(t)) - np.asarray(g(t)))))


def disk_points(seed, n=200, cap=0.9):
    rng = np.random.default_rng(seed)
    return cap * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


class TestArfQuad:
    def test_worked_structure(self, worked_system):
        # first kind equals second kind here, so A = D and B = C
        quad = arf_quad(worked_system, 1)
        assert_allclose(quad.A.numer, quad.D.numer, atol=1e-12)
        assert_allclose(quad.B.numer, quad.C.numer, atol=1e-12)
        assert quad.tau_A == 1.0 and quad.N == 1 and quad.r == 0
        assert quad.tilde_poles.beta[0] == 0.5

    def test_order_zero_collapses(self, worked_system):
        quad = arf_quad(worked_system, 0)
        assert_allclose(quad.A.numer, [2.0], atol=1e-12)
        assert_allclose(quad.B.numer, [0.0], atol=1e-12)

    def test_sign_relations(self, synth_system):
        quad = arf_quad(synth_system, 2)
        assert_allclose(superstar(quad.A).numer, quad.A.numer, atol=1e-12)
        assert_allclose(superstar(quad.B).numer, -quad.B.numer, atol=1e-12)
        assert_allclose(superstar(quad.C).numer, -quad.C.numer, atol=1e-12)
        assert_allclose(superstar(quad.D).numer, quad.D.numer, atol=1e-12)

    def test_report_attached_and_passed(self, poisson_system):
        quad = arf_quad(poisson_system, 2)
        assert quad.report is not None and quad.report.passed


class TestCheckQuad:
    def test_identity_quad_passes(self, synth_system):
        iq = identity_quad(synth_system.poles)
        rep = check_quad(iq, synth_system.caratheodory, synth_system.poles, depth=synth_system.n_max)
        assert rep.passed and rep.a1_residual == 0.0

    def test_arf_quad_passes_full_check(self, poisson_system):
        quad = arf_quad(poisson_system, 1)
        rep = check_quad(quad, poisson_system.caratheodory, poisson_system.poles, depth=3)
        assert rep.passed
        assert rep.a3_max < 1e-10 and rep.a42_max < 1e-10

    def test_vanishing_b_fails_a2(self):
        # self-reciprocal quad over [0, 0.5, -0.3] with B = c z, which kills
        # B(beta_0) = B(0)
        poles = PoleSequence([0.0, 0.5, -0.3])
        a = RatFun(poles, [1.0, 0.0, -1.0], 2)
        b = RatFun(poles, [0.0, 1.0, 0.0], 2)
        quad = SelfReciprocalQuad(a, b, b, a, 1.0, 2, 0, PoleSequence([-0.3]))
        rep = check_quad(quad, CaratheodoryFn(lambda z: np.ones_like(z), 0.0), poles, depth=0)
        assert not rep.passed
        assert rep.a2_min < 1e-10

    def test_broken_sign_fails_a1(self, synth_system):
        quad = arf_quad(synth_system, 1)
        bad = replace(quad, A=quad.B, B=quad.A, report=None)
        rep = check_quad(bad, synth_system.caratheodory, synth_system.poles, depth=1)
        assert not rep.passed
        assert rep.a1_residual > 1e-2

    def test_safe_ratio_matches_pointwise_reference(self, worked_system, synth_system):
        # the point-by-point loop that _safe_ratio replaced; in the worked
        # system the order-2 tilde point beta_2 = beta_0 = 0 is a removable 0/0
        def reference(num_fn, den_fn, pts, singular):
            out = []
            for p in pts:
                if np.min(np.abs(p - singular)) < 1e-8:
                    ring = p + 1e-5 * np.exp(2j * np.pi * (np.arange(4) + 0.5) / 4)
                    out.append(np.mean(num_fn(ring) / den_fn(ring)))
                else:
                    out.append(num_fn(p) / den_fn(p))
            return np.array(out)

        for s, k in ((worked_system, 2), (synth_system, 1), (synth_system, 3)):
            quad, F, zeros = arf_quad(s, k), s.caratheodory, s.poles.beta[:k]

            def num(z):
                return np.asarray(quad.A(z)) - np.asarray(quad.B(z)) * np.asarray(F(z))

            def den(z):
                return zeros_factor(s.poles, k, z)

            ring = 0.62 * np.exp(2j * np.pi * (np.arange(48) + 0.13) / 48)
            pts = np.concatenate([zeros, quad.tilde_poles.beta, s.poles.beta[k + 1 :], ring])
            values, ratio = transforms._safe_ratio(num, den, pts, zeros)
            assert_allclose(values, num(pts), rtol=0, atol=1e-14 * np.max(np.abs(values)))
            assert_allclose(ratio, reference(num, den, pts, zeros), rtol=1e-13)

    def test_general_r_check_path(self, synth_system):
        # r = 1 with btilde_1 = beta_1: embedding degree-1 members into the
        # product space breaks self-reciprocity there, and the check says so
        s = synth_system
        b1 = s.poles.beta[1]
        quad1 = arf_quad(s, 1)
        combined = PoleSequence([s.poles.beta[0], b1, b1])

        def embed(f):
            numer = np.zeros(3, dtype=complex)
            from numpy.polynomial import polynomial as npp

            c = npp.polymul(f.numer, [1.0, -np.conj(b1)])
            numer[: c.size] = c
            return RatFun(combined, numer, 2)

        quad = SelfReciprocalQuad(
            embed(quad1.A), embed(quad1.B), embed(quad1.C), embed(quad1.D),
            1.0, 1, 1, PoleSequence([b1, b1]),
        )
        rep = check_quad(quad, s.caratheodory, s.poles, depth=1)
        assert rep.a1_residual > 1e-3
        assert not rep.passed


class TestApplyTransform:
    def test_identity_quad_reproduces_ladder(self, synth_system):
        iq = identity_quad(synth_system.poles)
        for n in range(synth_system.n_max + 1):
            G, H, J, K = apply_transform(synth_system, iq, 1.0, n)
            assert_allclose(G.numer, synth_system.level(n).phi.numer, atol=1e-14)
            assert_allclose(J.numer, synth_system.level(n).psi.numer, atol=1e-14)
            assert_allclose(H.numer, synth_system.level(n).phi_star.numer, atol=1e-14)

    def test_superstar_pairing(self, poisson_system):
        quad = arf_quad(poisson_system, 2)
        G, H, J, K = apply_transform(poisson_system, quad, 2.0, 2)
        assert_allclose(superstar(G).numer, H.numer, atol=1e-12)
        assert_allclose(superstar(J).numer, K.numer, atol=1e-12)

    def test_requires_report(self, synth_system):
        quad = replace(arf_quad(synth_system, 1), report=None)
        with pytest.raises(ConditionUnchecked):
            apply_transform(synth_system, quad, 2.0, 1)

    def test_corrupted_quad_leaves_remainder(self, synth_system):
        quad = arf_quad(synth_system, 1)
        numer = quad.A.numer.copy()
        numer[0] += 0.1
        bad = replace(quad, A=RatFun(quad.A.poles, numer, quad.A.n))
        with pytest.raises(DivisionRemainderTooLarge):
            apply_transform(synth_system, bad, 2.0, 2)

    def test_transformed_pair_recurrence(self, synth_system):
        # shifted recurrence with gamma = conj(tau_A) lambda_{N+n} and the
        # stored e (the c-ratio is 1 here)
        s = synth_system
        quad = arf_quad(s, 1)
        G1, _, _, _ = apply_transform(s, quad, 2.0, 1)
        G2, _, _, _ = apply_transform(s, quad, 2.0, 2)
        a, b, resid, scale = _fit_step(G2.poles, 2, G1, superstar(G1), G2)
        assert resid < 1e-9 * scale
        assert abs(np.conj(b / a) - s.level(3).lam) < 1e-10
        assert abs(abs(a) - s.level(3).e) < 1e-10


class TestTransformedCaratheodory:
    def test_identity(self, poisson_system):
        iq = identity_quad(poisson_system.poles)
        Ft = transformed_caratheodory(iq, poisson_system.caratheodory)
        zs = disk_points(1, cap=0.8)
        assert_allclose(Ft(zs), poisson_system.caratheodory(zs), rtol=1e-12)

    def test_worked_order_one_is_constant(self, worked_system):
        quad = arf_quad(worked_system, 1)
        Ft = transformed_caratheodory(quad, worked_system.caratheodory)
        assert_allclose(Ft(disk_points(2, cap=0.8)), 1.0, atol=1e-12)

    def test_positive_real_part(self, synth_system):
        quad = arf_quad(synth_system, 2)
        Ft = transformed_caratheodory(quad, synth_system.caratheodory)
        assert np.min(np.real(Ft(disk_points(3, cap=0.9)))) > 0


class TestArfExplicit:
    def test_order_zero_identity(self, poisson_system):
        for n in range(poisson_system.n_max + 1):
            phi, psi = arf_explicit(poisson_system, 0, n)
            assert sup_diff(phi, poisson_system.level(n).phi) < 1e-12
            assert sup_diff(psi, poisson_system.level(n).psi) < 1e-12

    def test_base_level_is_one(self, poisson_system):
        phi, psi = arf_explicit(poisson_system, 2, 2)
        assert_allclose(phi.numer, [1.0])
        assert_allclose(psi.numer, [1.0])

    def test_worked_closed_form(self, worked_system):
        phi, psi = arf_explicit(worked_system, 1, 2)
        assert_allclose(phi.numer, [-1 / SQ3, 2 / SQ3], atol=1e-12)
        assert_allclose(psi.numer, phi.numer, atol=1e-12)

    def test_lebesgue_closed_form_general_poles(self, lebesgue):
        poles = PoleSequence([0.0, 0.5, -0.3 + 0.2j, 0.4j, 0.25])
        s = gram_schmidt_orf(lebesgue, poles, 4)
        quad = arf_quad(s, 1)
        for n in range(1, 5):
            phi, _ = arf_explicit(s, 1, n, quad=quad)
            assert sup_diff(phi, lebesgue_arf(poles, 1, n)) < 1e-10


class TestArfRecurrence:
    def test_order_zero_reproduces_base(self, synth_system):
        arf = arf_recurrence(synth_system, 0)
        for n in range(synth_system.n_max + 1):
            assert_allclose(arf.level(n).phi.numer, synth_system.level(n).phi.numer, atol=1e-13)

    def test_matches_explicit(self, synth_system, poisson_system):
        for s in (synth_system, poisson_system):
            for k in range(min(3, s.n_max) + 1):
                quad = arf_quad(s, k)
                rec = arf_recurrence(s, k)
                for n in range(k, s.n_max + 1):
                    phi_e, psi_e = arf_explicit(s, k, n, quad=quad)
                    assert sup_diff(phi_e, rec.level(n).phi) < 1e-9
                    assert sup_diff(psi_e, rec.level(n).psi) < 1e-9

    def test_worked_first_equals_second_kind(self, worked_system):
        arf = arf_recurrence(worked_system, 1)
        for n in (1, 2):
            assert_allclose(arf.level(n).phi.numer, arf.level(n).psi.numer, atol=1e-13)

    def test_orthonormal_under_recovered_measure(self, poisson_system):
        arf = arf_recurrence(poisson_system, 1)
        theta, t = boundary_grid(1024)
        w = arf.mu_k.weight(theta)
        for i in range(arf.system.n_max + 1):
            for j in range(arf.system.n_max + 1):
                g = (arf.system.level(i).phi(t) * np.conj(arf.system.level(j).phi(t)) * w).mean()
                assert abs(g - (i == j)) < 1e-8


class TestArfCaratheodory:
    def test_order_zero_is_base(self, poisson_system):
        F0 = arf_caratheodory(poisson_system, poisson_system.caratheodory, 0)
        zs = disk_points(5, cap=0.8)
        assert_allclose(F0(zs), poisson_system.caratheodory(zs), rtol=1e-10)

    def test_worked_order_one_constant(self, worked_system):
        F1 = arf_caratheodory(worked_system, worked_system.caratheodory, 1)
        assert_allclose(F1(disk_points(6, cap=0.8)), 1.0, atol=1e-12)

    def test_anchor_and_positivity_random(self, synth_system):
        for k in range(min(3, synth_system.n_max) + 1):
            Fk = arf_caratheodory(synth_system, synth_system.caratheodory, k)
            assert abs(arf_anchor_residual(synth_system, synth_system.caratheodory, k)) < 1e-9
            assert np.min(np.real(Fk(disk_points(7)))) > 0

    def test_repeated_pole_anchor(self, worked_system):
        # beta_2 = beta_0 makes the anchor a removable point; the residual
        # stays at rounding level through the limit form
        res = arf_anchor_residual(worked_system, worked_system.caratheodory, 2)
        assert res < 1e-12


class TestRelations:
    def test_trivial_when_orders_match(self, synth_system):
        rep = relation_residuals(arf_recurrence(synth_system, 1), arf_recurrence(synth_system, 1), 3)
        assert rep.max_residual() < 1e-12

    def test_worked(self, worked_system):
        rep = relation_residuals(arf_recurrence(worked_system, 0), arf_recurrence(worked_system, 1), 2)
        assert rep.max_residual() < 1e-10

    @pytest.mark.parametrize("jkn", [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    def test_random_systems(self, jkn, synth_system, poisson_system):
        j, k, n = jkn
        for s in (synth_system, poisson_system):
            rep = relation_residuals(arf_recurrence(s, j), arf_recurrence(s, k), n)
            assert rep.max_residual() < 1e-10

    def test_bad_order_rejected(self, synth_system):
        with pytest.raises(DomainError):
            relation_residuals(arf_recurrence(synth_system, 2), arf_recurrence(synth_system, 1), 3)


def reference_relation_residuals(aj, ak, n):
    """The relations of one (j, k, n), each level evaluated on its own."""
    system, k = aj.base, ak.order
    _, t = boundary_grid(256)
    pj_n, pj_n_s, qj_n, qj_n_s = aj.level(n).values(t)
    pj_k, pj_k_s, qj_k, qj_k_s = aj.level(k).values(t)
    pk_n, pk_n_s, qk_n, qk_n_s = ak.level(n).values(t)

    def rel(lhs, rhs):
        return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)))

    beta = system.poles.beta
    pr = (1.0 - abs(beta[n]) ** 2) / (1.0 - abs(beta[k]) ** 2)
    pr = pr * system.poles.varpi(k, t) * system.poles.varpi_star(k, t)
    pr = pr / (system.poles.varpi(n, t) * system.poles.varpi_star(n, t))
    br = np.ones_like(t)
    for i in range(k + 1, n + 1):
        br = br * blaschke_factor(system.poles, i, t)
    return (
        rel(2 * pj_n, (pj_k + pj_k_s) * pk_n + (pj_k - pj_k_s) * qk_n),
        rel(2 * pj_n, (pk_n + qk_n) * pj_k + (pk_n - qk_n) * pj_k_s),
        rel(2 * pr * br * pj_k, (qk_n_s + pk_n_s) * pj_n + (qk_n - pk_n) * pj_n_s),
        rel(2 * qj_n, (qj_k + qj_k_s) * qk_n + (qj_k - qj_k_s) * pk_n),
        rel(2 * qj_n, (qk_n + pk_n) * qj_k + (qk_n - pk_n) * qj_k_s),
        rel(2 * pr * br * qj_k, (pk_n_s + qk_n_s) * qj_n + (pk_n - qk_n) * qj_n_s),
    )


def test_relation_stack_matches_per_triple(synth_system, poisson_system):
    # one table per order gives every residual of the per-triple form, bit for bit
    triples = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (1, 1, 4), (0, 3, 4)]
    for s in (synth_system, poisson_system):
        arfs = {k: arf_recurrence(s, k) for k in range(4)}
        for (j, k, n), rep in zip(triples, relation_residual_stack(arfs, triples), strict=True):
            got = (rep.rel1, rep.rel2, rep.rel3, rep.rel1_swapped, rep.rel2_swapped, rep.rel3_swapped)
            assert got == reference_relation_residuals(arfs[j], arfs[k], n)


def test_relation_stack_reads_levels_up_to_highest_n(synth_system, monkeypatch):
    # an n_max = 4 ladder: the triple (0, 1, 2) needs levels 0..2 of order 0
    # and 1..2 of order 1, four functions each, whatever the ladder's length
    arfs = {k: arf_recurrence(synth_system, k) for k in range(2)}
    sizes = []
    real = transforms.evaluate_stack

    def counting(fs, z):
        sizes.append(len(fs))
        return real(fs, z)

    monkeypatch.setattr(transforms, "evaluate_stack", counting)
    relation_residual_stack(arfs, [(0, 1, 2)])
    assert sorted(sizes) == [8, 12]
    assert relation_residual_stack(arfs, []) == []


def test_relation_stack_needs_one_base(synth_system, poisson_system):
    arfs = {0: arf_recurrence(synth_system, 0), 1: arf_recurrence(poisson_system, 1)}
    with pytest.raises(DomainError):
        relation_residual_stack(arfs, [(0, 1, 2)])


class TestRemarkIdentity:
    def test_identity_quad_reduces_to_base(self, synth_system):
        # with c_n = 1 the output is the ladder itself, so dtilde = d = 2
        iq = identity_quad(synth_system.poles)
        G, _, J, _ = apply_transform(synth_system, iq, 1.0, synth_system.n_max)
        d, resid = remark_identity_residual(G, J)
        assert abs(d - 2.0) < 1e-10
        assert resid < 1e-10

    def test_arf_transforms(self, synth_system, poisson_system):
        for s in (synth_system, poisson_system):
            for k in (1, 2):
                quad = arf_quad(s, k)
                for n in range(1, s.n_max - k + 1):
                    G, _, J, _ = apply_transform(s, quad, 2.0, n)
                    d, resid = remark_identity_residual(G, J)
                    assert abs(d - 2.0) < 1e-10
                    assert resid < 1e-10


class TestArfSystemLaziness:
    def test_ladder_needs_no_quad_or_caratheodory(self, monkeypatch, synth_system):
        def fail(*args, **kwargs):
            raise AssertionError("derived part built before it was used")

        monkeypatch.setattr(transforms, "arf_caratheodory", fail)
        monkeypatch.setattr(transforms, "check_quad", fail)
        s = synth_system
        for k in range(s.n_max + 1):
            arf = arf_recurrence(s, k)
            for n in range(k, s.n_max + 1):
                arf.level(n).phi(0.3)
        assert relation_residuals(arf_recurrence(s, 0), arf_recurrence(s, 1), 2).max_residual() < 1e-10

    def test_derived_parts_built_once(self, monkeypatch, poisson_system):
        calls = {"arf_caratheodory": 0, "check_quad": 0}

        def counted(name):
            original = getattr(transforms, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(transforms, name, wrapper)

        counted("arf_caratheodory")
        counted("check_quad")
        arf = arf_recurrence(poisson_system, 2)
        assert calls == {"arf_caratheodory": 0, "check_quad": 0}
        assert arf.F_k is arf.F_k
        assert arf.mu_k is arf.mu_k
        assert arf.quad is arf.quad
        assert arf_discrepancy(arf) < 1e-9
        assert calls == {"arf_caratheodory": 1, "check_quad": 1}
