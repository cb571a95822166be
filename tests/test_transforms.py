import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

from orfkit import (
    ConditionUnchecked,
    DivisionRemainderTooLarge,
    DomainError,
    NumericalFailure,
    PoleSequence,
    RatFun,
    SelfReciprocalQuad,
    arf_quad,
    arf_recurrence,
    check_quad,
    gram_schmidt_orf,
    para_pair,
    identity_quad,
    lebesgue_arf,
    relation_residuals,
    superstar,
    synthesize,
    transformed_caratheodory,
    weight_from_caratheodory,
)
from orfkit import cli, transforms
from orfkit.engine import _FIT_POINTS, _fit_levels, identity_residual_stack
from orfkit.measure import CaratheodoryFn, boundary_grid, ratio_caratheodory
from orfkit.ratfun import blaschke_factor, evaluate_stack
from orfkit.transforms import anchor_residual, arf_discrepancy, apply_transform_stack, relation_residual_stack

SQ3 = np.sqrt(3.0)


def _disk(seed, cap, size):
    rng = np.random.default_rng(seed)
    return cap * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))


@pytest.fixture(scope="module")
def n32_system():
    return synthesize(_disk(0, 0.2, 32), PoleSequence(_disk(100, 0.7, 33)))


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

    def test_report_attached_and_passed(self, poisson_system, expcos_system):
        for s in (poisson_system, expcos_system):
            quad = arf_quad(s, 2)
            assert quad.report is not None and quad.report.passed


@pytest.mark.parametrize("tau_A", [float("nan"), complex(1.0, float("nan")), 0.5])
def test_quad_signature_must_be_unimodular(tau_A):
    one = RatFun(PoleSequence([0.0]), [1.0], 0)
    with pytest.raises(DomainError):
        SelfReciprocalQuad(one, one, one, one, tau_A, 0, 0, PoleSequence([0.0]))


class TestCheckQuad:
    def test_identity_quad_passes(self, synth_system):
        iq = identity_quad(synth_system.poles)
        rep = check_quad(iq, synth_system.caratheodory, synth_system.poles, synth_system.n_points)
        assert rep.passed and rep.a1_residual == 0.0

    def test_arf_quad_passes_full_check(self, poisson_system, expcos_system):
        for s in (poisson_system, expcos_system):
            rep = check_quad(arf_quad(s, 1), s.caratheodory, s.poles, s.n_points)
            assert rep.passed
            assert rep.a3_max < 1e-10 and rep.a42_max < 1e-10

    def test_vanishing_b_fails_a2(self):
        # self-reciprocal quad over [0, 0.5, -0.3] with B = c z, which kills
        # B(beta_0) = B(0)
        poles = PoleSequence([0.0, 0.5, -0.3])
        a = RatFun(poles, [1.0, 0.0, -1.0], 2)
        b = RatFun(poles, [0.0, 1.0, 0.0], 2)
        quad = SelfReciprocalQuad(a, b, b, a, 1.0, 2, 0, PoleSequence([-0.3]))
        rep = check_quad(quad, CaratheodoryFn(lambda z: np.ones_like(z), 0.0), poles, 512)
        assert not rep.passed
        assert rep.a2_min < 1e-10

    def test_broken_sign_fails_a1(self, synth_system):
        quad = arf_quad(synth_system, 1)
        bad = replace(quad, A=quad.B, B=quad.A, report=None)
        rep = check_quad(bad, synth_system.caratheodory, synth_system.poles, synth_system.n_points)
        assert not rep.passed
        assert rep.a1_residual > 1e-2

    @pytest.mark.parametrize("k", [8, 16, 24, 31])
    def test_vanishing_reads_rounding_at_high_order(self, n32_system, k):
        # the conditions once divided by a scale taken in the disk, which
        # shrinks with |B_{k-1}|: a3 read 4.2e-10 and a42 1.7e-10 at k = 31
        rep = arf_quad(n32_system, k).report
        assert rep.passed
        assert rep.a3_max <= 1e-12 and rep.a42_max <= 1e-12

    def test_tilde_point_on_a_zero(self, worked_system):
        # order 2 of [0, 0.5, 0]: the tilde point beta_2 is the zero beta_0 of
        # A - B F, once a removable 0/0; a relative 1e-7 in A fails a3
        s = worked_system
        quad = arf_quad(s, 2)
        assert quad.report.a3_max <= 1e-12 and quad.report.a42_max <= 1e-12
        bad = replace(quad, A=(1 + 1e-7) * quad.A, report=None)
        rep = check_quad(bad, s.caratheodory, s.poles, s.n_points)
        assert not rep.passed
        assert rep.a3_max > transforms.VANISH_TOL

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
        rep = check_quad(quad, s.caratheodory, s.poles, s.n_points)
        assert rep.a1_residual > 1e-3
        assert not rep.passed


@pytest.mark.parametrize(
    "call, shapes",
    [
        (lambda s: [identity_residual_stack([], [], [], [])], [(0,)]),
        (lambda s: apply_transform_stack(s, arf_quad(s, 2), 2.0, []), []),
    ],
    ids=["identity_residual_stack", "apply_transform_stack"],
)
def test_empty_stack_gives_empty_output(synth_system, call, shapes):
    # no rows in, no rows out, as evaluate_stack([], z) does
    assert [np.shape(x) for x in call(synth_system)] == shapes


class TestApplyTransform:
    def test_identity_quad_reproduces_ladder(self, synth_system):
        iq = identity_quad(synth_system.poles)
        for n in range(synth_system.n_max + 1):
            ((G, H, J, K),) = apply_transform_stack(synth_system, iq, 1.0, [n])
            assert_allclose(G.numer, synth_system.level(n).phi.numer, atol=1e-14)
            assert_allclose(J.numer, synth_system.level(n).psi.numer, atol=1e-14)
            assert_allclose(H.numer, synth_system.level(n).phi_star.numer, atol=1e-14)

    def test_superstar_pairing(self, poisson_system, expcos_system):
        for s in (poisson_system, expcos_system):
            ((G, H, J, K),) = apply_transform_stack(s, arf_quad(s, 2), 2.0, [2])
            assert_allclose(superstar(G).numer, H.numer, atol=1e-12)
            assert_allclose(superstar(J).numer, K.numer, atol=1e-12)

    def test_requires_report(self, synth_system):
        quad = replace(arf_quad(synth_system, 1), report=None)
        with pytest.raises(ConditionUnchecked):
            apply_transform_stack(synth_system, quad, 2.0, [1])

    def test_corrupted_quad_leaves_remainder(self, synth_system):
        quad = arf_quad(synth_system, 1)
        numer = quad.A.numer.copy()
        numer[0] += 0.1
        bad = replace(quad, A=RatFun(quad.A.poles, numer, quad.A.n))
        with pytest.raises(DivisionRemainderTooLarge):
            apply_transform_stack(synth_system, bad, 2.0, [2])

    def test_transformed_pair_recurrence(self, synth_system):
        # shifted recurrence with gamma = tau_A lambda_{N+n} and the
        # stored e (the c-ratio is 1 here)
        s = synth_system
        quad = arf_quad(s, 1)
        ((G1, _, _, _),) = apply_transform_stack(s, quad, 2.0, [1])
        ((G2, _, _, _),) = apply_transform_stack(s, quad, 2.0, [2])
        ((a, b, resid, scale),) = _fit_levels(G2.poles, [2], *evaluate_stack((G1, superstar(G1), G2), _FIT_POINTS)[:, None])
        assert resid < 1e-9 * scale
        assert abs(np.conj(b / a) - s.level(3).lam) < 1e-10
        assert abs(abs(a) - s.level(3).e) < 1e-10


class TestTransformedCaratheodory:
    def test_identity(self, poisson_system, expcos_system):
        zs = disk_points(1, cap=0.8)
        for s in (poisson_system, expcos_system):
            Ft = transformed_caratheodory(identity_quad(s.poles), s.caratheodory)
            assert_allclose(Ft(zs), s.caratheodory(zs), rtol=1e-12)

    def test_nan_is_a_failure(self):
        # nan fails every comparison, so the anchor and positivity tests are
        # written to fail on it
        F = CaratheodoryFn(lambda z: np.nan * z, 0.0)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure):
            transformed_caratheodory(identity_quad(PoleSequence([0.0, 0.3])), F)

    def test_worked_order_one_is_constant(self, worked_system):
        quad = arf_quad(worked_system, 1)
        Ft = transformed_caratheodory(quad, worked_system.caratheodory)
        assert_allclose(Ft(disk_points(2, cap=0.8)), 1.0, atol=1e-12)

    def test_positive_real_part(self, synth_system):
        quad = arf_quad(synth_system, 2)
        Ft = transformed_caratheodory(quad, synth_system.caratheodory)
        assert np.min(np.real(Ft(disk_points(3, cap=0.9)))) > 0


class TestArfExplicit:
    # ArfSystem.explicit[n - k] is the order-k pair at level n
    def test_order_zero_identity(self, poisson_system, expcos_system):
        for s in (poisson_system, expcos_system):
            for n, (phi, psi) in enumerate(arf_recurrence(s, 0).explicit):
                assert sup_diff(phi, s.level(n).phi) < 1e-12
                assert sup_diff(psi, s.level(n).psi) < 1e-12

    def test_base_level_is_one(self, poisson_system, expcos_system):
        for s in (poisson_system, expcos_system):
            phi, psi = arf_recurrence(s, 2).explicit[0]
            assert_allclose(phi.numer, [1.0])
            assert_allclose(psi.numer, [1.0])

    def test_worked_closed_form(self, worked_system):
        phi, psi = arf_recurrence(worked_system, 1).explicit[1]
        assert_allclose(phi.numer, [-1 / SQ3, 2 / SQ3], atol=1e-12)
        assert_allclose(psi.numer, phi.numer, atol=1e-12)

    def test_lebesgue_closed_form_general_poles(self, lebesgue):
        poles = PoleSequence([0.0, 0.5, -0.3 + 0.2j, 0.4j, 0.25])
        s = gram_schmidt_orf(lebesgue, poles, 4)
        for n, (phi, _) in enumerate(arf_recurrence(s, 1).explicit, start=1):
            assert sup_diff(phi, lebesgue_arf(poles, 1, n)) < 1e-10


    @pytest.mark.parametrize("k", [31, 38, 46])
    def test_high_orders_of_the_n48_probe(self, k):
        # orders 31-46 of this ladder lose the superstar pairing when the
        # common factor is divided out of the coefficients one root at a time
        rng = np.random.default_rng(1)
        poles = PoleSequence(0.7 * np.sqrt(rng.uniform(size=49)) * np.exp(2j * np.pi * rng.uniform(size=49)))
        lams = 0.2 * np.sqrt(rng.uniform(size=48)) * np.exp(2j * np.pi * rng.uniform(size=48))
        s = synthesize(lams, poles)
        assert arf_discrepancy(arf_recurrence(s, k)) < cli.ARF_AGREEMENT


class TestArfRecurrence:
    def test_order_zero_reproduces_base(self, synth_system):
        arf = arf_recurrence(synth_system, 0)
        for n in range(synth_system.n_max + 1):
            assert_allclose(arf.level(n).phi.numer, synth_system.level(n).phi.numer, atol=1e-13)

    @pytest.mark.parametrize("n", [-1, 1, 4])
    def test_level_outside_the_order_range(self, n):
        # n - order would otherwise index the shifted ladder from its top
        arf = arf_recurrence(synthesize([0.1, 0.2, 0.3], PoleSequence([0.0] * 4)), 2)
        with pytest.raises(DomainError, match="outside 2..3"):
            arf.level(n)

    def test_order_zero_is_the_ladder_itself(self, synth_system, poisson_system):
        for s in (synth_system, poisson_system):
            assert arf_recurrence(s, 0).system is s

    def test_matches_explicit(self, synth_system, poisson_system, expcos_system):
        for s in (synth_system, poisson_system, expcos_system):
            for k in range(min(3, s.n_max) + 1):
                rec = arf_recurrence(s, k)
                for n, (phi_e, psi_e) in enumerate(rec.explicit, start=k):
                    assert sup_diff(phi_e, rec.level(n).phi) < 1e-9
                    assert sup_diff(psi_e, rec.level(n).psi) < 1e-9

    def test_worked_first_equals_second_kind(self, worked_system):
        arf = arf_recurrence(worked_system, 1)
        for n in (1, 2):
            assert_allclose(arf.level(n).phi.numer, arf.level(n).psi.numer, atol=1e-13)

    def test_orthonormal_under_recovered_measure(self, poisson_system, expcos_system):
        theta, t = boundary_grid(1024)
        for s in (poisson_system, expcos_system):
            arf = arf_recurrence(s, 1)
            phi = evaluate_stack([lv.phi for lv in arf.system.levels], t)
            gram = (phi * arf.mu_k.weight(theta)) @ phi.conj().T / t.size
            assert np.max(np.abs(gram - np.eye(len(phi)))) < 1e-8


class TestArfCaratheodory:
    # F_k is the base C-function through the order's quad
    def test_order_zero_is_base(self, poisson_system, expcos_system):
        zs = disk_points(5, cap=0.8)
        for s in (poisson_system, expcos_system):
            assert_allclose(arf_recurrence(s, 0).F_k(zs), s.caratheodory(zs), rtol=1e-10)

    @pytest.mark.parametrize("k", [1, 2])
    def test_expcos_is_not_degenerate(self, expcos_system, k):
        # Poisson and Lebesgue ladders have F_k = 1 for k >= 1, so only a
        # ladder like this one tests the associated checks on a real case
        F = arf_recurrence(expcos_system, k).F_k
        assert np.max(np.abs(F(disk_points(5, cap=0.8)) - 1.0)) > 1e-2

    def test_worked_order_one_constant(self, worked_system):
        F1 = arf_recurrence(worked_system, 1).F_k
        assert_allclose(F1(disk_points(6, cap=0.8)), 1.0, atol=1e-12)

    def test_anchor_and_positivity_random(self, synth_system, expcos_system):
        for s in (synth_system, expcos_system):
            for k in range(min(3, s.n_max) + 1):
                arf = arf_recurrence(s, k)
                assert abs(anchor_residual(arf.quad, s.caratheodory)) < 1e-9
                assert np.min(np.real(arf.F_k(disk_points(7)))) > 0

    def test_repeated_pole_anchor(self, worked_system):
        # beta_2 = beta_0 makes the anchor a removable point; the residual
        # stays at rounding level through the limit form
        res = anchor_residual(arf_quad(worked_system, 2), worked_system.caratheodory)
        assert res < 1e-12


def reference_terms(system, F, k):
    """The order-k ratio written in the level-k para-orthogonal pairs:
    (Phi_{k,1} F + Psi_{k,1}, Phi_{k,-1} F + Psi_{k,-1})."""
    pp1 = para_pair(system, k, 1.0)
    ppm = para_pair(system, k, -1.0)

    def terms(z):
        phi1, psi1, phim, psim = evaluate_stack((pp1.Phi, pp1.Psi, ppm.Phi, ppm.Psi), z)
        f = np.asarray(F(z))
        return phi1 * f + psi1, phim * f + psim

    return terms


def reference_anchor_residual(system, F, k):
    """|ratio - 1| at beta_k, or the limit form on a 16-point ring when the
    anchor is a removable point."""
    b_k = system.poles.beta[k]
    ring = b_k + 0.3 * np.exp(2j * np.pi * (np.arange(16) + 0.41) / 16)
    ring = ring[np.abs(ring) < 0.97]
    nums, dens = reference_terms(system, F, k)(np.concatenate([[b_k], ring]))
    num, den = complex(nums[0]), complex(dens[0])
    den_scale = float(np.max(np.abs(dens[1:])))
    if abs(den) > 1e-6 * den_scale:
        return abs(num / den - 1.0)
    return abs(num - den) / den_scale


@pytest.mark.parametrize(
    "ladder, k",
    [(ladder, k) for ladder in ("synth_system", "poisson_system", "expcos_system") for k in range(4)]
    + [("worked_system", 2)],
)
def test_F_k_is_the_para_pair_ratio(request, ladder, k):
    # the general transform through the order's quad gives the para-pair
    # ratio bit for bit: F_k, its density table and its anchor residual
    # (worked_system at k = 2 has beta_2 = beta_0, a removable anchor)
    s = request.getfixturevalue(ladder)
    arf = arf_recurrence(s, k)
    ref = ratio_caratheodory(reference_terms(s, s.caratheodory, k), s.poles.beta[k])
    zs = disk_points(8)
    assert np.array_equal(arf.F_k(zs), ref(zs))
    theta = arf.mu_k.params["theta"]
    assert np.array_equal(arf.mu_k.params["w"], weight_from_caratheodory(ref, s.poles.beta[k], theta))
    assert arf.F_k.anchor_residual == reference_anchor_residual(s, s.caratheodory, k)


class TestRelations:
    def test_trivial_when_orders_match(self, synth_system):
        rep = relation_residuals(arf_recurrence(synth_system, 1), arf_recurrence(synth_system, 1), 3)
        assert rep.max_residual() < 1e-12

    def test_worked(self, worked_system):
        rep = relation_residuals(arf_recurrence(worked_system, 0), arf_recurrence(worked_system, 1), 2)
        assert rep.max_residual() < 1e-10

    @pytest.mark.parametrize("jkn", [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    def test_random_systems(self, jkn, synth_system, poisson_system, expcos_system):
        j, k, n = jkn
        for s in (synth_system, poisson_system, expcos_system):
            rep = relation_residuals(arf_recurrence(s, j), arf_recurrence(s, k), n)
            assert rep.max_residual() < 1e-10

    def test_bad_order_rejected(self, synth_system):
        with pytest.raises(DomainError):
            relation_residuals(arf_recurrence(synth_system, 2), arf_recurrence(synth_system, 1), 3)

    @pytest.mark.parametrize("jk", [(1, 1), (0, 1)])
    def test_mixed_base_rejected(self, jk, synth_system, poisson_system):
        j, k = jk
        with pytest.raises(DomainError):
            relation_residuals(arf_recurrence(synth_system, j), arf_recurrence(poisson_system, k), 3)


def reference_relation_residuals(aj, ak, n):
    """The relations of one (j, k, n), each level evaluated on its own."""
    system, k = aj.base, ak.order
    _, t = boundary_grid(256)

    def values(lv):
        return evaluate_stack((lv.phi, lv.phi_star, lv.psi, lv.psi_star), t)

    pj_n, pj_n_s, qj_n, qj_n_s = values(aj.level(n))
    pj_k, pj_k_s, qj_k, qj_k_s = values(aj.level(k))
    pk_n, pk_n_s, qk_n, qk_n_s = values(ak.level(n))

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


def test_relation_stack_matches_per_triple(synth_system, poisson_system, expcos_system):
    # one table per order gives every residual of the per-triple form, bit for bit
    triples = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (1, 1, 4), (0, 3, 4)]
    for s in (synth_system, poisson_system, expcos_system):
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
        ((G, _, J, _),) = apply_transform_stack(synth_system, iq, 1.0, [synth_system.n_max])
        (resid,) = identity_residual_stack([G], [J], [superstar(G)], [superstar(J)])
        assert resid < 1e-10

    def test_arf_transforms(self, synth_system, poisson_system, expcos_system):
        for s in (synth_system, poisson_system, expcos_system):
            for k in (1, 2):
                quad = arf_quad(s, k)
                for n in range(1, s.n_max - k + 1):
                    ((G, _, J, _),) = apply_transform_stack(s, quad, 2.0, [n])
                    (resid,) = identity_residual_stack([G], [J], [superstar(G)], [superstar(J)])
                    assert resid < 1e-10


class TestArfSystemLaziness:
    def test_ladder_needs_no_quad_or_caratheodory(self, monkeypatch, synth_system):
        def fail(*args, **kwargs):
            raise AssertionError("derived part built before it was used")

        monkeypatch.setattr(transforms, "transformed_caratheodory", fail)
        monkeypatch.setattr(transforms, "check_quad", fail)
        s = synth_system
        for k in range(s.n_max + 1):
            arf = arf_recurrence(s, k)
            for n in range(k, s.n_max + 1):
                arf.level(n).phi(0.3)
        assert relation_residuals(arf_recurrence(s, 0), arf_recurrence(s, 1), 2).max_residual() < 1e-10

    def test_derived_parts_built_once(self, monkeypatch, poisson_system):
        calls = {"transformed_caratheodory": 0, "check_quad": 0}

        def counted(name):
            original = getattr(transforms, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(transforms, name, wrapper)

        counted("transformed_caratheodory")
        counted("check_quad")
        arf = arf_recurrence(poisson_system, 2)
        assert calls == {"transformed_caratheodory": 0, "check_quad": 0}
        assert arf.F_k is arf.F_k
        assert arf.mu_k is arf.mu_k
        assert arf.quad is arf.quad
        assert arf_discrepancy(arf) < 1e-9
        assert calls == {"transformed_caratheodory": 1, "check_quad": 1}
