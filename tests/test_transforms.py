import numpy as np
import pytest
from dataclasses import replace
from numpy.polynomial import polynomial as npp
from numpy.testing import assert_allclose

from orfkit import (
    ConditionUnchecked,
    DivisionRemainderTooLarge,
    DomainError,
    NegativeDensity,
    NumericalFailure,
    OrfSystem,
    PoleSequence,
    RatFun,
    SelfReciprocalQuad,
    arf_quad,
    arf_recurrence,
    builtin_measure,
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
from orfkit import cli, measure, ratfun, transforms
from orfkit.engine import _fit_ladder, identity_residual_stack
from orfkit.measure import CaratheodoryFn, boundary_grid
from orfkit.ratfun import evaluate_stack
from orfkit.transforms import arf_discrepancy, apply_transform_stack, relation_residual_stack
from conftest import probe_ladder, random_poles

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
        rep = check_quad(iq, synth_system.caratheodory, synth_system.poles)
        assert rep.passed and rep.a1_residual == 0.0

    def test_arf_quad_passes_full_check(self, poisson_system, expcos_system):
        for s in (poisson_system, expcos_system):
            rep = check_quad(arf_quad(s, 1), s.caratheodory, s.poles)
            assert rep.passed
            assert rep.a3_max < 1e-10 and rep.a42_max < 1e-10

    def test_vanishing_b_fails_a2(self):
        # self-reciprocal quad over [0, 0.5, -0.3] with B = c z, which kills
        # B(beta_0) = B(0)
        poles = PoleSequence([0.0, 0.5, -0.3])
        a = RatFun(poles, [1.0, 0.0, -1.0], 2)
        b = RatFun(poles, [0.0, 1.0, 0.0], 2)
        quad = SelfReciprocalQuad(a, b, b, a, 1.0, 2, 0, PoleSequence([-0.3]))
        F = CaratheodoryFn(np.ones(1), np.ones(1), 0.0)
        rep = check_quad(quad, F, poles)
        assert not rep.passed
        assert rep.a2_min < 1e-10

    def test_broken_sign_fails_a1(self, synth_system):
        quad = arf_quad(synth_system, 1)
        bad = replace(quad, A=quad.B, B=quad.A, report=None)
        rep = check_quad(bad, synth_system.caratheodory, synth_system.poles)
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
        rep = check_quad(bad, s.caratheodory, s.poles)
        assert not rep.passed
        assert rep.a3_max > transforms.VANISH_TOL

    def test_tilde_point_on_a_zero_of_a_lambda_ladder(self):
        # the same on a lambda ladder, whose lines are read on numerators: the
        # tilde point beta_2 is beta_0, which is divided out of A - B F, and a
        # relative 1e-7 in A leaves a remainder of 5.9e-8 of that line's scale
        s = synthesize([0.3 + 0.1j, -0.2j], PoleSequence([0.0, 0.5, 0.0]))
        quad = arf_quad(s, 2)
        assert quad.report.a3_max <= 1e-12 and quad.report.a42_max <= 1e-12
        rep = check_quad(replace(quad, A=(1 + 1e-7) * quad.A, report=None), s.caratheodory, s.poles)
        assert not rep.passed
        assert rep.a3_max > transforms.VANISH_TOL

    @pytest.mark.parametrize("k", [1, 3])
    def test_lambda_quad_evaluates_nothing_on_the_circle(self, monkeypatch, synth_system, poisson_system,
                                                         expcos_system, k):
        # F = psi*_m/phi*_m, and a measure's moment series, carry their
        # numerators, so both lines are read on coefficients and no grid is
        # made or evaluated, for a lambda, a Poisson and a samples ladder
        def fail(*args, **kwargs):
            raise AssertionError("check_quad evaluated on the circle")

        monkeypatch.setattr(transforms, "boundary_grid", fail)
        for s in (synth_system, poisson_system, expcos_system):
            assert check_quad(arf_quad(s, k), s.caratheodory, s.poles).passed

    @pytest.mark.parametrize("n, seed, orders", [(256, 1, [0, 1, 2, 3]), (64, 0, [57, 58, 59, 61])])
    def test_quads_that_the_grid_could_not_read(self, n, seed, orders):
        # on the circle the order-1 quad of n = 256 read a33 = 4.5e-9 against
        # the 1e-8 gate, and these n = 64 orders a3 or a42 up to 2.1e-10
        # against 1e-10; on numerators they read at most 1.1e-12
        s = probe_ladder(n, seed)
        for k in orders:
            rep = arf_quad(s, k).report
            assert rep.passed, k
            assert rep.a3_max <= 1e-11 and rep.a42_max <= 1e-11, k

    def test_zero_in_the_cofactor_fails_a33(self):
        # order 37 of the cap-0.9 seed-0 probe: Schur-Cohn finds a zero of the
        # A - B F cofactor in the closed disk, while the line vanishes at the
        # poles to 8.4e-13 of its scale
        s = probe_ladder(64, 0, cap=0.9)
        with pytest.raises(NumericalFailure, match="a33_min=0.0"):
            arf_quad(s, 37)

    def test_nan_fails_a1(self):
        # a NaN in A's constant coefficient once read a1 = 4.3e-16, as
        # Python's max drops a NaN
        s = probe_ladder(6, 3)
        quad = arf_quad(s, 1)
        numer = quad.A.numer.copy()
        numer[0] = np.nan
        bad = replace(quad, A=RatFun(quad.A.poles, numer, quad.A.n), report=None)
        rep = check_quad(bad, s.caratheodory, s.poles)
        assert np.isnan(rep.a1_residual) and not rep.passed

    def test_general_r_check_path(self, synth_system):
        # r = 1 with btilde_1 = beta_1: embedding degree-1 members into the
        # product space breaks self-reciprocity there, and the check says so
        s = synth_system
        b1 = s.poles.beta[1]
        quad1 = arf_quad(s, 1)
        combined = PoleSequence([s.poles.beta[0], b1, b1])

        def embed(f):
            numer = np.zeros(3, dtype=complex)
            c = npp.polymul(f.numer, [1.0, -np.conj(b1)])
            numer[: c.size] = c
            return RatFun(combined, numer, 2)

        quad = SelfReciprocalQuad(
            embed(quad1.A), embed(quad1.B), embed(quad1.C), embed(quad1.D),
            1.0, 1, 1, PoleSequence([b1, b1]),
        )
        rep = check_quad(quad, s.caratheodory, s.poles)
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
        one = RatFun(G2.poles, [1.0], 0)
        (_, (a, b, resid, scale)) = _fit_ladder(G2.poles, [one, G1, G2], [one, superstar(G1), superstar(G2)])
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
        # nan fails every comparison, so the remainder, anchor and positivity
        # tests are written to fail on it: NaN numerators give a NaN residual
        F = CaratheodoryFn([np.nan, 1.0], [1.0, 0.0], 0.0)
        with np.errstate(invalid="ignore"), pytest.raises(DivisionRemainderTooLarge, match="nan"):
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
    def test_a_nan_numerator_is_a_nan_discrepancy(self, synth_system):
        # the routes are compared level by level, so a NaN in the last
        # function compared is not dropped by a running maximum
        arf = arf_recurrence(synth_system, 1)
        top = arf.system.levels[-1]
        numer = top.psi.numer.copy()
        numer[0] = np.nan
        levels = [*arf.system.levels[:-1], replace(top, psi=RatFun(top.psi.poles, numer, top.psi.n))]
        system = OrfSystem(arf.system.poles, levels, arf.system.source, caratheodory=arf.system.caratheodory)
        assert np.isnan(arf_discrepancy(transforms.ArfSystem(synth_system, 1, system)))

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
                assert arf.F_k.anchor_residual < 1e-9
                assert np.min(np.real(arf.F_k(disk_points(7)))) > 0

    def test_repeated_pole_anchor(self, worked_system):
        # beta_2 = beta_0 makes both lines of the ratio vanish at the anchor,
        # a 0/0 at which the pointwise ratio raised DenominatorVanishes; with
        # beta_0 divided out of each, F_k reads 1 there to rounding
        F_k = arf_recurrence(worked_system, 2).F_k
        assert F_k.anchor_residual < 1e-12
        assert abs(F_k(0.0) - 1.0) < 1e-15

    @pytest.mark.parametrize("ladder", ["probe n = 24", "exp-cos n = 32"])
    def test_every_order_builds(self, ladder):
        # the pointwise ratio raised at orders 19 and 23 of this probe and at
        # 7 orders of exp-cos n = 32, its anchor or positivity test failing
        if ladder == "probe n = 24":
            s = probe_ladder(24, 5, lcap=0.3)
        else:
            theta = boundary_grid(512)[0]
            s = gram_schmidt_orf(builtin_measure("samples", theta=theta, w=np.exp(np.cos(theta))),
                                 random_poles(0, 33), 32)
        for k in range(s.n_max + 1):
            arf = arf_recurrence(s, k)
            assert arf.F_k.anchor_residual <= 1e-9, k
            assert np.min(np.real(arf.F_k(transforms._POSITIVITY_POINTS))) > 0, k
            assert np.isfinite(arf.mu_k.params["w"]).all(), k


def reference_numerators(system, F, k):
    """The order-k ratio written in the level-k para-orthogonal pairs,
    (Phi_{k,1} F + Psi_{k,1})/(Phi_{k,-1} F + Psi_{k,-1}), as numerators:
    with F = top/bot, both lines times bot, with the zeros they share at
    beta_0..beta_{k-1} left in."""
    pp1 = para_pair(system, k, 1.0)
    ppm = para_pair(system, k, -1.0)
    top, bot = F.numerators
    return tuple(np.convolve(pp.Phi.numer, top) + np.convolve(pp.Psi.numer, bot) for pp in (pp1, ppm))


@pytest.mark.parametrize(
    "ladder, k",
    [(ladder, k) for ladder in ("synth_system", "poisson_system", "expcos_system") for k in range(4)]
    + [("worked_system", 2)],
)
def test_F_k_is_the_para_pair_ratio(request, ladder, k):
    # F_k, the ratio of the cofactors of the order's quad, is the para-pair
    # ratio to rounding; its density table is F_k's own bit for bit and the
    # para-pair ratio's to rounding; its anchor reads rounding, also where
    # worked_system at k = 2 has beta_2 = beta_0, a 0/0 of the para-pair ratio
    s = request.getfixturevalue(ladder)
    arf = arf_recurrence(s, k)
    ref = CaratheodoryFn(*reference_numerators(s, s.caratheodory, k), s.poles.beta[k])
    zs = disk_points(8)
    assert_allclose(arf.F_k(zs), ref(zs), rtol=1e-12)
    theta, w = arf.mu_k.params["theta"], arf.mu_k.params["w"]
    assert np.array_equal(w, weight_from_caratheodory(arf.F_k, theta))
    assert_allclose(w, weight_from_caratheodory(ref, theta), rtol=1e-12)
    assert arf.F_k.anchor_residual <= 1e-13


@pytest.mark.parametrize("k", [0, 2])
def test_mu_k_guards_its_density(poisson_system, k):
    # mu_k is the density of the F_k it holds: one whose real part is
    # negative on the circle (here the true F_k negated) raises, whatever
    # the quad's A, B, C and D read there
    arf = arf_recurrence(poisson_system, k)
    F_k = arf.F_k
    arf.__dict__["F_k"] = CaratheodoryFn(-F_k.numerators[0], F_k.numerators[1], F_k.beta0)
    with pytest.raises(NegativeDensity):
        arf.mu_k


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
    """The relations of one (j, k, n) on numerators, each product by polymul.
    2 pr br is the order-k ladder's 2 P_m B_m, m = n - k, whose numerator over
    the square of its pi_m is c q(z) z^m conj(q(1/conj(z))): q the monic
    polynomial with zeros beta_k..beta_{n-1}, c = 2 (1 - |beta_n|^2)/(1 - |beta_k|^2)
    eta_{k+1}...eta_n."""
    beta, k = aj.base.poles.beta, ak.order

    def numers(lv):
        return (f.numer for f in (lv.phi, lv.phi_star, lv.psi, lv.psi_star))

    pj_n, pj_n_s, qj_n, qj_n_s = numers(aj.level(n))
    pj_k, pj_k_s, qj_k, qj_k_s = numers(aj.level(k))
    pk_n, pk_n_s, qk_n, qk_n_s = numers(ak.level(n))
    q = npp.polyfromroots(beta[k:n])
    ups = np.prod([np.conj(b) / abs(b) if b else 1.0 for b in beta[k + 1 : n + 1]])
    pb = 2.0 * (1 - abs(beta[n]) ** 2) / (1 - abs(beta[k]) ** 2) * ups * npp.polymul(q, np.conj(q[::-1]))

    def side(f1, g1, f2, g2):
        # f1 g1 + f2 g2
        return npp.polyadd(npp.polymul(f1, g1), npp.polymul(f2, g2))

    def rel(lhs, rhs):
        return float(np.max(np.abs(npp.polysub(lhs, rhs))) / np.max(np.abs(lhs)))

    return (
        rel(2 * pj_n, side(pj_k + pj_k_s, pk_n, pj_k - pj_k_s, qk_n)),
        rel(2 * pj_n, side(pk_n + qk_n, pj_k, pk_n - qk_n, pj_k_s)),
        rel(npp.polymul(pb, pj_k), side(qk_n_s + pk_n_s, pj_n, qk_n - pk_n, pj_n_s)),
        rel(2 * qj_n, side(qj_k + qj_k_s, qk_n, qj_k - qj_k_s, pk_n)),
        rel(2 * qj_n, side(qk_n + pk_n, qj_k, qk_n - pk_n, qj_k_s)),
        rel(npp.polymul(pb, qj_k), side(pk_n_s + qk_n_s, qj_n, pk_n - qk_n, qj_n_s)),
    )


def test_relation_stack_matches_per_triple(synth_system, poisson_system, expcos_system):
    # the stack's numerator products give every residual of an independent polymul construction
    triples = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (1, 1, 4), (0, 3, 4)]
    for s in (synth_system, poisson_system, expcos_system):
        arfs = {k: arf_recurrence(s, k) for k in range(4)}
        for (j, k, n), rep in zip(triples, relation_residual_stack(arfs, triples), strict=True):
            got = (rep.rel1, rep.rel2, rep.rel3, rep.rel1_swapped, rep.rel2_swapped, rep.rel3_swapped)
            assert_allclose(got, reference_relation_residuals(arfs[j], arfs[k], n), rtol=0, atol=1e-12)


def test_relation_stack_evaluates_nothing(synth_system, monkeypatch):
    # the relations compare numerator coefficients: no grid, no evaluation
    arfs = {k: arf_recurrence(synth_system, k) for k in range(3)}

    def fail(*args, **kwargs):
        raise AssertionError("relation_residual_stack evaluated a function")

    for module, name in [(transforms, "boundary_grid"), (ratfun, "_horner"), (measure, "_horner")]:
        monkeypatch.setattr(module, name, fail)
    reps = relation_residual_stack(arfs, [(0, 1, 2), (0, 2, 4), (1, 2, 3)])
    assert max(rep.max_residual() for rep in reps) < 1e-12
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
