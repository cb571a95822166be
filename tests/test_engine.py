import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp
from numpy.testing import assert_allclose, assert_array_equal

from orfkit import (
    DomainError,
    KernelParams,
    OrfSystem,
    ParameterOutOfDisk,
    PoleSequence,
    RankDeficiency,
    RatFun,
    blaschke_factor,
    builtin_measure,
    caratheodory_from_measure,
    caratheodory_from_system,
    evaluate_stack,
    gram_schmidt_orf,
    lebesgue_orf,
    measure_from_system,
    para_pair,
    para_zeros,
    recurrence_step,
    superstar,
    synthesize,
)
from orfkit import engine, ratfun
from orfkit.engine import (
    _circle_nodes,
    _four,
    _gram_defect,
    _level_zero,
    _parameters,
    _run_recurrence,
    determinant_residual_stack,
    interpolation_residual_stack,
    second_kind_functional_residual_stack,
    second_kind_integral_stack,
)
from orfkit.measure import boundary_grid, default_grid
from orfkit.transforms import arf_quad, arf_recurrence
from orfkit.verify import VerifyContext, run_verification

from conftest import fit_at_points

SQ3 = np.sqrt(3.0)


def _with_level(s, n, **changes):
    """A copy of the ladder with some functions of level n replaced."""
    levels = list(s.levels)
    levels[n] = dataclasses.replace(levels[n], **changes)
    return OrfSystem(s.poles, levels, s.source, s.measure, s.caratheodory, s.n_points)


def disk_poles(seed, count, beta0, cap=0.7):
    rng = np.random.default_rng(seed)
    beta = cap * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    beta[0] = beta0
    return PoleSequence(beta)


def _ip(u, v, w):
    return (u * np.conj(v) * w).mean()


def _minus(f, c, g):
    """f - c g over the poles of f, the numerator of g (of lower degree)
    rebased onto the denominator of f one factor (1 - conj(beta_j) z) at a
    time."""
    numer = g.numer
    for j in range(g.n + 1, f.n + 1):
        numer = npp.polymul(numer, [1.0, -np.conj(f.poles.beta[j])])
    return RatFun(f.poles, f.numer - c * np.pad(numer, (0, f.n + 1 - numer.size)), f.n)


def reference_gram_schmidt(mu, poles, n_max, n_points):
    """phi_0..phi_n by the per-coefficient route: modified Gram-Schmidt in
    two passes on B_0..B_n built with polyfromroots, each step rebasing
    numerators onto the common denominator, and the phase fixed by
    evaluating phi_k^*(beta_k)."""
    theta, t = boundary_grid(n_points)
    w = mu.weight(theta)
    phis, vals = [], []
    for k in range(n_max + 1):
        numer = poles.upsilon(k) * npp.polyfromroots(poles.beta[1 : k + 1]) if k else [1.0]
        cand = RatFun(poles, numer, k)
        v = np.asarray(cand(t))
        for _ in range(2):
            for f, fv in zip(phis, vals):
                c = complex(_ip(v, fv, w))
                cand = _minus(cand, c, f)
                v = v - c * fv
        nrm = np.sqrt(_ip(v, v, w).real)
        cand, v = (1.0 / nrm) * cand, v / nrm
        s = superstar(cand)(poles.beta[k])
        u = s / abs(s)
        phis.append(u * cand)
        vals.append(u * v)
    return phis


def _rel(a, b, floor=0.0):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), floor))


def sup_diff(f, g, n=256):
    _, t = boundary_grid(n)
    return float(np.max(np.abs(np.asarray(f(t)) - np.asarray(g(t)))))


class TestGramSchmidt:
    def test_classical_monomials(self, lebesgue):
        s = gram_schmidt_orf(lebesgue, PoleSequence([0.0] * 4), 3)
        for n in range(4):
            expected = np.zeros(n + 1)
            expected[n] = 1.0
            assert_allclose(s.level(n).phi.numer, expected, atol=1e-13)

    def test_worked_level_one(self, worked_system):
        assert_allclose(worked_system.level(1).phi.numer, [0.0, SQ3 / 2], atol=1e-12)

    def test_lambdas_vanish_for_lebesgue(self, lebesgue):
        # beta_0 = 0; the other poles are arbitrary
        poles = PoleSequence([0.0, 0.5, -0.3 + 0.2j, 0.4j])
        s = gram_schmidt_orf(lebesgue, poles, 3)
        for n in range(1, 4):
            assert abs(s.level(n).lam) < 1e-12

    def test_closed_form_any_poles(self, lebesgue):
        poles = PoleSequence([0.0, 0.5, -0.3 + 0.2j, 0.4j])
        s = gram_schmidt_orf(lebesgue, poles, 3)
        for n in range(4):
            assert sup_diff(s.level(n).phi, lebesgue_orf(poles, n)) < 1e-12
            # second kind equals first kind in this configuration
            assert sup_diff(s.level(n).psi, s.level(n).phi) < 1e-11

    def test_gram_identity(self, poisson_system):
        s = poisson_system
        theta, t = boundary_grid(s.n_points)
        w = s.measure.weight(theta)
        vals = [s.level(n).phi(t) for n in range(s.n_max + 1)]
        for i, vi in enumerate(vals):
            for j, vj in enumerate(vals):
                g = (vi * np.conj(vj) * w).mean()
                assert abs(g - (i == j)) < 1e-10

    @pytest.mark.parametrize("n_points", [512, 4096])
    def test_gram_defect_matches_pairwise_loop(self, n_points):
        # functions far from orthonormal, so the defect is O(1) and each
        # entry of the blocked matrix product is compared with its loop value
        rng = np.random.default_rng(4)
        theta, t = boundary_grid(n_points)
        w = builtin_measure("poisson", alpha=0.3 + 0.2j).weight(theta)
        poles = PoleSequence(np.zeros(5))
        funcs = [RatFun(poles, rng.standard_normal(k + 1)) for k in range(5)]
        for scale in np.eye(5):
            scaled = [f * (1.0 + 3.0 * s) for f, s in zip(funcs, scale)]
            expected = max(
                abs((fi(t) * np.conj(fj(t)) * w).mean() - (i == j))
                for i, fi in enumerate(scaled)
                for j, fj in enumerate(scaled)
            )
            assert_allclose(_gram_defect(scaled, w), expected, rtol=1e-12)

    def test_blocks_count_rows_from_the_functions(self, synth_system):
        # at N = 8192 the blocks of a quad's four functions, of a (phi_n,
        # psi_n) pair and of a 7-level Gram stack are those of the hand
        # counts 8, 4 and 7 complex values per point; a pass with no
        # functions takes 1024-point blocks
        def counted(rows):
            step = max(1024, (1 << 18) // (16 * rows))
            return [slice(lo, lo + step) for lo in range(0, 8192, step)]

        quad = arf_quad(synth_system, 1)
        lv = synth_system.level(3)
        ladder = synthesize(np.full(6, 0.2), PoleSequence(np.zeros(7)))
        for funcs, rows in (
            ((quad.A, quad.B, quad.C, quad.D), 8),
            ((lv.phi, lv.psi), 4),
            ([level.phi for level in ladder.levels], 7),
        ):
            assert list(engine._blocks(8192, funcs)) == counted(rows)
        assert list(engine._blocks(8192)) == [slice(lo, lo + 1024) for lo in range(0, 8192, 1024)]

    @pytest.mark.parametrize("n", [3, 12, 24])
    @pytest.mark.parametrize("beta0", [0.0, 0.3 - 0.4j])
    @pytest.mark.parametrize("kind", ["lebesgue", "poisson", "samples"])
    def test_matches_per_coefficient_reference(self, kind, beta0, n):
        theta = boundary_grid(512)[0]
        mu = {
            "lebesgue": builtin_measure("lebesgue"),
            "poisson": builtin_measure("poisson", alpha=0.3 - 0.2j),
            "samples": builtin_measure("samples", theta=theta, w=1.0 + 0.4 * np.cos(theta - 0.7)),
        }[kind]
        poles = disk_poles(n, n + 1, beta0)
        s = gram_schmidt_orf(mu, poles, n)
        ref = reference_gram_schmidt(mu, poles, n, s.n_points)
        kp = KernelParams(beta0)
        theta, t = boundary_grid(s.n_points)
        w, zt = mu.weight(theta), kp.zeta0(t)
        for k, phi in enumerate(ref):
            lv = s.level(k)
            assert _rel(lv.phi.numer, phi.numer) < 1e-12
            psi = reference_second_kind_on_grid(poles, kp, phi, k, w, zt, phi(t))
            assert _rel(lv.psi.numer, psi.numer) < 1e-12
        fits = fit_at_points(poles, ref, [superstar(phi) for phi in ref])
        ref_lams = [_parameters(k, fit)[0] for k, fit in enumerate(fits, start=1)]
        # lambda lives in the unit disk and vanishes for Lebesgue, so its
        # relative error is taken against a scale of at least 1
        lams = np.array([s.level(k).lam for k in range(1, n + 1)])
        assert _rel(lams, np.array(ref_lams), floor=1.0) < 1e-12

    def test_gram_schmidt_makes_no_combine_calls(self):
        # the numerator combination is gone: no module can call it
        mu = builtin_measure("poisson", alpha=0.3 - 0.2j)
        s = gram_schmidt_orf(mu, disk_poles(3, 7, 0.2j), 6)
        assert s.n_max == 6
        assert not hasattr(ratfun, "combine") and not hasattr(engine, "combine")

    @pytest.mark.parametrize("kind", ["poisson", "samples"])
    def test_ladder_is_recurrence_of_its_parameters(self, kind):
        # the measure route ends in the recurrence that synthesize runs, so
        # the stored levels are that recurrence on the stored (lambda, rho),
        # e at its orthonormal value
        theta = boundary_grid(512)[0]
        mu = {
            "poisson": builtin_measure("poisson", alpha=0.3 - 0.2j),
            "samples": builtin_measure("samples", theta=theta, w=1.0 + 0.4 * np.cos(theta - 0.7)),
        }[kind]
        s = gram_schmidt_orf(mu, disk_poles(5, 13, 0.2 - 0.1j), 12)
        params = ((lv.lam, lv.rho) for lv in s.levels[1:])
        rebuilt = _run_recurrence(s.poles, _level_zero(s.poles, s.level(0).phi.numer[0]), params)
        for lv, ref in zip(s.levels, rebuilt, strict=True):
            for name in ("phi", "phi_star", "psi", "psi_star"):
                assert_array_equal(_bits(getattr(lv, name).numer), _bits(getattr(ref, name).numer))
            assert (lv.lam, lv.e, lv.rho) == (ref.lam, ref.e, ref.rho)

    def test_build_runs_no_quadrature(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("second-kind quadrature ran in a build")

        monkeypatch.setattr(engine, "second_kind_integral_stack", no_quadrature)
        monkeypatch.setattr(engine, "herglotz_kernel", no_quadrature)
        s = gram_schmidt_orf(builtin_measure("poisson", alpha=0.3 - 0.2j), disk_poles(3, 7, 0.2j), 6)
        assert s.n_max == 6

    def test_more_levels_than_grid_points(self, lebesgue):
        with pytest.raises(RankDeficiency, match="level 256"):
            gram_schmidt_orf(lebesgue, PoleSequence([0.0] * 257), 256, n_points=256)
        s = gram_schmidt_orf(lebesgue, PoleSequence([0.0] * 256), 255, n_points=256)
        top = np.zeros(256)
        top[255] = 1.0
        assert_allclose(s.level(255).phi.numer, top, atol=1e-12)

    def test_phase_convention(self, poisson_system):
        for n in range(poisson_system.n_max + 1):
            v = complex(
                poisson_system.level(n).phi_star(poisson_system.poles.beta[n])
            )
            assert v.real > 0 and abs(v.imag) < 1e-12 * v.real

    def test_pole_cap(self, lebesgue):
        poles = PoleSequence([0.0, 0.95])
        with pytest.raises(DomainError):
            gram_schmidt_orf(lebesgue, poles, 1)
        with pytest.warns(UserWarning):
            gram_schmidt_orf(lebesgue, poles, 1, allow_poles_near_circle=True)
        # both constructors reject a pole sequence that stops before n_max
        short = PoleSequence([0.0, 0.5])
        with pytest.raises(DomainError, match="shorter"):
            gram_schmidt_orf(lebesgue, short, 2)
        with pytest.raises(DomainError, match="shorter"):
            synthesize([0.1, 0.2], short)


class TestRecurrenceStep:
    def test_shift_case(self):
        poles = PoleSequence([0.0] * 4)
        lv = _level_zero(poles, 1.0)
        for n in range(1, 4):
            lv = recurrence_step(lv, 0.0, 1.0, poles, n)
            assert lv.e == 1.0
            expected = np.zeros(n + 1)
            expected[n] = 1.0
            assert_allclose(lv.phi.numer, expected, atol=1e-15)

    def test_e_value(self):
        poles = PoleSequence([0.0, 0.5])
        lv = recurrence_step(_level_zero(poles, 1.0), 0.0, 1.0, poles, 1)
        assert_allclose(lv.e, np.sqrt(0.75))

    def test_matches_gram_schmidt(self, worked_system):
        s = worked_system
        lv = _level_zero(s.poles, 1.0)
        for n in (1, 2):
            lv = recurrence_step(lv, s.level(n).lam, s.level(n).rho, s.poles, n, e=s.level(n).e)
            assert sup_diff(lv.phi, s.level(n).phi) < 1e-9
            assert sup_diff(lv.psi, s.level(n).psi) < 1e-9

    def test_rejects_lambda_outside(self):
        poles = PoleSequence([0.0, 0.5])
        with pytest.raises(ParameterOutOfDisk):
            recurrence_step(_level_zero(poles, 1.0), 1.0, 1.0, poles, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.1, float("nan"))])
    def test_rejects_non_finite_lambda(self, bad):
        poles = PoleSequence([0.0, 0.5])
        with pytest.raises(ParameterOutOfDisk):
            recurrence_step(_level_zero(poles, 1.0), bad, 1.0, poles, 1)

    @pytest.mark.parametrize("which", ["synth24", "poisson_system", "expcos_system"])
    def test_starred_rows_are_superstars(self, which, request):
        # each level's phi_n^* and psi_n^* are superstar(phi_n) and
        # superstar(psi_n) to the bit, on the ladder and its order-1..3
        # associated ladders
        s = _starred_case(which, request)
        for ladder in [s] + [arf_recurrence(s, k).system for k in (1, 2, 3)]:
            for lv in ladder.levels:
                assert_array_equal(_bits(lv.phi_star.numer), _bits(superstar(lv.phi).numer))
                assert_array_equal(_bits(lv.psi_star.numer), _bits(superstar(lv.psi).numer))

    @pytest.mark.parametrize("which", ["synth24", "poisson_system", "expcos_system"])
    def test_associated_ladder_is_chain_on_stored_e(self, which, request):
        # arf_recurrence takes e_n at its orthonormal value; the chain that
        # passes the stored e_n gives the same bits
        s = _starred_case(which, request)
        for k in (1, 2, 3):
            arf = arf_recurrence(s, k).system
            lv = _level_zero(arf.poles, 1.0)
            assert arf.levels[0] == lv
            for n, src in enumerate(s.levels[k + 1 :], start=1):
                lv = recurrence_step(lv, src.lam, src.rho, arf.poles, n, e=src.e)
                got = arf.levels[n]
                for name in ("phi", "phi_star", "psi", "psi_star"):
                    assert_array_equal(_bits(getattr(got, name).numer), _bits(getattr(lv, name).numer))
                assert (got.lam, got.e, got.rho) == (lv.lam, lv.e, lv.rho)

    def test_psi_sign_structure(self, synth_system):
        # the psi ladder satisfies the same recurrence with the sign flip;
        # rebuilt levels must reproduce the stored ones exactly
        s = synth_system
        lv = _level_zero(s.poles, 1.0)
        for n in range(1, s.n_max + 1):
            lv = recurrence_step(lv, s.level(n).lam, s.level(n).rho, s.poles, n, e=s.level(n).e)
        assert_allclose(lv.psi.numer, s.level(s.n_max).psi.numer, atol=1e-14)


def _starred_case(which, request):
    """A synthesized n = 24 ladder, or the named fixture ladder."""
    if which != "synth24":
        return request.getfixturevalue(which)
    rng = np.random.default_rng(24)
    return synthesize(_disk(rng, 0.5, 24), PoleSequence(_disk(rng, 0.7, 25)))


class TestSynthesize:
    def test_non_finite_lambda_is_out_of_disk(self):
        # rejected before any arithmetic on it; the suite turns a RuntimeWarning
        # into an error, so a nan that reached the recurrence would fail here
        with pytest.raises(ParameterOutOfDisk):
            synthesize([float("nan")], PoleSequence([0.0, 0.3]))

    def test_polynomial_case(self):
        s = synthesize([0.0, 0.0, 0.0], PoleSequence([0.0] * 4))
        for n in range(4):
            expected = np.zeros(n + 1)
            expected[n] = 1.0
            assert_allclose(s.level(n).phi.numer, expected, atol=1e-15)
            assert_allclose(s.level(n).psi.numer, expected, atol=1e-15)

    def test_single_lambda(self):
        s = synthesize([0.5], PoleSequence([0.0, 0.0]))
        assert_allclose(s.level(1).phi.numer, np.array([0.5, 1.0]) / np.sqrt(0.75))

    def test_empty(self):
        s = synthesize([], PoleSequence([0.3]))
        assert s.n_max == 0
        assert_allclose(s.level(0).phi.numer, [1.0])

    def test_given_grid_skips_the_completion_grid(self, monkeypatch, synth_system):
        # n_points as gram_schmidt_orf takes it: the ladder is the default
        # build's, bit for bit, and its zeros are never sought
        lams = [lv.lam for lv in synth_system.levels[1:]]

        def no_grid(*_):
            raise AssertionError("_completion_grid called")

        monkeypatch.setattr(engine, "_completion_grid", no_grid)
        s = synthesize(lams, synth_system.poles, n_points=4096)
        assert s.n_points == 4096
        for lv, ref in zip(s.levels, synth_system.levels, strict=True):
            for f, g in zip(_four(lv), _four(ref)):
                assert_array_equal(f.numer, g.numer)
            assert (lv.lam, lv.e, lv.rho) == (ref.lam, ref.e, ref.rho)


class TestExtraction:
    def test_roundtrip(self, synth_system):
        s = synth_system
        fits = fit_at_points(s.poles, [lv.phi for lv in s.levels], [lv.phi_star for lv in s.levels])
        for n, fit in enumerate(fits, start=1):
            lam, e, rho = _parameters(n, fit)
            assert abs(lam - s.level(n).lam) < 1e-12
            assert abs(e - s.level(n).e) < 1e-12
            assert abs(rho - 1.0) < 1e-12

    def test_phase_covariance(self, synth_system):
        s = synth_system
        c = np.exp(0.7j)
        prev = s.level(0)
        ((a0, b0, _, _),) = fit_at_points(s.poles, [prev.phi, s.level(1).phi], [prev.phi_star, s.level(1).phi_star])
        ((a1, b1, _, _),) = fit_at_points(s.poles, [prev.phi, c * s.level(1).phi], [prev.phi_star, s.level(1).phi_star])
        assert abs(np.conj(b1 / a1) - np.conj(b0 / a0)) < 1e-12
        assert abs(a1 / abs(a1) - c * a0 / abs(a0)) < 1e-12

    def test_gram_schmidt_levels_fit(self, poisson_system):
        levels = poisson_system.levels
        fits = fit_at_points(poisson_system.poles, [lv.phi for lv in levels], [lv.phi_star for lv in levels])
        for n, fit in enumerate(fits, start=1):
            lam, e, rho = _parameters(n, fit)
            assert abs(lam) < 1.0
            # orthonormal ladder: e matches its closed form
            b_prev = poisson_system.poles.beta[n - 1]
            b_n = poisson_system.poles.beta[n]
            e_expected = np.sqrt(
                (1 - abs(b_n) ** 2) / (1 - abs(b_prev) ** 2) / (1 - abs(lam) ** 2)
            )
            assert abs(e - e_expected) < 1e-9


class TestSecondKind:
    def test_level_zero_is_phi(self, poisson_system):
        psi = second_kind_integral_stack(poisson_system.measure, poisson_system, [0])[0]
        assert_allclose(psi.numer, poisson_system.level(0).phi.numer, atol=1e-13)

    def test_nodes_off_the_grid(self):
        # no node meets a quadrature node, where the difference quotient is 0/0:
        # each stays at least 1/(2 count) of a grid step away
        for count in (1, 3, 5, 17, 33, 65):
            steps = np.angle(_circle_nodes(count, 256)) * 256 / (2 * np.pi)
            assert np.min(np.abs(steps - np.round(steps))) > 0.4 / count

    def test_herglotz_means_match_nodewise_loop(self, poisson_system):
        # psi_4 from the stack, at its five nodes, against the defining
        # difference-form means taken one node at a time
        s, kp = poisson_system, poisson_system.kernel
        theta, t = boundary_grid(s.n_points)
        w = s.measure.weight(theta)
        phi = s.level(4).phi
        nodes = _circle_nodes(5, s.n_points)
        zt = kp.zeta0(t)
        ref = [((zt + kp.zeta0(z)) / (zt - kp.zeta0(z)) * (phi(t) - phi(z)) * w).mean() for z in nodes]
        psi = second_kind_integral_stack(s.measure, s, [4])[0]
        assert_allclose(psi(nodes), np.array(ref) + (phi(t) * w).mean(), rtol=1e-12)

    def test_integral_matches_recurrence(self, poisson_system):
        s = poisson_system
        lv = _level_zero(s.poles, s.level(0).phi.numer[0])
        for n in range(1, s.n_max + 1):
            lv = recurrence_step(lv, s.level(n).lam, s.level(n).rho, s.poles, n, e=s.level(n).e)
            psi = second_kind_integral_stack(s.measure, s, [n])[0]
            assert sup_diff(psi, lv.psi, 512) < 1e-8

    def test_full_degree(self, poisson_system):
        # psi_n does not collapse into the previous space: its numerator does
        # not carry the factor (1 - conj(beta_n) z)
        s = poisson_system
        n = s.n_max
        b = s.poles.beta[n]
        val = npp.polyval(1.0 / np.conj(b), s.level(n).psi.numer)
        assert abs(val) > 1e-6


class TestParaOrthogonal:
    def test_polynomial_pair(self, lebesgue):
        s = gram_schmidt_orf(lebesgue, PoleSequence([0.0] * 3), 2)
        pp = para_pair(s, 2, 1.0)
        assert_allclose(pp.Phi.numer, [1.0, 0.0, 1.0], atol=1e-13)

    def test_self_reciprocal(self, synth_system):
        for tau in (1.0, 1.0j, -1.0, -1.0j):
            pp = para_pair(synth_system, 3, tau)
            assert_allclose(superstar(pp.Phi).numer, np.conj(tau) * pp.Phi.numer, atol=1e-13)
            assert_allclose(superstar(pp.Psi).numer, -np.conj(tau) * pp.Psi.numer, atol=1e-13)

    def test_worked_pair(self, worked_system):
        pp = para_pair(worked_system, 1, 1.0)
        assert_allclose(pp.Phi.numer, [SQ3 / 2, SQ3 / 2], atol=1e-12)

    def test_rejects_non_unimodular(self, worked_system):
        with pytest.raises(DomainError):
            para_pair(worked_system, 1, 0.5)

    @pytest.mark.parametrize("tau", [float("nan"), complex(1.0, float("nan")), float("inf")])
    def test_rejects_non_finite_tau(self, worked_system, tau):
        with pytest.raises(DomainError):
            para_pair(worked_system, 1, tau)

    def test_explicit_roots(self, lebesgue):
        s = gram_schmidt_orf(lebesgue, PoleSequence([0.0] * 4), 3)
        zs = para_zeros(para_pair(s, 2, 1.0))
        assert_allclose(sorted(zs, key=np.angle), [-1.0j, 1.0j], atol=1e-12)
        zs = para_zeros(para_pair(s, 3, 1.0))
        assert_allclose(np.abs(zs), 1.0, atol=1e-13)
        angles = np.sort(np.mod(np.angle(zs), 2 * np.pi))
        assert_allclose(angles, [np.pi / 3, np.pi, 5 * np.pi / 3], atol=1e-12)

    def test_worked_root(self, worked_system):
        zs = para_zeros(para_pair(worked_system, 1, 1.0))
        assert_allclose(zs, [-1.0], atol=1e-12)

    def test_unit_modulus_and_simple(self, synth_system, poisson_system):
        for s in (synth_system, poisson_system):
            for n in range(1, s.n_max + 1):
                for tau in (1.0, 1.0j, -1.0, -1.0j):
                    zs = para_zeros(para_pair(s, n, tau))
                    assert len(zs) == n
                    assert np.max(np.abs(np.abs(zs) - 1.0)) < 1e-9


class TestDeterminant:
    def test_level_zero(self, worked_system):
        (d,), (resid,) = determinant_residual_stack(worked_system, [0])
        assert abs(d - 2.0) < 1e-12 and resid < 1e-12

    def test_polynomial_level_one(self):
        s = synthesize([0.0], PoleSequence([0.0, 0.0]))
        lv = s.level(1)
        _, t = boundary_grid(64)
        left = lv.phi_star(t) * lv.psi(t) + lv.phi(t) * lv.psi_star(t)
        assert_allclose(left, 2.0 * t, atol=1e-14)

    def test_residuals(self, synth_system, poisson_system):
        for s in (synth_system, poisson_system):
            for d, resid in zip(*determinant_residual_stack(s, range(s.n_max + 1)), strict=True):
                assert abs(d - 2.0) < 1e-9
                assert resid < 1e-10

    def test_stored_superstar_checked(self, poisson_system):
        # the identity reads the stored phi_n^*: a relative 1e-6 in it fails
        s = poisson_system
        wrong = _with_level(s, 3, phi_star=(1 + 1e-6) * s.level(3).phi_star)
        report = run_verification(VerifyContext(wrong, seed=0, tolerances={}), ["determinant"])
        assert not report["determinant"]["pass"]


class TestInterpolation:
    def test_worked_distinct_levels(self, worked_system):
        resid, witness = interpolation_residual_stack(worked_system, worked_system.caratheodory, [1])
        assert resid[0] < 1e-12
        assert witness[0] > 1e-8

    def test_level_zero(self, poisson_system):
        # phi_0 (F + 1) vanishes nowhere; phi_0^* (F - 1) vanishes at beta_0
        resid, witness = interpolation_residual_stack(poisson_system, poisson_system.caratheodory, [0])
        assert resid[0] < 1e-12
        assert witness[0] > 1e-8

    def test_all_levels(self, poisson_system):
        levels = range(poisson_system.n_max + 1)
        resid, witness = interpolation_residual_stack(poisson_system, poisson_system.caratheodory, levels)
        assert resid.shape == witness.shape == (poisson_system.n_max + 1,)
        assert np.all(resid < 1e-12)
        assert np.all(witness > 1e-8)

    @pytest.mark.parametrize(
        "betas", [[0.0, 0.5, 0.0], [0.3] * 9, [0.0, 0.4, -0.3j] * 3], ids=["readme", "equal", "cyclic"]
    )
    def test_repeated_poles_checked(self, betas):
        # a repeated pole is a zero of higher multiplicity, read at every level
        s = gram_schmidt_orf(builtin_measure("lebesgue"), PoleSequence(betas), len(betas) - 1)
        resid, witness = interpolation_residual_stack(s, s.caratheodory, range(s.n_max + 1))
        assert resid.size == s.n_max + 1
        assert np.all(resid < 1e-12)
        assert np.all(witness > 1e-8)
        report = run_verification(VerifyContext(s, seed=0, tolerances={}), ["interpolation"])
        assert report["interpolation"]["pass"]

    def test_perturbed_level_fails(self, poisson_system):
        # a relative 1e-7 in phi_3 alone reads about 3e-8, far above 1e-10
        s = poisson_system
        wrong = _with_level(s, 3, phi=(1 + 1e-7) * s.level(3).phi)
        report = run_verification(VerifyContext(wrong, seed=0, tolerances={}), ["interpolation"])
        assert not report["interpolation"]["pass"]
        assert report["interpolation"]["residual"] > 1e-9

    def test_repeated_pole_multiplicity(self):
        # beta_2 = beta_0 = 0 doubles the zero of the starred line at 0:
        # value and first derivative both vanish there
        mu = builtin_measure("poisson", alpha=0.3)
        s = gram_schmidt_orf(mu, PoleSequence([0.0, 0.5, 0.0]), 2)
        F = s.caratheodory
        lv = s.level(2)

        def g(z):
            return complex(lv.phi_star(z)) * complex(F(z)) - complex(lv.psi_star(z))

        h = 1e-4
        assert abs(g(0.0)) < 1e-12
        assert abs((g(h) - g(-h)) / (2 * h)) < 1e-6
        # the simple zero at beta_1 = 0.5 still holds
        assert abs(g(0.5)) < 1e-12


class TestFunctionalIdentities:
    def test_multiplied_second_kind(self, poisson_system):
        for n in range(poisson_system.n_max + 1):
            (res,) = second_kind_functional_residual_stack(
                poisson_system, poisson_system.measure, [n], seed=n
            )
            assert res < 1e-7

    @pytest.mark.parametrize("ladder", ["poisson_system", "synth_system", "expcos_system"])
    def test_wrong_second_kind_is_caught(self, request, ladder):
        # psi_4 off by a relative 1e-6 gives a residual of that size
        s = request.getfixturevalue(ladder)
        mu = s.measure or measure_from_system(s)
        lv = s.level(4)
        wrong = _with_level(s, 4, psi=(1 + 1e-6) * lv.psi, psi_star=(1 + 1e-6) * lv.psi_star)
        assert second_kind_functional_residual_stack(s, mu, [4])[0] < 1e-12
        assert 5e-7 < second_kind_functional_residual_stack(wrong, mu, [4])[0] < 2e-6


def test_measure_system_builds_its_moment_series(poisson_system):
    # given a measure and no C-function, a system reads the measure's
    # moment series on its own grid
    s, mu = poisson_system, poisson_system.measure
    own = OrfSystem(s.poles, s.levels, s.source, measure=mu, n_points=s.n_points)
    ref = caratheodory_from_measure(mu, s.poles.beta[0], n_points=s.n_points)
    zs = np.concatenate([boundary_grid(s.n_points)[1], 0.9 * np.exp(2j * np.pi * np.arange(64) / 64)])
    assert_array_equal(own.caratheodory(zs), ref(zs))
    assert_array_equal(s.caratheodory(zs), ref(zs))


class TestRationalCompletion:
    def test_anchor_and_positivity(self, synth_system):
        F = caratheodory_from_system(synth_system)
        beta0 = synth_system.poles.beta[0]
        assert abs(F(beta0) - 1.0) < 1e-12
        rng = np.random.default_rng(9)
        zs = 0.9 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
        assert np.min(np.real(F(zs))) > 0

    def test_gram_schmidt_recovers_parameters(self, synth_system):
        mu = measure_from_system(synth_system)
        gs = gram_schmidt_orf(mu, synth_system.poles, synth_system.n_max)
        for n in range(1, synth_system.n_max + 1):
            assert abs(abs(gs.level(n).lam) - abs(synth_system.level(n).lam)) < 1e-10
        _, t = boundary_grid(256)
        for n in range(synth_system.n_max + 1):
            a = np.abs(gs.level(n).phi(t))
            b = np.abs(synth_system.level(n).phi(t))
            assert np.max(np.abs(a - b)) < 1e-10


# -- bit-identical kernels -----------------------------------------------------
# Reference copies of the per-call forms the build once used; the kernels that
# replaced them must give the same bits, not just close values.


def _bits(x):
    """The raw 64-bit words of complex values, so -0.0 and 0.0 differ."""
    return np.atleast_1d(np.asarray(x, dtype=complex)).view(np.uint64)


def reference_padded_polymul(a, b, size):
    out = np.zeros(size, dtype=complex)
    c = npp.polymul(a, b)
    out[: c.size] = c
    return out


def reference_upsilon(poles, k):
    out = 1.0 + 0.0j
    for j in range(1, k + 1):
        out *= poles.eta(j)
    return out


def reference_fit_step(poles, n, phi_prev, phi_star_prev, phi_n):
    zs = np.exp(2j * np.pi * ((np.arange(16) + 0.37) * (np.sqrt(5.0) - 1.0) / 2.0 % 1.0))
    phi_z = phi_n(zs)
    lhs = phi_z * poles.varpi(n, zs) / poles.varpi(n - 1, zs)
    prev_z, col2 = evaluate_stack((phi_prev, phi_star_prev), zs)
    col1 = blaschke_factor(poles, n - 1, zs) * prev_z
    mat = np.stack([col1, col2], axis=1)
    # reduced QR, then back substitution on the 2 x 2 triangle
    q, r = np.linalg.qr(mat)
    y = q.conj().T @ lhs
    b = y[1] / r[1, 1]
    a = (y[0] - r[0, 1] * b) / r[0, 0]
    return a, b, float(np.max(np.abs(mat @ np.array([a, b]) - lhs))), float(np.max(np.abs(phi_z)))


@pytest.mark.parametrize("which", ["synth", "poisson", "lebesgue"])
def test_fit_matches_lstsq(which, synth_system, poisson_system, lebesgue):
    # the QR solve and the SVD least-squares driver agree to rounding
    s = {
        "synth": synth_system,
        "poisson": poisson_system,
        "lebesgue": gram_schmidt_orf(lebesgue, disk_poles(2, 8, 0.3j), 7),
    }[which]
    zs = engine._FIT_POINTS
    phi_z = evaluate_stack([lv.phi for lv in s.levels], zs)
    star_z = evaluate_stack([lv.phi_star for lv in s.levels], zs)
    for n in range(1, s.n_max + 1):
        a, b, resid, scale = engine._fit_values(s.poles, n, phi_z[n - 1], star_z[n - 1], phi_z[n])
        lhs = phi_z[n] * s.poles.varpi(n, zs) / s.poles.varpi(n - 1, zs)
        mat = np.stack([blaschke_factor(s.poles, n - 1, zs) * phi_z[n - 1], star_z[n - 1]], axis=1)
        sol = np.linalg.lstsq(mat, lhs, rcond=None)[0]
        assert np.max(np.abs(np.array([a, b]) - sol)) <= 1e-13 * np.max(np.abs(sol))
        assert resid <= 1e-13 * scale


def _numerators(systems):
    return [
        _bits(f.numer)
        for s in systems
        for lv in s.levels
        for f in (lv.phi, lv.phi_star, lv.psi, lv.psi_star)
    ]


def _recurrence_cases(n):
    """(lambdas, poles) of seeded ladders: beta_0 != 0, all poles 0 (with
    zero and nonzero lambdas), and poles of which a random half are 0. With
    zero lambdas the numerators then carry runs of trailing zeros of many
    lengths, the case in which trimming decides the order of a sum."""
    rng = np.random.default_rng(n)

    def disk(cap, size):
        return cap * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))

    lams = disk(0.5, n)
    cases = [
        (lams, PoleSequence(disk(0.7, n + 1))),
        (lams, PoleSequence(np.zeros(n + 1))),
        (np.zeros(n), PoleSequence(np.zeros(n + 1))),
    ]
    for i in range(8):
        beta = np.where(rng.uniform(size=n + 1) < 0.5, 0.0, disk(0.7, n + 1))
        cases.append((np.zeros(n) if i % 2 else disk(0.5, n) * (rng.uniform(size=n) < 0.5), PoleSequence(beta)))
    return cases


def reference_completion_grid(top, n_max):
    """_completion_grid with rho read from numpy.polynomial's polyroots."""
    base = default_grid(n_max)
    if top.n == 0:
        return base
    roots = npp.polyroots(top.phi.numer)
    rho = float(np.max(np.abs(roots))) if roots.size else 0.0
    if rho <= 0.5:
        return base
    needed = int(np.ceil(30.0 / -np.log(min(rho, 0.9999))))
    needed = 1 << (needed - 1).bit_length()
    return int(min(max(base, needed), 32768))


class TestBitIdenticalKernels:
    @pytest.mark.parametrize("n", range(1, 25))
    def test_completion_grid_matches_polyroots(self, n):
        # the tops of seeded ladders, and the same levels with phi_n^* in
        # the place of phi_n: its numerator carries the trailing zeros that
        # phi_n's leading zeros become, which the roots must drop
        trimmed = 0
        for lams, poles in _recurrence_cases(n):
            top = synthesize(lams, poles).levels[-1]
            for lv in (top, dataclasses.replace(top, phi=top.phi_star)):
                trimmed += lv.phi.numer[-1] == 0
                assert engine._completion_grid(lv, n) == reference_completion_grid(lv, n)
        assert trimmed > 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_convolve_recurrence_matches_polymul(self, monkeypatch, n):
        def built():
            out = []
            for lams, poles in _recurrence_cases(n):
                s = synthesize(lams, poles)
                out += [s] + [arf_recurrence(s, k).system for k in range(min(3, n) + 1)]
            return out

        fast = _numerators(built())
        monkeypatch.setattr(engine, "_padded_polymul", reference_padded_polymul)
        for got, ref in zip(fast, _numerators(built()), strict=True):
            assert_array_equal(got, ref)

    def test_cached_upsilon_matches_running_product(self):
        rng = np.random.default_rng(5)
        beta = 0.8 * np.sqrt(rng.uniform(size=24)) * np.exp(2j * np.pi * rng.uniform(size=24))
        beta[[3, 4, 11]] = 0.0
        poles = PoleSequence(beta)
        # asked for out of order, so the cache is filled from every point
        for k in rng.permutation(np.arange(-2, 24)):
            assert_array_equal(_bits(poles.upsilon(int(k))), _bits(reference_upsilon(poles, int(k))))

    @pytest.mark.parametrize("which", ["synth", "poisson", "lebesgue"])
    def test_shared_fit_matches_fit_step(self, which, synth_system, poisson_system, lebesgue):
        s = {
            "synth": synth_system,
            "poisson": poisson_system,
            "lebesgue": gram_schmidt_orf(lebesgue, disk_poles(2, 8, 0.3j), 7),
        }[which]
        fits = fit_at_points(s.poles, [lv.phi for lv in s.levels], [lv.phi_star for lv in s.levels])
        assert len(fits) == s.n_max
        for n, fit in enumerate(fits, start=1):
            prev, cur = s.level(n - 1), s.level(n)
            ref = reference_fit_step(s.poles, n, prev.phi, prev.phi_star, cur.phi)
            for got, want in zip(fit, ref, strict=True):
                assert_array_equal(_bits(got), _bits(want))

    def test_second_kind_stack_matches_per_level(self, poisson_system):
        s = poisson_system
        stacked = second_kind_integral_stack(s.measure, s, range(s.n_max + 1))
        for n, psi in enumerate(stacked):
            # the per-level difference-form quadrature, reading the grid itself
            assert _rel(psi.numer, reference_second_kind(s.measure, s, n).numer) < 1e-12
            # the build's psi comes from the recurrence, not from this quadrature
            assert _rel(s.level(n).psi.numer, psi.numer) < 1e-12


# -- the stacked second-kind quadrature ----------------------------------------
# The per-level difference form the stack replaced: each level at its own
# n + 1 nodes, through one (n + 1) x N table of D(t, z) (phi(t) - phi(z)) w(t).


def reference_herglotz_means(kp, zt, w, f_t, nodes, f_nodes):
    zz = kp.zeta0(nodes)[:, None]
    return ((zt + zz) / (zt - zz) * (f_t - f_nodes[:, None]) * w).mean(axis=1)


def reference_second_kind_on_grid(poles, kp, phi, n, w, zt, phi_t):
    n_points = w.size
    nodes = _circle_nodes(n + 1, n_points)
    values = reference_herglotz_means(kp, zt, w, phi_t, nodes, phi(nodes)) + (phi_t * w).mean()
    coeffs = np.fft.fft(values * poles.pi(n, nodes)) / (n + 1)
    return RatFun(poles, coeffs * np.exp(-1j * np.pi / n_points * np.arange(n + 1)), n)


def reference_second_kind(mu, s, n):
    theta, t = boundary_grid(s.n_points)
    phi = s.level(n).phi
    return reference_second_kind_on_grid(s.poles, s.kernel, phi, n, mu.weight(theta), s.kernel.zeta0(t), phi(t))


def _disk(rng, cap, size):
    return cap * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))


def _second_kind_case(kind, n, n_points):
    """A seeded ladder through level n on an n_points grid, and its measure.
    The poles are drawn first, beta_0 among them; "repeated" cycles through
    three of them, "zeros" puts them all at 0."""
    rng = np.random.default_rng([n, n_points])
    beta = _disk(rng, 0.7, n + 1)
    if kind == "repeated":
        beta = beta[np.arange(n + 1) % 3]
    elif kind == "zeros":
        beta = np.zeros(n + 1)
    if kind == "poisson":
        s = gram_schmidt_orf(builtin_measure("poisson", alpha=0.3 - 0.2j), PoleSequence(beta), n, n_points=n_points)
        return s, s.measure
    s = synthesize(_disk(rng, 0.3, n), PoleSequence(beta))
    s = OrfSystem(s.poles, s.levels, s.source, n_points=n_points)
    return s, measure_from_system(s)


class TestSecondKindStack:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 12])
    @pytest.mark.parametrize("kind", ["lambdas", "poisson", "repeated", "zeros"])
    def test_matches_per_level_reference(self, kind, n):
        for n_points in (256, 2048, 8192):
            s, mu = _second_kind_case(kind, n, n_points)
            for levels in (range(n + 1), [n, n // 2], [n // 3]):
                stacked = second_kind_integral_stack(mu, s, levels)
                for m, psi in zip(levels, stacked, strict=True):
                    assert psi.n == m
                    assert _rel(psi.numer, reference_second_kind(mu, s, m).numer) < 1e-12

    def test_empty_level_list(self, poisson_system):
        assert second_kind_integral_stack(poisson_system.measure, poisson_system, []) == []

    def test_memory_stays_per_block(self):
        # n = 24 on 32768 points: a table of every node (or level) on the
        # grid is 25 x 32768 complex values, 12.5 MiB, and the per-level
        # difference form peaked at 26 MiB
        rng = np.random.default_rng(24)
        poles = PoleSequence(_disk(rng, 0.7, 25))
        s = synthesize(_disk(rng, 0.3, 24), poles)
        s = OrfSystem(s.poles, s.levels, s.source, n_points=32768)
        mu = measure_from_system(s)
        boundary_grid(32768)
        tracemalloc.start()
        try:
            stacked = second_kind_integral_stack(mu, s, range(25))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert max(_rel(psi.numer, lv.psi.numer) for psi, lv in zip(stacked, s.levels, strict=True)) < 1e-9
