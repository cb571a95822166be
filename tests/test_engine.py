import dataclasses

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp
from numpy.testing import assert_allclose

from orfkit import (
    DomainError,
    KernelParams,
    OrfSystem,
    ParameterOutOfDisk,
    PoleSequence,
    RankDeficiency,
    RatFun,
    builtin_measure,
    caratheodory_from_system,
    combine,
    determinant_residual,
    extract_parameters,
    gram_schmidt_orf,
    interpolation_residuals,
    lebesgue_orf,
    measure_from_system,
    para_pair,
    para_zeros,
    recurrence_step,
    second_kind_integral,
    superstar,
    synthesize,
)
from orfkit import engine
from orfkit.engine import (
    _circle_nodes,
    _fit_parameters,
    _fit_step,
    _gram_defect,
    _herglotz_means,
    _level_zero,
    _second_kind,
)
from orfkit.measure import boundary_grid

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


def reference_gram_schmidt(mu, poles, n_max, n_points):
    """phi_0..phi_n by the per-coefficient route: modified Gram-Schmidt in
    two passes on B_0..B_n built with polyfromroots, each step rebasing
    numerators through combine, and the phase fixed by evaluating
    phi_k^*(beta_k)."""
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
                cand = combine(1.0, cand, -c, f)
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
        vals = [npp.polyval(t, rng.standard_normal(k + 1)) for k in range(5)]
        for scale in np.eye(5):
            scaled = [v * (1.0 + 3.0 * s) for v, s in zip(vals, scale)]
            expected = max(
                abs((vi * np.conj(vj) * w).mean() - (i == j))
                for i, vi in enumerate(scaled)
                for j, vj in enumerate(scaled)
            )
            assert_allclose(_gram_defect(scaled, w), expected, rtol=1e-12)

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
        ref_lams = []
        for k, phi in enumerate(ref):
            lv = s.level(k)
            assert _rel(lv.phi.numer, phi.numer) < 1e-12
            psi = _second_kind(mu, poles, kp, phi, k, s.n_points)
            assert _rel(lv.psi.numer, psi.numer) < 1e-12
            if k:
                ref_lams.append(_fit_parameters(poles, k, ref[k - 1], superstar(ref[k - 1]), phi)[0])
        # lambda lives in the unit disk and vanishes for Lebesgue, so its
        # relative error is taken against a scale of at least 1
        lams = np.array([s.level(k).lam for k in range(1, n + 1)])
        assert _rel(lams, np.array(ref_lams), floor=1.0) < 1e-12

    def test_gram_schmidt_makes_no_combine_calls(self, monkeypatch):
        def no_combine(*args):
            raise AssertionError("combine called")

        monkeypatch.setattr(engine, "combine", no_combine)
        mu = builtin_measure("poisson", alpha=0.3 - 0.2j)
        s = gram_schmidt_orf(mu, disk_poles(3, 7, 0.2j), 6)
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

    def test_psi_sign_structure(self, synth_system):
        # the psi ladder satisfies the same recurrence with the sign flip;
        # rebuilt levels must reproduce the stored ones exactly
        s = synth_system
        lv = _level_zero(s.poles, 1.0)
        for n in range(1, s.n_max + 1):
            lv = recurrence_step(lv, s.level(n).lam, s.level(n).rho, s.poles, n, e=s.level(n).e)
        assert_allclose(lv.psi.numer, s.level(s.n_max).psi.numer, atol=1e-14)


class TestSynthesize:
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

    def test_requires_unimodular_start(self):
        with pytest.raises(DomainError):
            synthesize([0.1], PoleSequence([0.0, 0.0]), phi0=2.0)


class TestExtraction:
    def test_roundtrip(self, synth_system):
        s = synth_system
        for n in range(1, s.n_max + 1):
            lam, e, rho = extract_parameters(s, n)
            assert abs(lam - s.level(n).lam) < 1e-12
            assert abs(e - s.level(n).e) < 1e-12
            assert abs(rho - 1.0) < 1e-12

    def test_phase_covariance(self, synth_system):
        s = synth_system
        c = np.exp(0.7j)
        prev = s.level(0)
        a0, b0, _, _ = _fit_step(s.poles, 1, prev.phi, prev.phi_star, s.level(1).phi)
        a1, b1, _, _ = _fit_step(s.poles, 1, prev.phi, prev.phi_star, c * s.level(1).phi)
        assert abs(np.conj(b1 / a1) - np.conj(b0 / a0)) < 1e-12
        assert abs(a1 / abs(a1) - c * a0 / abs(a0)) < 1e-12

    def test_gram_schmidt_levels_fit(self, poisson_system):
        for n in range(1, poisson_system.n_max + 1):
            lam, e, rho = extract_parameters(poisson_system, n)
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
        psi = second_kind_integral(poisson_system.measure, poisson_system, 0)
        assert_allclose(psi.numer, poisson_system.level(0).phi.numer, atol=1e-13)

    def test_nodes_off_the_grid(self):
        # no node meets a quadrature node, where the difference quotient is 0/0:
        # each stays at least 1/(2 count) of a grid step away
        for count in (1, 3, 5, 17, 33, 65):
            steps = np.angle(_circle_nodes(count, 256)) * 256 / (2 * np.pi)
            assert np.min(np.abs(steps - np.round(steps))) > 0.4 / count

    def test_herglotz_means_match_nodewise_loop(self, poisson_system):
        s, kp = poisson_system, poisson_system.kernel
        theta, t = boundary_grid(s.n_points)
        w = s.measure.weight(theta)
        phi = s.level(4).phi
        nodes = _circle_nodes(5, s.n_points)
        zt = kp.zeta0(t)
        ref = [((zt + kp.zeta0(z)) / (zt - kp.zeta0(z)) * (phi(t) - phi(z)) * w).mean() for z in nodes]
        assert_allclose(_herglotz_means(kp, t, w, phi(t), nodes, phi(nodes)), ref, rtol=1e-13)

    def test_integral_matches_recurrence(self, poisson_system):
        s = poisson_system
        lv = _level_zero(s.poles, s.level(0).phi.numer[0])
        for n in range(1, s.n_max + 1):
            lv = recurrence_step(lv, s.level(n).lam, s.level(n).rho, s.poles, n, e=s.level(n).e)
            psi = second_kind_integral(s.measure, s, n)
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
        d, resid = determinant_residual(worked_system, 0)
        assert abs(d - 2.0) < 1e-12 and resid < 1e-12

    def test_polynomial_level_one(self):
        s = synthesize([0.0], PoleSequence([0.0, 0.0]))
        lv = s.level(1)
        _, t = boundary_grid(64)
        left = lv.phi_star(t) * lv.psi(t) + lv.phi(t) * lv.psi_star(t)
        assert_allclose(left, 2.0 * t, atol=1e-14)

    def test_residuals(self, synth_system, poisson_system):
        for s in (synth_system, poisson_system):
            for n in range(s.n_max + 1):
                d, resid = determinant_residual(s, n)
                assert abs(d - 2.0) < 1e-9
                assert resid < 1e-10


class TestInterpolation:
    def test_worked_distinct_levels(self, worked_system):
        rep = interpolation_residuals(worked_system, worked_system.caratheodory, 1)
        assert rep.max_residual() < 1e-8 * rep.scale
        assert rep.g_min > 1e-8 * rep.scale
        assert rep.g_at_anchor > 1e-8 * rep.scale

    def test_level_zero(self, poisson_system):
        rep = interpolation_residuals(poisson_system, poisson_system.caratheodory, 0)
        assert rep.first_line.size == 0
        assert rep.second_line.size == 1 and rep.second_line[0] < 1e-10

    def test_all_levels(self, poisson_system):
        for n in range(poisson_system.n_max + 1):
            rep = interpolation_residuals(poisson_system, poisson_system.caratheodory, n)
            assert rep.max_residual() < 1e-8 * rep.scale
            assert rep.g_min > 1e-8 * rep.scale

    def test_para_lines_compare_stored_superstars(self, poisson_system):
        # a stored phi_n^* off by a relative 1e-6 breaks the para lines
        s = poisson_system
        clean = interpolation_residuals(s, s.caratheodory, 3)
        wrong = _with_level(s, 3, phi_star=(1 + 1e-6) * s.level(3).phi_star)
        assert clean.para_residual < 1e-12
        assert interpolation_residuals(wrong, s.caratheodory, 3).para_residual > 1e-8

    def test_repeated_poles_rejected(self, worked_system):
        with pytest.raises(DomainError):
            interpolation_residuals(worked_system, worked_system.caratheodory, 2)

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
        from orfkit.engine import second_kind_functional_residual

        for n in range(poisson_system.n_max + 1):
            res = second_kind_functional_residual(
                poisson_system, poisson_system.measure, n, seed=n
            )
            assert res < 1e-7

    def test_wrong_second_kind_is_caught(self, poisson_system):
        from orfkit.engine import second_kind_functional_residual

        # psi_4 off by a relative 1e-6 gives a residual of that size
        s = poisson_system
        lv = s.level(4)
        wrong = _with_level(s, 4, psi=(1 + 1e-6) * lv.psi, psi_star=(1 + 1e-6) * lv.psi_star)
        assert second_kind_functional_residual(s, s.measure, 4) < 1e-12
        assert 5e-7 < second_kind_functional_residual(wrong, s.measure, 4) < 2e-6


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
