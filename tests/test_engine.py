import dataclasses
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp
from numpy.testing import assert_allclose, assert_array_equal

from orfkit import (
    DomainError,
    KernelParams,
    OrfSystem,
    ParameterOutOfDisk,
    PoleMismatch,
    PoleSequence,
    RankDeficiency,
    RatFun,
    ZeroOffCircle,
    blaschke_product,
    builtin_measure,
    caratheodory_from_measure,
    caratheodory_from_system,
    evaluate_stack,
    gram_schmidt_orf,
    lebesgue_orf,
    measure_from_system,
    para_pair,
    para_zeros,
    poisson_kernel,
    recurrence_step,
    superstar,
    synthesize,
)
from orfkit import engine, measure, ratfun
from orfkit.engine import (
    _circle_nodes,
    _determinant_numerators,
    _fit_ladder,
    _four,
    _gram_defect,
    _level_zero,
    _parameters,
    _remainders,
    _run_recurrence,
    grid_quadrature,
    identity_residual_stack,
    interpolation_residual_stack,
    second_kind_functional_residual_stack,
    second_kind_integral_stack,
    szego_rule,
)
from orfkit.measure import boundary_grid, default_grid
from orfkit.ratfun import _disk_sample
from orfkit.transforms import arf_quad, arf_recurrence
from orfkit.verify import VerifyContext, check_para_zeros, run_verification

from conftest import probe_ladder

SQ3 = np.sqrt(3.0)


def _with_level(s, n, **changes):
    """A copy of the ladder with some functions of level n replaced."""
    levels = list(s.levels)
    levels[n] = dataclasses.replace(levels[n], **changes)
    return OrfSystem(s.poles, levels, s.source, s.measure, s.caratheodory, s.n_points)


def _grid(s):
    """The uniform rule of a measure ladder's own measure on its own grid."""
    return grid_quadrature(s.measure, s.n_points)


def _determinant(s):
    """The residual of phi_n^* psi_n + phi_n psi_n^* = 2 P_n B_n at every
    level of the ladder, as an array."""
    phi, phi_s, psi, psi_s = zip(*map(_four, s.levels))
    return identity_residual_stack(phi, psi, phi_s, psi_s)


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
        mu = builtin_measure("poisson", alpha=0.3 + 0.2j)
        w = mu.weight(theta)
        poles = PoleSequence(np.zeros(5))
        funcs = [RatFun(poles, rng.standard_normal(k + 1)) for k in range(5)]
        for scale in np.eye(5):
            scaled = [f * (1.0 + 3.0 * s) for f, s in zip(funcs, scale)]
            expected = max(
                abs((fi(t) * np.conj(fj(t)) * w).mean() - (i == j))
                for i, fi in enumerate(scaled)
                for j, fj in enumerate(scaled)
            )
            assert_allclose(_gram_defect(scaled, grid_quadrature(mu, n_points)), expected, rtol=1e-12)

    def test_blocks_count_rows_from_the_functions(self, synth_system):
        # at N = 8192 the reader's blocks of a quad's four functions, of a
        # (phi_n, psi_n) pair and of a 7-level Gram stack are those of the
        # hand counts 8, 4 and 7 complex values per point: 2048, 4096 and
        # 2340 points
        _, t = boundary_grid(8192)
        quad = arf_quad(synth_system, 1)
        lv = synth_system.level(3)
        ladder = synthesize(np.full(6, 0.2), PoleSequence(np.zeros(7)))
        for funcs, step in (
            ((quad.A, quad.B, quad.C, quad.D), 2048),
            ((lv.phi, lv.psi), 4096),
            ([level.phi for level in ladder.levels], 2340),
        ):
            blocks = [block for block, _ in ratfun._evaluate_blocks(funcs, t)]
            assert blocks == [slice(lo, lo + step) for lo in range(0, 8192, step)]

    def test_blocks_cover_the_points_in_order_with_the_bits_of_one_call(self):
        # 7 levels take 2340-point blocks: 3000 points are one full block
        # and a remainder, read in order, with the bits of one call
        z = 0.999 * np.exp(2j * np.pi * np.random.default_rng(3).random(3000))
        ladder = synthesize(np.full(6, 0.2 - 0.1j), PoleSequence(0.5 * np.exp(1j * np.arange(7))))
        phis = [lv.phi for lv in ladder.levels]
        blocks, values = zip(*ratfun._evaluate_blocks(phis, z))
        assert blocks == (slice(0, 2340), slice(2340, 4680))
        assert_array_equal(np.concatenate(values, axis=1), evaluate_stack(phis, z))

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
        fits = _fit_ladder(poles, ref, [superstar(phi) for phi in ref])
        ref_lams = [_parameters(fit)[0] for fit in fits]
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

    def test_build_takes_no_factorization(self, monkeypatch):
        # the parameters come from the recursion on grid values: no QR of a
        # basis table, no inverse and no least-squares fit
        def no_factorization(*args, **kwargs):
            raise AssertionError("a matrix factorization ran in a build")

        for name in ("qr", "inv", "lstsq", "solve"):
            monkeypatch.setattr(np.linalg, name, no_factorization)
        s = gram_schmidt_orf(builtin_measure("poisson", alpha=0.3 - 0.2j), disk_poles(3, 7, 0.2j), 6)
        assert s.n_max == 6

    def test_build_memory_stays_per_level(self):
        # n = 64 on 8192 points: B_0..B_64 on the grid is an 8.1 MiB table,
        # and a build through that table and its QR traces 24.4 MiB; the
        # recursion holds a few grid arrays per level, and the closing Gram
        # check one block of levels
        rng = np.random.default_rng(64)
        poles = PoleSequence(_disk(rng, 0.7, 65))
        mu = builtin_measure("poisson", alpha=0.3 - 0.2j)
        gram_schmidt_orf(mu, poles, 64, n_points=8192)
        tracemalloc.start()
        try:
            s = gram_schmidt_orf(mu, poles, 64, n_points=8192)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.n_max == 64
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("floor", [1e-30, 1e-20, 1e-16])
    @pytest.mark.parametrize("n_max", [3, 5])
    def test_collapse_names_its_level(self, floor, n_max):
        # a table numerically supported on three nodes: L_0..L_2 are
        # independent there, and level 3 has no direction of its own:
        # 1 - |lambda_3|^2 reads 2e-16 at the floors 1e-30 and 1e-20, and
        # 2e-14 at 1e-16
        theta = boundary_grid(256)[0]
        w = np.full(256, floor)
        w[[0, 85, 170]] = 1.0
        mu = builtin_measure("samples", theta=theta, w=w)
        poles = PoleSequence([0.0, 0.3, -0.2j, 0.1, 0.4, -0.5])
        with pytest.raises(RankDeficiency, match="level 3$"):
            gram_schmidt_orf(mu, poles, n_max, n_points=256)

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
            lv = recurrence_step(lv, s.level(n).lam, s.level(n).rho, s.poles, n)
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
                lv = recurrence_step(lv, src.lam, src.rho, arf.poles, n)
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
            lv = recurrence_step(lv, s.level(n).lam, s.level(n).rho, s.poles, n)
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

    @pytest.mark.parametrize("n", [-1, -3, 4])
    def test_level_outside_the_ladder(self, n):
        # a negative index would otherwise wrap round to a level from the top
        s = synthesize([0.1, 0.2, 0.3], PoleSequence([0.0] * 4))
        with pytest.raises(DomainError, match="outside 0..3"):
            s.level(n)

    @pytest.mark.parametrize("n_points", [100, 3000])
    def test_given_grid_is_checked(self, n_points):
        # a grid the serialization check would refuse is refused when built
        with pytest.raises(DomainError, match="power of two >= 256"):
            synthesize([0.1], PoleSequence([0.0, 0.1]), n_points=n_points)

    def test_gram_schmidt_checks_its_grid_before_sampling(self, lebesgue):
        # 2^40 points would take 16 TiB a row: refused before any is made
        with pytest.raises(DomainError, match="at most 1048576, got 1099511627776"):
            gram_schmidt_orf(lebesgue, PoleSequence([0.0, 0.5, 0.0]), 2, n_points=1 << 40)

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
        fits = _fit_ladder(s.poles, [lv.phi for lv in s.levels], [lv.phi_star for lv in s.levels])
        for n, fit in enumerate(fits, start=1):
            lam, e, rho = _parameters(fit)
            assert abs(lam - s.level(n).lam) < 1e-12
            assert abs(e - s.level(n).e) < 1e-12
            assert abs(rho - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "n, seed, poles",
        [pytest.param(n, seed, None, id=f"probe-{n}-{seed}") for n, seed in ((6, 3), (24, 5), (64, 0))]
        + [
            pytest.param(2, None, poles, id=f"near-circle-{i}")
            for i, poles in enumerate(([0.95, 0.95j, -0.95], [0.0, 0.95j, -0.95], [0.95, 0.3 + 0.1j, -0.2 + 0.4j]))
        ],
    )
    def test_fit_recovers_fresh_lambdas(self, n, seed, poles):
        # the lambdas of ladders built here come back from the fit: probe
        # ladders, and two lambdas disk(0.6) of seed 1 on poles past the cap
        if poles is None:
            s = probe_ladder(n, seed)
        else:
            with pytest.warns(UserWarning):
                s = synthesize(_disk_sample(1, 0.6, n), PoleSequence(poles), allow_poles_near_circle=True)
        fits = _fit_ladder(s.poles, [lv.phi for lv in s.levels], [lv.phi_star for lv in s.levels])
        for lv, fit in zip(s.levels[1:], fits, strict=True):
            lam, _, rho = _parameters(fit)
            assert abs(lam - lv.lam) <= 1e-10 and abs(rho - 1.0) <= 1e-10

    def test_phase_covariance(self, synth_system):
        s = synth_system
        c = np.exp(0.7j)
        prev = s.level(0)
        ((a0, b0, _, _),) = _fit_ladder(s.poles, [prev.phi, s.level(1).phi], [prev.phi_star, s.level(1).phi_star])
        ((a1, b1, _, _),) = _fit_ladder(s.poles, [prev.phi, c * s.level(1).phi], [prev.phi_star, s.level(1).phi_star])
        assert abs(np.conj(b1 / a1) - np.conj(b0 / a0)) < 1e-12
        assert abs(a1 / abs(a1) - c * a0 / abs(a0)) < 1e-12

    def test_gram_schmidt_levels_fit(self, poisson_system):
        levels = poisson_system.levels
        fits = _fit_ladder(poisson_system.poles, [lv.phi for lv in levels], [lv.phi_star for lv in levels])
        for n, fit in enumerate(fits, start=1):
            lam, e, rho = _parameters(fit)
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
        psi = second_kind_integral_stack(_grid(poisson_system), poisson_system)[0]
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
        psi = second_kind_integral_stack(_grid(s), s)[4]
        assert_allclose(psi(nodes), np.array(ref) + (phi(t) * w).mean(), rtol=1e-12)

    def test_integral_matches_recurrence(self, poisson_system):
        s = poisson_system
        lv = _level_zero(s.poles, s.level(0).phi.numer[0])
        stacked = second_kind_integral_stack(_grid(s), s)
        for n in range(1, s.n_max + 1):
            lv = recurrence_step(lv, s.level(n).lam, s.level(n).rho, s.poles, n)
            assert sup_diff(stacked[n], lv.psi, 512) < 1e-8

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
        zs = para_zeros(s, 2, 1.0)
        assert_allclose(sorted(zs, key=np.angle), [-1.0j, 1.0j], atol=1e-12)
        zs = para_zeros(s, 3, 1.0)
        assert_allclose(np.abs(zs), 1.0, atol=1e-13)
        angles = np.sort(np.mod(np.angle(zs), 2 * np.pi))
        assert_allclose(angles, [np.pi / 3, np.pi, 5 * np.pi / 3], atol=1e-12)

    @pytest.mark.parametrize("n", [0, 3])
    def test_para_zeros_need_a_level_of_the_ladder(self, worked_system, n):
        # level 0 is a constant, with no zeros to find; the worked ladder stops at 2
        with pytest.raises(DomainError, match=r"level in 1\.\.2, got"):
            para_zeros(worked_system, n, 1.0)

    def test_worked_root(self, worked_system):
        zs = para_zeros(worked_system, 1, 1.0)
        assert_allclose(zs, [-1.0], atol=1e-12)

    def test_unit_modulus_and_simple(self, synth_system, poisson_system):
        for s in (synth_system, poisson_system):
            for n in range(1, s.n_max + 1):
                for tau in (1.0, 1.0j, -1.0, -1.0j):
                    zs = para_zeros(s, n, tau)
                    assert len(zs) == n
                    assert np.max(np.abs(np.abs(zs) - 1.0)) < 1e-9


class TestParaZeroFailures:
    def test_cap_09_ladder_at_n_64(self):
        # the n = 64 ladder whose companion eigenvalues left the circle by
        # 1.54e-9: n simple zeros on the circle at every level, and those of
        # tau = 1 and tau = -1 interlace
        s = _cap_09_ladder()
        for n in range(1, 65):
            zs = {tau: para_zeros(s, n, tau) for tau in (1.0, 1.0j, -1.0, -1.0j)}
            for tau, z in zs.items():
                assert z.size == n
                assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-15
                assert np.all(np.diff(np.angle(z)) > 0)
                # each is a zero of the stored numerator, to the rounding of its coefficients
                c = para_pair(s, n, tau).Phi.numer
                assert np.max(np.abs(npp.polyval(z, c))) < 1e-11 * np.sum(np.abs(c))
            plus = np.argsort(np.angle(np.concatenate([zs[1.0], zs[-1.0]]))) < n
            assert np.all(plus[1:] != plus[:-1])
        report = run_verification(VerifyContext(s, seed=0, tolerances={}), ["para_zeros"])
        assert report["para_zeros"]["pass"]

    def test_cap_09_perturbed_level_fails(self):
        # a relative 1e-7 in phi_3's numerator, phi_3^* as stored: phi_3^*
        # is no longer its superstar, by 1e-7 of its largest coefficient
        s = _cap_09_ladder()
        wrong = _with_level(s, 3, phi=(1 + 1e-7) * s.level(3).phi)
        report = run_verification(VerifyContext(wrong, seed=0, tolerances={}), ["para_zeros"])
        assert not report["para_zeros"]["pass"]
        assert 5e-8 < report["para_zeros"]["residual"] < 2e-7

    def test_exchanged_level_fails(self):
        # phi_3 and phi_3^* exchanged: each is still the other's superstar,
        # so the pairs' numerators keep their zeros on the circle (their
        # numpy.polynomial roots), but phi_3's zeros now lie outside the
        # disk and the level is no ORF level
        s = probe_ladder(6, 3)
        lv = s.level(3)
        wrong = _with_level(s, 3, phi=lv.phi_star, phi_star=lv.phi)
        for tau in (1.0, 1.0j, -1.0, -1.0j):
            roots = npp.polyroots(para_pair(wrong, 3, tau).Phi.numer)
            assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-12
        with pytest.raises(ZeroOffCircle, match="level 3"):
            check_para_zeros(VerifyContext(wrong, seed=0, tolerances={}))


def _cap_09_ladder():
    """The n = 64, seed 0 probe ladder at pole cap 0.9."""
    return probe_ladder(64, 0, cap=0.9)


class TestDeterminant:
    def test_level_zero(self, worked_system):
        assert _determinant(worked_system)[0] < 1e-12

    def test_polynomial_level_one(self):
        s = synthesize([0.0], PoleSequence([0.0, 0.0]))
        lv = s.level(1)
        _, t = boundary_grid(64)
        left = lv.phi_star(t) * lv.psi(t) + lv.phi(t) * lv.psi_star(t)
        assert_allclose(left, 2.0 * t, atol=1e-14)

    def test_residuals(self, synth_system, poisson_system):
        for s in (synth_system, poisson_system):
            resid = _determinant(s)
            assert resid.shape == (s.n_max + 1,)
            assert np.all(resid < 1e-10)

    def test_stored_superstar_checked(self, poisson_system):
        # the identity reads the stored phi_n^*: a relative 1e-6 in it fails
        s = poisson_system
        wrong = _with_level(s, 3, phi_star=(1 + 1e-6) * s.level(3).phi_star)
        report = run_verification(VerifyContext(wrong, seed=0, tolerances={}), ["determinant"])
        assert not report["determinant"]["pass"]

    def test_numerators_match_the_kernels(self):
        # R_m over pi_m^2 is 2 P(t, beta_m) B_m(t), the right side the stack compares numerators against
        poles = disk_poles(3, 9, 0.3 - 0.45j)
        _, t = boundary_grid(64)
        for m, numer in enumerate(_determinant_numerators(poles, 8)):
            assert numer.size == 2 * m + 1
            got = npp.polyval(t, numer) / poles.pi(m, t) ** 2
            want = 2.0 * poisson_kernel(KernelParams(poles.beta[0]), t, poles.beta[m]) * blaschke_product(poles, m, t)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), m

    def test_rows_over_other_poles_are_refused(self):
        # one beta_0, other beta_1 and beta_2: the second row is not over the first row's poles
        a = synthesize([0.1, -0.2j], PoleSequence([0.2, 0.3j, -0.4]))
        b = synthesize([0.1, -0.2j], PoleSequence([0.2, -0.5, 0.1 + 0.6j]))
        rows = [a.level(2), b.level(2)]
        with pytest.raises(PoleMismatch):
            identity_residual_stack(*([getattr(lv, f) for lv in rows] for f in ("phi", "psi", "phi_star", "psi_star")))

    def test_rows_of_mixed_degree_are_refused(self, synth_system):
        lv1, lv2 = synth_system.level(1), synth_system.level(2)
        with pytest.raises(DomainError):
            identity_residual_stack([lv2.phi], [lv1.psi], [lv2.phi_star], [lv1.psi_star])


class TestInterpolation:
    def test_worked_distinct_levels(self, worked_system):
        resid, witness = interpolation_residual_stack(worked_system)
        assert resid[1] < 1e-12
        assert witness[1] > 1e-8

    def test_level_zero(self, poisson_system):
        # phi_0 (F + 1) vanishes nowhere; phi_0^* (F - 1) vanishes at beta_0
        resid, witness = interpolation_residual_stack(poisson_system)
        assert resid[0] < 1e-12
        assert witness[0] > 1e-8

    def test_all_levels(self, poisson_system):
        resid, witness = interpolation_residual_stack(poisson_system)
        assert resid.shape == witness.shape == (poisson_system.n_max + 1,)
        assert np.all(resid < 1e-12)
        assert np.all(witness > 1e-8)

    @pytest.mark.parametrize(
        "betas", [[0.0, 0.5, 0.0], [0.3] * 9, [0.0, 0.4, -0.3j] * 3], ids=["readme", "equal", "cyclic"]
    )
    def test_repeated_poles_checked(self, betas):
        # a repeated pole is a zero of higher multiplicity, read at every level
        s = gram_schmidt_orf(builtin_measure("lebesgue"), PoleSequence(betas), len(betas) - 1)
        resid, witness = interpolation_residual_stack(s)
        assert resid.size == s.n_max + 1
        assert np.all(resid < 1e-12)
        assert np.all(witness > 1e-8)
        report = run_verification(VerifyContext(s, seed=0, tolerances={}), ["interpolation"])
        assert report["interpolation"]["pass"]

    def test_remainders_keep_a_nan(self):
        # a NaN coefficient makes every remainder NaN, which Python's max
        # drops behind the leading 0.0; np.max keeps it
        _, remainder = _remainders(np.array([1.0, np.nan, 1.0]), np.array([0.5, -0.2j]))
        assert np.isnan(remainder)

    @pytest.mark.parametrize("ladder", ["synth_system", "poisson_system", "expcos_system"])
    def test_interpolation_evaluates_no_numerator_on_the_circle(self, monkeypatch, request, ladder):
        # both lines are numerator products divided on coefficients, and the
        # witness reads the first line's values from one FFT: no function is
        # evaluated, not even F, which every evaluation would run _horner for
        s = request.getfixturevalue(ladder)

        def fail(*args, **kwargs):
            raise AssertionError("interpolation evaluated a function")

        for module, name in [(engine, "evaluate_stack"), (engine, "_evaluate_blocks"), (ratfun, "_horner"),
                             (measure, "_horner")]:
            monkeypatch.setattr(module, name, fail)
        resid, witness = interpolation_residual_stack(s)
        assert np.all(resid < 1e-12) and np.all(witness > 1e-8)

    def test_perturbed_level_fails(self, poisson_system):
        # a relative 1e-7 in phi_3 alone reads about 3e-8, far above 1e-10
        s = poisson_system
        wrong = _with_level(s, 3, phi=(1 + 1e-7) * s.level(3).phi)
        report = run_verification(VerifyContext(wrong, seed=0, tolerances={}), ["interpolation"])
        assert not report["interpolation"]["pass"]
        assert report["interpolation"]["residual"] > 1e-9

    def test_perturbed_level_fails_on_a_lambda_ladder(self, synth_system):
        # the lines are read times phi*_m on the grid the poles ask for, and
        # a relative 1e-7 in phi_3 still reads 2e-8
        s = synth_system
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


def _lambda_ladder(n, seed, lcap):
    rng = np.random.default_rng(seed)
    lams, betas = _disk(rng, lcap, n), _disk(rng, 0.7, n + 1)
    return synthesize(lams, PoleSequence(betas))


class TestSzegoRule:
    @pytest.mark.parametrize("n, seed, lcap", [(1, 0, 0.5), (4, 1, 0.5), (12, 2, 0.4), (24, 5, 0.3)])
    def test_gram_is_identity_at_the_nodes(self, n, seed, lcap):
        s = _lambda_ladder(n, seed, lcap)
        rule = szego_rule(s)
        assert rule.nodes.size == rule.weights.size == n + 1
        assert np.max(np.abs(np.abs(rule.nodes) - 1.0)) < 1e-12
        assert abs(rule.weights.sum() - 1.0) < 1e-13
        v = evaluate_stack([lv.phi for lv in s.levels], rule.nodes)
        assert np.max(np.abs((v * rule.weights) @ v.conj().T - np.eye(n + 1))) < 1e-13

    @pytest.mark.parametrize("n", [1, 4, 24])
    def test_points_stay_off_the_nodes(self, n):
        # the six circle points sit midway in a gap between two nodes; the
        # second-kind points lie on |z| = 2^(-1/(n+1)), where recovering
        # the numerator costs a factor r^(-n) < 2 at most
        rule = szego_rule(_lambda_ladder(n, n, 0.4))
        assert_allclose(np.abs(rule.circle), 1.0, rtol=0, atol=1e-15)
        chords = np.abs(rule.nodes[:, None] - rule.nodes[None, :])
        spacing = np.min(chords + 3.0 * np.eye(n + 1))
        assert np.min(np.abs(rule.circle[:, None] - rule.nodes[None, :])) >= 0.49 * spacing
        assert rule.radius ** -n < 2.0 and 1.0 - rule.radius > 0.69 / (n + 2)

    def test_nodes_where_the_phase_is_steep(self):
        # |lambda_k| up to 0.79: where phi_25 has a zero near the circle the
        # phase turns within about 1e-9 rad (slope 2.6e9); stopping Newton at
        # a fixed step of 1e-9 left a node 2.3e-10 off and this Gram sum at 4.6e-6
        s = probe_ladder(24, 734587, cap=0.5, lcap=0.8)
        rule = szego_rule(s)
        v = evaluate_stack([lv.phi for lv in s.levels], rule.nodes)
        assert np.max(np.abs((v * rule.weights) @ v.conj().T - np.eye(25))) < 1e-10

    def test_weights_sum_to_one_past_the_numerators(self):
        # |beta|, |lambda| up to 0.9 at n = 48: the phase turns within a few
        # ulps of theta near some nodes, and the stored numerators read a Gram
        # defect of 3.6e-3 at the rule, yet the weights 1/sum |phi_k|^2, read
        # off the slope of the phase, still sum to the measure's mass
        rule = szego_rule(probe_ladder(48, 4, cap=0.9, lcap=0.9))
        assert abs(rule.weights.sum() - 1.0) < 1e-12

    def test_rule_reads_no_numerator(self):
        # nodes and weights come from the poles and (lambda_k, rho_k) alone:
        # a relative 1e-6 in the stored phi_3 leaves the rule bit-identical
        s = _lambda_ladder(6, 1, 0.5)
        rule = szego_rule(s)
        wrong = szego_rule(_with_level(s, 3, phi=(1 + 1e-6) * s.level(3).phi))
        for field in dataclasses.fields(rule):
            assert_array_equal(getattr(wrong, field.name), getattr(rule, field.name))

    @pytest.mark.parametrize("n, seed, lcap", [(4, 1, 0.5), (24, 5, 0.3)])
    def test_perturbed_phi_fails_orthonormality(self, n, seed, lcap):
        # a relative 1e-7 in phi_3's numerator, as a scale or as noise,
        # reads 1.5e-8 to 2.1e-7 at the rule against the 1e-9 tolerance
        s = _lambda_ladder(n, seed, lcap)
        numer = s.level(3).phi.numer
        noise = 1.0 + 1e-7 * np.random.default_rng(0).standard_normal(numer.size)
        for phi in ((1 + 1e-7) * s.level(3).phi, RatFun(s.poles, numer * noise, 3)):
            report = run_verification(VerifyContext(_with_level(s, 3, phi=phi), 0, {}), ["orthonormality"])
            assert not report["orthonormality"]["pass"]
            assert report["orthonormality"]["residual"] > 1e-8

    @pytest.mark.parametrize("n, seed, lcap", [(4, 1, 0.5), (24, 5, 0.3)])
    def test_perturbed_top_coefficient_fails_second_kind(self, n, seed, lcap):
        # psi_n's top coefficient off by a relative 1e-7 reads 1.0e-7 and 4.2e-8:
        # the check compares coefficients, relative to the largest, and the top
        # one is 1.0 and 0.42 of it
        s = _lambda_ladder(n, seed, lcap)
        numer = s.level(n).psi.numer.copy()
        numer[-1] *= 1 + 1e-7
        wrong = _with_level(s, n, psi=RatFun(s.poles, numer, n))
        assert run_verification(VerifyContext(s, 0, {}), ["second_kind"])["second_kind"]["residual"] < 1e-12
        report = run_verification(VerifyContext(wrong, 0, {}), ["second_kind"])
        assert not report["second_kind"]["pass"]
        assert report["second_kind"]["residual"] > 4e-8


def test_arf_orthogonality_leaves_the_ladder_to_orthonormality():
    # a relative 1e-6 in phi_4 reads (1 + 1e-6)^2 - 1 = 2.0e-6 in the
    # ladder's Gram sum, at a rule not built from phi_4; on a lambda ladder
    # that sum is orthonormality's alone, and the associated orders do not
    # read phi_4
    s = probe_ladder(6, 3)
    wrong = _with_level(s, 4, phi=(1 + 1e-6) * s.level(4).phi)
    report = run_verification(VerifyContext(wrong, 0, {}), ["orthonormality", "arf_orthogonality"])
    assert not report["orthonormality"]["pass"]
    assert report["orthonormality"]["residual"] == pytest.approx(2.0e-6, rel=0.01)
    assert report["arf_orthogonality"]["pass"]


class TestFunctionalIdentities:
    def test_multiplied_second_kind(self, poisson_system):
        for n in range(poisson_system.n_max + 1):
            res = second_kind_functional_residual_stack(poisson_system, _grid(poisson_system), seed=n)
            assert res[n] < 1e-7

    @pytest.mark.parametrize("ladder", ["poisson_system", "synth_system", "expcos_system"])
    def test_wrong_second_kind_is_caught(self, request, ladder):
        # psi_4 off by a relative 1e-6 gives a residual of that size, on the
        # measure's grid and on a lambda ladder's own rule alike
        s = request.getfixturevalue(ladder)
        quad = VerifyContext(s, seed=0, tolerances={}).quadrature
        lv = s.level(4)
        wrong = _with_level(s, 4, psi=(1 + 1e-6) * lv.psi, psi_star=(1 + 1e-6) * lv.psi_star)
        assert second_kind_functional_residual_stack(s, quad)[4] < 1e-12
        assert 5e-7 < second_kind_functional_residual_stack(wrong, quad)[4] < 2e-6


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

    def test_values_are_kept_on_library_grids(self, monkeypatch, synth_system):
        # F on the points of a boundary_grid is computed once, from psi*_m
        # and phi*_m evaluated there once, and the second call hands back
        # the same read-only values
        F = caratheodory_from_system(synth_system)
        top = synth_system.level(synth_system.n_max)
        _, t = boundary_grid(1024)
        first = F(t)
        psi_s, phi_s = evaluate_stack((top.psi_star, top.phi_star), t)
        assert_array_equal(first, psi_s / phi_s)
        monkeypatch.setattr(engine, "evaluate_stack", lambda *args: pytest.fail("F evaluated again"))
        again = F(t)
        assert again is first and not again.flags.writeable

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


def reference_step_columns(poles, n, f, f_star, size):
    """eta_{n-1} (z - beta_{n-1}) f and (1 - conj(beta_{n-1}) z) f_star by
    numpy's polymul, zero-padded to size coefficients."""
    b_prev = poles.beta[n - 1]
    up = reference_padded_polymul(poles.eta(n - 1) * np.array([-b_prev, 1.0]), f.numer, size)
    return up, reference_padded_polymul(np.array([1.0, -np.conj(b_prev)]), f_star.numer, size)


def reference_fit_step(poles, n, phi_prev, phi_star_prev, phi_n, size):
    col1, col2 = reference_step_columns(poles, n, phi_prev, phi_star_prev, size)
    lhs = np.zeros(size, dtype=complex)
    lhs[: phi_n.numer.size] = phi_n.numer
    # the two-column solve on this level alone
    a, b = engine._two_column_solve(col1, col2, lhs)
    return a[0], b[0], float(np.max(np.abs(a * col1 + b * col2 - lhs))), float(np.max(np.abs(lhs)))


@pytest.mark.parametrize("which", ["synth", "poisson", "lebesgue"])
def test_fit_matches_lstsq(which, synth_system, poisson_system, lebesgue):
    # the two-column Gram-Schmidt solve and the SVD least-squares driver agree to rounding
    s = {
        "synth": synth_system,
        "poisson": poisson_system,
        "lebesgue": gram_schmidt_orf(lebesgue, disk_poles(2, 8, 0.3j), 7),
    }[which]
    fits = _fit_ladder(s.poles, [lv.phi for lv in s.levels], [lv.phi_star for lv in s.levels])
    for n, (a, b, resid, scale) in enumerate(fits, start=1):
        prev = s.level(n - 1)
        mat = np.stack(reference_step_columns(s.poles, n, prev.phi, prev.phi_star, n + 1), axis=1)
        sol = np.linalg.lstsq(mat, s.level(n).phi.numer, rcond=None)[0]
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


def reference_modulus_grid(rho, n_max):
    """The grid size of the largest modulus rho by the formula _modulus_grid
    once ran: 30 / -log(rho) rounded up to a power of two, within
    default_grid(n_max)..32768."""
    base = default_grid(n_max)
    if rho <= 0.5:
        return base
    needed = int(np.ceil(30.0 / -np.log(min(rho, 0.9999))))
    needed = 1 << (needed - 1).bit_length()
    return int(min(max(base, needed), 32768))


def reference_completion_grid(top, n_max):
    """_completion_grid with rho read from numpy.polynomial's polyroots."""
    if top.n == 0:
        return default_grid(n_max)
    roots = npp.polyroots(top.phi.numer)
    return reference_modulus_grid(float(np.max(np.abs(roots))) if roots.size else 0.0, n_max)


class TestBitIdenticalKernels:
    @pytest.mark.parametrize("n", [*range(1, 25), 32, 64, 96, 128])
    def test_completion_grid_matches_polyroots(self, n):
        # the tops of seeded ladders, and the same levels with phi_n^* in
        # the place of phi_n: its numerator carries the trailing zeros that
        # phi_n's leading zeros become, which the roots must drop. From
        # n = 32 on, the probe ladders out to pole cap 0.9 too, where
        # phi_n's zeros near the circle raise the grid above default_grid(n)
        tops = [synthesize(lams, poles).levels[-1] for lams, poles in _recurrence_cases(n)]
        if n >= 32:
            tops += [probe_ladder(n, seed, cap).levels[-1] for seed in range(3) for cap in (0.7, 0.85, 0.9)]
        trimmed, grids = 0, []
        for top in tops:
            for lv in (top, dataclasses.replace(top, phi=top.phi_star)):
                trimmed += lv.phi.numer[-1] == 0
                grids.append(engine._completion_grid(lv, n))
                assert grids[-1] == reference_completion_grid(lv, n)
        assert trimmed > 0
        assert n < 32 or max(grids) > default_grid(n)

    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_fourier_grid_matches_the_modulus_formula(self, n):
        # seeded pole sets scaled to largest modulus 0.5..0.99, then a sweep
        # of largest moduli across every step exp(-30/N) of the grid. The
        # doubling rule and the formula part only for a modulus within an
        # ulp of exp(-30/N), where the formula's log and ceil round either
        # way; the sweep keeps 1e-12 from those points
        rng = np.random.default_rng(n)
        for seed in range(3):
            beta = _disk(rng, 1.0, n + 1)
            for top in (0.5, 0.7, 0.9, 0.99):
                poles = PoleSequence(beta * (top / np.max(np.abs(beta))))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    s = synthesize(np.zeros(n), poles, allow_poles_near_circle=True)
                assert engine.fourier_grid(s) == reference_modulus_grid(float(np.max(np.abs(poles.beta))), n), top
        steps = np.exp(-30.0 / (1 << np.arange(10, 16)))
        rhos = np.concatenate([np.linspace(0.0, 0.9995, 4001), steps * (1.0 - 1e-12), steps * (1.0 + 1e-12)])
        for rho in rhos:
            beta = np.zeros(n + 1, dtype=complex)
            beta[-1] = rho
            fake = types.SimpleNamespace(measure=None, n_max=n, poles=PoleSequence(beta))
            assert engine.fourier_grid(fake) == reference_modulus_grid(float(rho), n), rho

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
        fits = _fit_ladder(s.poles, [lv.phi for lv in s.levels], [lv.phi_star for lv in s.levels])
        assert len(fits) == s.n_max
        for n, fit in enumerate(fits, start=1):
            prev, cur = s.level(n - 1), s.level(n)
            ref = reference_fit_step(s.poles, n, prev.phi, prev.phi_star, cur.phi, s.n_max + 1)
            for got, want in zip(fit, ref, strict=True):
                assert_array_equal(_bits(got), _bits(want))

    def test_second_kind_stack_matches_per_level(self, poisson_system):
        s = poisson_system
        stacked = second_kind_integral_stack(_grid(s), s)
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
            stacked = second_kind_integral_stack(grid_quadrature(mu, n_points), s)
            assert [psi.n for psi in stacked] == list(range(n + 1))
            for m, psi in enumerate(stacked):
                assert _rel(psi.numer, reference_second_kind(mu, s, m).numer) < 1e-12

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
            stacked = second_kind_integral_stack(grid_quadrature(mu, 32768), s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert max(_rel(psi.numer, lv.psi.numer) for psi, lv in zip(stacked, s.levels, strict=True)) < 1e-9
