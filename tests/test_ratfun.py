import re

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp
from numpy.testing import assert_allclose, assert_array_equal

from orfkit import (
    DomainError,
    KernelParams,
    KernelSingularity,
    PoleMismatch,
    PoleProximity,
    PoleSequence,
    RatFun,
    blaschke_factor,
    blaschke_product,
    evaluate_stack,
    herglotz_kernel,
    poisson_kernel,
    superstar,
    synthesize,
)
from orfkit.ratfun import TAU_POLE, _disk_sample

from conftest import substar_eval

SQ3 = np.sqrt(3.0)


def circle(n=64):
    return np.exp(2j * np.pi * np.arange(n) / n)


def disk_grid(seed=0, n=50, cap=0.8):
    rng = np.random.default_rng(seed)
    return cap * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


@pytest.mark.parametrize(
    "seed, first",
    [
        (0, [-0.051456350635756785 + 0.9174824769467251j, -0.8684221265816928 - 0.06162315314581557j,
             -0.5362231855343722 + 0.3647413825249546j]),
        (7, [0.5111345001865913 + 0.2501485309814268j, -0.3785639550796065 - 0.08682456932797088j,
             -0.5361644163257271 + 0.6028782561230304j]),
    ],
)
def test_disk_sample_draws_are_pinned(seed, first):
    # random.Random(seed).random() keeps its sequence across Python
    # versions; the tolerance admits only a last-bit libm difference
    assert_allclose(_disk_sample(seed, 1.0, 3), first, rtol=1e-15, atol=0)
    zs = _disk_sample(seed, 0.9, 200)
    assert zs.shape == (200,) and np.abs(zs).max() < 0.9


class TestPoleSequence:
    def test_rejects_pole_on_circle(self):
        with pytest.raises(DomainError):
            PoleSequence([0.5, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.1, float("nan"))])
    def test_rejects_non_finite_pole(self, bad):
        # |beta| >= 1 is False for nan, so the test must be |beta| < 1 failing
        with pytest.raises(DomainError):
            PoleSequence([0.0, bad])

    def test_repeated_poles_allowed(self):
        p = PoleSequence([0.0, 0.5, 0.5])
        assert_allclose(p.pi(2, 1.0), (1 - 0.5) ** 2)

    def test_eta_zero_pole(self):
        p = PoleSequence([0.0, 0.3 + 0.4j])
        assert p.eta(0) == 1.0
        assert_allclose(p.eta(1), (0.3 - 0.4j) / 0.5)


class TestEvaluate:
    def test_constant(self):
        f = RatFun(PoleSequence([0.0]), [1.0], 0)
        assert f(0.3 + 0.1j) == 1.0 + 0.0j

    def test_monomial(self):
        f = RatFun(PoleSequence([0.0, 0.0]), [0.0, 1.0], 1)
        assert f(0.5) == 0.5 + 0.0j

    def test_simple_pole(self):
        # 1/(1 - 0.5) = 2 at z = 1
        f = RatFun(PoleSequence([0.0, 0.5]), [0.0, 1.0], 1)
        assert_allclose(f(1.0), 2.0)

    def test_pole_proximity(self):
        f = RatFun(PoleSequence([0.0, 0.5]), [0.0, 1.0], 1)
        with pytest.raises(PoleProximity):
            f(2.0)

    def test_trailing_zero_degree_is_declared(self):
        f = RatFun(PoleSequence([0.0, 0.5]), [1.0, 0.0], 1)
        assert f.n == 1
        assert_allclose(f(0.2), 1.0 / (1 - 0.25 * 0.4))

    def test_negative_degree_is_rejected(self):
        # no coefficients would otherwise build a degree -1 function
        with pytest.raises(DomainError, match="negative"):
            RatFun(PoleSequence([0.0]), [])
        with pytest.raises(DomainError, match="negative"):
            RatFun(PoleSequence([0.0]), [], -1)


class TestSubstar:
    def test_constant(self):
        f = RatFun(PoleSequence([0.0]), [2.0 + 1.0j], 0)
        assert substar_eval(f, 0.7) == 2.0 - 1.0j
        assert substar_eval(f, 0.0) == 2.0 - 1.0j

    def test_monomial(self):
        f = RatFun(PoleSequence([0.0, 0.0]), [0.0, 1.0], 1)
        assert_allclose(substar_eval(f, 2.0), 0.5)

    def test_boundary_is_conjugation(self):
        f = RatFun(PoleSequence([0.0, 0.5, -0.2j]), [1.0, 2.0j, -0.5], 2)
        t = circle()
        assert_allclose(substar_eval(f, t), np.conj(f(t)), atol=1e-14)

    def test_zero_rejected_for_nonconstant(self):
        f = RatFun(PoleSequence([0.0, 0.5]), [0.0, 1.0], 1)
        with pytest.raises(DomainError):
            substar_eval(f, 0.0)


class TestSuperstar:
    def test_monomial(self):
        f = RatFun(PoleSequence([0.0, 0.0]), [0.0, 1.0], 1)
        assert_allclose(superstar(f).numer, [1.0, 0.0])

    def test_involution(self):
        rng = np.random.default_rng(5)
        poles = PoleSequence([0.1, 0.5, -0.3 + 0.2j, 0.4j])
        f = RatFun(poles, rng.standard_normal(4) + 1j * rng.standard_normal(4), 3)
        assert_allclose(superstar(superstar(f)).numer, f.numer, atol=1e-14)

    def test_worked_level_one(self):
        # numer [0, sqrt(3)/2] over 1 - 0.5 z reverses to [sqrt(3)/2, 0]
        f = RatFun(PoleSequence([0.0, 0.5]), [0.0, SQ3 / 2], 1)
        g = superstar(f)
        assert_allclose(g.numer, [SQ3 / 2, 0.0])
        # pointwise against B_n(z) f_*(z)
        zs = disk_grid(1)
        zs = zs[np.abs(zs) > 1e-3]
        direct = blaschke_product(f.poles, 1, zs) * substar_eval(f, zs)
        assert_allclose(g(zs), direct, rtol=1e-12)

    def test_superstar_eval_identity(self):
        poles = PoleSequence([0.2j, 0.5, -0.3])
        f = RatFun(poles, [1.0, -2.0j, 0.7], 2)
        zs = disk_grid(2)
        zs = zs[np.abs(zs) > 1e-3]
        lhs = superstar(f)(zs)
        rhs = blaschke_product(poles, 2, zs) * substar_eval(f, zs)
        assert_allclose(lhs, rhs, rtol=1e-12)


class TestBlaschke:
    def test_zero_at_beta(self):
        p = PoleSequence([0.0, 0.5])
        assert blaschke_factor(p, 1, 0.5) == 0.0

    def test_polynomial_case(self):
        p = PoleSequence([0.0, 0.0])
        zs = disk_grid(3)
        assert_allclose(blaschke_factor(p, 1, zs), zs)

    def test_value_at_origin(self):
        # eta * (-beta) = -|beta| for real beta
        p = PoleSequence([0.0, 0.5])
        assert_allclose(blaschke_factor(p, 1, 0.0), -0.5)

    def test_unit_modulus_on_circle(self):
        p = PoleSequence([0.3 - 0.2j, 0.5, -0.7j])
        for k in range(3):
            assert_allclose(np.abs(blaschke_factor(p, k, circle())), 1.0, atol=1e-12)

    def test_product_b0_is_one(self):
        p = PoleSequence([0.4, 0.5])
        assert_allclose(blaschke_product(p, 0, disk_grid(4)), 1.0)

    def test_product_polynomial_case(self):
        p = PoleSequence([0.0, 0.0, 0.0, 0.0])
        zs = disk_grid(5)
        assert_allclose(blaschke_product(p, 3, zs), zs**3)

    def test_product_value(self):
        p = PoleSequence([0.0, 0.5])
        assert_allclose(blaschke_product(p, 1, 1.0), 1.0)

    def test_product_matches_pi_ratio(self):
        p = PoleSequence([0.1, 0.5, -0.3 + 0.2j, 0.6j])
        n = 3
        zs = disk_grid(6)
        lhs = blaschke_product(p, n, zs)
        rhs = p.upsilon(n) * np.prod([zs - b for b in p.beta[1 : n + 1]], axis=0) / p.pi(n, zs)
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            blaschke_product(PoleSequence([0.4, 0.5]), -1, 0.1 + 0.2j)


def reference_blaschke_factor(poles, k, z):
    """blaschke_factor with its own point-by-point test of |1 - conj(beta_k) z|."""
    z = np.asarray(z, dtype=complex)
    den = poles.varpi(k, z)
    if (np.abs(den) < TAU_POLE * (1.0 + np.abs(z))).any():
        raise PoleProximity(f"zeta_{k} evaluated too close to its pole")
    out = poles.eta(k) * poles.varpi_star(k, z) / den
    return out if out.ndim else complex(out)


def reference_zeta0(beta0, z):
    """KernelParams(beta0).zeta0 with its own point-by-point pole test."""
    z = np.asarray(z, dtype=complex)
    den = 1.0 - np.conj(beta0) * z
    if (np.abs(den) < TAU_POLE * (1.0 + np.abs(z))).any():
        raise PoleProximity("zeta_0 evaluated too close to its pole")
    eta0 = np.conj(beta0) / abs(beta0) if beta0 != 0 else 1.0
    return eta0 * (z - beta0) / den


class TestFactorPoleGuard:
    # zeta_k and zeta_0 test their pole with the bound-first guard of
    # evaluate_stack; away from it they keep the bits of the elementwise test

    BETA = [0.25 - 0.15j, 0.6 * np.exp(0.7j), 0.0, -0.85j, 0.6 * np.exp(0.7j)]

    def factors(self):
        poles = PoleSequence(self.BETA)
        kp = KernelParams(self.BETA[0])
        yield 0, lambda z: kp.zeta0(z), lambda z: reference_zeta0(kp.beta0, z)
        for k in (1, 3, 4):
            yield (
                k,
                lambda z, k=k: blaschke_factor(poles, k, z),
                lambda z, k=k: reference_blaschke_factor(poles, k, z),
            )

    def test_pole_names_its_index(self):
        for k, got, _ in self.factors():
            pole = 1.0 / np.conj(self.BETA[k])
            for z in (pole, np.array([0.1, pole, 0.3j])):
                with pytest.raises(PoleProximity, match=rf"1/conj\(beta_{k}\)"):
                    got(z)

    @pytest.mark.parametrize("ratio", [0.5, 0.9, 0.99, 1.01, 1.1, 1.9, 2.1, 3.0])
    def test_threshold_matches_elementwise_test(self, ratio):
        # |1 - conj(beta_k) z| at ratio times the tolerance, along the ray and off it
        for k, got, ref in self.factors():
            b = self.BETA[k]
            pole = 1.0 / np.conj(b)
            tol = TAU_POLE * (1.0 + abs(pole))
            for direction in (1.0, 1j, -1.0):
                z = np.array([0.0, pole - ratio * tol * direction / np.conj(b)])
                try:
                    expected = ref(z)
                except PoleProximity:
                    with pytest.raises(PoleProximity, match=rf"beta_{k}\)"):
                        got(z)
                else:
                    assert same_bits(got(z), expected)

    def test_bits_away_from_the_pole(self):
        points = [disk_grid(8, n=200, cap=0.99), circle(256), 3.0 * circle(16), np.array([]), 0.3 - 0.4j]
        for k, got, ref in self.factors():
            for z in points:
                assert same_bits(got(z), ref(z))
        # zeta_k of a pole at the origin has no pole to guard
        poles, z = PoleSequence(self.BETA), 1e6 * circle(8)
        assert same_bits(blaschke_factor(poles, 2, z), reference_blaschke_factor(poles, 2, z))


class TestKernels:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.1, float("nan"))])
    def test_rejects_non_finite_anchor(self, bad):
        with pytest.raises(DomainError):
            KernelParams(bad)

    def test_herglotz_centered(self):
        kp = KernelParams(0.0)
        assert_allclose(herglotz_kernel(kp, 1.0, 0.5), 3.0)
        assert_allclose(herglotz_kernel(kp, circle(), 0.0), 1.0)

    def test_herglotz_anchor(self):
        kp = KernelParams(0.3 - 0.1j)
        assert_allclose(herglotz_kernel(kp, circle(), 0.3 - 0.1j), 1.0, atol=1e-14)

    def test_herglotz_singularity(self):
        kp = KernelParams(0.0)
        with pytest.raises(KernelSingularity):
            herglotz_kernel(kp, 0.5, 0.5)

    def test_herglotz_tests_points_only_where_the_bound_fails(self):
        kp = KernelParams(0.3 - 0.1j)
        t = circle(64)[None, :]
        nodes = 0.9 * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)[:, None]
        zt, zz = kp.zeta0(t), kp.zeta0(nodes)
        assert same_bits(herglotz_kernel(kp, t, nodes), (zt + zz) / (zt - zz))
        # a node on a grid point raises from inside the table
        with pytest.raises(KernelSingularity):
            herglotz_kernel(kp, t, np.concatenate([nodes, [[t[0, 5]]]]))
        # |den| = 1.5e-12 fails the bound from the largest moduli, 2e-12,
        # and clears its own points' 1.2e-12, so nothing raises
        kp = KernelParams(0.0)
        t, z = np.array([0.1]), np.array([0.1 + 1.5e-12, 0.9])
        zt, zz = kp.zeta0(t), kp.zeta0(z)
        assert same_bits(herglotz_kernel(kp, t, z), (zt + zz) / (zt - zz))

    def test_poisson_centered(self):
        kp = KernelParams(0.0)
        assert_allclose(poisson_kernel(kp, circle(), 0.0), 1.0)
        assert_allclose(poisson_kernel(kp, 1.0, 0.5), 3.0)

    def test_poisson_real_positive(self):
        kp = KernelParams(0.3 + 0.2j)
        t = circle(128)
        for z in (0.0, 0.5j, -0.6 + 0.1j):
            vals = poisson_kernel(kp, t, z)
            assert np.all(vals.real > 0)
            assert np.max(np.abs(vals.imag)) < 1e-12

    def test_poisson_rejects_interior_t(self):
        with pytest.raises(DomainError):
            poisson_kernel(KernelParams(0.0), 0.5, 0.2)

    @pytest.mark.parametrize("t, z", [(float("nan"), 0.2), (1.0, float("nan")), (1.0, complex(0.1, float("nan")))])
    def test_poisson_rejects_non_finite_points(self, t, z):
        with pytest.raises(DomainError):
            poisson_kernel(KernelParams(0.0), t, z)

    def test_poisson_is_symmetrized_herglotz(self):
        # D(t,z) + D_*(t,z) (substar in t) = 2 P(t,z)
        kp = KernelParams(0.25 - 0.15j)
        t = circle(32)
        for z in (0.3, -0.2 + 0.4j):
            d = herglotz_kernel(kp, t, z)
            dsub = np.conj(herglotz_kernel(kp, 1.0 / np.conj(t), z))
            assert_allclose(d + dsub, 2.0 * poisson_kernel(kp, t, z), atol=1e-12)

    def test_poisson_matches_real_part_on_boundary(self):
        kp = KernelParams(0.25 - 0.15j)
        t = circle(32)
        z = 0.55 * np.exp(0.3j)
        assert_allclose(
            poisson_kernel(kp, t, z).real, herglotz_kernel(kp, t, z).real, atol=1e-12
        )


def reference_eval(f, z):
    """The per-function evaluation the kernel replaces: numpy.polynomial's
    polyval over the product of (1 - conj(beta_j) z), j = 1..n in order,
    with a proximity test per factor."""
    z = np.asarray(z, dtype=complex)
    den = np.ones_like(z)
    for j in range(1, f.n + 1):
        fac = 1.0 - np.conj(f.poles.beta[j]) * z
        if np.any(np.abs(fac) < TAU_POLE * (1.0 + np.abs(z))):
            raise PoleProximity(f"evaluation within tolerance of pole 1/conj(beta_{j})")
        den = den * fac
    out = npp.polyval(z, f.numer) / den
    return out if out.ndim else complex(out)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def seeded_level(n, seed=3):
    rng = np.random.default_rng(seed)
    lams = 0.5 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    poles = 0.7 * np.sqrt(rng.uniform(size=n + 1)) * np.exp(2j * np.pi * rng.uniform(size=n + 1))
    return synthesize(lams, PoleSequence(poles)).level(n)


class TestEvaluationKernel:
    """evaluate and evaluate_stack return the reference bits exactly."""

    POINTS = {
        "scalar": 0.31 - 0.42j,
        "0-d": np.asarray(-0.6 + 0.2j),
        "1-d": np.concatenate([disk_grid(8, n=37, cap=0.95), circle(16)]),
        "2-d": disk_grid(9, n=35, cap=0.95).reshape(5, 7),
        "one point": np.array([0.2 + 0.7j]),
    }

    @pytest.mark.parametrize("n", [0, 1, 6, 24])
    @pytest.mark.parametrize("kind", list(POINTS))
    def test_matches_reference_bits(self, n, kind):
        z = self.POINTS[kind]
        lv = seeded_level(n)
        funcs = (lv.phi, lv.phi_star, lv.psi, lv.psi_star)
        stacked = evaluate_stack(funcs, z)
        assert stacked.shape == (4,) + np.shape(z)
        for f, row in zip(funcs, stacked):
            ref = reference_eval(f, z)
            single = f(z)
            assert type(single) is type(ref)
            assert same_bits(single, ref)
            assert same_bits(row, ref)

    @pytest.mark.parametrize("n", [1, 6])
    def test_stack_rows_match_single_calls(self, n):
        lv = seeded_level(n, seed=5)
        funcs = (lv.phi, superstar(lv.phi), lv.psi_star, 2.0 * lv.psi)
        z = disk_grid(10, n=64)
        stacked = evaluate_stack(funcs, z)
        for f, row in zip(funcs, stacked):
            assert same_bits(row, f(z))
        assert same_bits(evaluate_stack(funcs[:1], z)[0], funcs[0](z))

    def test_pole_proximity_names_the_same_factor(self):
        rng = np.random.default_rng(6)
        poles = PoleSequence(0.8 * np.exp(2j * np.pi * rng.uniform(size=6)))
        f = RatFun(poles, rng.standard_normal(6) + 1j * rng.standard_normal(6), 5)
        for j in range(1, 6):
            z = np.array([0.1, 0.2j, 1.0 / np.conj(poles.beta[j]) * (1.0 + 1e-15)])
            for args in ((f, z), (f, z[2])):
                with pytest.raises(PoleProximity) as expected:
                    reference_eval(*args)
                with pytest.raises(PoleProximity) as got:
                    f(args[1])
                assert str(got.value) == str(expected.value)
                assert f"beta_{j})" in str(got.value)
            with pytest.raises(PoleProximity, match=rf"beta_{j}\)"):
                evaluate_stack((f, superstar(f)), z)

    def test_repeated_pole_names_its_first_index(self):
        f = RatFun(PoleSequence([0.0, 0.3, 0.5, 0.5]), [1.0, 2.0, 3.0, 4.0], 3)
        with pytest.raises(PoleProximity, match=r"beta_2\)"):
            f(np.array([0.0, 2.0]))

    def test_one_near_point_among_many_far(self):
        # the scalar bound sees the near point through max |z| alone
        poles = PoleSequence([0.0, 0.3, 0.6 * np.exp(0.7j), -0.5j])
        f = RatFun(poles, [1.0, -2.0, 0.5j, 0.25], 3)
        rng = np.random.default_rng(4)
        z = 0.9 * np.sqrt(rng.uniform(size=4096)) * np.exp(2j * np.pi * rng.uniform(size=4096))
        z[2718] = 1.0 / np.conj(poles.beta[3]) * (1.0 + 1e-15)
        with pytest.raises(PoleProximity) as expected:
            reference_eval(f, z)
        assert "beta_3)" in str(expected.value)
        with pytest.raises(PoleProximity, match=re.escape(str(expected.value))):
            f(z)

    @pytest.mark.parametrize("ratio", [0.5, 0.9, 0.99, 1.01, 1.1, 1.9, 2.1, 3.0])
    def test_threshold_matches_reference(self, ratio):
        # |1 - conj(beta) z| at ratio times the tolerance, along the ray and off it
        b = 0.6 * np.exp(0.7j)
        f = RatFun(PoleSequence([0.0, 0.3, b]), [1.0, -2.0, 0.5j], 2)
        pole = 1.0 / np.conj(b)
        tol = TAU_POLE * (1.0 + abs(pole))
        for direction in (1.0, 1j, -1.0):
            z = np.array([0.0, pole - ratio * tol * direction / np.conj(b)])
            try:
                expected = reference_eval(f, z)
            except PoleProximity as exc:
                with pytest.raises(PoleProximity, match=re.escape(str(exc))):
                    f(z)
            else:
                assert same_bits(f(z), expected)

    def test_point_off_the_pole_passes(self):
        # near enough to fail the bound test, far enough to pass the factor test
        f = RatFun(PoleSequence([0.0, 0.5]), [1.0, 1.0], 1)
        z = np.array([2.0 * (1.0 + 1e-11)])
        assert same_bits(f(z), reference_eval(f, z))

    @pytest.mark.parametrize("size", [1, 6, 100, 512])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_degree_rows_match_single_calls(self, seed, size):
        # all four functions of levels 0..12 in one stack; beta_0 is drawn
        # with the other poles, so it is nonzero
        rng = np.random.default_rng(seed)
        poles = PoleSequence(disk_grid(seed, n=13, cap=0.7))
        assert poles.beta[0] != 0
        s = synthesize(disk_grid(seed + 10, n=12, cap=0.5), poles)
        funcs = [f for lv in s.levels for f in (lv.phi, lv.phi_star, lv.psi, lv.psi_star)]
        z = 0.95 * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))
        stacked = evaluate_stack(funcs, z)
        assert stacked.shape == (len(funcs), size)
        for f, row in zip(funcs, stacked):
            assert_array_equal(row, f(z))
        # lower degrees need only agree on their own prefix
        short = RatFun(PoleSequence(poles.beta[:4]), s.level(3).phi.numer, 3)
        assert_array_equal(evaluate_stack((s.level(12).psi, short), z)[1], short(z))
        other = RatFun(PoleSequence(np.concatenate([poles.beta[:3], [0.1]])), s.level(3).phi.numer, 3)
        with pytest.raises(PoleMismatch):
            evaluate_stack((s.level(12).psi, other), z)

    def test_mixed_poles_rejected(self):
        f = RatFun(PoleSequence([0.0, 0.5, 0.2j]), [1.0, 2.0, 3.0], 2)
        g = RatFun(PoleSequence([0.0, 0.5, 0.3j]), [1.0, 2.0, 3.0], 2)
        with pytest.raises(PoleMismatch):
            evaluate_stack((f, g), 0.1)
        # poles beyond the declared degree do not matter
        h = RatFun(PoleSequence([0.0, 0.5, 0.2j, 0.7]), [1.0, 2.0, 3.0], 2)
        assert same_bits(evaluate_stack((f, h), 0.1), [f(0.1), h(0.1)])
