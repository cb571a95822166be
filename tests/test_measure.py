import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from orfkit import (
    DomainError,
    KernelSingularity,
    NegativeDensity,
    NonPositiveWeight,
    PoleSequence,
    RatFun,
    builtin_measure,
    caratheodory_from_measure,
    inner_product,
    measure_from_config,
    substar_eval,
    synthesize,
    weight_from_caratheodory,
)
from orfkit import measure, measure_from_system, ratfun
from orfkit.measure import CaratheodoryFn, _trig_eval, boundary_grid, default_grid
from orfkit.verify import DEFAULT_TOLERANCES, VerifyContext, check_arf_orthogonality


def monomial(k):
    return lambda z: np.asarray(z) ** k


def disk_points(seed, n=100, cap=0.85):
    rng = np.random.default_rng(seed)
    return cap * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


class TestBuiltinMeasures:
    def test_lebesgue_weight(self, lebesgue):
        theta, _ = boundary_grid(256)
        assert_allclose(lebesgue.weight(theta), 1.0)

    def test_poisson_degenerates_to_lebesgue(self):
        mu = builtin_measure("poisson", alpha=0.0)
        theta, _ = boundary_grid(256)
        assert_allclose(mu.weight(theta), 1.0)

    def test_poisson_value(self):
        mu = builtin_measure("poisson", alpha=0.5)
        assert_allclose(mu.weight(0.0), 3.0)

    def test_poisson_rejects_outside(self):
        with pytest.raises(DomainError):
            builtin_measure("poisson", alpha=1.2)

    def test_normalization(self):
        theta, _ = boundary_grid(2048)
        for mu in (
            builtin_measure("poisson", alpha=0.4 - 0.3j),
            builtin_measure("samples", theta=boundary_grid(128)[0], w=1.0 + 0.3 * np.cos(boundary_grid(128)[0])),
        ):
            assert abs(mu.weight(theta).mean() - 1.0) < 1e-12

    def test_samples_interpolation_hits_nodes(self):
        theta, _ = boundary_grid(64)
        w = 1.3 + 0.5 * np.sin(theta) + 0.2 * np.cos(3 * theta)
        mu = builtin_measure("samples", theta=theta, w=w)
        assert_allclose(mu.weight(theta) * mu.mass, w, rtol=1e-12)

    def test_samples_rejects_nonpositive(self):
        theta, _ = boundary_grid(64)
        with pytest.raises(NonPositiveWeight):
            builtin_measure("samples", theta=theta, w=np.cos(theta))

    def test_config_parsing(self):
        assert measure_from_config({"type": "lebesgue"}).kind == "lebesgue"
        mu = measure_from_config({"type": "poisson", "alpha": [0.5, 0.0]})
        assert_allclose(mu.weight(0.0), 3.0)
        theta, _ = boundary_grid(64)
        mu = measure_from_config({"type": "samples", "theta": list(theta), "w": [1.0] * 64})
        assert_allclose(mu.weight(theta), 1.0)
        with pytest.raises(DomainError):
            measure_from_config({"type": "atomic"})


def sampled_table(m=256):
    theta, _ = boundary_grid(m)
    w = 1.3 + 0.4 * np.cos(2 * theta) - 0.2 * np.sin(theta)
    return builtin_measure("samples", theta=theta, w=w), w


def dense_weight(w, theta):
    m = w.size
    coeffs = np.fft.fft(w) / m
    freqs = np.fft.fftfreq(m, d=1.0 / m)
    return np.real(_trig_eval(coeffs, freqs, theta)) / w.mean()


@pytest.mark.parametrize("kind", ["lebesgue", "poisson", "samples"])
def test_weight_keeps_input_shape(kind):
    if kind == "samples":
        mu = sampled_table()[0]
    else:
        mu = builtin_measure(kind, alpha=0.3 + 0.1j if kind == "poisson" else None)
    assert mu.weight(0.0).shape == ()
    assert float(mu.weight(0.0)) > 0
    assert mu.weight(np.full((2, 3), 0.7)).shape == (2, 3)


class TestSampledGrids:
    """The sampled density on uniform grids equals the dense interpolant."""

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_table_nodes_return_samples(self, r):
        mu, w = sampled_table()
        assert_array_equal(mu.weight(boundary_grid(w.size // r)[0]), w[::r] / mu.mass)

    def test_finer_grid_matches_dense_on_every_call(self):
        mu, w = sampled_table()
        theta, _ = boundary_grid(1024)
        expected = dense_weight(w, theta)
        assert_array_equal(mu.weight(theta), expected)
        assert_array_equal(mu.weight(theta), expected)

    def test_off_grid_angles_use_dense_path(self):
        mu, w = sampled_table()
        shifted = boundary_grid(256)[0] + 1e-3
        angles = np.random.default_rng(5).uniform(0.0, 2 * np.pi, size=300)
        for theta in (shifted, angles):
            assert_array_equal(mu.weight(theta), dense_weight(w, theta))

    def test_returned_arrays_are_private(self):
        mu, w = sampled_table()
        for n in (256, 128, 1024):
            theta, _ = boundary_grid(n)
            first = mu.weight(theta)
            expected = first.copy()
            first[:] = -1.0
            assert_array_equal(mu.weight(theta), expected)

    def test_empty_angles(self):
        mu, _ = sampled_table()
        assert mu.weight(np.array([])).shape == (0,)

    def test_arf_orthogonality_stays_on_table_nodes(self, monkeypatch):
        # the order-k densities are tables on the verify grid itself, so the
        # check must never fall back to the dense kernel
        s = synthesize(disk_points(8, n=3, cap=0.3), PoleSequence(disk_points(9, n=4, cap=0.6)))
        s.n_points = 1024
        ctx = VerifyContext(s, seed=0, tolerances={})

        def dense(*args):
            raise AssertionError("dense trigonometric evaluation on a table grid")

        monkeypatch.setattr(measure, "_trig_eval", dense)
        assert check_arf_orthogonality(ctx) <= DEFAULT_TOLERANCES["arf_orthogonality"]


def test_boundary_grid_is_shared_and_read_only():
    theta, t = boundary_grid(512)
    again = boundary_grid(512)
    assert again[0] is theta and again[1] is t
    assert not theta.flags.writeable and not t.flags.writeable
    assert_array_equal(theta, 2.0 * np.pi * np.arange(512) / 512)
    assert_array_equal(t, np.exp(1j * theta))


def test_rational_density_once_per_grid(monkeypatch):
    s = synthesize(disk_points(3, n=3, cap=0.4), PoleSequence(disk_points(4, n=4, cap=0.6)))
    mu = measure_from_system(s)
    b_m, phi_star = s.poles.beta[3], s.level(3).phi_star
    calls = []
    original = ratfun.evaluate
    monkeypatch.setattr(ratfun, "evaluate", lambda f, z: calls.append(np.size(z)) or original(f, z))
    theta, t = boundary_grid(1024)
    direct = (1.0 - abs(b_m) ** 2) / (np.abs(t - b_m) ** 2 * np.abs(phi_star(t)) ** 2) / mu.mass
    calls.clear()
    first = mu.weight(theta)
    assert_array_equal(first, direct)
    first[:] = -1.0
    assert_array_equal(mu.weight(theta.copy()), direct)
    assert calls == [1024]
    # angles off every uniform grid are evaluated on each call
    off = theta[:10] + 1e-3
    assert_array_equal(mu.weight(off), mu.weight(off))
    assert calls == [1024, 10, 10]


class TestInnerProduct:
    def test_fourier_orthogonality(self, lebesgue):
        for m in range(3):
            for n in range(3):
                ip = inner_product(lebesgue, monomial(m), monomial(n), 512)
                assert abs(ip - (1.0 if m == n else 0.0)) < 1e-13

    def test_unit_mass(self, lebesgue):
        assert abs(inner_product(lebesgue, monomial(0), monomial(0), 512) - 1.0) < 1e-14

    def test_geometric_series_oracle(self, lebesgue):
        # independent oracle: sum of 0.25^k
        expected = sum(0.25**k for k in range(60))
        f = RatFun(PoleSequence([0.0, 0.5]), [0.0, 1.0], 1)
        assert abs(inner_product(lebesgue, f, f, 1024) - expected) < 1e-12

    def test_grid_validation(self, lebesgue):
        with pytest.raises(DomainError):
            inner_product(lebesgue, monomial(0), monomial(0), 500)
        with pytest.raises(DomainError):
            inner_product(lebesgue, monomial(0), monomial(0), 128)

    def test_hermitian_functional(self):
        mu = builtin_measure("poisson", alpha=0.3 + 0.1j)
        rng = np.random.default_rng(2)
        poles = PoleSequence([0.0, 0.5, -0.3, 0.2j, 0.1, -0.4j])
        f = RatFun(poles, rng.standard_normal(6) + 1j * rng.standard_normal(6), 5)
        lhs = inner_product(mu, lambda z: substar_eval(f, z), monomial(0), 1024)
        rhs = np.conj(inner_product(mu, f, monomial(0), 1024))
        assert abs(lhs - rhs) < 1e-13

    def test_positive_definite(self):
        mu = builtin_measure("poisson", alpha=0.3 + 0.1j)
        rng = np.random.default_rng(3)
        poles = PoleSequence([0.0, 0.5, -0.3, 0.2j, 0.1, -0.4j])
        for seed in range(4):
            rng = np.random.default_rng(seed)
            f = RatFun(poles, rng.standard_normal(6) + 1j * rng.standard_normal(6), 5)
            ip = inner_product(mu, f, f, 1024)
            assert ip.real > 0 and abs(ip.imag) < 1e-12 * ip.real

    def test_grid_doubling_stable(self):
        mu = builtin_measure("poisson", alpha=0.4)
        f = RatFun(PoleSequence([0.0, 0.5, -0.3]), [1.0, 0.5j, -0.2], 2)
        a = inner_product(mu, f, f, 1024)
        b = inner_product(mu, f, f, 2048)
        assert abs(a - b) < 1e-12

    def test_default_grid(self):
        assert default_grid(2) == 1024
        assert default_grid(31) == 2048
        assert default_grid(40) & (default_grid(40) - 1) == 0


class TestCaratheodory:
    def test_lebesgue_is_one(self, lebesgue):
        F = caratheodory_from_measure(lebesgue, 0.0)
        zs = disk_points(1)
        assert_allclose(F(zs), 1.0, atol=1e-13)

    def test_anchor_is_one(self):
        mu = builtin_measure("poisson", alpha=0.4 - 0.2j)
        F = caratheodory_from_measure(mu, 0.3 + 0.3j)
        assert abs(F(0.3 + 0.3j) - 1.0) < 1e-10

    def test_poisson_matched_anchor_is_constant(self):
        # density (1-|a|^2)/|t-a|^2 with anchor beta_0 = a gives F = 1
        mu = builtin_measure("poisson", alpha=0.5)
        F = caratheodory_from_measure(mu, 0.5)
        assert_allclose(F(disk_points(2)), 1.0, atol=1e-12)

    def test_positive_real_part(self):
        for mu in (
            builtin_measure("lebesgue"),
            builtin_measure("poisson", alpha=0.45 + 0.3j),
        ):
            F = caratheodory_from_measure(mu, 0.1)
            assert np.min(np.real(F(disk_points(4)))) > 0

    def test_rejects_near_boundary(self):
        F = caratheodory_from_measure(builtin_measure("lebesgue"), 0.0)
        with pytest.raises(KernelSingularity):
            F(1.0 - 1e-9)

    def test_holomorphic_cauchy_riemann(self):
        F = caratheodory_from_measure(builtin_measure("poisson", alpha=0.4), 0.2)
        h = 1e-5
        for z in (0.1 + 0.2j, -0.4j, 0.5, -0.3 - 0.3j):
            dx = (F(z + h) - F(z - h)) / (2 * h)
            dy = (F(z + 1j * h) - F(z - 1j * h)) / (2j * h)
            assert abs(dx - dy) < 1e-7


class TestWeightRecovery:
    def test_identity_case(self):
        F = CaratheodoryFn(lambda z: np.ones_like(z), 0.0)
        theta, _ = boundary_grid(256)
        assert_allclose(weight_from_caratheodory(F, 0.0, theta), 1.0, atol=1e-12)

    def test_anchored_constant_gives_rational_modification(self):
        # F = 1 anchored at beta_1 recovers (1-|beta_1|^2)/|t - beta_1|^2
        b1 = 0.5
        F = CaratheodoryFn(lambda z: np.ones_like(z), b1)
        theta, t = boundary_grid(256)
        w = weight_from_caratheodory(F, b1, theta)
        assert_allclose(w, (1 - b1**2) / np.abs(t - b1) ** 2, rtol=1e-10)

    @pytest.mark.parametrize("alpha,beta0", [(0.3, 0.0), (0.4 - 0.3j, 0.1 + 0.1j)])
    def test_roundtrip(self, alpha, beta0):
        mu = builtin_measure("poisson", alpha=alpha)
        F = caratheodory_from_measure(mu, beta0)
        theta, _ = boundary_grid(512)
        w = weight_from_caratheodory(F, beta0, theta)
        assert np.max(np.abs(w - mu.weight(theta))) < 1e-6

    def test_negative_density_detected(self):
        F = CaratheodoryFn(lambda z: -np.ones_like(z), 0.0)
        theta, _ = boundary_grid(256)
        with pytest.raises(NegativeDensity):
            weight_from_caratheodory(F, 0.0, theta)
