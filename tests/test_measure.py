import json
import time
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp
from numpy.testing import assert_allclose, assert_array_equal

from orfkit import (
    DenominatorVanishes,
    DomainError,
    KernelSingularity,
    NegativeDensity,
    NonPositiveWeight,
    NumericalFailure,
    PoleSequence,
    RatFun,
    arf_recurrence,
    blaschke_factor,
    builtin_measure,
    caratheodory_from_measure,
    caratheodory_from_system,
    gram_schmidt_orf,
    inner_product,
    measure_from_config,
    synthesize,
    weight_from_caratheodory,
)
from orfkit import measure, measure_from_system, ratfun, serialize
from orfkit.cli import main
from orfkit.measure import (
    MAX_GRID,
    CaratheodoryFn,
    _check_grid,
    _trig_eval,
    boundary_grid,
    default_grid,
)
from orfkit.verify import DEFAULT_TOLERANCES, VerifyContext, check_arf_orthogonality

from conftest import substar_eval


EPS = np.finfo(float).eps


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
        first = mu.weight(theta)
        assert_allclose(first, dense_weight(w, theta), rtol=0, atol=8 * EPS * first.max())
        assert_array_equal(mu.weight(theta), first)

    @pytest.mark.parametrize("m", [256, 300, 768])
    def test_grid_matches_closed_form(self, m):
        # zero-padding (N > M), folding (N < M) and a table size that is not
        # a power of two, against the trig polynomial the table samples
        def exact(theta):
            return 1.0 + 0.4 * np.cos(theta - 0.7) + 0.25 * np.cos(2.0 * theta + 1.1)

        w = exact(boundary_grid(m)[0])
        mu = builtin_measure("samples", theta=boundary_grid(m)[0], w=w)
        for n in (256, 512, 1024, 8192):
            if m % n == 0:
                continue
            theta, _ = boundary_grid(n)
            got = mu.weight(theta)
            assert_allclose(got * mu.mass, exact(theta), rtol=0, atol=8 * EPS * w.max())
            assert_array_equal(mu.weight(theta), got)

    def test_fine_grid_memory(self):
        # one inverse FFT of N bins, not an (N x M) block of exponentials
        mu, _ = sampled_table(512)
        theta, _ = boundary_grid(8192)
        tracemalloc.start()
        try:
            mu.weight(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("command", [["synth"], ["arf", "--order", "1"], ["verify"]])
    def test_cli_on_table_config_stays_off_dense_path(self, tmp_path, monkeypatch, command):
        # beta_0 = 0 and a 256-point table on the 1024 grid: every density
        # the CLI reads sits on an exact uniform grid
        theta, _ = boundary_grid(256)
        w = 1.3 + 0.4 * np.cos(2 * theta) - 0.2 * np.sin(theta)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "poles": [[0, 0], [0.3, -0.2], [-0.1, 0.4]],
            "measure": {"type": "samples", "theta": theta.tolist(), "w": w.tolist()},
            "n_max": 2,
            "grid": 1024,
        }))

        def dense(*args):
            raise AssertionError("dense trigonometric evaluation on a uniform grid")

        monkeypatch.setattr(measure, "_trig_eval", dense)
        assert main(command + ["--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_interpolant_waits_for_an_off_table_read(self, monkeypatch):
        made = []
        real = measure._trig_interpolant
        def counted(table):
            made.append(table.size)
            return real(table)

        monkeypatch.setattr(measure, "_trig_interpolant", counted)
        mu, w = sampled_table(512)
        for n in (512, 256, 128):
            mu.weight(boundary_grid(n)[0])
        assert made == []
        # off-table reads, against the interpolant's formulas with the
        # coefficients made up front: zero padding, folding, other angles
        coeffs = np.fft.fft(w) / w.size
        freqs = np.arange(w.size)
        freqs[w.size // 2 :] -= w.size
        for n in (1024, 384):
            bins = freqs % n
            b = np.bincount(bins, coeffs.real, n) + 1j * np.bincount(bins, coeffs.imag, n)
            expected = np.real(np.fft.ifft(b, norm="forward")) / mu.mass
            assert_array_equal(mu.weight(boundary_grid(n)[0]), expected)
        angles = np.random.default_rng(9).uniform(0.0, 2 * np.pi, size=100)
        assert_array_equal(mu.weight(angles), np.real(_trig_eval(coeffs, freqs, angles)) / mu.mass)
        assert made == [512]

    def test_off_grid_angles_use_dense_path(self):
        mu, w = sampled_table()
        shifted = boundary_grid(256)[0] + 1e-3
        angles = np.random.default_rng(5).uniform(0.0, 2 * np.pi, size=300)
        for theta in (shifted, angles):
            assert_array_equal(mu.weight(theta), dense_weight(w, theta))

    def test_off_grid_memory(self):
        # the exponentials are made a few rows at a time, and each row's
        # product has the bits of the one-shot (angles x M) product
        mu, w = sampled_table(512)
        angles = np.random.default_rng(12).uniform(0.0, 2 * np.pi, size=8192)
        coeffs, freqs = measure._trig_interpolant(w)
        tracemalloc.start()
        try:
            got = mu.weight(angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert_array_equal(got, np.real(np.exp(1j * np.outer(angles, freqs)) @ coeffs) / mu.mass)

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


def test_rational_density_is_the_closed_form():
    s = synthesize(disk_points(3, n=3, cap=0.4), PoleSequence(disk_points(4, n=4, cap=0.6)))
    mu = measure_from_system(s)
    b_m, phi_star = s.poles.beta[3], s.level(3).phi_star
    theta, t = boundary_grid(1024)
    direct = (1.0 - abs(b_m) ** 2) / (np.abs(t - b_m) ** 2 * np.abs(phi_star(t)) ** 2) / mu.mass
    first = mu.weight(theta)
    assert_array_equal(first, direct)
    first[:] = -1.0
    assert_array_equal(mu.weight(theta.copy()), direct)
    off = theta[:10] + 1e-3
    assert_array_equal(mu.weight(off), mu.weight(off))


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
    def test_ratio_at_a_zero_of_its_denominator(self):
        # (1 + z)/(1 - 2z) is read at z = 0.1 and at the zero 0.5 of its denominator
        F = CaratheodoryFn([1.0, 1.0], [1.0, -2.0], 0.0)
        assert F(0.1) == pytest.approx(1.1 / 0.8)
        with pytest.raises(DenominatorVanishes):
            F(np.array([0.1, 0.5]))

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.1, float("nan"))])
    def test_rejects_non_finite_anchor(self, bad):
        with pytest.raises(DomainError):
            CaratheodoryFn([1.0], [1.0], bad)

    def test_rejects_outside_disk(self):
        F = caratheodory_from_measure(builtin_measure("lebesgue"), 0.0)
        with pytest.raises(KernelSingularity):
            F(1.0 + 1e-9)

    @pytest.mark.parametrize(
        "top, bot", [([], []), ([[1.0, 0.5]], [[1.0, 0.0]]), ([1.0, 0.5], [1.0])], ids=["empty", "2-d", "unequal"]
    )
    def test_rejects_malformed_numerators(self, top, bot):
        with pytest.raises(DomainError, match="numerators"):
            CaratheodoryFn(top, bot, 0.0)

    @pytest.mark.parametrize("which", ["ladder", "F_k"])
    def test_every_c_function_keeps_both_guards(self, synth_system, which):
        # a ladder's psi*_m/phi*_m and an F_k evaluate as the moment series
        # does: KernelSingularity beyond the closed disk. Their denominators
        # have no zero in it, so the conjugate reversal of bot, whose zeros
        # are the reflections of bot's, stands in: DenominatorVanishes at one
        F = synth_system.caratheodory if which == "ladder" else arf_recurrence(synth_system, 1).F_k
        with pytest.raises(KernelSingularity):
            F(1.0 + 1e-9)
        top, bot = F.numerators
        reflected = np.conj(bot[::-1])
        zero = min(np.roots(reflected[::-1]), key=abs)
        assert abs(zero) < 1.0
        with pytest.raises(DenominatorVanishes):
            CaratheodoryFn(top, reflected, F.beta0)(np.array([0.0, zero]))

    def test_finite_on_circle(self):
        # the series is cut below rounding, so it converges on |z| = 1
        F = caratheodory_from_measure(builtin_measure("poisson", alpha=0.4 - 0.3j), 0.1 + 0.1j)
        _, t = boundary_grid(512)
        assert np.isfinite(F(t)).all()

    def test_holomorphic_cauchy_riemann(self):
        F = caratheodory_from_measure(builtin_measure("poisson", alpha=0.4), 0.2)
        h = 1e-5
        for z in (0.1 + 0.2j, -0.4j, 0.5, -0.3 - 0.3j):
            dx = (F(z + h) - F(z - h)) / (2 * h)
            dy = (F(z + 1j * h) - F(z - 1j * h)) / (2j * h)
            assert abs(dx - dy) < 1e-7


def _direct_moments(mu, beta0, n_points, count):
    """c_k = mean_t w(t) |t - beta_0|^2/(1 - |beta_0|^2) t^(-k), k = 0..count,
    one product per k."""
    theta, t = boundary_grid(n_points)
    acc = mu.weight(theta) * np.abs(t - beta0) ** 2 / (1.0 - abs(beta0) ** 2) + 0j
    out = [acc.mean()]
    for _ in range(count):
        acc = acc / t
        out.append(acc.mean())
    return np.array(out)


def _pulled_back_series(mu, beta0, n_points):
    """The moments as first written: the grid s_j = e^(2 pi i j/N) pulled
    back through zeta_0, the density read at t = zeta_0^(-1)(s) and scaled
    by dtheta/darg s, with the floor 64 eps max of that."""
    arg_s, s = boundary_grid(n_points)
    v = 1.0 + abs(beta0) * s
    g = mu.weight(arg_s + np.angle(beta0) - 2.0 * np.angle(v)) * (1.0 - abs(beta0) ** 2) / np.abs(v) ** 2
    return np.fft.fft(g) / n_points, 64.0 * EPS * float(g.max())


def _pulled_back_caratheodory(mu, beta0, n):
    """F(z) = 1 + 2 sum_k c_k zeta_0(z)^k from those moments, with the
    same doubling and cut as caratheodory_from_measure."""
    while True:
        c, floor = _pulled_back_series(mu, beta0, n)
        if np.max(np.abs(c[n // 4 : n // 2])) <= floor:
            break
        n *= 2
    coeffs = 2.0 * c[: np.flatnonzero(np.abs(c[: n // 4]) > floor)[-1] + 1]
    coeffs[0] = 0.0
    return lambda z: 1.0 + ratfun._horner(coeffs[None], blaschke_factor(PoleSequence([beta0]), 0, z))[0]


def _table_measure(m):
    theta = 2.0 * np.pi * np.arange(m) / m
    return builtin_measure("samples", theta=theta, w=2.0 + np.cos(3.0 * theta) + 0.5 * np.sin(theta))


class TestMomentSeries:
    @pytest.mark.parametrize("beta0", [0.0, 0.3 - 0.4j])
    @pytest.mark.parametrize("kind", ["lebesgue", "poisson", "samples"])
    def test_fft_matches_direct_sum(self, kind, beta0):
        mu = {
            "lebesgue": builtin_measure("lebesgue"),
            "poisson": builtin_measure("poisson", alpha=0.5 + 0.2j),
            "samples": _table_measure(64),
        }[kind]
        c, floor = measure._moment_series(mu, beta0, 2048)
        assert_allclose(c[:41], _direct_moments(mu, beta0, 4096, 40), rtol=0, atol=1e-14)
        assert 0 < floor < 1e-12

    @pytest.mark.parametrize("n_points", [256, 1024, 4096])
    @pytest.mark.parametrize("kind", ["lebesgue", "poisson", "table-64", "table-256"])
    def test_beta0_zero_keeps_the_pulled_back_bits(self, kind, n_points):
        # |t - 0|^2 is formed as exactly 1, and zeta_0(z) = z at beta_0 = 0,
        # so the moments, the floor and F keep the bits of the pull-back
        mu = {
            "lebesgue": builtin_measure("lebesgue"),
            "poisson": builtin_measure("poisson", alpha=0.5 + 0.2j),
            "table-64": _table_measure(64),
            "table-256": _table_measure(256),
        }[kind]
        c, floor = measure._moment_series(mu, 0.0, n_points)
        c_old, floor_old = _pulled_back_series(mu, 0.0, n_points)
        assert_array_equal(c, c_old)
        assert floor == floor_old
        F, F_old = caratheodory_from_measure(mu, 0.0, n_points), _pulled_back_caratheodory(mu, 0.0, n_points)
        for z in (boundary_grid(n_points)[1], disk_points(6, cap=1.0), np.array([0.0, 0.3 - 0.2j])):
            assert_array_equal(F(z), F_old(z))

    @pytest.mark.parametrize(
        "kind, beta0",
        [("lebesgue", 0.3 - 0.4j), ("poisson", 0.4 + 0.1j), ("samples", 0.0)],
    )
    def test_series_values_match_polyval(self, kind, beta0):
        # F is one Horner pass over its numerators, with polyval's
        # operations: on grid arrays the values keep the bits of the
        # polyval ratio. The series 1 + (h(z) - h(beta_0)) of the terms
        # k >= 1 it sums agrees within 1e-15 of its largest value, and
        # F(beta_0) is 1 within an ulp: the constant 1 - h(beta_0) rounds once
        mu = {
            "lebesgue": builtin_measure("lebesgue"),
            "poisson": builtin_measure("poisson", alpha=0.3 - 0.2j),
            "samples": _table_measure(256),
        }[kind]
        F = caratheodory_from_measure(mu, beta0, n_points=256)
        top, bot = F.numerators
        terms = np.append(0.0, top[1:])
        at_beta0 = npp.polyval(np.array([beta0]), terms)[0]
        for n_points in (256, 1024, 4096):
            _, t = boundary_grid(n_points)
            vals = F(t)
            assert_array_equal(vals, npp.polyval(t, top) / npp.polyval(t, bot))
            series = 1.0 + (npp.polyval(t, terms) - at_beta0)
            assert np.max(np.abs(vals - series)) <= 1e-15 * np.max(np.abs(series))
        assert abs(F(beta0) - 1.0) <= EPS
        # Lebesgue anchored at beta_0 is the linear 1 - 2 conj(beta_0)(z - beta_0)/(1 - |beta_0|^2)
        assert top.size > 1

    @pytest.mark.parametrize(
        "kind, beta0",
        [("lebesgue", 0.3 - 0.4j), ("poisson", 0.4 + 0.1j), ("samples", 0.0), ("samples", -0.2 + 0.5j)],
    )
    def test_numerators_reproduce_the_series(self, kind, beta0):
        # top/bot, bot the constant 1 padded to top's length, is F to
        # rounding on its grid and at 200 disk points
        mu = {
            "lebesgue": builtin_measure("lebesgue"),
            "poisson": builtin_measure("poisson", alpha=0.3 - 0.2j),
            "samples": _table_measure(256),
        }[kind]
        F = caratheodory_from_measure(mu, beta0, n_points=1024)
        top, bot = F.numerators
        assert top.size == bot.size and bot[0] == 1.0 and not bot[1:].any()
        for z in (boundary_grid(1024)[1], ratfun._disk_sample(3, 1.0, 200)):
            f = np.asarray(F(z))
            assert np.max(np.abs(npp.polyval(z, top) / npp.polyval(z, bot) - f)) <= 1e-13 * np.max(np.abs(f))

    def test_grid_angles_at_beta0_zero(self, monkeypatch):
        # the density is read on the grid 2 pi j / N itself at beta_0 = 0
        # and at every other beta_0, so a table that N divides answers from
        # its samples, never the dense kernel
        mu = _table_measure(4096)

        def dense(*args):
            raise AssertionError("dense trigonometric evaluation on a table grid")

        monkeypatch.setattr(measure, "_trig_eval", dense)
        for beta0 in (0.0, 0.3 - 0.4j):
            F = caratheodory_from_measure(mu, beta0)
            assert np.min(np.real(F(disk_points(5)))) > 0

    def test_series_between_its_own_samples(self):
        # the moments come from the grid 2 pi j / N; half a step of the
        # 512-point grid off it, the density recovered from F is the Poisson one
        alpha, beta0 = 0.4 - 0.3j, 0.3 - 0.4j
        F = caratheodory_from_measure(builtin_measure("poisson", alpha=alpha), beta0, n_points=256)
        theta = boundary_grid(512)[0] + np.pi / 512
        exact = (1.0 - abs(alpha) ** 2) / np.abs(np.exp(1j * theta) - alpha) ** 2
        assert_allclose(weight_from_caratheodory(F, theta), exact, rtol=1e-12, atol=0)

    def test_rational_measure_gives_its_completion(self):
        # a lambda ladder's density goes back through the series to the
        # ladder's own psi*_m/phi*_m, anchored away from the origin
        lams, betas = disk_points(10, n=6, cap=0.4), disk_points(11, n=7, cap=0.7)
        assert abs(betas[0]) > 0.1
        s = synthesize(lams, PoleSequence(betas))
        F = caratheodory_from_measure(measure_from_system(s), betas[0])
        zs = disk_points(7, n=200, cap=0.9)
        assert_allclose(F(zs), caratheodory_from_system(s)(zs), rtol=0, atol=1e-12)

    def test_failure_names_grid_and_tail(self):
        mu = builtin_measure("poisson", alpha=0.9999)
        start = time.perf_counter()
        with pytest.raises(NumericalFailure, match=r"grids up to 65536: its tail is .* times the rounding floor"):
            caratheodory_from_measure(mu, 0.0)
        assert time.perf_counter() - start < 1.0

    def test_non_positive_doubled_grid_names_the_series(self):
        # three spikes on a 256-point table: the ladder builds on its own
        # 256 points, but the moment series doubles to 512, where the
        # table's trigonometric interpolant dips below 0
        theta = 2.0 * np.pi * np.arange(256) / 256
        w = np.full(256, 1e-30)
        w[[0, 85, 170]] = 1.0
        mu = builtin_measure("samples", theta=theta, w=w)
        with pytest.raises(NonPositiveWeight, match="on the 512-point grid of its moment series"):
            gram_schmidt_orf(mu, PoleSequence([0.0, 0.3, -0.2j]), 2, n_points=256)


class TestWeightRecovery:
    def test_identity_case(self):
        F = CaratheodoryFn([1.0], [1.0], 0.0)
        theta, _ = boundary_grid(256)
        assert_allclose(weight_from_caratheodory(F, theta), 1.0, atol=1e-12)

    def test_anchored_constant_gives_rational_modification(self):
        # F = 1 anchored at beta_1 recovers (1-|beta_1|^2)/|t - beta_1|^2
        b1 = 0.5
        F = CaratheodoryFn([1.0], [1.0], b1)
        theta, t = boundary_grid(256)
        w = weight_from_caratheodory(F, theta)
        assert_allclose(w, (1 - b1**2) / np.abs(t - b1) ** 2, rtol=1e-10)

    @pytest.mark.parametrize("alpha,beta0", [(0.3, 0.0), (0.4 - 0.3j, 0.1 + 0.1j)])
    def test_roundtrip(self, alpha, beta0):
        mu = builtin_measure("poisson", alpha=alpha)
        F = caratheodory_from_measure(mu, beta0)
        theta, _ = boundary_grid(512)
        w = weight_from_caratheodory(F, theta)
        assert np.max(np.abs(w - mu.weight(theta))) < 1e-12

    def test_negative_density_detected(self):
        F = CaratheodoryFn([-1.0], [1.0], 0.0)
        theta, _ = boundary_grid(256)
        with pytest.raises(NegativeDensity):
            weight_from_caratheodory(F, theta)


def test_grid_bound():
    # the largest grid accepted is 2^20 points; the check itself allocates nothing
    _check_grid(MAX_GRID)
    with pytest.raises(DomainError, match=f"at most {MAX_GRID}, got {2 * MAX_GRID}"):
        _check_grid(2 * MAX_GRID)


_GRID_POLES = PoleSequence([0.0, 0.3, -0.2j])
_GRID_ENTRIES = {
    "synthesize": lambda n: synthesize([0.1, 0.2j], _GRID_POLES, n_points=n),
    "gram_schmidt_orf": lambda n: gram_schmidt_orf(builtin_measure("lebesgue"), _GRID_POLES, 2, n_points=n),
    "caratheodory_from_measure": lambda n: caratheodory_from_measure(builtin_measure("lebesgue"), 0.0, n_points=n),
}


@pytest.mark.parametrize("entry", sorted(_GRID_ENTRIES))
@pytest.mark.parametrize("n_points", [1024.0, np.float64(1024.0), "1024", 0], ids=["float", "numpy-float", "str", "zero"])
def test_grid_size_fails_as_a_domain_error(entry, n_points):
    # a grid size that is no integer, or 0, fails as a DomainError at every
    # entry point, not as a TypeError or a silent default grid
    with pytest.raises(DomainError, match="grid size"):
        _GRID_ENTRIES[entry](n_points)
    _GRID_ENTRIES[entry](np.int64(1024))


def test_numpy_grid_size_is_kept_as_an_int():
    # a ladder built on a numpy integer grid still writes its orf.json
    s = synthesize([0.1, 0.2j], _GRID_POLES, n_points=np.int64(1024))
    assert type(s.n_points) is int
    assert json.loads(serialize.dumps(serialize.system_to_dict(s)))["n_points"] == 1024


@pytest.mark.parametrize("n_max", [1.0, "2", -1])
def test_gram_schmidt_order_fails_as_a_domain_error(n_max):
    with pytest.raises(DomainError, match="n_max"):
        gram_schmidt_orf(builtin_measure("lebesgue"), _GRID_POLES, n_max)
    assert gram_schmidt_orf(builtin_measure("lebesgue"), _GRID_POLES, np.int64(2)).n_max == 2
