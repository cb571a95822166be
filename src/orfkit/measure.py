"""Absolutely continuous probability measures on the circle and their C-functions.

All quadrature is the uniform composite rule on |t| = 1, which is spectrally
accurate for the analytic densities this package accepts. A measure stores a
density w(theta) against dtheta/2pi, normalized so the total mass is 1.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    DomainError,
    DenominatorVanishes,
    KernelSingularity,
    NegativeDensity,
    NonPositiveWeight,
    NumericalFailure,
)
from .ratfun import KernelParams

# C-functions built from quadrature reject evaluation beyond this modulus:
# the closed disk, up to rounding.
MAX_MODULUS = 1.0 + 1e-12


def _grid_angles(n_points: int):
    return 2.0 * np.pi * np.arange(n_points) / n_points


# boundary_grid's arrays by size; read-only, as callers share them
_GRIDS = {}


def boundary_grid(n_points: int):
    """Uniform angles theta_j = 2 pi j / N and the points t_j = exp(i theta_j).

    Computed once per size and kept; the arrays are read-only.
    """
    grid = _GRIDS.get(n_points)
    if grid is None:
        theta = _grid_angles(n_points)
        t = np.exp(1j * theta)
        theta.flags.writeable = t.flags.writeable = False
        grid = _GRIDS[n_points] = (theta, t)
    return grid


def _uniform_size(theta) -> int:
    """N when theta is exactly the grid 2 pi j / N, else 0."""
    n = theta.size
    if theta.ndim != 1 or not n:
        return 0
    grid = _GRIDS[n][0] if n in _GRIDS else _grid_angles(n)
    return n if theta is grid or np.array_equal(theta, grid) else 0


def _grid_points_size(z) -> int:
    """N when z is exactly the points of a boundary_grid(N) already made, else 0."""
    grid = _GRIDS.get(z.size) if z.ndim == 1 else None
    return z.size if grid is not None and (z is grid[1] or np.array_equal(z, grid[1])) else 0


def _grid_memo(fn, size=_uniform_size):
    """fn (elementwise) computed once per exact uniform grid and kept
    read-only; size(x) is the grid's N when the argument x is one, else 0.
    By default x is angles, 2 pi j / N; other arguments are computed each
    call."""
    on_grid = {}

    def memo(x):
        n = size(x)
        if not n:
            return fn(x)
        if n not in on_grid:
            on_grid[n] = np.asarray(fn(x))
            on_grid[n].flags.writeable = False
        return on_grid[n]

    return memo


def default_grid(n_max: int) -> int:
    """Quadrature size max(1024, 64 (n_max + 1)), rounded up to a power of two."""
    n = max(1024, 64 * (n_max + 1))
    return 1 << (n - 1).bit_length()


def _check_grid(n_points: int):
    if n_points < 256 or (n_points & (n_points - 1)) != 0:
        raise DomainError(f"grid size must be a power of two >= 256, got {n_points}")


def _trig_eval(coeffs, freqs, theta):
    """Evaluate a trigonometric interpolant sum_k c_k e^(i k theta), chunked."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty(theta.size, dtype=complex)
    step = max(1, 2**22 // max(1, freqs.size))
    for lo in range(0, theta.size, step):
        block = theta[lo : lo + step]
        out[lo : lo + step] = np.exp(1j * np.outer(block, freqs)) @ coeffs
    return out


class CircleMeasure:
    """Positive density on the circle against dtheta/2pi, normalized to mass 1.

    Built through `builtin_measure` (lebesgue | poisson | samples), or as the
    rational completion of a ladder (`engine.measure_from_system`). The
    caller gives the density's mass, which each of them knows in closed
    form. Atoms and singular parts are out of scope: construction rejects
    non-positive sampled densities.
    """

    __slots__ = ("kind", "params", "_fn", "mass")

    def __init__(self, kind, fn, params=None, *, mass):
        self.kind = kind
        self.params = params or {}
        self._fn = fn
        self.mass = mass

    def weight(self, theta):
        """Normalized density at the given angles."""
        vals = np.asarray(self._fn(np.asarray(theta, dtype=float)), dtype=float) / self.mass
        return vals


def builtin_measure(kind: str, alpha=None, theta=None, w=None) -> CircleMeasure:
    """Construct a built-in measure.

    kind = "lebesgue":        w(theta) = 1.
    kind = "poisson":         w(theta) = (1 - |alpha|^2)/|e^(i theta) - alpha|^2, |alpha| < 1.
    kind = "samples":         strictly positive values on a uniform theta grid,
                              extended by trigonometric interpolation.

    A sampled density is exact at its M table nodes: on the grid 2 pi j / N
    with N dividing M it returns the stored samples. Any other uniform grid
    2 pi j / N takes one inverse FFT: the coefficients c_k fold into N bins
    b_r = sum_{k = r mod N} c_k, since e^(i k theta_j) depends on k only
    mod N there, and the interpolant is Re(N ifft(b)), an unscaled inverse
    FFT: O(N log N), and the same bits on every call. Other angles cost
    O(N M) each call.
    """
    if kind == "lebesgue":
        return CircleMeasure("lebesgue", lambda th: np.ones_like(np.asarray(th, float)), mass=1.0)
    if kind == "poisson":
        a = complex(alpha)
        if not abs(a) < 1.0:
            raise DomainError("poisson measure needs |alpha| < 1")
        def fn(th):
            t = np.exp(1j * np.asarray(th, float))
            return (1.0 - abs(a) ** 2) / np.abs(t - a) ** 2
        return CircleMeasure("poisson", fn, params={"alpha": a}, mass=1.0)
    if kind == "samples":
        try:
            th = np.asarray(theta, dtype=float)
            vals = np.asarray(w, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"samples theta and w must be arrays of numbers: {exc}") from exc
        if th.ndim != 1 or th.shape != vals.shape or th.size < 4:
            raise DomainError("samples measure needs matching theta/w arrays")
        if not (np.isfinite(th).all() and np.isfinite(vals).all()):
            raise DomainError("samples theta and w must be finite")
        if np.any(vals <= 0):
            raise NonPositiveWeight("sample table must be strictly positive")
        m = th.size
        if np.max(np.abs(th - _grid_angles(m))) > 1e-9:
            raise DomainError("sample table must sit on the uniform grid 2 pi j / M")
        coeffs = np.fft.fft(vals) / m
        # the frequencies of fftfreq(M, 1/M) as integers; that float array
        # misses them by an ulp for some M (49, 98, 103, ...)
        freqs = np.arange(m)
        freqs[(m + 1) // 2 :] -= m
        table = vals.copy()
        table.flags.writeable = False

        def fn(t):
            n = _uniform_size(t)
            if not n:
                return np.real(_trig_eval(coeffs, freqs, t)).reshape(t.shape)
            if m % n == 0:
                return table[:: m // n]
            bins = freqs % n
            b = np.bincount(bins, coeffs.real, n) + 1j * np.bincount(bins, coeffs.imag, n)
            return np.real(np.fft.ifft(b, norm="forward"))

        return CircleMeasure("samples", fn, params={"theta": th, "w": vals}, mass=float(vals.mean()))
    raise DomainError(f"unknown measure kind {kind!r}")


def measure_from_config(spec: dict) -> CircleMeasure:
    """Parse the JSON measure spec: {"type": "lebesgue"|"poisson"|"samples", ...}."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise DomainError("measure spec must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "lebesgue":
        return builtin_measure("lebesgue")
    if kind == "poisson":
        a = spec.get("alpha")
        if not (isinstance(a, (list, tuple)) and len(a) == 2):
            raise DomainError("poisson measure spec needs \"alpha\": [re, im]")
        try:
            alpha = complex(a[0], a[1])
        except (TypeError, OverflowError) as exc:
            raise DomainError(f"poisson \"alpha\" must hold two numbers: {exc}") from exc
        return builtin_measure("poisson", alpha=alpha)
    if kind == "samples":
        return builtin_measure("samples", theta=spec.get("theta"), w=spec.get("w"))
    raise DomainError(f"unknown measure type {kind!r}")


def inner_product(mu: CircleMeasure, f, g, n_points: int = 1024) -> complex:
    """Quadrature of f(t) conj(g(t)) against the measure on |t| = 1.

    f and g are anything evaluable at complex points (RatFun instances or
    plain callables). The grid must be a power of two >= 256; the rule is
    the uniform composite one, spectrally accurate for smooth densities.
    """
    _check_grid(n_points)
    theta, t = boundary_grid(n_points)
    w = mu.weight(theta)
    if np.any(w <= 0):
        raise NonPositiveWeight("sampled density non-positive on the quadrature grid")
    vals = np.asarray(f(t)) * np.conj(np.asarray(g(t))) * w
    return complex(vals.mean())


class CaratheodoryFn:
    """Evaluable holomorphic function on the disk with positive real part.

    Normalized so F(beta0) = 1; beta0 anchors the Herglotz kernel that ties
    the function to its measure. `anchor_residual` is the measured defect of
    F(beta0) = 1 when the builder checked it, else None.
    """

    __slots__ = ("evaluator", "beta0", "anchor_residual")

    def __init__(self, evaluator, beta0):
        beta0 = complex(beta0)
        if not abs(beta0) < 1.0:
            raise DomainError("|beta_0| < 1 required")
        self.evaluator = evaluator
        self.beta0 = beta0
        self.anchor_residual = None

    def __call__(self, z):
        out = self.evaluator(np.asarray(z, dtype=complex))
        out = np.asarray(out)
        return out if out.ndim else complex(out)


def _moment_series(mu, kp, n_points):
    """Moments c_k = mean_t w(t) zeta_0(t)^(-k), k = 0..N-1, from one FFT,
    and the rounding floor 64 eps max g below which they carry no digits.

    The nodes s_j = e^(2 pi i j/N) are pulled back through zeta_0: with
    u = s/eta_0, t = zeta_0^(-1)(s) has the angle
    arg s - arg eta_0 - 2 arg(1 + conj(beta_0) u), and
    dtheta/darg s = (1 - |beta_0|^2)/|1 + conj(beta_0) u|^2. The pulled-back
    density g_j = w(theta_j) dtheta/darg s has the Fourier coefficients
    c = fft(g)/N. As conj(beta_0) u = |beta_0| s, beta_0 = 0 gives exactly
    the grid angles 2 pi j / N, so sampled and per-grid densities serve it.
    """
    arg_s, s = boundary_grid(n_points)
    b0 = kp.beta0
    v = 1.0 + abs(b0) * s
    w = mu.weight(arg_s + np.angle(b0) - 2.0 * np.angle(v))
    if np.any(w <= 0):
        raise NonPositiveWeight("sampled density non-positive on the quadrature grid")
    g = w * (1.0 - abs(b0) ** 2) / np.abs(v) ** 2
    return np.fft.fft(g) / n_points, 64.0 * np.finfo(float).eps * float(g.max())


def caratheodory_from_measure(mu: CircleMeasure, beta0, n_points: int = 2048) -> CaratheodoryFn:
    """C-function F(z) of the measure, anchored at beta0.

    Uses the geometric expansion of the Herglotz kernel in powers of
    zeta_0(z)/zeta_0(t): F(z) = 1 + 2 sum_k c_k zeta_0(z)^k with the
    moments c_k of `_moment_series`. A grid of N points is accepted when
    the moments N/4 <= k < N/2 are at or below the rounding floor, and the
    series then ends at the last moment above it; otherwise N doubles, up
    to 65536 (densities with structure very close to the circle need more
    terms). The dropped tail is below rounding, so the finite series is
    accurate on the closed disk, the circle included. Its values on the
    points of a `boundary_grid(N)` are computed once and kept.
    """
    _check_grid(n_points)
    kp = KernelParams(beta0)
    n = n_points
    while True:
        c, floor = _moment_series(mu, kp, n)
        tail = float(np.max(np.abs(c[n // 4 : n // 2])))
        if tail <= floor:
            break
        if n >= 65536:
            raise NumericalFailure(
                f"moment series did not converge on grids up to {n}: its tail is "
                f"{tail / floor:.1e} times the rounding floor; the density has "
                "structure too close to the circle"
            )
        n *= 2
    last = np.flatnonzero(np.abs(c[: n // 4]) > floor)[-1]
    coeffs = 2.0 * c[: last + 1]
    coeffs[0] = 0.0

    def ev(z):
        z = np.asarray(z, dtype=complex)
        if (np.abs(z) > MAX_MODULUS).any():
            raise KernelSingularity("C-function evaluation requires |z| <= 1")
        return 1.0 + npp.polyval(kp.zeta0(z), coeffs)

    return CaratheodoryFn(_grid_memo(ev, _grid_points_size), beta0)


def weight_from_caratheodory(F: CaratheodoryFn, beta0, theta):
    """Recover the boundary density w(theta) from a C-function.

    w(theta) = Re F(t) (1 - |beta0|^2)/|t - beta0|^2 at t = e^(i theta).
    The beta0-dependent factor compensates the anchored Poisson kernel; with
    F = 1 and beta0 = beta_1 this reproduces the rational modification
    (1 - |beta_1|^2)/|t - beta_1|^2 of the Lebesgue density, the case that
    pins the formula down. F is read on the circle itself: the C-functions
    built here (ratios of rational functions, moment series cut below
    rounding) are analytic across it.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    b0 = complex(beta0)
    t = np.exp(1j * theta)
    w = np.real(np.asarray(F(t))) * (1.0 - abs(b0) ** 2) / np.abs(t - b0) ** 2
    if np.any(w < 0):
        raise NegativeDensity("recovered density negative; F is not a C-function here")
    return w


def ratio_caratheodory(terms, beta0) -> CaratheodoryFn:
    """C-function realized as a pointwise ratio top/bot, where terms(z)
    returns the pair (top, bot) of values at z in one call."""

    def ev(z):
        top, bot = terms(np.asarray(z, dtype=complex))
        if (np.abs(bot) < 1e-13 * (np.abs(top) + np.abs(bot) + 1.0)).any():
            raise DenominatorVanishes("ratio C-function hit a zero of its denominator")
        return top / bot

    return CaratheodoryFn(ev, beta0)
