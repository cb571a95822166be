"""Absolutely continuous probability measures on the circle and their C-functions.

All quadrature is the uniform composite rule on |t| = 1, which is spectrally
accurate for the analytic densities this package accepts. A measure stores a
density w(theta) against dtheta/2pi, normalized so the total mass is 1.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import (
    DomainError,
    DenominatorVanishes,
    KernelSingularity,
    NegativeDensity,
    NonPositiveWeight,
    NumericalFailure,
)
from .ratfun import _horner

# C-functions reject evaluation beyond this modulus: the closed disk, up to rounding.
MAX_MODULUS = 1.0 + 1e-12
# the largest grid or table accepted from outside: 16 MiB per complex row
MAX_GRID = 1 << 20


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


def default_grid(n_max: int) -> int:
    """Quadrature size max(1024, 64 (n_max + 1)), rounded up to a power of two."""
    n = max(1024, 64 * (n_max + 1))
    return 1 << (n - 1).bit_length()


def _check_grid(n_points: int):
    if not isinstance(n_points, numbers.Integral):
        raise DomainError(f"grid size must be an integer, got {n_points!r}")
    if n_points < 256 or (n_points & (n_points - 1)) != 0:
        raise DomainError(f"grid size must be a power of two >= 256, got {n_points}")
    if n_points > MAX_GRID:
        raise DomainError(f"grid size must be at most {MAX_GRID}, got {n_points}")


# _trig_eval holds this many bytes of values at a time
_BLOCK_BYTES = 1 << 18


def _trig_eval(coeffs, freqs, theta):
    """Evaluate a trigonometric interpolant sum_k c_k e^(i k theta), _BLOCK_BYTES at a time:
    a point holds one value per frequency, so a block may be a single point."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty(theta.size, dtype=complex)
    step = max(1, _BLOCK_BYTES // (16 * freqs.size))
    for lo in range(0, theta.size, step):
        block = theta[lo : lo + step]
        out[lo : lo + step] = np.exp(1j * np.outer(block, freqs)) @ coeffs
    return out


def _trig_interpolant(table):
    """Coefficients c_k and integer frequencies k of the trigonometric
    interpolant of the values table on the grid 2 pi j / M, M = table.size."""
    m = table.size
    # the frequencies of fftfreq(M, 1/M) as integers; that float array
    # misses them by an ulp for some M (49, 98, 103, ...)
    freqs = np.arange(m)
    freqs[(m + 1) // 2 :] -= m
    return np.fft.fft(table) / m, freqs


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
    O(N M) each call. The coefficients are computed on the first read off
    the table grids and kept; a density read only on them never makes
    them.
    """
    if kind == "lebesgue":
        return CircleMeasure("lebesgue", lambda th: np.ones_like(np.asarray(th, float)), mass=1.0)
    if kind == "poisson":
        if not isinstance(alpha, numbers.Number):
            raise DomainError(f"poisson measure needs a numeric alpha, got {alpha!r}")
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
        table = vals.copy()
        table.flags.writeable = False
        interpolant = []

        def fn(t):
            n = _uniform_size(t)
            if n and m % n == 0:
                return table[:: m // n]
            if not interpolant:
                # callers racing here at worst both append; each reads the first
                interpolant.append(_trig_interpolant(table))
            coeffs, freqs = interpolant[0]
            if not n:
                return np.real(_trig_eval(coeffs, freqs, t)).reshape(t.shape)
            bins = freqs % n
            b = np.bincount(bins, coeffs.real, n) + 1j * np.bincount(bins, coeffs.imag, n)
            return np.real(np.fft.ifft(b, norm="forward"))

        return CircleMeasure("samples", fn, params={"theta": th, "w": vals}, mass=float(vals.mean()))
    raise DomainError(f"unknown measure kind {kind!r}")


def _is_number(value) -> bool:
    """Whether value is a JSON number: an int or a float, not a bool (an int subclass)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def measure_from_config(spec: dict) -> CircleMeasure:
    """Parse the JSON measure spec: {"type": "lebesgue"|"poisson"|"samples", ...}."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise DomainError("measure spec must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "lebesgue":
        return builtin_measure("lebesgue")
    if kind == "poisson":
        a = spec.get("alpha")
        if not (isinstance(a, (list, tuple)) and len(a) == 2 and all(map(_is_number, a))):
            raise DomainError(f"poisson measure spec needs \"alpha\": [re, im], two numbers, got {a!r}")
        try:
            alpha = complex(a[0], a[1])
        except OverflowError as exc:
            raise DomainError(f"poisson \"alpha\" must hold two numbers: {exc}") from exc
        return builtin_measure("poisson", alpha=alpha)
    if kind == "samples":
        theta, w = spec.get("theta"), spec.get("w")
        if not all(isinstance(v, (list, tuple)) and all(map(_is_number, v)) for v in (theta, w)):
            raise DomainError("samples measure spec needs \"theta\" and \"w\" lists of numbers")
        return builtin_measure("samples", theta=theta, w=w)
    raise DomainError(f"unknown measure type {kind!r}")


def inner_product(mu: CircleMeasure, f, g, n_points: int = 1024) -> complex:
    """Quadrature of f(t) conj(g(t)) against the measure on |t| = 1.

    f and g are anything evaluable at complex points (RatFun instances or
    plain callables). The grid must pass `_check_grid`; the rule is
    the uniform composite one, spectrally accurate for smooth densities.
    """
    _check_grid(n_points)
    theta, t = boundary_grid(n_points)
    w = mu.weight(theta)
    if np.any(w <= 0):
        raise NonPositiveWeight("sampled density non-positive on the quadrature grid")
    vals = np.asarray(f(t)) * np.conj(np.asarray(g(t))) * w
    return complex(vals.mean())


def _anchor(beta0) -> complex:
    """beta0 as a complex number; DomainError unless |beta0| < 1."""
    beta0 = complex(beta0)
    if not abs(beta0) < 1.0:
        raise DomainError("|beta_0| < 1 required")
    return beta0


class CaratheodoryFn:
    """Holomorphic function on the disk with positive real part, F = top/bot:
    it is its numerators.

    `numerators` is the polynomials (top, bot), constant first: nonempty,
    1-d and of one length, else DomainError. Normalized so F(beta0) = 1;
    beta0 anchors the Herglotz kernel that ties the function to its
    measure. `anchor_residual` is the measured defect of F(beta0) = 1 when
    the builder checked it, else None. A call is one Horner pass over the
    two numerators and their ratio; it raises KernelSingularity at a point
    beyond the closed disk (|z| > MAX_MODULUS) and DenominatorVanishes
    where |bot| falls below 1e-13 of |top| + |bot| + 1.
    """

    __slots__ = ("numerators", "beta0", "anchor_residual")

    def __init__(self, top, bot, beta0):
        top, bot = np.asarray(top, dtype=complex), np.asarray(bot, dtype=complex)
        if top.ndim != 1 or not top.size or top.shape != bot.shape:
            raise DomainError("C-function numerators must be nonempty 1-d arrays of one length")
        self.numerators = np.array([top, bot])
        self.beta0 = _anchor(beta0)
        self.anchor_residual = None

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if (np.abs(z) > MAX_MODULUS).any():
            raise KernelSingularity("C-function evaluation requires |z| <= 1")
        top, bot = _horner(self.numerators, z)
        if (np.abs(bot) < 1e-13 * (np.abs(top) + np.abs(bot) + 1.0)).any():
            raise DenominatorVanishes("C-function hit a zero of its denominator")
        out = top / bot
        return out if out.ndim else complex(out)


def _moment_series(mu, beta0, n_points):
    """Moments c_k = mean_t v(t) t^(-k), k = 0..N-1, of v = w |t - beta_0|^2/(1 - |beta_0|^2)
    on the grid t_j = e^(2 pi i j/N), from one FFT, and the rounding floor
    64 eps max v below which they carry no digits. |t - beta_0|^2 is formed
    as 1 - 2 Re(conj(beta_0) t) + |beta_0|^2: exactly 1 at beta_0 = 0, where
    v is w bit for bit.
    """
    theta, t = boundary_grid(n_points)
    w = mu.weight(theta)
    if np.any(w <= 0):
        raise NonPositiveWeight(f"sampled density non-positive on the {n_points}-point grid of its moment series")
    v = w * (1.0 - 2.0 * np.real(np.conj(beta0) * t) + abs(beta0) ** 2) / (1.0 - abs(beta0) ** 2)
    return np.fft.fft(v) / n_points, 64.0 * np.finfo(float).eps * float(v.max())


def caratheodory_from_measure(mu: CircleMeasure, beta0, n_points: int = 2048) -> CaratheodoryFn:
    """C-function F(z) of the measure, anchored at beta0.

    As Re D_{beta_0}(t, z) = P(t, z)/P(t, beta_0), F is the Herglotz
    transform of v = w/P(., beta_0) plus the constant that makes F(beta_0)
    1: F(z) = 1 + 2 sum_{k>=1} c_k (z^k - beta_0^k), with the
    moments c_k of `_moment_series`. A grid of N points is accepted when
    the moments N/4 <= k < N/2 are at or below the rounding floor, and the
    series then ends at the last moment above it; otherwise N doubles, up
    to 65536 (densities with structure very close to the circle need more
    terms). The dropped tail is below rounding, so the finite series is
    accurate on the closed disk, the circle included. It is the series
    itself, constant 1 - h(beta_0) for the series h of the terms k >= 1,
    over the constant 1 zero-padded to its length.
    """
    _check_grid(n_points)
    beta0 = _anchor(beta0)  # before any FFT
    n = n_points
    while True:
        c, floor = _moment_series(mu, beta0, n)
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
    top = 2.0 * c[: last + 1]
    top[0] = 0.0
    top[0] = 1.0 - _horner(top[None], np.asarray(beta0))[0]
    bot = np.zeros(last + 1, dtype=complex)
    bot[0] = 1.0
    return CaratheodoryFn(top, bot, beta0)


def weight_from_caratheodory(F: CaratheodoryFn, theta):
    """Recover the boundary density w(theta) from a C-function.

    w(theta) = Re F(t) (1 - |beta_0|^2)/|t - beta_0|^2 at t = e^(i theta),
    beta_0 = F.beta0, the point where F takes 1: the factor compensates the
    Poisson kernel anchored there, so it is read off F, not given beside it.
    With F = 1 anchored at beta_1 this reproduces the rational modification
    (1 - |beta_1|^2)/|t - beta_1|^2 of the Lebesgue density, the case that
    pins the formula down. F is read on the circle itself: the C-functions
    built here (ratios of rational functions, moment series cut below
    rounding) are analytic across it.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    b0 = F.beta0
    t = np.exp(1j * theta)
    w = np.real(np.asarray(F(t))) * (1.0 - abs(b0) ** 2) / np.abs(t - b0) ** 2
    if np.any(w < 0):
        raise NegativeDensity("recovered density negative; F is not a C-function here")
    return w
