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

# Radius used when a C-function is probed on its way to the boundary.
BOUNDARY_APPROACH = 1e-6
# C-functions built from quadrature reject evaluation beyond this modulus.
MAX_MODULUS = 1.0 - 1e-7


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


def _grid_memo(fn):
    """fn (an elementwise density of angles) computed once per exact uniform
    grid 2 pi j / N and kept read-only; other angles are computed each call."""
    on_grid = {}

    def memo(theta):
        n = _uniform_size(theta)
        if not n:
            return fn(theta)
        if n not in on_grid:
            on_grid[n] = np.asarray(fn(theta), dtype=float)
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

    Built through `builtin_measure` (lebesgue | poisson | samples) or from a
    positive callable. Atoms and singular parts are out of scope: construction
    rejects non-positive sampled densities.
    """

    __slots__ = ("kind", "params", "_fn", "mass", "caratheodory_hint")

    def __init__(self, kind, fn, params=None, mass=None):
        self.kind = kind
        self.params = params or {}
        self._fn = fn
        if mass is None:
            theta, _ = boundary_grid(8192)
            vals = np.asarray(fn(theta), dtype=float)
            if np.any(vals <= 0):
                raise NonPositiveWeight("density must be strictly positive")
            mass = float(vals.mean())
        self.mass = mass
        # closed-form C-function, when the producer knows it exactly
        self.caratheodory_hint = None

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
    2 pi j / N is evaluated once per grid size and kept in the measure, so
    later calls return the same values. Other angles cost O(N M) each call.
    """
    if kind == "lebesgue":
        return CircleMeasure("lebesgue", lambda th: np.ones_like(np.asarray(th, float)), mass=1.0)
    if kind == "poisson":
        a = complex(alpha)
        if abs(a) >= 1.0:
            raise DomainError("poisson measure needs |alpha| < 1")
        def fn(th):
            t = np.exp(1j * np.asarray(th, float))
            return (1.0 - abs(a) ** 2) / np.abs(t - a) ** 2
        return CircleMeasure("poisson", fn, params={"alpha": a}, mass=1.0)
    if kind == "samples":
        th = np.asarray(theta, dtype=float)
        vals = np.asarray(w, dtype=float)
        if th.ndim != 1 or th.shape != vals.shape or th.size < 4:
            raise DomainError("samples measure needs matching theta/w arrays")
        if np.any(vals <= 0):
            raise NonPositiveWeight("sample table must be strictly positive")
        m = th.size
        if np.max(np.abs(th - _grid_angles(m))) > 1e-9:
            raise DomainError("sample table must sit on the uniform grid 2 pi j / M")
        coeffs = np.fft.fft(vals) / m
        freqs = np.fft.fftfreq(m, d=1.0 / m)
        table = vals.copy()
        table.flags.writeable = False
        dense = _grid_memo(lambda t: np.real(_trig_eval(coeffs, freqs, t)).reshape(t.shape))

        def fn(t):
            n = _uniform_size(t)
            return table[:: m // n] if n and m % n == 0 else dense(t)

        return CircleMeasure("samples", fn, params={"theta": th, "w": vals}, mass=float(vals.mean()))
    raise DomainError(f"unknown measure kind {kind!r}")


def custom_measure(fn, label="custom") -> CircleMeasure:
    """Measure from an arbitrary strictly positive density callable."""
    return CircleMeasure(label, fn)


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
        return builtin_measure("poisson", alpha=complex(a[0], a[1]))
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
        if abs(beta0) >= 1.0:
            raise DomainError("|beta_0| < 1 required")
        self.evaluator = evaluator
        self.beta0 = beta0
        self.anchor_residual = None

    def __call__(self, z):
        out = self.evaluator(np.asarray(z, dtype=complex))
        out = np.asarray(out)
        return out if out.ndim else complex(out)


def constant_caratheodory(beta0) -> CaratheodoryFn:
    """The trivial C-function F = 1 (Lebesgue-type normalization)."""
    return CaratheodoryFn(lambda z: np.ones_like(np.asarray(z, dtype=complex)), beta0)


def _moment_series(mu, kp, n_points):
    theta, t = boundary_grid(n_points)
    w = mu.weight(theta)
    if np.any(w <= 0):
        raise NonPositiveWeight("sampled density non-positive on the quadrature grid")
    zinv = 1.0 / kp.zeta0(t)
    acc = w.astype(complex) / n_points
    coeffs = [0.0 + 0.0j]
    quiet = 0
    for _ in range(1, n_points // 4 + 1):
        acc = acc * zinv
        ck = acc.sum()
        coeffs.append(2.0 * ck)
        if abs(ck) < 1e-16:
            quiet += 1
            if quiet >= 4:
                return np.array(coeffs)
        else:
            quiet = 0
    return None


def caratheodory_from_measure(mu: CircleMeasure, beta0, n_points: int = 2048) -> CaratheodoryFn:
    """C-function F(z) of the measure, anchored at beta0.

    Uses the geometric expansion of the Herglotz kernel in powers of
    zeta_0(z)/zeta_0(t): F(z) = 1 + 2 sum_k c_k zeta_0(z)^k with moments
    c_k computed by quadrature. The series converges geometrically for the
    analytic densities in scope, uniformly up to the boundary guard, so the
    radial probe used in density recovery stays accurate. The grid doubles
    until the moment tail dies (densities with structure very close to the
    circle need more terms).
    """
    _check_grid(n_points)
    kp = KernelParams(beta0)
    c = None
    n = n_points
    while c is None and n <= 65536:
        c = _moment_series(mu, kp, n)
        n *= 2
    if c is None:
        raise NumericalFailure(
            "moment series did not converge; poles or density too close to the circle"
        )

    def ev(z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) > MAX_MODULUS):
            raise KernelSingularity("C-function evaluation requires |z| <= 1 - 1e-7")
        return 1.0 + npp.polyval(kp.zeta0(z), c)

    return CaratheodoryFn(ev, beta0)


def weight_from_caratheodory(F: CaratheodoryFn, beta0, theta):
    """Recover the boundary density w(theta) from a C-function.

    w(theta) = Re F(r e^(i theta)) (1 - |beta0|^2)/|e^(i theta) - beta0|^2
    along the radial approach r -> 1. The beta0-dependent factor compensates
    the anchored Poisson kernel; with F = 1 and beta0 = beta_1 this
    reproduces the rational modification (1 - |beta_1|^2)/|t - beta_1|^2 of
    the Lebesgue density, the case that pins the formula down.

    Re F at radius r smooths the density at scale 1 - r, a first-order bias;
    two radii (finest 1 - BOUNDARY_APPROACH) and Richardson extrapolation cancel
    it, leaving a quadratically small error.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    b0 = complex(beta0)
    t = np.exp(1j * theta)
    near = np.real(np.asarray(F((1.0 - BOUNDARY_APPROACH) * t)))
    far = np.real(np.asarray(F((1.0 - 2.0 * BOUNDARY_APPROACH) * t)))
    vals = 2.0 * near - far
    w = vals * (1.0 - abs(b0) ** 2) / np.abs(t - b0) ** 2
    if np.any(w < 0):
        raise NegativeDensity("recovered density negative; F is not a C-function here")
    return w


def ratio_caratheodory(terms, beta0) -> CaratheodoryFn:
    """C-function realized as a pointwise ratio top/bot, where terms(z)
    returns the pair (top, bot) of values at z in one call."""

    def ev(z):
        top, bot = terms(np.asarray(z, dtype=complex))
        if np.any(np.abs(bot) < 1e-13 * (np.abs(top) + np.abs(bot) + 1.0)):
            raise DenominatorVanishes("ratio C-function hit a zero of its denominator")
        return top / bot

    return CaratheodoryFn(ev, beta0)
