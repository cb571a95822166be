"""Construction of orthogonal rational function ladders and their companions.

A ladder holds, per level n, the orthonormal function phi_n, its superstar,
the second-kind companion psi_n and its superstar, and the recurrence data
(lambda_n, e_n, rho_n). Ladders come from a measure (Gram-Schmidt plus
second-kind quadrature) or from recurrence parameters (synthesis); the two
routes are kept independent so they can check each other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    DomainError,
    FitResidualTooLarge,
    NumericalFailure,
    ParameterOutOfDisk,
    RankDeficiency,
    ZeroCollision,
    ZeroOffCircle,
)
from .measure import (
    CaratheodoryFn,
    CircleMeasure,
    _grid_memo,
    boundary_grid,
    caratheodory_from_measure,
    custom_measure,
    default_grid,
    ratio_caratheodory,
)
from .ratfun import (
    KernelParams,
    PoleSequence,
    RatFun,
    blaschke_factor,
    blaschke_product,
    combine,
    evaluate_stack,
    poisson_kernel,
    substar_eval,
    superstar,
)

TOL_ORTHO = 1e-9
# Quadrature accuracy degrades as poles approach the circle; beyond this the
# constructors demand an explicit override.
POLE_CAP = 0.9


@dataclass(frozen=True)
class OrfLevel:
    """One rung of the ladder: the four functions plus recurrence data.

    lam/e/rho are None at level 0. The determinant-formula constant is 2
    at every level in the orthonormal normalization used throughout.
    """

    n: int
    phi: RatFun
    phi_star: RatFun
    psi: RatFun
    psi_star: RatFun
    lam: complex | None
    e: float | None
    rho: complex | None

    def values(self, z) -> np.ndarray:
        """phi, phi^*, psi, psi^* at z, stacked along a leading axis of length 4."""
        return evaluate_stack((self.phi, self.phi_star, self.psi, self.psi_star), z)


class OrfSystem:
    """Immutable ladder of levels 0..n_max over a pole sequence.

    source is "measure" or "parameters"; both are orthonormal. A
    measure-sourced system keeps its measure; every system carries an
    evaluable C-function, by default the rational completion psi*_m/phi*_m
    of its top level m.
    """

    __slots__ = ("poles", "levels", "source", "measure", "caratheodory", "n_points")

    def __init__(self, poles, levels, source, measure=None, caratheodory=None, n_points=None):
        self.poles = poles
        self.levels = tuple(levels)
        self.source = source
        self.measure = measure
        self.caratheodory = caratheodory or caratheodory_from_system(self)
        self.n_points = n_points

    @property
    def n_max(self):
        return len(self.levels) - 1

    def level(self, n) -> OrfLevel:
        return self.levels[n]

    @property
    def kernel(self) -> KernelParams:
        return KernelParams(self.poles.beta[0])


@dataclass(frozen=True)
class ParaPair:
    """Para-orthogonal combination Phi = phi_n + tau phi_n^* and its companion
    Psi = psi_n - tau psi_n^* for a unimodular tau."""

    n: int
    tau: complex
    Phi: RatFun
    Psi: RatFun


def _check_poles(poles, n_max, allow_poles_near_circle):
    """A ladder through level n_max needs beta_0..beta_n_max within the cap."""
    if len(poles) < n_max + 1:
        raise DomainError("pole sequence shorter than n_max + 1")
    used = np.abs(poles.beta[: n_max + 1])
    if used.max() > POLE_CAP:
        if not allow_poles_near_circle:
            raise DomainError(
                f"|beta| up to {used.max():.3f} exceeds the {POLE_CAP} cap; "
                "pass allow_poles_near_circle=True to override"
            )
        warnings.warn(f"poles beyond {POLE_CAP} degrade quadrature accuracy", stacklevel=3)


def _fit_step(poles, n, phi_prev, phi_star_prev, phi_n):
    """Least-squares fit of phi_n varpi_n/varpi_{n-1} = a zeta_{n-1} phi_{n-1} + b phi*_{n-1}.

    Returns (a, b, residual, scale) with the residual in sup norm over the
    sample and scale = max |phi_n| there.
    """
    # golden-angle points on the circle: |phi_n| stays O(1) there, and no
    # power z^k aliases the constant as it does on equispaced points
    zs = np.exp(2j * np.pi * ((np.arange(16) + 0.37) * (np.sqrt(5.0) - 1.0) / 2.0 % 1.0))
    phi_z = phi_n(zs)
    lhs = phi_z * poles.varpi(n, zs) / poles.varpi(n - 1, zs)
    prev_z, col2 = evaluate_stack((phi_prev, phi_star_prev), zs)
    col1 = blaschke_factor(poles, n - 1, zs) * prev_z
    mat = np.stack([col1, col2], axis=1)
    sol, *_ = np.linalg.lstsq(mat, lhs, rcond=None)
    a, b = sol
    resid = float(np.max(np.abs(mat @ sol - lhs)))
    scale = float(np.max(np.abs(phi_z)))
    return a, b, resid, scale


def _fit_parameters(poles, n, phi_prev, phi_star_prev, phi_n):
    """(lambda_n, e_n, rho_n) = (conj(b/a), |a|, a/|a|) from the _fit_step
    coefficients; FitResidualTooLarge when the fit does not close."""
    a, b, resid, scale = _fit_step(poles, n, phi_prev, phi_star_prev, phi_n)
    if resid > 1e-9 * scale:
        raise FitResidualTooLarge(
            f"level {n} does not satisfy the recurrence (residual {resid:.2e} vs scale {scale:.2e})"
        )
    return complex(np.conj(b / a)), float(abs(a)), complex(a / abs(a))


def extract_parameters(system: OrfSystem, n: int):
    """Recover (lambda_n, e_n, rho_n) from consecutive levels by inverting the
    recurrence in least squares over 16 points of the unit circle.

    Raises FitResidualTooLarge when the levels do not actually satisfy a
    recurrence (wrong poles, broken orthogonality).
    """
    if n < 1 or n > system.n_max:
        raise DomainError("extraction needs 1 <= n <= n_max")
    prev = system.level(n - 1)
    return _fit_parameters(system.poles, n, prev.phi, prev.phi_star, system.level(n).phi)


def _padded_polymul(a, b, size):
    """Coefficients of a*b zero-padded to size (polymul trims trailing zeros)."""
    out = np.zeros(size, dtype=complex)
    c = npp.polymul(a, b)
    out[: c.size] = c
    return out


def recurrence_step(prev: OrfLevel, lam, rho, poles: PoleSequence, n: int, e=None) -> OrfLevel:
    """Advance the ladder one level with parameters (lambda_n, rho_n).

    e_n defaults to the orthonormal value
    sqrt[(1 - |beta_n|^2)/((1 - |beta_{n-1}|^2)(1 - |lambda_n|^2))].
    The second matrix row is computed independently and cross-checked
    against the coefficient-reversal superstar of the first.
    """
    lam = complex(lam)
    rho = complex(rho)
    if abs(lam) >= 1.0:
        raise ParameterOutOfDisk(f"|lambda_{n}| = {abs(lam):.4f} must be < 1")
    b_prev, b_n = poles.beta[n - 1], poles.beta[n]
    if e is None:
        e = np.sqrt((1.0 - abs(b_n) ** 2) / (1.0 - abs(b_prev) ** 2) / (1.0 - abs(lam) ** 2))
    e = float(e)
    eta_prev, eta_n = poles.eta(n - 1), poles.eta(n)
    sigma = np.conj(rho) * np.conj(eta_prev) * eta_n
    up = eta_prev * np.array([-b_prev, 1.0])      # eta_{n-1} (z - beta_{n-1})
    down = np.array([1.0, -np.conj(b_prev)])      # 1 - conj(beta_{n-1}) z

    def step(f, f_star, sign):
        a, b = _padded_polymul(up, f.numer, n + 1), _padded_polymul(down, f_star.numer, n + 1)
        row1 = e * rho * (a + sign * np.conj(lam) * b)
        row2 = e * sigma * (sign * lam * a + b)
        new = RatFun(poles, row1, n)
        new_star = superstar(new)
        scale = max(np.max(np.abs(row1)), 1e-300)
        if np.max(np.abs(new_star.numer - row2)) > 1e-12 * scale:
            raise NumericalFailure("recurrence rows inconsistent with the superstar")
        return new, new_star

    phi, phi_star = step(prev.phi, prev.phi_star, +1)
    psi, psi_star = step(prev.psi, prev.psi_star, -1)
    return OrfLevel(n, phi, phi_star, psi, psi_star, lam, e, rho)


def _level_zero(poles, phi0) -> OrfLevel:
    phi = RatFun(poles, [phi0], 0)
    phi_star = superstar(phi)
    return OrfLevel(0, phi, phi_star, phi, phi_star, None, None, None)


def _run_recurrence(poles, level0: OrfLevel, params) -> list:
    """Level 0, then one recurrence_step per (lambda_n, rho_n, e_n) triple
    (e_n None for the orthonormal default)."""
    levels = [level0]
    for n, (lam, rho, e) in enumerate(params, start=1):
        levels.append(recurrence_step(levels[-1], lam, rho, poles, n, e=e))
    return levels


def synthesize(lambdas, poles: PoleSequence, phi0=1.0, allow_poles_near_circle=False) -> OrfSystem:
    """Build the ladder from recurrence parameters alone (rho_n = 1).

    Every |lambda_n| < 1 yields a ladder orthonormal with respect to some
    C-function; the canonical one attached here is the rational completion
    psi*_m/phi*_m at the top level m.
    """
    lambdas = [complex(v) for v in lambdas]
    n_max = len(lambdas)
    _check_poles(poles, n_max, allow_poles_near_circle)
    phi0 = complex(phi0)
    if abs(abs(phi0) - 1.0) > 1e-12:
        raise DomainError("initial value must be unimodular in the orthonormal normalization")
    levels = _run_recurrence(poles, _level_zero(poles, phi0), ((lam, 1.0, None) for lam in lambdas))
    return OrfSystem(poles, levels, source="parameters", n_points=_completion_grid(levels[-1], n_max))


def _completion_grid(top: OrfLevel, n_max: int) -> int:
    """Quadrature size resolving the rational-completion density.

    That density carries 1/|phi*_m|^2, whose structure sharpens as the zeros
    of phi_m approach the circle; the grid is sized so rho_max^N stays at
    rounding level, where rho_max is the largest zero modulus.
    """
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


def caratheodory_from_system(system: OrfSystem) -> CaratheodoryFn:
    """The rational C-function psi*_m/phi*_m of the top level m.

    It is holomorphic with positive real part (phi*_m is zero-free on the
    closed disk), satisfies F(beta_0) = 1, and the ladder is orthonormal
    with respect to it through level m.
    """
    top = system.level(system.n_max)
    return ratio_caratheodory(
        lambda z: evaluate_stack((top.psi_star, top.phi_star), z), system.poles.beta[0]
    )


def measure_from_system(system: OrfSystem) -> CircleMeasure:
    """Boundary density of the C-function psi*_m/phi*_m in closed form:
    w(theta) = (1 - |beta_m|^2) / (|t - beta_m|^2 |phi*_m(t)|^2).

    The density is computed once per uniform grid 2 pi j / N. Its
    C-function comes back through the moment series like any other's.
    """
    m = system.n_max
    b_m = system.poles.beta[m]
    phi_star = system.level(m).phi_star

    def fn(theta):
        t = np.exp(1j * np.asarray(theta, dtype=float))
        return (1.0 - abs(b_m) ** 2) / (np.abs(t - b_m) ** 2 * np.abs(phi_star(t)) ** 2)

    return custom_measure(_grid_memo(fn), label="rational")


def _circle_nodes(count: int, n_points: int) -> np.ndarray:
    """count equispaced points on |z| = 1, turned by half a step of the
    quadrature grid 2 pi j / n_points so that none of them lies on it."""
    return np.exp(1j * (2.0 * np.pi * np.arange(count) / count + np.pi / n_points))


def _herglotz_means(kp, t, w, f_t, nodes, f_nodes) -> np.ndarray:
    """mean_t D(t, z) (f(t) - f(z)) w(t) at each node z, D the Riesz-Herglotz kernel."""
    zt, zz = kp.zeta0(t), kp.zeta0(nodes)[:, None]
    return ((zt + zz) / (zt - zz) * (f_t - f_nodes[:, None]) * w).mean(axis=1)


def _second_kind(mu, poles, kp, phi: RatFun, n: int, n_points: int) -> RatFun:
    """Quadrature realization of the second-kind companion of phi (degree n).

    psi(z) = mean_t D(t, z) (phi(t) - phi(z)) w(t) + mean_t phi(t) w(t) is
    taken at the nodes z_k = e^{i delta} omega^k, omega = e^{2 pi i/(n+1)},
    on |z| = 1, where the difference quotient is smooth and the trapezoidal
    rule still converges geometrically. The numerator psi pi_n has the values
    sum_j c_j e^{i j delta} omega^{jk} there, so one FFT gives c_j once the
    phase e^{i j delta} is removed. The turn delta = pi / n_points puts each
    node between two quadrature nodes, where the quotient is never 0/0.
    """
    theta, t = boundary_grid(n_points)
    w = mu.weight(theta)
    phi_t = phi(t)
    nodes = _circle_nodes(n + 1, n_points)
    values = _herglotz_means(kp, t, w, phi_t, nodes, phi(nodes)) + (phi_t * w).mean()
    coeffs = np.fft.fft(values * poles.pi(n, nodes)) / (n + 1)
    return RatFun(poles, coeffs * np.exp(-1j * np.pi / n_points * np.arange(n + 1)), n)


def second_kind_integral(mu: CircleMeasure, system: OrfSystem, n: int) -> RatFun:
    """Second-kind function of level n straight from its defining quadrature.

    Independent of the recurrence route: the two must agree, which the
    verification suite checks.
    """
    return _second_kind(mu, system.poles, system.kernel, system.level(n).phi, n, system.n_points)


def gram_schmidt_orf(
    mu: CircleMeasure,
    poles: PoleSequence,
    n_max: int,
    n_points=None,
    allow_poles_near_circle=False,
) -> OrfSystem:
    """Orthonormal ladder for a measure from one weighted QR of B_0..B_n.

    The values of B_0..B_n on the grid 2 pi j / N, rows scaled by sqrt(w/N),
    go through one Householder QR (Cholesky of the Gram matrix would square
    its condition number). With R's diagonal made real and positive,
    phi_k = sum_j B_j (R^-1)_jk, so phi_k^*(beta_k) = 1/R_kk > 0 fixes the
    phase. The numerators come from those of B_0..B_k lifted to degree k;
    second-kind companions come from quadrature and the recurrence data
    from the least-squares inversion.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    _check_poles(poles, n_max, allow_poles_near_circle)
    n_points = n_points or default_grid(n_max)
    if n_max >= n_points:
        raise RankDeficiency(f"basis numerically dependent at level {n_points}")
    theta, t = boundary_grid(n_points)
    w = mu.weight(theta)

    factors = [np.ones_like(t)] + [blaschke_factor(poles, j, t) for j in range(1, n_max + 1)]
    basis = np.cumprod(np.stack(factors, axis=1), axis=1)
    r = np.linalg.qr(basis * np.sqrt(w / n_points)[:, None], mode="r")
    diag = np.diagonal(r)
    small = np.flatnonzero(~(np.abs(diag) > 1e-10))
    if small.size:
        raise RankDeficiency(f"basis numerically dependent at level {small[0]}")
    coef = np.linalg.inv(r * (np.conj(diag) / np.abs(diag))[:, None])

    # column j holds the numerator of B_j at degree k; each level multiplies
    # every column by 1 - conj(beta_k) z and appends eta_k (z - beta_k) B_{k-1}
    lifted = np.ones((1, 1), dtype=complex)
    phis = []
    for k in range(n_max + 1):
        if k:
            b = poles.beta[k]
            pad = np.zeros((1, k), dtype=complex)
            up, down = np.vstack([lifted, pad]), np.vstack([pad, lifted])
            top = poles.eta(k) * (down[:, -1] - b * up[:, -1])
            lifted = np.column_stack([up - np.conj(b) * down, top])
        phis.append(RatFun(poles, lifted @ coef[: k + 1, k], k))

    defect = _gram_defect([phi(t) for phi in phis], w)
    if defect > TOL_ORTHO:
        raise NumericalFailure(f"Gram matrix deviates from identity by {defect:.2e}")

    kp = KernelParams(poles.beta[0])
    levels = []
    for k, phi in enumerate(phis):
        psi = _second_kind(mu, poles, kp, phi, k, n_points)
        params = (None, None, None)
        if k:
            prev = levels[-1]
            params = _fit_parameters(poles, k, prev.phi, prev.phi_star, phi)
        levels.append(OrfLevel(k, phi, superstar(phi), psi, superstar(psi), *params))
    F = caratheodory_from_measure(mu, poles.beta[0], n_points=n_points)
    return OrfSystem(poles, levels, source="measure", measure=mu, caratheodory=F, n_points=n_points)


def _gram_defect(vals, w) -> float:
    """Sup deviation from the identity of the Gram matrix of sampled
    functions under the boundary weight w (uniform-grid quadrature).

    The matrix is summed over blocks of 1024 grid points, so the stacked
    samples take a block's worth of memory, not the grid's.
    """
    gram = 0.0
    for lo in range(0, w.size, 1024):
        v = np.array([x[lo : lo + 1024] for x in vals])
        gram = gram + (v * w[lo : lo + 1024]) @ v.conj().T
    return float(np.max(np.abs(gram / w.size - np.eye(len(vals)))))


def zeros_factor(poles: PoleSequence, m: int, z):
    """zeta_0(z) B_{m-1}(z): the product with zeros beta_0..beta_{m-1}.

    Identically 1 for m = 0 (the two factors cancel exactly).
    """
    z = np.asarray(z, dtype=complex)
    if m == 0:
        return np.ones_like(z)
    kp = KernelParams(poles.beta[0])
    return np.asarray(kp.zeta0(z)) * np.asarray(blaschke_product(poles, m - 1, z))


def para_pair(system: OrfSystem, n: int, tau) -> ParaPair:
    """Para-orthogonal pair Phi = phi_n + tau phi_n^*, Psi = psi_n - tau psi_n^*."""
    tau = complex(tau)
    if abs(abs(tau) - 1.0) > 1e-12:
        raise DomainError("tau must be unimodular")
    lv = system.level(n)
    return ParaPair(
        n,
        tau,
        combine(1.0, lv.phi, tau, lv.phi_star),
        combine(1.0, lv.psi, -tau, lv.psi_star),
    )


def _min_separation(pts) -> float:
    """Smallest pairwise distance among the points (inf for fewer than two)."""
    if len(pts) < 2:
        return np.inf
    diffs = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diffs, np.inf)
    return float(diffs.min())


def para_zeros(pair: ParaPair) -> np.ndarray:
    """Zeros of the para-orthogonal numerator: companion-matrix eigenvalues
    plus one Newton polish. All must sit on the circle and be simple."""
    c = pair.Phi.numer
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise DomainError("zero numerator")
    m = pair.Phi.n
    while m >= 0 and abs(c[m]) < 1e-13 * scale:
        m -= 1
    if m < 1:
        raise DomainError("numerator degree must be >= 1")
    trimmed = c[: m + 1]
    roots = npp.polyroots(trimmed)
    deriv = npp.polyder(trimmed)
    pv = npp.polyval(roots, trimmed)
    dv = npp.polyval(roots, deriv)
    ok = np.abs(dv) > 0
    roots = np.where(ok, roots - np.where(ok, pv / np.where(ok, dv, 1.0), 0.0), roots)
    off = np.abs(np.abs(roots) - 1.0)
    if np.any(off > 1e-9):
        raise ZeroOffCircle(f"para zero left the circle by {off.max():.2e}")
    sep = _min_separation(roots)
    if sep < 1e-8:
        raise ZeroCollision(f"para zeros separated by only {sep:.2e}")
    return roots[np.argsort(np.angle(roots))]


def identity_residual(f: RatFun, g: RatFun, f_star: RatFun, g_star: RatFun):
    """Complex constant d and relative sup residual (against Re d) of
    f^* g + f g^* = d P_m B_m on a 512-point boundary grid, m and the poles
    taken from f. The starred pair is passed in, so a check covers stored
    f^*, g^* too."""
    m = f.n
    poles = f.poles
    _, t = boundary_grid(512)
    fs_t, g_t, f_t, gs_t = evaluate_stack((f_star, g, f, g_star), t)
    left = fs_t * g_t + f_t * gs_t
    kp = KernelParams(poles.beta[0])
    right = poisson_kernel(kp, t, poles.beta[m]) * blaschke_product(poles, m, t)
    j0 = int(np.argmax(np.abs(right)))
    d = left[j0] / right[j0]
    resid = float(np.max(np.abs(left - float(d.real) * right)) / np.max(np.abs(left)))
    return d, resid


def determinant_residual(system: OrfSystem, n: int):
    """Constant d_n and sup residual of phi_n^* psi_n + phi_n psi_n^* = d_n P_n B_n
    over a boundary grid. Orthonormal ladders must give d_n = 2."""
    lv = system.level(n)
    d, resid = identity_residual(lv.phi, lv.psi, lv.phi_star, lv.psi_star)
    if abs(d - 2.0) > 1e-9:
        raise NumericalFailure(f"determinant constant {d} differs from 2")
    return float(d.real), resid


@dataclass(frozen=True)
class InterpolationReport:
    """Residuals of the two interpolation lines and the sampled witness g_n."""

    n: int
    first_line: np.ndarray      # |(phi_n F + psi_n)(beta_j)|, j = 0..n-1
    second_line: np.ndarray     # |(phi_n^* F - psi_n^*)(beta_j)|, j = 0..n
    g_min: float                # min |g_n| over the disk sample
    g_at_anchor: float          # |g_n(beta_n)|
    para_residual: float        # para version: second line vs conj(tau) * first
    scale: float

    def max_residual(self):
        vals = [0.0]
        if self.first_line.size:
            vals.append(float(self.first_line.max()))
        if self.second_line.size:
            vals.append(float(self.second_line.max()))
        vals.append(self.para_residual * self.scale)
        return max(vals)


def interpolation_residuals(
    system: OrfSystem, F: CaratheodoryFn, n: int, seed: int = 0
) -> InterpolationReport:
    """Check the interpolation structure of level n against the C-function F.

    (phi_n F + psi_n) must vanish at beta_0..beta_{n-1}, the starred line at
    beta_0..beta_n, and the analytic witness g_n = (phi_n F + psi_n)/(zeta_0
    B_{n-1}) must stay away from zero on a 100-point disk sample. The para
    lines are formed there from the superstars of the four functions, by
    (f + tau g)^* = f^* + conj(tau) g^*. Requires pairwise distinct
    beta_0..beta_n; the repeated-pole multiplicity variant lives in the test
    suite only.
    """
    poles = system.poles
    pts = poles.beta[: n + 1]
    if _min_separation(pts) < 1e-12:
        raise DomainError("interpolation residuals need pairwise distinct beta_0..beta_n")
    lv = system.level(n)

    f_pts = np.asarray(F(pts))
    phi, phi_s, psi, psi_s = lv.values(pts)
    line_pts = phi * f_pts + psi
    first = np.abs(line_pts[:n])
    second = np.abs(phi_s * f_pts - psi_s)

    rng = np.random.default_rng(seed)
    zs = 0.7 * np.sqrt(rng.uniform(size=100)) * np.exp(2j * np.pi * rng.uniform(size=100))
    fz = np.asarray(F(zs))
    funcs = (lv.phi, lv.phi_star, lv.psi, lv.psi_star)
    phi, phi_s, psi, psi_s, s_phi, s_phi_s, s_psi, s_psi_s = evaluate_stack(
        funcs + tuple(superstar(f) for f in funcs), zs
    )
    line_a = phi * fz + psi
    g = line_a / zeros_factor(poles, n, zs)
    scale = float(np.max(np.abs(line_a)))

    g_anchor = abs(line_pts[n] / complex(zeros_factor(poles, n, pts[n])))

    # para pair Phi = phi + tau phi^*, Psi = psi - tau psi^*, one row per tau
    tau = np.array([1.0, 1.0j, -1.0, -1.0j])[:, None]
    ct = np.conj(tau)
    lhs = (s_phi + ct * s_phi_s) * fz - (s_psi - ct * s_psi_s)
    rhs = ct * ((phi + tau * phi_s) * fz + psi - tau * psi_s)
    para_res = float(np.max(np.abs(lhs - rhs)) / scale)

    return InterpolationReport(n, first, second, float(np.min(np.abs(g))), g_anchor, para_res, scale)


def second_kind_functional_residual(system: OrfSystem, mu: CircleMeasure, n: int, seed: int = 0) -> float:
    """Residual of the extended functional identities relating phi_n, psi_n
    through the kernel, tested with a random multiplier f in L_{(n-1)*} and
    g in zeta_{n*} L_{(n-1)*}. Relative sup over six points of the circle."""
    n_points = system.n_points
    poles, kp = system.poles, system.kernel
    theta, t = boundary_grid(n_points)
    w = mu.weight(theta)
    rng = np.random.default_rng(seed)
    deg = max(n - 1, 0)
    h1 = RatFun(poles, rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1), deg)
    h2 = RatFun(poles, rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1), deg)
    lv = system.level(n)
    # on the circle h_* is as tame as h, and off the grid the means never meet 0/0
    zs = _circle_nodes(6, n_points)

    phi_t, phi_s_t = evaluate_stack((lv.phi, lv.phi_star), t)
    phi_z, phi_s_z, psi_z, psi_s_z = lv.values(zs)
    f_t, f_z = substar_eval(h1, t), substar_eval(h1, zs)
    vals_t = phi_t * f_t
    lhs1 = _herglotz_means(kp, t, w, vals_t, zs, phi_z * f_z) + (vals_t * w).mean()
    rhs1 = psi_z * f_z
    res1 = np.max(np.abs(lhs1 - rhs1)) / max(np.max(np.abs(rhs1)), 1e-30)

    if n == 0:
        g_t, g_z = substar_eval(h2, t), substar_eval(h2, zs)
    else:
        g_t = substar_eval(h2, t) / blaschke_factor(poles, n, t)
        g_z = substar_eval(h2, zs) / blaschke_factor(poles, n, zs)
    vals_t = phi_s_t * g_t
    lhs2 = _herglotz_means(kp, t, w, vals_t, zs, phi_s_z * g_z) - (vals_t * w).mean()
    rhs2 = -psi_s_z * g_z
    res2 = np.max(np.abs(lhs2 - rhs2)) / max(np.max(np.abs(rhs2)), 1e-30)
    return float(max(res1, res2))


def lebesgue_orf(poles: PoleSequence, n: int) -> RatFun:
    """Closed-form orthonormal function for the Lebesgue measure:
    phi_n = sqrt(1 - |beta_n|^2) z B_n(z) / (z - beta_n)."""
    if n == 0:
        return RatFun(poles, [1.0], 0)
    core = npp.polymul([0.0, 1.0], npp.polyfromroots(poles.beta[1:n]))
    scale = np.sqrt(1.0 - abs(poles.beta[n]) ** 2) * poles.upsilon(n)
    return RatFun(poles, scale * core, n)


def lebesgue_arf(poles: PoleSequence, k: int, n: int) -> RatFun:
    """Closed-form order-k associated function under Lebesgue with beta_0 = 0:
    sqrt(w_n(beta_n)/w_k(beta_k)) (z - beta_k)/(z - beta_n) B_{n/k}(z),
    expressed over the shifted pole sequence beta_k, beta_{k+1}, ..."""
    if poles.beta[0] != 0:
        raise DomainError("closed form requires beta_0 = 0")
    shifted = poles.shifted(k)
    if n == k:
        return RatFun(shifted, [1.0], 0)
    ups = 1.0 + 0.0j
    for i in range(k + 1, n + 1):
        ups *= poles.eta(i)
    core = npp.polymul([-poles.beta[k], 1.0], npp.polyfromroots(poles.beta[k + 1 : n]))
    scale = np.sqrt((1.0 - abs(poles.beta[n]) ** 2) / (1.0 - abs(poles.beta[k]) ** 2)) * ups
    return RatFun(shifted, scale * core, n - k)
