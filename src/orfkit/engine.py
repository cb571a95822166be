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
    InterpolationSingular,
    NumericalFailure,
    ParameterOutOfDisk,
    RankDeficiency,
    ZeroCollision,
    ZeroOffCircle,
)
from .measure import (
    CaratheodoryFn,
    CircleMeasure,
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
    poisson_kernel,
    substar_eval,
    superstar,
)

TOL_ORTHO = 1e-9
# Quadrature accuracy degrades as poles approach the circle; beyond this the
# constructors demand an explicit override.
POLE_CAP = 0.9
# Reconstruction nodes for the second-kind quadrature sit on this circle.
SECOND_KIND_RADIUS = 0.3


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


class OrfSystem:
    """Immutable ladder of levels 0..n_max over a pole sequence.

    source is "measure" or "parameters"; both are orthonormal. A
    measure-sourced system keeps its measure; every system carries an
    evaluable C-function.
    """

    __slots__ = ("poles", "levels", "source", "measure", "caratheodory", "n_points")

    def __init__(self, poles, levels, source, measure=None, caratheodory=None, n_points=None):
        self.poles = poles
        self.levels = tuple(levels)
        self.source = source
        self.measure = measure
        self.caratheodory = caratheodory
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


def _blaschke_basis(poles, k) -> RatFun:
    """B_k as a canonical RatFun of degree k."""
    numer = poles.upsilon(k) * npp.polyfromroots(poles.beta[1 : k + 1]) if k else [1.0]
    return RatFun(poles, numer, k)


def _fit_step(poles, n, phi_prev, phi_star_prev, phi_n):
    """Least-squares fit of phi_n varpi_n/varpi_{n-1} = a zeta_{n-1} phi_{n-1} + b phi*_{n-1}.

    Returns (a, b, residual, scale) with the residual in sup norm over the
    sample and scale = max |phi_n| there.
    """
    zs = 0.6 * np.exp(2j * np.pi * (np.arange(16) + 0.37) / 16)
    lhs = phi_n(zs) * poles.varpi(n, zs) / poles.varpi(n - 1, zs)
    col1 = blaschke_factor(poles, n - 1, zs) * phi_prev(zs)
    col2 = phi_star_prev(zs)
    mat = np.stack([col1, col2], axis=1)
    sol, *_ = np.linalg.lstsq(mat, lhs, rcond=None)
    a, b = sol
    resid = float(np.max(np.abs(mat @ sol - lhs)))
    scale = float(np.max(np.abs(phi_n(zs))))
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
    recurrence in least squares over 16 interior sample points.

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
    system = OrfSystem(
        poles, levels, source="parameters", n_points=_completion_grid(levels[-1], n_max)
    )
    system.caratheodory = caratheodory_from_system(system)
    return system


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
    return ratio_caratheodory(top.psi_star, top.phi_star, system.poles.beta[0])


def measure_from_system(system: OrfSystem) -> CircleMeasure:
    """Boundary density of the C-function psi*_m/phi*_m in closed form:
    w(theta) = (1 - |beta_m|^2) / (|t - beta_m|^2 |phi*_m(t)|^2).

    The measure carries that C-function as its exact hint, so consumers
    anchored at the same beta_0 skip the moment-series reconstruction.
    """
    m = system.n_max
    b_m = system.poles.beta[m]
    phi_star = system.level(m).phi_star

    def fn(theta):
        t = np.exp(1j * np.asarray(theta, dtype=float))
        return (1.0 - abs(b_m) ** 2) / (np.abs(t - b_m) ** 2 * np.abs(phi_star(t)) ** 2)

    mu = custom_measure(fn, label="rational")
    mu.caratheodory_hint = caratheodory_from_system(system)
    return mu


def _herglotz_means(kp, t, w, f_t, nodes, f_nodes) -> np.ndarray:
    """mean_t D(t, z) (f(t) - f(z)) w(t) at each node z, D the Riesz-Herglotz
    kernel. One node at a time: a (nodes x N) product rounds differently."""
    zt = kp.zeta0(t)
    out = np.empty(len(nodes), dtype=complex)
    for i, (z, fz) in enumerate(zip(nodes, f_nodes)):
        zz = kp.zeta0(z)
        out[i] = ((zt + zz) / (zt - zz) * (f_t - fz) * w).mean()
    return out


def _second_kind(mu, poles, kp, phi: RatFun, n: int, n_points: int) -> RatFun:
    """Quadrature realization of the second-kind companion of phi (degree n)."""
    theta, t = boundary_grid(n_points)
    w = mu.weight(theta)
    phi_t = phi(t)
    mean_phi = complex((phi_t * w).mean())
    if n == 0:
        return RatFun(poles, [mean_phi], 0)

    for attempt in range(2):
        nodes = SECOND_KIND_RADIUS * np.exp(
            2j * np.pi * (np.arange(n + 1) + 0.5 * attempt) / (n + 1)
        )
        # phi node by node: an array evaluation differs in the last bits and would change orf.json
        values = _herglotz_means(kp, t, w, phi_t, nodes, (phi(z) for z in nodes)) + mean_phi
        rhs = values * poles.pi(n, nodes)
        # Solve in the rescaled variable z/R so the Vandermonde is unitary-like.
        vander = np.vander(nodes / SECOND_KIND_RADIUS, n + 1, increasing=True)
        try:
            coeffs = np.linalg.solve(vander, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(vander @ coeffs - rhs)) > 1e-8 * max(1.0, np.max(np.abs(rhs))):
            continue
        coeffs = coeffs / SECOND_KIND_RADIUS ** np.arange(n + 1)
        return RatFun(poles, coeffs, n)
    raise InterpolationSingular("second-kind reconstruction nodes were unusable")


def second_kind_integral(mu: CircleMeasure, system: OrfSystem, n: int, n_points=None) -> RatFun:
    """Second-kind function of level n straight from its defining quadrature.

    Independent of the recurrence route: the two must agree, which the
    verification suite checks.
    """
    n_points = n_points or system.n_points or default_grid(system.n_max)
    return _second_kind(mu, system.poles, system.kernel, system.level(n).phi, n, n_points)


def gram_schmidt_orf(
    mu: CircleMeasure,
    poles: PoleSequence,
    n_max: int,
    n_points=None,
    allow_poles_near_circle=False,
) -> OrfSystem:
    """Orthonormal ladder for a measure via modified Gram-Schmidt on B_0..B_n.

    Two orthogonalization passes keep the Gram matrix at working precision.
    Phases are fixed so phi_n^*(beta_n) is real and positive; second-kind
    companions come from quadrature and the recurrence data from the
    least-squares inversion.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    _check_poles(poles, n_max, allow_poles_near_circle)
    n_points = n_points or default_grid(n_max)
    theta, t = boundary_grid(n_points)
    w = mu.weight(theta)

    phis, vals = [], []
    for k in range(n_max + 1):
        cand = _blaschke_basis(poles, k)
        v = np.asarray(cand(t))
        for _ in range(2):
            for f, fv in zip(phis, vals):
                c = complex(_ip(v, fv, w))
                cand = combine(1.0, cand, -c, f)
                v = v - c * fv
        nrm = np.sqrt(_ip(v, v, w).real)
        if not nrm > 1e-10:
            raise RankDeficiency(f"basis numerically dependent at level {k}")
        cand, v = (1.0 / nrm) * cand, v / nrm
        s = superstar(cand)(poles.beta[k])
        if abs(s) < 1e-12:
            raise RankDeficiency(f"phase anchor phi_{k}^*(beta_{k}) vanished")
        u = s / abs(s)
        phis.append(u * cand)
        vals.append(u * v)

    defect = _gram_defect(vals, w)
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
    hint = mu.caratheodory_hint
    if hint is not None and hint.beta0 == complex(poles.beta[0]):
        F = hint
    else:
        F = caratheodory_from_measure(mu, poles.beta[0], n_points=n_points)
    return OrfSystem(poles, levels, source="measure", measure=mu, caratheodory=F, n_points=n_points)


def _ip(u, v, w):
    """Weighted inner product <u, v> of sampled functions (uniform-grid quadrature)."""
    return (u * np.conj(v) * w).mean()


def _gram_defect(vals, w) -> float:
    """Sup deviation from the identity of the Gram matrix of sampled
    functions under the boundary weight w (uniform-grid quadrature)."""
    defect = 0.0
    for i, vi in enumerate(vals):
        for j, vj in enumerate(vals):
            g = _ip(vi, vj, w)
            defect = max(defect, abs(g - (1.0 if i == j else 0.0)))
    return float(defect)


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


def identity_residual(f: RatFun, g: RatFun, f_star: RatFun, g_star: RatFun, n_points: int = 512):
    """Complex constant d and relative sup residual (against Re d) of
    f^* g + f g^* = d P_m B_m on the circle, m and the poles taken from f.
    The starred pair is passed in, so a check covers stored f^*, g^* too."""
    m = f.n
    poles = f.poles
    _, t = boundary_grid(n_points)
    left = f_star(t) * g(t) + f(t) * g_star(t)
    kp = KernelParams(poles.beta[0])
    right = poisson_kernel(kp, t, poles.beta[m]) * blaschke_product(poles, m, t)
    j0 = int(np.argmax(np.abs(right)))
    d = left[j0] / right[j0]
    resid = float(np.max(np.abs(left - float(d.real) * right)) / np.max(np.abs(left)))
    return d, resid


def determinant_residual(system: OrfSystem, n: int, n_points: int = 512):
    """Constant d_n and sup residual of phi_n^* psi_n + phi_n psi_n^* = d_n P_n B_n
    over a boundary grid. Orthonormal ladders must give d_n = 2."""
    lv = system.level(n)
    d, resid = identity_residual(lv.phi, lv.psi, lv.phi_star, lv.psi_star, n_points)
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
    system: OrfSystem, F: CaratheodoryFn, n: int, n_samples: int = 100, seed: int = 0
) -> InterpolationReport:
    """Check the interpolation structure of level n against the C-function F.

    (phi_n F + psi_n) must vanish at beta_0..beta_{n-1}, the starred line at
    beta_0..beta_n, and the analytic witness g_n = (phi_n F + psi_n)/(zeta_0
    B_{n-1}) must stay away from zero on a disk sample. Requires pairwise
    distinct beta_0..beta_n; the repeated-pole multiplicity variant lives in
    the test suite only.
    """
    poles = system.poles
    pts = poles.beta[: n + 1]
    if _min_separation(pts) < 1e-12:
        raise DomainError("interpolation residuals need pairwise distinct beta_0..beta_n")
    lv = system.level(n)

    f_pts = np.asarray(F(pts))
    line_pts = lv.phi(pts) * f_pts + lv.psi(pts)
    first = np.abs(line_pts[:n])
    second = np.abs(lv.phi_star(pts) * f_pts - lv.psi_star(pts))

    rng = np.random.default_rng(seed)
    zs = 0.7 * np.sqrt(rng.uniform(size=n_samples)) * np.exp(2j * np.pi * rng.uniform(size=n_samples))
    fz = np.asarray(F(zs))
    line_a = lv.phi(zs) * fz + lv.psi(zs)
    g = line_a / zeros_factor(poles, n, zs)
    scale = float(np.max(np.abs(line_a)))

    g_anchor = abs(line_pts[n] / complex(zeros_factor(poles, n, pts[n])))

    para_res = 0.0
    for tau in (1.0, 1.0j, -1.0, -1.0j):
        pp = para_pair(system, n, tau)
        lhs = superstar(pp.Phi)(zs) * fz - superstar(pp.Psi)(zs)
        rhs = np.conj(tau) * (pp.Phi(zs) * fz + pp.Psi(zs))
        para_res = max(para_res, float(np.max(np.abs(lhs - rhs)) / scale))

    return InterpolationReport(n, first, second, float(np.min(np.abs(g))), g_anchor, para_res, scale)


def second_kind_functional_residual(system: OrfSystem, mu: CircleMeasure, n: int, seed: int = 0) -> float:
    """Residual of the extended functional identities relating phi_n, psi_n
    through the kernel, tested with a random multiplier f in L_{(n-1)*} and
    g in zeta_{n*} L_{(n-1)*}. Relative sup over interior sample points."""
    n_points = system.n_points or default_grid(system.n_max)
    poles, kp = system.poles, system.kernel
    theta, t = boundary_grid(n_points)
    w = mu.weight(theta)
    rng = np.random.default_rng(seed)
    deg = max(n - 1, 0)
    h1 = RatFun(poles, rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1), deg)
    h2 = RatFun(poles, rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1), deg)
    lv = system.level(n)
    zs = 0.45 * np.exp(2j * np.pi * (np.arange(6) + 0.21) / 6)

    f_t, f_z = substar_eval(h1, t), substar_eval(h1, zs)
    vals_t = lv.phi(t) * f_t
    lhs1 = _herglotz_means(kp, t, w, vals_t, zs, lv.phi(zs) * f_z) + (vals_t * w).mean()
    rhs1 = lv.psi(zs) * f_z
    res1 = np.max(np.abs(lhs1 - rhs1)) / max(np.max(np.abs(rhs1)), 1e-30)

    if n == 0:
        g_t, g_z = substar_eval(h2, t), substar_eval(h2, zs)
    else:
        g_t = substar_eval(h2, t) / blaschke_factor(poles, n, t)
        g_z = substar_eval(h2, zs) / blaschke_factor(poles, n, zs)
    vals_t = lv.phi_star(t) * g_t
    lhs2 = _herglotz_means(kp, t, w, vals_t, zs, lv.phi_star(zs) * g_z) - (vals_t * w).mean()
    rhs2 = -lv.psi_star(zs) * g_z
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
