"""Construction of orthogonal rational function ladders and their companions.

A ladder holds, per level n, the orthonormal function phi_n, its superstar,
the second-kind companion psi_n and its superstar, and the recurrence data
(lambda_n, e_n, rho_n). Every ladder is its poles and those parameters run
through one recurrence: synthesis takes the parameters as given, the
measure route reads them off the rational Szegő recursion run on grid
values. The second-kind quadrature against the measure builds no ladder;
it stays as the independent check of the parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
    DomainError,
    NumericalFailure,
    ParameterOutOfDisk,
    RankDeficiency,
)
from .measure import (
    CaratheodoryFn,
    CircleMeasure,
    _check_grid,
    _grid_memo,
    _grid_points_size,
    boundary_grid,
    caratheodory_from_measure,
    default_grid,
    ratio_caratheodory,
)
from .ratfun import (
    _BLOCK_POINTS,
    KernelParams,
    PoleSequence,
    RatFun,
    _disk_sample,
    _evaluate_blocks,
    _stack_top,
    blaschke_factor,
    evaluate_stack,
    herglotz_kernel,
    superstar,
)
from .zeros import phase_zeros, zeros_inside

TOL_ORTHO = 1e-9
# Quadrature accuracy degrades as poles approach the circle; beyond this the
# constructors demand an explicit override.
POLE_CAP = 0.9
# the zero-free gate: a cofactor line whose _zero_free reads at most this has a zero in the closed disk
_ZERO_FREE_MIN = 1e-8
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

    source is "measure" or "parameters": where the recurrence data came
    from. Both are orthonormal, and both are the recurrence run on that
    data from level 0. A system given no grid size gets the default one
    for its n_max; a grid size given must pass `_check_grid`. Its
    C-function is settled here, once: the one given, else the moment
    series of its measure on its grid, else the rational completion
    psi*_m/phi*_m of its top level m.
    """

    __slots__ = ("poles", "levels", "source", "measure", "caratheodory", "n_points")

    def __init__(self, poles, levels, source, measure=None, caratheodory=None, n_points=None):
        self.poles = poles
        self.levels = tuple(levels)
        self.source = source
        self.measure = measure
        if n_points is not None:
            _check_grid(n_points)
        self.n_points = n_points or default_grid(len(self.levels) - 1)
        if caratheodory is None and measure is not None:
            caratheodory = caratheodory_from_measure(measure, poles.beta[0], n_points=self.n_points)
        self.caratheodory = caratheodory or caratheodory_from_system(self)

    @property
    def n_max(self):
        return len(self.levels) - 1

    def level(self, n) -> OrfLevel:
        """Level n, 0 <= n <= n_max."""
        if not 0 <= n <= self.n_max:
            raise DomainError(f"level {n} outside 0..{self.n_max}")
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


def _two_column_solve(u, v, y):
    """Least-squares (a, b) of a u + b v = y along the last axis, for every
    leading index at once, each kept as an axis of length 1: Gram-Schmidt
    on (u, v) with one reorthogonalisation of v, then back substitution on
    the 2 x 2 triangle. Every product runs on arrays, never on numpy
    scalars, whose arithmetic rounds differently, so a row's bits do not
    depend on the rows beside it. A NaN row gives NaN (a, b), silently."""

    def dot(p, q):
        return np.sum(np.conj(p) * q, axis=-1, keepdims=True)

    with np.errstate(divide="ignore", invalid="ignore"):
        r11 = np.sqrt(dot(u, u).real)
        q1 = u / r11
        r12 = dot(q1, v)
        w = v - q1 * r12
        s = dot(q1, w)
        w = w - q1 * s
        r22 = np.sqrt(dot(w, w).real)
        b = dot(w / r22, y) / r22
        a = (dot(q1, y) - (r12 + s) * b) / r11
    return a, b


def _fit_ladder(poles, phis, stars) -> list:
    """(a, b, residual, scale) of the least-squares fit phi_n = a u_n + b v_n
    of the numerators at every level n = 1..m of phi_0..phi_m (phis), (u_n,
    v_n) the `_step_columns` of phi_{n-1} and its superstar (stars), zero-padded
    to degree m, in one _two_column_solve. The residual is the largest
    coefficient of the misfit, and scale that of phi_n's numerator."""
    m = len(phis) - 1
    cols = np.zeros((3, m, m + 1), dtype=complex)
    for n in range(1, m + 1):
        cols[:2, n - 1, : n + 1] = _step_columns(poles, n, phis[n - 1], stars[n - 1])
        cols[2, n - 1, : n + 1] = phis[n].numer
    u, v, y = cols
    a, b = _two_column_solve(u, v, y)
    resid = np.max(np.abs(a * u + b * v - y), axis=-1)
    scale = np.max(np.abs(y), axis=-1)
    return [(a[i, 0], b[i, 0], float(resid[i]), float(scale[i])) for i in range(m)]


def _parameters(fit):
    """(lambda_n, e_n, rho_n) = (conj(b/a), |a|, a/|a|) from a _fit_ladder
    entry, whether or not the fit closes: the recurrence_fit check reads that. A NaN fit gives NaN."""
    a, b, _, _ = fit
    with np.errstate(invalid="ignore"):
        return complex(np.conj(b / a)), float(abs(a)), complex(a / abs(a))


def _trimmed(c):
    """c without its trailing zero coefficients, keeping at least one."""
    if c.size == 1 or c[-1] != 0:
        return c
    nz = np.flatnonzero(c)
    return c[: nz[-1] + 1] if nz.size else c[:1]


def _padded_polymul(a, b, size):
    """Coefficients of a*b zero-padded to size: the power-series polymul of
    numpy's polynomial package, which trims trailing zeros around one
    convolve, without its series checks. The trim matters for the bits: it
    decides which factor np.convolve runs over, and so the order in which
    two products are summed."""
    out = np.zeros(size, dtype=complex)
    c = np.convolve(_trimmed(a), _trimmed(b))
    out[: c.size] = c
    return out


def _orthonormal_e(poles: PoleSequence, n: int, lam) -> float:
    """The orthonormal e_n = sqrt[(1 - |beta_n|^2)/((1 - |beta_{n-1}|^2)(1 - |lambda_n|^2))], |lambda_n| < 1."""
    b_prev, b_n = poles.beta[n - 1], poles.beta[n]
    return float(np.sqrt((1.0 - abs(b_n) ** 2) / (1.0 - abs(b_prev) ** 2) / (1.0 - abs(lam) ** 2)))


def _step_columns(poles, n, f, f_star):
    """The numerators, at degree n, of eta_{n-1} (z - beta_{n-1}) f and (1 - conj(beta_{n-1}) z) f_star
    for f, f_star of degree n - 1: the two terms of the recurrence step to level n."""
    b_prev = poles.beta[n - 1]
    up = poles.eta(n - 1) * np.array([-b_prev, 1.0])
    down = np.array([1.0, -np.conj(b_prev)])
    return _padded_polymul(up, f.numer, n + 1), _padded_polymul(down, f_star.numer, n + 1)


def recurrence_step(prev: OrfLevel, lam, rho, poles: PoleSequence, n: int) -> OrfLevel:
    """Advance the ladder one level with parameters (lambda_n, rho_n), e_n at
    its orthonormal value. phi_n and psi_n come from the first matrix row;
    phi_n^* and psi_n^* are their superstars.
    """
    lam = complex(lam)
    rho = complex(rho)
    if not abs(lam) < 1.0:
        raise ParameterOutOfDisk(f"|lambda_{n}| = {abs(lam):.4f} must be < 1")
    e = _orthonormal_e(poles, n, lam)

    def step(f, f_star, sign):
        a, b = _step_columns(poles, n, f, f_star)
        new = RatFun(poles, e * rho * (a + sign * np.conj(lam) * b), n)
        return new, superstar(new)

    phi, phi_star = step(prev.phi, prev.phi_star, +1)
    psi, psi_star = step(prev.psi, prev.psi_star, -1)
    return OrfLevel(n, phi, phi_star, psi, psi_star, lam, e, rho)


def _level_zero(poles, phi0) -> OrfLevel:
    phi = RatFun(poles, [phi0], 0)
    phi_star = superstar(phi)
    return OrfLevel(0, phi, phi_star, phi, phi_star, None, None, None)


def _run_recurrence(poles, level0: OrfLevel, params) -> list:
    """Level 0, then one recurrence_step per (lambda_n, rho_n) pair, e_n at
    its orthonormal value."""
    levels = [level0]
    for n, (lam, rho) in enumerate(params, start=1):
        levels.append(recurrence_step(levels[-1], lam, rho, poles, n))
    return levels


def synthesize(lambdas, poles: PoleSequence, n_points=None, allow_poles_near_circle=False) -> OrfSystem:
    """Build the ladder from recurrence parameters alone (rho_n = 1), from
    the constant phi_0 = 1.

    Every |lambda_n| < 1 yields a ladder orthonormal with respect to some
    C-function; the canonical one attached here is the rational completion
    psi*_m/phi*_m at the top level m. The grid is n_points when given,
    else the completion grid of the top level.
    """
    lambdas = [complex(v) for v in lambdas]
    n_max = len(lambdas)
    _check_poles(poles, n_max, allow_poles_near_circle)
    levels = _run_recurrence(poles, _level_zero(poles, 1.0), ((lam, 1.0) for lam in lambdas))
    return OrfSystem(poles, levels, source="parameters", n_points=n_points or _completion_grid(levels[-1], n_max))


def _completion_grid(top: OrfLevel, n_max: int) -> int:
    """Quadrature size resolving the rational-completion density, which
    carries 1/|phi*_m|^2: the `_modulus_grid` that holds phi_m's zeros."""
    c = _trimmed(top.phi.numer)
    return _modulus_grid(n_max, lambda r: zeros_inside(c, r))


def fourier_grid(system: OrfSystem) -> int:
    """The least grid of `interpolation_residual_stack`'s witness: the
    ladder's own when it has a measure, else the `_modulus_grid` that holds
    its poles, as the witness then reads its line times phi*_m, free of phi_m's zeros."""
    if system.measure is not None:
        return system.n_points
    rho = float(np.max(np.abs(system.poles.beta[: system.n_max + 1])))
    return _modulus_grid(system.n_max, lambda r: rho <= r)


def _modulus_grid(n_max: int, within) -> int:
    """default_grid(n_max), doubled up to 32768 until within(exp(-30/N)):
    the Fourier modes of a function analytic out to |z| = 1/r decay as
    r^N = e^-30 at mode N, and within(r) says whether the points whose
    reflections bound it (poles, phi_m's zeros) lie within r."""
    n = default_grid(n_max)
    while n < 32768 and not within(np.exp(-30.0 / n)):
        n *= 2
    return n


def caratheodory_from_system(system: OrfSystem) -> CaratheodoryFn:
    """The rational C-function psi*_m/phi*_m of the top level m.

    It is holomorphic with positive real part (phi*_m is zero-free on the
    closed disk), satisfies F(beta_0) = 1, and the ladder is orthonormal
    with respect to it through level m. Its values on the points of a
    `boundary_grid` are computed once and kept; its numerators are those of psi*_m and phi*_m.
    """
    top = system.level(system.n_max)
    F = ratio_caratheodory(lambda z: evaluate_stack((top.psi_star, top.phi_star), z), system.poles.beta[0])
    F.evaluator = _grid_memo(F.evaluator, _grid_points_size)
    F.numerators = top.psi_star.numer, top.phi_star.numer
    return F


def measure_from_system(system: OrfSystem) -> CircleMeasure:
    """Boundary density of the C-function psi*_m/phi*_m in closed form:
    w(theta) = (1 - |beta_m|^2) / (|t - beta_m|^2 |phi*_m(t)|^2).

    The density has mass 1 by construction, since the C-function takes 1
    at beta_0, and is computed once per uniform grid 2 pi j / N. Its
    C-function comes back through the moment series like any other's.
    """
    m = system.n_max
    b_m = system.poles.beta[m]
    phi_star = system.level(m).phi_star

    def fn(theta):
        t = np.exp(1j * np.asarray(theta, dtype=float))
        return (1.0 - abs(b_m) ** 2) / (np.abs(t - b_m) ** 2 * np.abs(phi_star(t)) ** 2)

    return CircleMeasure("rational", _grid_memo(fn), mass=1.0)


def _circle_nodes(count: int, n_points: int) -> np.ndarray:
    """count equispaced points on |z| = 1, turned by half a step of the
    quadrature grid 2 pi j / n_points so that none of them lies on it."""
    return np.exp(1j * (2.0 * np.pi * np.arange(count) / count + np.pi / n_points))


@dataclass(frozen=True)
class Quadrature:
    """The rule sum_j weights_j f(nodes_j) of a measure on the circle. Herglotz
    means are read off the nodes: at equispaced points of |z| = radius turned
    by phase, or at the six points of |z| = 1 in circle."""

    nodes: np.ndarray
    weights: np.ndarray
    radius: float
    phase: float
    circle: np.ndarray


def grid_quadrature(mu: CircleMeasure, n_points: int) -> Quadrature:
    """mu's uniform rule on t_j = e^{2 pi i j / N}, weights w(theta_j)/N, read half a step off its nodes."""
    theta, t = boundary_grid(n_points)
    return Quadrature(t, mu.weight(theta) / n_points, 1.0, np.pi / n_points, _circle_nodes(6, n_points))


def szego_rule(system: OrfSystem) -> Quadrature:
    """The rational Szegő rule of a ladder's rational completion measure: the
    ladder continued with lambda = 0 at beta_{m+1} = 0 stays orthonormal, and
    the para zeros (tau = 1) of level m + 1 with weights 1/sum_{k<=m} |phi_k|^2, both
    from (lambda_k, rho_k) by `phase_zeros`, integrate L_m L_{m*} exactly (Bultheel et al.
    1999, ch. 5). It is read on |z| = r = 2^(-1/(m+1)), where r^(-m) <= 2, and midway between nodes."""
    m = system.n_max
    params = [(lv.lam, lv.rho) for lv in system.levels[1:]] + [(0.0, 1.0)]
    nodes, sums = phase_zeros(np.append(system.poles.beta[: m + 1], 0.0), system.levels[0].phi.numer[0], params, 1.0)
    # the circle points: the midpoint of the gap between nodes that each angle 2 pi k / 6 falls in
    ang = np.sort(np.angle(nodes) % (2.0 * np.pi))
    ring = np.concatenate([ang[-1:] - 2.0 * np.pi, ang, ang[:1] + 2.0 * np.pi])
    at = np.searchsorted(ang, np.pi * np.arange(6) / 3)
    return Quadrature(nodes, 1.0 / sums, 2.0 ** (-1.0 / (m + 1)), 0.0, np.exp(0.5j * (ring[at] + ring[at + 1])))


def _herglotz_sums(kp, quad: Quadrature, zs, rows):
    """Sums over the rule of D(t, z) h(t) w at the points zs and of h(t) w,
    for each row h of rows(t) (its values at nodes t) and the constant 1 as
    the last row, one _BLOCK_POINTS block of nodes per kernel and rows call."""
    d_hw = h_w = 0.0
    for lo in range(0, quad.nodes.size, _BLOCK_POINTS):
        t, w = quad.nodes[lo : lo + _BLOCK_POINTS], quad.weights[lo : lo + _BLOCK_POINTS]
        h = rows(t)
        hw = np.concatenate([h, np.ones((1, h.shape[1]))]) * w
        d_hw = d_hw + hw @ herglotz_kernel(kp, t[None], zs[:, None]).T
        h_w = h_w + hw.sum(axis=1)
    return d_hw, h_w


def second_kind_integral_stack(quad: Quadrature, system: OrfSystem) -> list:
    """Second-kind functions psi_0..psi_m of the ladder, m its top level,
    straight from their defining quadrature on the rule quad, D the
    Riesz-Herglotz kernel:
    psi_n(z) = sum_t D(t, z) (phi_n(t) - phi_n(z)) w(t) + sum_t phi_n(t) w(t).

    Every level is taken at the same points z_k = r e^{i delta} omega^k,
    omega = e^{2 pi i/M}, M the smallest power of two above m, r and delta
    the rule's radius and phase: on a grid of N points r = 1 and
    delta = pi / N, midway between two grid points. The means come from one
    _herglotz_sums pass over the phi_n. psi_n pi_n takes the values
    sum_j c_j r^j e^{i j delta} omega^{jk} there, so one M-point FFT gives
    c_0..c_n once r^j e^{i j delta} is divided out.
    """
    poles, m = system.poles, system.n_max
    phis = [lv.phi for lv in system.levels]
    count = 1 << m.bit_length()
    j = np.arange(count)
    zs = quad.radius * np.exp(1j * (2.0 * np.pi * j / count + quad.phase))
    d_fw, f_w = _herglotz_sums(system.kernel, quad, zs, lambda t: evaluate_stack(phis, t))
    values = d_fw[:-1] - evaluate_stack(phis, zs) * d_fw[-1] + f_w[:-1, None]
    values *= np.array([poles.pi(n, zs) for n in range(m + 1)])
    coeffs = np.fft.fft(values, axis=1) / count * (np.exp(-1j * quad.phase * j) / quad.radius**j)
    return [RatFun(poles, c[: n + 1], n) for n, c in enumerate(coeffs)]


def _szego_parameters(poles, n_max, t, w):
    """Level 0 and the (lambda_k, rho_k) of the ladder orthonormal on the grid t_j = e^(2 pi i j / N),
    weights w, by the rational Szegő recursion on its values there (Bultheel et al. 1999, ch. 4):
    lambda_k makes phi_k orthogonal to phi*_{k-1}, rho_k makes phi*_k(beta_k) > 0, read by Cauchy's
    formula. RankDeficiency when 1 - |lambda_k|^2 is rounding noise."""
    phi = star = np.full_like(t, 1.0 / np.sqrt(np.sum(w)))
    level0, params = _level_zero(poles, phi[0]), []
    for k in range(1, n_max + 1):
        c = poles.varpi(k - 1, t) / poles.varpi(k, t)
        a, b = c * blaschke_factor(poles, k - 1, t) * phi, c * star
        star_w = np.conj(star) * w
        lam = -complex(np.conj((a @ star_w) / (b @ star_w)))
        if not 1.0 - abs(lam) ** 2 > 1e-13:
            raise RankDeficiency(f"basis numerically dependent at level {k}")
        e = _orthonormal_e(poles, k, lam)
        star = (b + lam * a) * (poles.eta(k) * np.conj(poles.eta(k - 1)))
        at_beta = np.mean(star * t / poles.varpi_star(k, t))
        rho = complex(at_beta / abs(at_beta))
        phi, star = e * rho * (a + np.conj(lam) * b), e * np.conj(rho) * star
        params.append((lam, rho))
    return level0, params


def gram_schmidt_orf(
    mu: CircleMeasure,
    poles: PoleSequence,
    n_max: int,
    n_points=None,
    allow_poles_near_circle=False,
) -> OrfSystem:
    """Orthonormal ladder for a measure: the recurrence, as `synthesize` runs it, on the (lambda_k, rho_k)
    `_szego_parameters` reads off the grid 2 pi j / N, weights w/N, closed by a Gram check on that grid."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    _check_poles(poles, n_max, allow_poles_near_circle)
    n_points = n_points or default_grid(n_max)
    _check_grid(n_points)
    if n_max >= n_points:
        raise RankDeficiency(f"basis numerically dependent at level {n_points}")
    quad = grid_quadrature(mu, n_points)
    ladder = _run_recurrence(poles, *_szego_parameters(poles, n_max, quad.nodes, quad.weights))
    defect = _gram_defect([lv.phi for lv in ladder], quad)
    if defect > TOL_ORTHO:
        raise NumericalFailure(f"Gram matrix deviates from identity by {defect:.2e}")
    return OrfSystem(poles, ladder, source="measure", measure=mu, n_points=n_points)


def _gram_defect(funcs, quad: Quadrature) -> float:
    """Sup deviation from the identity of the Gram matrix of the RatFuns
    funcs on the rule quad, summed one block of nodes at a time: their
    samples take a block's worth of memory, not a whole grid's."""
    gram = 0.0
    for block, v in _evaluate_blocks(funcs, quad.nodes):
        gram = gram + (v * quad.weights[block]) @ v.conj().T
    return float(np.max(np.abs(gram - np.eye(len(funcs)))))


def _unimodular(tau) -> complex:
    if not abs(abs(complex(tau)) - 1.0) <= 1e-12:
        raise DomainError("tau must be unimodular")
    return complex(tau)


def para_pair(system: OrfSystem, n: int, tau) -> ParaPair:
    """Para-orthogonal pair Phi = phi_n + tau phi_n^*, Psi = psi_n - tau psi_n^*.

    A function and its superstar share one degree and one denominator, so
    the pair adds numerators.
    """
    tau = _unimodular(tau)
    lv = system.level(n)
    return ParaPair(
        n,
        tau,
        RatFun(lv.phi.poles, lv.phi.numer + tau * lv.phi_star.numer, n),
        RatFun(lv.psi.poles, lv.psi.numer - tau * lv.psi_star.numer, n),
    )


def para_zeros(system: OrfSystem, n: int, tau) -> np.ndarray:
    """The n zeros of phi_n + tau phi_n^*, n >= 1, simple and on the circle and sorted by angle: where
    the lifted phase of phi_n/phi_n^*, run from the ladder's (lambda_k, rho_k), meets arg(-tau) (`phase_zeros`)."""
    if not 1 <= n <= system.n_max:
        raise DomainError(f"para zeros need a level in 1..{system.n_max}, got {n}")
    tau, params = _unimodular(tau), [(lv.lam, lv.rho) for lv in system.levels[1 : n + 1]]
    return phase_zeros(system.poles.beta[: n + 1], system.levels[0].phi.numer[0], params, tau)[0]


def _determinant_numerators(poles, n_max):
    """R_0..R_n_max, the numerators of 2 P_m B_m over pi_m^2: 2 (1 - |beta_m|^2)/(1 - |beta_0|^2) upsilon_m
    q_m(z) z^m conj(q_m(1/conj(z))) of degree 2m, for the running product q_m = prod_{0<=j<m} (z - beta_j)."""
    qs = [np.ones(1, dtype=complex)]
    for b in poles.beta[:n_max]:
        qs.append(np.convolve(qs[-1], [-b, 1.0]))
    scale = 2.0 * (1.0 - np.abs(poles.beta) ** 2) / (1.0 - abs(poles.beta[0]) ** 2)
    return [scale[m] * poles.upsilon(m) * np.convolve(q, np.conj(q[::-1])) for m, q in enumerate(qs)]


def identity_residual_stack(fs, gs, f_stars, g_stars):
    """Relative residual of f^* g + f g^* = 2 P_m B_m, the constant of an orthonormal ladder and its
    associated pairs, per row (f, g, f^*, g^*) of one degree m: max |L - R_m| / max |L| over the coefficients
    of the numerators L = F^* G + F G^* and R_m (_determinant_numerators) over pi_m^2. The starred functions
    are passed in, so a check covers stored ones too. A row off the top degree's poles raises PoleMismatch."""
    if not len(fs):
        return np.empty(0)
    rows = list(zip(fs, gs, f_stars, g_stars, strict=True))
    if any(len({h.n for h in row}) > 1 for row in rows):
        raise DomainError("an identity row needs four functions of one degree")
    top = _stack_top([h for row in rows for h in row])
    right = _determinant_numerators(top.poles, top.n)
    lefts = [(np.convolve(f_s.numer, g.numer) + np.convolve(f.numer, g_s.numer), f.n) for f, g, f_s, g_s in rows]
    return np.array([np.max(np.abs(left - right[m])) / np.max(np.abs(left)) for left, m in lefts])


def _zero_free(g) -> float:
    """min |g| / max |g| of the line g on the grid 2 pi j / N, or 0 when g
    winds around the origin. An analytic line has no zero in the closed
    disk exactly when this is > 0.

    The winding is read from the phase alone: the raw steps of arg g
    around the closed loop sum to 0, and each step across the cut at +-pi
    is a whole turn, so g winds exactly when the steps over 2 pi, each
    rounded to an integer, do not sum to 0."""
    mag = np.abs(g)
    phase = np.angle(g)
    turns = np.sum(np.round(np.diff(phase, append=phase[0]) / (2 * np.pi)))
    return float(np.min(mag)) / max(float(np.max(mag)), 1e-300) if turns == 0 else 0.0


def _remainders(line, roots):
    """(quotient, remainder) of dividing z - root out of the polynomial line,
    constant first, for each of roots in turn, by synthetic division that
    |root| < 1 keeps stable: the quotient, constant first, and the largest
    |remainder|: 0.0 for no roots, NaN for a NaN line."""
    rev, remainders = line[::-1].tolist(), [0.0]
    for root in roots.tolist():
        *rev, rem = accumulate(rev, lambda acc, coef: acc * root + coef)
        remainders.append(abs(rem))
    return np.array(rev[::-1]), float(np.max(remainders))


def interpolation_residual_stack(system: OrfSystem):
    """Interpolation structure of each level 0..m of the ladder against its
    C-function F = top/bot (`CaratheodoryFn.numerators`), as arrays
    (residual, witness), one entry per level; DomainError when F carries no numerators.

    phi_n F + psi_n must vanish at beta_0..beta_{n-1} and phi_n^* F - psi_n^*
    at beta_0..beta_n, each to every pole's multiplicity. Times pi_n bot
    both are polynomials, the lines phi_n top + psi_n bot and
    phi_n^* top - psi_n^* bot, the superstars taken from the stored phi_n
    and psi_n. The residual is the largest remainder of dividing those
    zeros out of either (`_remainders`) over the first line's largest
    coefficient; the second line is identically 0 at the top level of a
    lambda ladder, so its own maximum would be rounding noise. The witness
    is `_zero_free` of the first line's cofactor on the grid 2 pi j / N,
    N the larger of the `fourier_grid` and the power of two above the
    lines' degree: the line's values from one FFT, over pi_n bot, times
    conj(zeta_0 B_{n-1}), which is unimodular there.
    """
    if system.caratheodory.numerators is None:
        raise DomainError("interpolation reads the numerators of F, and this C-function carries none")
    top, bot = system.caratheodory.numerators
    poles = system.poles
    size = max(fourier_grid(system), 1 << (system.n_max + top.size - 1).bit_length())
    _, t = boundary_grid(size)
    # conj(zeta_0 B_{n-1}) / (pi_n bot) on the grid, one factor more per level
    factor = 1.0 / np.fft.ifft(bot, size, norm="forward")
    resid, witness = np.empty((2, system.n_max + 1))
    for n, lv in enumerate(system.levels):
        if n:
            factor = factor * np.conj(blaschke_factor(poles, n - 1, t)) / poles.varpi(n, t)
        line = np.convolve(lv.phi.numer, top) + np.convolve(lv.psi.numer, bot)
        star = np.convolve(superstar(lv.phi).numer, top) - np.convolve(superstar(lv.psi).numer, bot)
        remainders = [_remainders(line, poles.beta[:n])[1], _remainders(star, poles.beta[: n + 1])[1]]
        resid[n] = np.max(remainders) / np.max(np.abs(line))
        witness[n] = _zero_free(np.fft.ifft(line, size, norm="forward") * factor)
    return resid, witness


def _four(lv: OrfLevel):
    return lv.phi, lv.phi_star, lv.psi, lv.psi_star


def second_kind_functional_residual_stack(system: OrfSystem, quad: Quadrature, seed: int = 0):
    """Residuals of the extended functional identities relating phi_n, psi_n
    through the kernel on the rule quad, one per level 0..m of the ladder,
    as an array: each tests a random multiplier f in L_{(n-1)*} and g in
    zeta_{n*} L_{(n-1)*}, relative sup over the rule's six circle points.
    There a substar h_*(t) is conj(h(t)), and g enters divided by zeta_n.
    phi_n f_* and phi_n^* g_*/zeta_n of every level go through one
    _herglotz_sums pass, which evaluates them one block of nodes at a time.
    """
    poles, m = system.poles, system.n_max
    # on the circle h_* is as tame as h, and off the nodes the means never meet 0/0
    zs = quad.circle
    # the coefficients of f, g of each level: points of the unit disk, drawn
    # from a generator seeded afresh per level
    mults = []
    for n in range(m + 1):
        coeffs = np.split(_disk_sample(seed, 1.0, 2 * max(n, 1)), 2)
        mults += [RatFun(poles, c, max(n - 1, 0)) for c in coeffs]

    def multipliers(z):
        # f_* and g_*/zeta_n of every level at z on the circle, (levels, 2, z.size)
        fg = np.conj(evaluate_stack(mults, z)).reshape(-1, 2, z.size)
        for n in range(1, m + 1):
            fg[n, 1] /= blaschke_factor(poles, n, z)
        return fg

    phis = [f for lv in system.levels for f in (lv.phi, lv.phi_star)]
    at_zs = evaluate_stack([f for lv in system.levels for f in _four(lv)], zs).reshape(-1, 4, zs.size)
    fg_z = multipliers(zs)
    h_z = (at_zs[:, :2] * fg_z).reshape(-1, zs.size)

    def rows(t):
        return evaluate_stack(phis, t) * multipliers(t).reshape(len(phis), -1)

    d_hw, h_w = _herglotz_sums(system.kernel, quad, zs, rows)
    herglotz = (d_hw[:-1] - h_z * d_hw[-1]).reshape(-1, 2, zs.size)
    # the mean enters the f line with +, the g line with -, as does psi
    sign = np.array([1.0, -1.0])[:, None]
    lhs = herglotz + sign * h_w[:-1].reshape(-1, 2, 1)
    rhs = sign * at_zs[:, 2:] * fg_z
    res = np.max(np.abs(lhs - rhs), axis=2) / np.maximum(np.max(np.abs(rhs), axis=2), 1e-30)
    return np.max(res, axis=1)


def _monic_from_roots(roots) -> np.ndarray:
    """Coefficients, constant first, of the product of z - r over the roots."""
    core = np.ones(1, dtype=complex)
    for r in roots:
        core = np.convolve(core, [-r, 1.0])
    return core


def lebesgue_orf(poles: PoleSequence, n: int) -> RatFun:
    """Closed-form orthonormal function for the Lebesgue measure:
    phi_n = sqrt(1 - |beta_n|^2) z B_n(z) / (z - beta_n)."""
    if n == 0:
        return RatFun(poles, [1.0], 0)
    core = _monic_from_roots(np.concatenate([[0.0], poles.beta[1:n]]))
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
    core = _monic_from_roots(poles.beta[k:n])
    scale = np.sqrt((1.0 - abs(poles.beta[n]) ** 2) / (1.0 - abs(poles.beta[k]) ** 2)) * ups
    return RatFun(shifted, scale * core, n - k)
