"""Construction of orthogonal rational function ladders and their companions.

A ladder holds, per level n, the orthonormal function phi_n, its superstar,
the second-kind companion psi_n and its superstar, and the recurrence data
(lambda_n, e_n, rho_n). Every ladder is its poles and those parameters run
through one recurrence: synthesis takes the parameters as given, the
measure route fits them from one weighted QR. The second-kind quadrature
against the measure builds no ladder; it stays as the independent check of
the fitted parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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
    _BLOCK_BYTES,
    CaratheodoryFn,
    CircleMeasure,
    _grid_memo,
    _grid_points_size,
    boundary_grid,
    caratheodory_from_measure,
    default_grid,
    ratio_caratheodory,
)
from .ratfun import (
    KernelParams,
    PoleSequence,
    RatFun,
    _disk_sample,
    blaschke_factor,
    blaschke_product,
    evaluate_stack,
    herglotz_kernel,
    poisson_kernel,
    superstar,
)

TOL_ORTHO = 1e-9
# Quadrature accuracy degrades as poles approach the circle; beyond this the
# constructors demand an explicit override.
POLE_CAP = 0.9
# grid points per block of the passes over the quadrature grid
_BLOCK = 1024


def _blocks(size, funcs=None):
    """Slices of consecutive points that cover range(size), in order. Each
    has _BLOCK points or, in a pass that evaluates the RatFuns funcs on a
    block, as many as hold _BLOCK_BYTES of their complex values, but no
    fewer. A stack of one degree counts twice: evaluate_stack holds its
    values and their Horner table."""
    if funcs is None:
        step = _BLOCK
    else:
        rows = len(funcs) * (2 if len({f.n for f in funcs}) == 1 else 1)
        step = max(_BLOCK, _BLOCK_BYTES // (16 * rows))
    return (slice(lo, lo + step) for lo in range(0, size, step))


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
    for its n_max. Its C-function is settled here, once: the one given,
    else the moment series of its measure on its grid, else the rational
    completion psi*_m/phi*_m of its top level m.
    """

    __slots__ = ("poles", "levels", "source", "measure", "caratheodory", "n_points")

    def __init__(self, poles, levels, source, measure=None, caratheodory=None, n_points=None):
        self.poles = poles
        self.levels = tuple(levels)
        self.source = source
        self.measure = measure
        self.n_points = n_points or default_grid(len(self.levels) - 1)
        if caratheodory is None and measure is not None:
            caratheodory = caratheodory_from_measure(measure, poles.beta[0], n_points=self.n_points)
        self.caratheodory = caratheodory or caratheodory_from_system(self)

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


# golden-angle points on the circle: |phi_n| stays O(1) there, and no power
# z^k aliases the constant as it does on equispaced points
_FIT_POINTS = np.exp(2j * np.pi * ((np.arange(16) + 0.37) * (np.sqrt(5.0) - 1.0) / 2.0 % 1.0))


def _fit_values(poles, n, prev_z, star_z, phi_z):
    """Least-squares fit of phi_n varpi_n/varpi_{n-1} = a zeta_{n-1} phi_{n-1} + b phi*_{n-1}
    from the values of phi_{n-1}, phi*_{n-1} and phi_n at the 16 fit points.

    The 16 x 2 system is solved by one reduced QR and back substitution
    on its 2 x 2 triangle. Returns (a, b, residual, scale) with the
    residual in sup norm over the sample and scale = max |phi_n| there.
    """
    zs = _FIT_POINTS
    lhs = phi_z * poles.varpi(n, zs) / poles.varpi(n - 1, zs)
    col1 = blaschke_factor(poles, n - 1, zs) * prev_z
    mat = np.stack([col1, star_z], axis=1)
    q, r = np.linalg.qr(mat)
    y = q.conj().T @ lhs
    b = y[1] / r[1, 1]
    a = (y[0] - r[0, 1] * b) / r[0, 0]
    resid = float(np.abs(mat @ np.array([a, b]) - lhs).max())
    scale = float(np.abs(phi_z).max())
    return a, b, resid, scale


def _fit_ladder(poles, phi_z, star_z) -> list:
    """_fit_values at every level 1..m, from the values of phi_0..phi_m
    (phi_z) and of their superstars (star_z) at the fit points, one row
    per level."""
    return [_fit_values(poles, n, phi_z[n - 1], star_z[n - 1], phi_z[n]) for n in range(1, len(phi_z))]


def _parameters(n, fit):
    """(lambda_n, e_n, rho_n) = (conj(b/a), |a|, a/|a|) from the _fit_values
    result; FitResidualTooLarge when the fit does not close."""
    a, b, resid, scale = fit
    if resid > 1e-9 * scale:
        raise FitResidualTooLarge(
            f"level {n} does not satisfy the recurrence (residual {resid:.2e} vs scale {scale:.2e})"
        )
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


def recurrence_step(prev: OrfLevel, lam, rho, poles: PoleSequence, n: int, e=None) -> OrfLevel:
    """Advance the ladder one level with parameters (lambda_n, rho_n).

    e_n defaults to the orthonormal value
    sqrt[(1 - |beta_n|^2)/((1 - |beta_{n-1}|^2)(1 - |lambda_n|^2))].
    phi_n and psi_n come from the first matrix row; phi_n^* and psi_n^* are
    their superstars.
    """
    lam = complex(lam)
    rho = complex(rho)
    if not abs(lam) < 1.0:
        raise ParameterOutOfDisk(f"|lambda_{n}| = {abs(lam):.4f} must be < 1")
    b_prev, b_n = poles.beta[n - 1], poles.beta[n]
    if e is None:
        e = np.sqrt((1.0 - abs(b_n) ** 2) / (1.0 - abs(b_prev) ** 2) / (1.0 - abs(lam) ** 2))
    e = float(e)
    up = poles.eta(n - 1) * np.array([-b_prev, 1.0])  # eta_{n-1} (z - beta_{n-1})
    down = np.array([1.0, -np.conj(b_prev)])          # 1 - conj(beta_{n-1}) z

    def step(f, f_star, sign):
        a, b = _padded_polymul(up, f.numer, n + 1), _padded_polymul(down, f_star.numer, n + 1)
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
    """Quadrature size resolving the rational-completion density.

    That density carries 1/|phi*_m|^2, whose structure sharpens as the zeros
    of phi_m approach the circle; the grid is sized so rho_max^N stays at
    rounding level, where rho_max is the largest zero modulus.
    """
    base = default_grid(n_max)
    c = _trimmed(top.phi.numer)
    rho = float(np.max(np.abs(_companion_roots(c[None])))) if c.size > 1 else 0.0
    if rho <= 0.5:
        return base
    needed = int(np.ceil(30.0 / -np.log(min(rho, 0.9999))))
    needed = 1 << (needed - 1).bit_length()
    return int(min(max(base, needed), 32768))


def caratheodory_from_system(system: OrfSystem) -> CaratheodoryFn:
    """The rational C-function psi*_m/phi*_m of the top level m.

    It is holomorphic with positive real part (phi*_m is zero-free on the
    closed disk), satisfies F(beta_0) = 1, and the ladder is orthonormal
    with respect to it through level m. Its values on the points of a
    `boundary_grid(N)` are computed once and kept: each associated density
    reads them.
    """
    top = system.level(system.n_max)
    F = ratio_caratheodory(lambda z: evaluate_stack((top.psi_star, top.phi_star), z), system.poles.beta[0])
    F.evaluator = _grid_memo(F.evaluator, _grid_points_size)
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


def _herglotz_sums(kp, w, nodes, rows):
    """Sums over the grid t = e^{2 pi i j / N}, N = w.size, of D(t, z) h w at
    the nodes z and of h w, for each row h of rows(block) (its values on
    t[block]) and the constant 1 as the last row. One kernel and one rows
    call per _BLOCK points: no table of either on the whole grid is held."""
    _, t = boundary_grid(w.size)
    d_hw = h_w = 0.0
    for block in _blocks(w.size):
        h = rows(block)
        hw = np.concatenate([h, np.ones((1, h.shape[1]))]) * w[block]
        d_hw = d_hw + hw @ herglotz_kernel(kp, t[None, block], nodes[:, None]).T
        h_w = h_w + hw.sum(axis=1)
    return d_hw, h_w


def second_kind_integral_stack(mu: CircleMeasure, system: OrfSystem, levels) -> list:
    """Second-kind functions of the levels, in order, straight from their
    defining quadrature against mu on the grid t = e^{2 pi i j / N}:
    psi_n(z) = mean_t D(t, z) (phi_n(t) - phi_n(z)) w(t) + mean_t phi_n(t) w(t),
    D the Riesz-Herglotz kernel.

    Every level is taken at the same nodes z_k = e^{i delta} omega^k,
    omega = e^{2 pi i/M}, M the smallest power of two above the highest
    level, on |z| = 1, where the trapezoidal rule still converges
    geometrically. With delta = pi / N each node sits midway between two
    grid points (an M that does not divide N brings nodes within 1/(2M) of
    a step of one, where D loses digits). The means come from one
    _herglotz_sums pass over the phi_n. psi_n pi_n takes the values
    sum_j c_j e^{i j delta} omega^{jk} at the nodes, so one M-point FFT
    gives c_0..c_n once the phase e^{i j delta} is removed.
    """
    levels = list(levels)
    if not levels:
        return []
    poles, n_points = system.poles, system.n_points
    phis = [system.level(n).phi for n in levels]
    nodes = _circle_nodes(1 << max(levels).bit_length(), n_points)
    theta, t = boundary_grid(n_points)
    d_fw, f_w = _herglotz_sums(system.kernel, mu.weight(theta), nodes, lambda block: evaluate_stack(phis, t[block]))
    values = (d_fw[:-1] - evaluate_stack(phis, nodes) * d_fw[-1] + f_w[:-1, None]) / n_points
    values *= np.array([poles.pi(n, nodes) for n in levels])
    coeffs = np.fft.fft(values, axis=1) / nodes.size * np.exp(-1j * np.pi / n_points * np.arange(nodes.size))
    return [RatFun(poles, coeffs[i, : n + 1], n) for i, n in enumerate(levels)]


def _basis(poles, n_max, z) -> np.ndarray:
    """B_0..B_n_max at the points z, one column each: the running product of
    the Blaschke factors zeta_1..zeta_n_max."""
    factors = [np.ones_like(z)] + [blaschke_factor(poles, j, z) for j in range(1, n_max + 1)]
    return np.cumprod(np.stack(factors, axis=1), axis=1)


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
    phase. (lambda_k, rho_k) are fitted from those phi_k at the fit points,
    and the ladder, second-kind companions included, is the recurrence run
    on them, as `synthesize` runs it.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    _check_poles(poles, n_max, allow_poles_near_circle)
    n_points = n_points or default_grid(n_max)
    if n_max >= n_points:
        raise RankDeficiency(f"basis numerically dependent at level {n_points}")
    theta, t = boundary_grid(n_points)
    w = mu.weight(theta)

    r = np.linalg.qr(_basis(poles, n_max, t) * np.sqrt(w / n_points)[:, None], mode="r")
    diag = np.diagonal(r)
    small = np.flatnonzero(~(np.abs(diag) > 1e-10))
    if small.size:
        raise RankDeficiency(f"basis numerically dependent at level {small[0]}")
    coef = np.linalg.inv(r * (np.conj(diag) / np.abs(diag))[:, None])

    # row k: phi_k at the fit points, and phi_k^* = B_k conj(phi_k) there (|z| = 1)
    basis = _basis(poles, n_max, _FIT_POINTS)
    phi_z = (basis @ coef).T
    star_z = basis.T * np.conj(phi_z)
    fitted = [_parameters(k, fit) for k, fit in enumerate(_fit_ladder(poles, phi_z, star_z), start=1)]
    params = ((lam, rho) for lam, _, rho in fitted)
    levels = _run_recurrence(poles, _level_zero(poles, coef[0, 0]), params)

    defect = _gram_defect([lv.phi for lv in levels], w)
    if defect > TOL_ORTHO:
        raise NumericalFailure(f"Gram matrix deviates from identity by {defect:.2e}")
    return OrfSystem(poles, levels, source="measure", measure=mu, n_points=n_points)


def _gram_defect(funcs, w) -> float:
    """Sup deviation from the identity of the Gram matrix of the RatFuns
    funcs under the boundary weight w, sampled on the grid 2 pi j / N,
    N = w.size (uniform-grid quadrature).

    The functions are evaluated and the matrix summed one block of the
    grid at a time, so their samples take a block's worth of memory, not
    the grid's.
    """
    _, t = boundary_grid(w.size)
    gram = 0.0
    for block in _blocks(w.size, funcs):
        v = evaluate_stack(funcs, t[block])
        gram = gram + (v * w[block]) @ v.conj().T
    return float(np.max(np.abs(gram / w.size - np.eye(len(funcs)))))


def zeros_factor(poles: PoleSequence, m: int, z):
    """zeta_0(z) B_{m-1}(z) on the 1-d array z: the product with zeros beta_0..beta_{m-1}.

    Identically 1 for m = 0 (the two factors cancel exactly).
    """
    z = np.asarray(z, dtype=complex)
    if m == 0:
        return np.ones_like(z)
    return KernelParams(poles.beta[0]).zeta0(z) * blaschke_product(poles, m - 1, z)


def para_pair(system: OrfSystem, n: int, tau) -> ParaPair:
    """Para-orthogonal pair Phi = phi_n + tau phi_n^*, Psi = psi_n - tau psi_n^*.

    A function and its superstar share one degree and one denominator, so
    the pair adds numerators.
    """
    tau = complex(tau)
    if not abs(abs(tau) - 1.0) <= 1e-12:
        raise DomainError("tau must be unimodular")
    lv = system.level(n)
    return ParaPair(
        n,
        tau,
        RatFun(lv.phi.poles, lv.phi.numer + tau * lv.phi_star.numer, n),
        RatFun(lv.psi.poles, lv.psi.numer - tau * lv.psi_star.numer, n),
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
    return para_zeros_stack([pair])[0]


def para_zeros_stack(pairs) -> list:
    """para_zeros of each pair, in order. The companion matrices of one size
    go through one batched eigvals and the polish runs on their rows
    together; a pair that fails raises as para_zeros would, after every
    earlier pair has passed."""
    coeffs, error = [], None
    for pair in pairs:
        try:
            coeffs.append(_para_numerator(pair))
        except DomainError as exc:
            error = exc
            break
    roots = [None] * len(coeffs)
    for size in {c.size for c in coeffs}:
        rows = [i for i, c in enumerate(coeffs) if c.size == size]
        for i, r in zip(rows, _polished_roots(np.stack([coeffs[i] for i in rows]))):
            roots[i] = r
    out = []
    for r in roots:
        off = np.abs(np.abs(r) - 1.0)
        if (off > 1e-9).any():
            raise ZeroOffCircle(f"para zero left the circle by {off.max():.2e}")
        sep = _min_separation(r)
        if sep < 1e-8:
            raise ZeroCollision(f"para zeros separated by only {sep:.2e}")
        out.append(r[np.argsort(np.angle(r))])
    if error is not None:
        raise error
    return out


def _para_numerator(pair: ParaPair) -> np.ndarray:
    """Numerator of Phi up to its last coefficient above 1e-13 of the largest."""
    c = pair.Phi.numer
    scale = float(np.abs(c).max())
    if scale == 0.0:
        raise DomainError("zero numerator")
    m = pair.Phi.n
    while m >= 0 and abs(c[m]) < 1e-13 * scale:
        m -= 1
    if m < 1:
        raise DomainError("numerator degree must be >= 1")
    return c[: m + 1]


def _companion_roots(c) -> np.ndarray:
    """Roots of each row of c (k, m + 1), m >= 1, leading coefficients
    nonzero: the eigenvalues of its companion matrix, sorted."""
    m = c.shape[1] - 1
    if m == 1:
        return -c[:, :1] / c[:, 1:]
    companion = np.zeros((c.shape[0], m, m), dtype=complex)
    companion[:, np.arange(1, m), np.arange(m - 1)] = 1
    companion[:, :, -1] -= c[:, :-1] / c[:, -1:]
    roots = np.linalg.eigvals(companion)
    roots.sort(axis=1)
    return roots


def _polished_roots(c) -> np.ndarray:
    """_companion_roots of each row of c, then one Newton step wherever the
    derivative is nonzero."""
    m = c.shape[1] - 1
    roots = _companion_roots(c)
    pv = _polyval_rows(roots, c)
    dv = _polyval_rows(roots, c[:, 1:] * np.arange(1, m + 1))
    ok = np.abs(dv) > 0
    return np.where(ok, roots - np.where(ok, pv / np.where(ok, dv, 1.0), 0.0), roots)


def _polyval_rows(x, c):
    """Horner on each row: sum_j c[i, j] x[i]^j."""
    acc = c[:, -1:] + x * 0
    for i in range(2, c.shape[1] + 1):
        acc = c[:, -i, None] + acc * x
    return acc


def identity_residual_stack(fs, gs, f_stars, g_stars):
    """Complex constant d and relative sup residual (against Re d) of
    f^* g + f g^* = d P_m B_m on a 512-point boundary grid, as arrays
    (d, resid), one row per (f, g, f^*, g^*); m and the poles come from f.
    The starred functions are passed in, so a check covers stored ones too.
    The functions may have different degrees over one pole prefix: they are
    evaluated in one call, B_0..B_m come from one _basis, and the Poisson
    kernels P(t, beta_m) of every row from one broadcast."""
    rows = len(fs)
    _, t = boundary_grid(512)
    fs_t, g_t, f_t, gs_t = evaluate_stack((*f_stars, *gs, *fs, *g_stars), t).reshape(4, rows, -1)
    left = fs_t * g_t + f_t * gs_t
    degs = np.array([f.n for f in fs])
    poles = fs[int(np.argmax(degs))].poles
    kernels = poisson_kernel(KernelParams(poles.beta[0]), t, poles.beta[degs][:, None])
    right = kernels * _basis(poles, int(degs.max()), t).T[degs]
    at = np.argmax(np.abs(right), axis=1)
    d = left[np.arange(rows), at] / right[np.arange(rows), at]
    resid = np.max(np.abs(left - d.real[:, None] * right), axis=1) / np.max(np.abs(left), axis=1)
    return d, resid


def determinant_residual_stack(system: OrfSystem, levels):
    """Constant d_n and sup residual of phi_n^* psi_n + phi_n psi_n^* = d_n P_n B_n
    over a boundary grid at each of the levels, as arrays (d_n, resid), from
    one identity_residual_stack. Orthonormal ladders must give d_n = 2; a
    caller compares d_n with 2 itself."""
    phi, phi_s, psi, psi_s = zip(*(_four(system.level(n)) for n in levels))
    d, resid = identity_residual_stack(phi, psi, phi_s, psi_s)
    return d.real, resid


def _negative_modes(g, scale):
    """Largest |Fourier mode| k = -N/4..-1 of each row of g, sampled on the
    grid 2 pi j / N, over scale. The row extends analytically into the disk
    exactly when these vanish; the modes nearer -N/2 are left out, as the
    positive modes of an analytic row alias there. The rows take one FFT
    call, which numpy runs faster than one call per row."""
    n = g.shape[-1]
    modes = np.fft.fft(g, axis=-1)[..., n - n // 4 :]
    return np.max(np.abs(modes), axis=-1) / (n * np.maximum(scale, 1e-300))


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


def interpolation_residual_stack(system: OrfSystem, F: CaratheodoryFn, levels):
    """Interpolation structure of each of the levels against the C-function
    F, as arrays (residual, witness), one entry per level, in order.

    phi_n F + psi_n must vanish at beta_0..beta_{n-1} and phi_n^* F - psi_n^*
    at beta_0..beta_n, each to every pole's multiplicity. On the grid
    2 pi j / N of the system the zeros factors zeta_0 B_{n-1} and zeta_0 B_n
    are unimodular, so the cofactors are the lines times their conjugates:
    g_n = (phi_n F + psi_n) conj(zeta_0 B_{n-1}) and, as f^* = B_n conj(f)
    there, conj(zeta_0) (conj(phi_n) F - conj(psi_n)). The residual is the
    largest negative Fourier mode of either over max |g_n|; the second line
    is identically 0 at the top level of a lambda ladder, so its own
    maximum would be rounding noise. The witness is _zero_free(g_n).
    F(t) and conj(zeta_0 B_{n-1}) are held on the whole grid, the latter
    growing one factor per level, and the two lines of one level; phi_n
    and psi_n are evaluated, and the lines formed, one block at a time.
    """
    levels = list(levels)
    _, t = boundary_grid(system.n_points)
    f_t = np.asarray(F(t))
    conj_zeta0 = np.conj(system.kernel.zeta0(t))
    out = {}
    conj_zeros = np.ones_like(t)
    lines = np.empty((2, t.size), dtype=complex)
    for m in range(max(levels) + 1):
        if m == 1:
            conj_zeros = conj_zeta0
        elif m > 1:
            conj_zeros = conj_zeros * np.conj(blaschke_factor(system.poles, m - 1, t))
        if m in levels:
            lv = system.level(m)
            for block in _blocks(t.size, (lv.phi, lv.psi)):
                phi, psi = evaluate_stack((lv.phi, lv.psi), t[block])
                f = f_t[block]
                lines[0, block] = (phi * f + psi) * conj_zeros[block]
                lines[1, block] = conj_zeta0[block] * (np.conj(phi) * f - np.conj(psi))
            scale = float(np.max(np.abs(lines[0])))
            out[m] = np.max(_negative_modes(lines, scale)), _zero_free(lines[0])
    resid, witness = np.array([out[n] for n in levels], dtype=float).T
    return resid, witness


def _four(lv: OrfLevel):
    return lv.phi, lv.phi_star, lv.psi, lv.psi_star


def second_kind_functional_residual_stack(system: OrfSystem, mu: CircleMeasure, levels, seed: int = 0):
    """Residuals of the extended functional identities relating phi_n, psi_n
    through the kernel, one per level, as an array: each tests a random
    multiplier f in L_{(n-1)*} and g in zeta_{n*} L_{(n-1)*}, relative sup
    over six points of the circle. There a substar h_*(t) is conj(h(t)),
    and g enters divided by zeta_n. phi_n f_* and phi_n^* g_*/zeta_n of
    every level go through one _herglotz_sums pass, which evaluates them
    one grid block at a time.
    """
    levels = list(levels)
    poles, n_points = system.poles, system.n_points
    theta, t = boundary_grid(n_points)
    # on the circle h_* is as tame as h, and off the grid the means never meet 0/0
    zs = _circle_nodes(6, n_points)
    # the coefficients of f, g of each level: points of the unit disk, drawn
    # from a generator seeded afresh per level
    mults = []
    for n in levels:
        coeffs = np.split(_disk_sample(seed, 1.0, 2 * max(n, 1)), 2)
        mults += [RatFun(poles, c, max(n - 1, 0)) for c in coeffs]

    def multipliers(z):
        # f_* and g_*/zeta_n of every level at z on the circle, (levels, 2, z.size)
        fg = np.conj(evaluate_stack(mults, z)).reshape(-1, 2, z.size)
        for i in np.flatnonzero(levels):
            fg[i, 1] /= blaschke_factor(poles, levels[i], z)
        return fg

    phis = [f for n in levels for f in (system.level(n).phi, system.level(n).phi_star)]
    at_zs = evaluate_stack([f for n in levels for f in _four(system.level(n))], zs).reshape(-1, 4, zs.size)
    fg_z = multipliers(zs)
    h_z = (at_zs[:, :2] * fg_z).reshape(-1, zs.size)

    def rows(block):
        return evaluate_stack(phis, t[block]) * multipliers(t[block]).reshape(len(phis), -1)

    d_hw, h_w = _herglotz_sums(system.kernel, mu.weight(theta), zs, rows)
    herglotz = (d_hw[:-1] - h_z * d_hw[-1]).reshape(-1, 2, zs.size) / n_points
    # the mean enters the f line with +, the g line with -, as does psi
    sign = np.array([1.0, -1.0])[:, None]
    lhs = herglotz + sign * h_w[:-1].reshape(-1, 2, 1) / n_points
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
