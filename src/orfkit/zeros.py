"""Zeros of polynomials: on the unit circle from the phase, inside a disk
by the Schur-Cohn test.

`circle_zeros` finds the zeros of a self-reciprocal polynomial, such as
the numerator of a para-orthogonal function, as the zeros of a real
trigonometric line, bracketed on a grid and refined by Newton steps;
`zeros_inside` says whether every zero lies in a disk without finding
any. Neither factors a matrix, so no LAPACK code is loaded for them.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ZeroCollision, ZeroOffCircle

# the phase line of a numerator of degree m is read on at least this many
# points per zero, and on at most _PHASE_GRID_MAX before a zero it cannot
# bracket is called off the circle
_PHASE_POINTS = 16
_PHASE_GRID_MAX = 1 << 16
# the grid is turned by this fraction of a step, so that no zero at a
# rational multiple of pi sits on the point where the line wraps
_PHASE_OFFSET = 0.37
_EPS = np.finfo(float).eps


def circle_zeros(numer) -> np.ndarray:
    """The zeros of the polynomial numer (constant first), sorted by angle;
    all must lie on the unit circle and be simple.

    All zeros of a polynomial c of degree m lie on the circle exactly when
    it is self-reciprocal, c_j = kappa conj(c_{m-j}) with |kappa| = 1, as
    the numerators of the para-orthogonal phi_n + tau phi_n^* are
    (Bultheel et al. 1999, ch. 5; Jones, Njåstad & Thron, Bull. LMS 21,
    1989). Then g(theta) = c(e^(i theta)) e^(-i (arg kappa + m theta)/2)
    is real, and its zeros are the zeros' angles. A polynomial further
    than 1e-9 from self-reciprocal raises ZeroOffCircle, naming that
    defect (`_phase_line`). `_brackets` finds an interval about every
    zero, `_phase_roots` refines them together, and `_collisions` raises
    ZeroCollision for two zeros closer than 1e-8, or with g between them
    at rounding. The polynomial is cut after its last coefficient above
    1e-13 of its largest; one that is 0, or then of degree 0, raises
    DomainError.
    """
    line, m, defect = _phase_line(numer)
    if not defect <= 1e-9:
        raise ZeroOffCircle(f"para zero left the circle: self-reciprocity defect {defect:.2e}")
    nu = 1j * (np.arange(line.size) - 0.5 * m)
    # a bound on the rounding of g at any angle in [0, 2 pi + one step]
    tol = 8.0 * _EPS * np.sum(np.abs(line) * (1.0 + 7.0 * np.abs(nu)))
    lo, hi, up, start = _brackets(line, m, nu, tol)
    theta = _phase_roots(line, nu, lo, hi, up, tol, start)
    _collisions(line, nu, tol, theta)
    z = np.exp(1j * theta)
    return z[np.argsort(np.angle(z), kind="stable")]


def _phase_line(numer):
    """(line, m, defect) of the numerator c, cut after its last coefficient
    above 1e-13 of its largest, of degree m: line holds it over its largest,
    zero-padded, times e^(-i arg(kappa)/2) for the unimodular kappa of the
    least-squares fit c_j = kappa conj(c_{m-j}), and defect is
    max_j |c_j - kappa conj(c_{m-j})| / max |c|. A zero numerator, or one
    of degree 0, raises DomainError."""
    c = np.asarray(numer, dtype=complex)
    mag = np.abs(c)
    scale = mag.max()
    m = c.size - 1 - int(np.argmax(~(mag < 1e-13 * scale)[::-1]))
    if scale == 0.0 or m < 1:
        raise DomainError("zero numerator" if scale == 0.0 else "numerator degree must be >= 1")
    j = np.arange(c.size)
    line = np.where(j <= m, c / scale, 0.0)
    mirror = np.where(j <= m, line[np.maximum(m - j, 0)], 0.0)
    kappa = np.sum(line * mirror)
    kappa = np.where(kappa == 0, 1.0, kappa / np.abs(kappa))
    defect = np.max(np.abs(line - kappa * np.conj(mirror)))
    return line * np.exp(-0.5j * np.angle(kappa)), m, defect


def _phase_values(coeffs, nu, theta):
    """f and f' at each theta of f = Re sum_j coeffs_j e^(nu_j theta),
    nu_j = i (j - m/2): the phase line g for coeffs = line, its derivative
    g' for coeffs = line nu."""
    terms = coeffs * np.exp(nu * theta[:, None])
    return terms.sum(axis=1).real, (terms * nu).sum(axis=1).real


def _grid_line(coeffs, m, n_grid):
    """The f of `_phase_values` at theta_k = (k + _PHASE_OFFSET) 2 pi / n_grid,
    k = 0..n_grid, from one FFT; the last is (-1)^m times the first, a turn on."""
    theta = (np.arange(n_grid) + _PHASE_OFFSET) * (2.0 * np.pi / n_grid)
    shifted = coeffs * np.exp(1j * theta[0] * np.arange(coeffs.size))
    vals = (np.fft.ifft(shifted, n_grid) * n_grid * np.exp(-0.5j * (m * theta))).real
    return np.append(vals, -vals[0] if m % 2 else vals[0])


def _brackets(line, m, nu, tol):
    """(lo, hi, up, start) of every zero of the phase line, sorted by angle:
    the zero lies in [lo, hi], up says whether g > 0 at lo, and start is the
    first guess. The line is read on a grid of `_PHASE_POINTS` points per
    zero; each sign change brackets one zero, started at the secant through
    its ends. A line with fewer than m sign changes goes to `_short_line`."""
    n_grid = max(16, 1 << (_PHASE_POINTS * (m + 1) - 1).bit_length())
    g = _grid_line(line, m, n_grid)
    pos = g > 0
    k = np.flatnonzero(pos[:-1] != pos[1:])
    if k.size < m:
        lo, hi, up = _short_line(line, m, nu, tol, n_grid)
        start = 0.5 * (lo + hi)
    else:
        h = 2.0 * np.pi / n_grid
        lo = (k + _PHASE_OFFSET) * h
        hi, up, start = lo + h, pos[k], lo + h * g[k] / (g[k] - g[k + 1])
    order = np.argsort(lo, kind="stable")
    return lo[order], hi[order], up[order], start[order]


def _short_line(line, m, nu, tol, n_grid):
    """(lo, hi, up) of the m zeros of a phase line whose grid shows fewer
    sign changes. Two zeros with no sign change between them lie about an
    inward extremum of g: a positive minimum or a negative maximum, found
    where g' changes sign against g. When g crosses 0 there, that splits a
    bracket in two; when it stays within tol of 0 the zeros coincide,
    ZeroCollision (their separation read from g'' there); else they are a
    pair off the circle, ZeroOffCircle by sqrt(2 |g| / |g''|). When the
    extrema do not account for every zero, the grid grows fourfold, up to
    _PHASE_GRID_MAX, where ZeroOffCircle says how many of the m zeros it
    placed."""
    slope = line * nu
    while True:
        h = 2.0 * np.pi / n_grid
        pos, rising = _grid_line(line, m, n_grid) > 0, _grid_line(slope, m, n_grid) > 0
        cells = np.flatnonzero(pos[:-1] != pos[1:])
        lo, up = (cells + _PHASE_OFFSET) * h, pos[cells]
        cells = np.flatnonzero((rising[:-1] != rising[1:]) & (rising[:-1] != pos[:-1]) & (pos[:-1] == pos[1:]))
        x_lo, inward = (cells + _PHASE_OFFSET) * h, pos[cells]
        x = _phase_roots(slope, nu, x_lo, x_lo + h, rising[cells], 0.0, x_lo + 0.5 * h)
        gx, gxx = _phase_values(line, nu, x)[0], _phase_values(slope, nu, x)[1]
        cross = ((gx > 0) != inward) & (np.abs(gx) > tol)
        if lo.size + 2 * np.count_nonzero(cross) == m:
            return (np.concatenate([lo, x_lo[cross], x[cross]]), np.concatenate([lo + h, x[cross], x_lo[cross] + h]),
                    np.concatenate([up, inward[cross], ~inward[cross]]))
        spread = np.sqrt(2.0 * np.abs(gx) / np.maximum(np.abs(gxx), 1e-300))
        off = ~cross & (np.abs(gx) > tol)
        if off.any():
            raise ZeroOffCircle(f"para zero left the circle by {spread[off].max():.2e}")
        if (~cross).any():
            raise ZeroCollision(f"para zeros separated by only {2.0 * spread[~cross].min():.2e}")
        if n_grid >= _PHASE_GRID_MAX:
            placed = lo.size + 2 * np.count_nonzero(cross)
            raise ZeroOffCircle(f"para zero left the circle: {placed} of {m} zeros placed on it")
        n_grid *= 4


def _phase_roots(coeffs, nu, lo, hi, up, tol, x):
    """The zero in [lo, hi] of the f of `_phase_values` for each bracket, up
    saying whether f > 0 at lo: safeguarded Newton steps from x, all
    brackets together, a step that leaves the bracket replaced by
    bisection. A bracket stops after a Newton step below 1e-8, as the next
    would move it by rounding only, or one taken where |f| is within its
    rounding bound tol, past which the steps follow the rounding."""
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(60):
        f, fp = _phase_values(coeffs, nu, x)
        left = (f > 0) == up
        lo, hi = np.where(left, x, lo), np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - f / fp
        newton = (new >= lo) & (new <= hi)
        new = np.where(newton, new, 0.5 * (lo + hi))
        x, done = np.where(done, x, new), done | (newton & ((np.abs(new - x) <= 1e-8) | (np.abs(f) <= tol)))
        if done.all():
            break
    return x


def _collisions(line, nu, tol, theta):
    """ZeroCollision for two neighbouring zeros closer than 1e-8 on the
    circle, or closer than 1e-4 with g at rounding (within tol) midway
    between them: a double zero that rounding split. theta holds the zeros
    in increasing order, and the first one turn on follows the last."""
    if theta.size < 2:
        return
    second = np.append(theta[1:], theta[0] + 2.0 * np.pi)
    sep = np.abs(np.exp(1j * second) - np.exp(1j * theta))
    near = np.flatnonzero(sep < 1e-4)
    if not near.size:
        return
    g, _ = _phase_values(line, nu, 0.5 * (theta + second)[near])
    bad = (sep[near] < 1e-8) | (np.abs(g) <= tol)
    if bad.any():
        raise ZeroCollision(f"para zeros separated by only {sep[near][bad].min():.2e}")


def zeros_inside(c, r) -> bool:
    """Whether every zero of the polynomial c (constant first, last
    coefficient nonzero) lies in |z| < r, by the Schur-Cohn test on
    p(z) = c(r z) (Cohn, Math. Z. 14, 1922): all m zeros of p lie in the
    unit disk exactly when |p_0| < |p_m| and all m - 1 of
    (conj(p_m) p - p_0 p^*)/z do, p^* the reversed conjugate. Each step is
    scaled to its largest coefficient, else the leading ones, which square
    at every step, overflow."""
    p = np.asarray(c, dtype=complex) * r ** np.arange(len(c))
    while p.size > 1:
        p = p / np.max(np.abs(p))
        if not abs(p[0]) < abs(p[-1]):
            return False
        p = (np.conj(p[-1]) * p - p[0] * np.conj(p[::-1]))[1:]
    return True
