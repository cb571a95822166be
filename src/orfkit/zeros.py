"""Zeros of polynomials: on the unit circle from the phase, inside a disk
by the Schur-Cohn test.

`circle_zeros` finds the zeros of self-reciprocal polynomials, such as
the numerators of para-orthogonal functions, as the zeros of a real
trigonometric line, bracketed on a grid and refined by Newton steps;
`zeros_inside` says whether every zero lies in a disk without finding
any. Neither factors a matrix, so no LAPACK code is loaded for them.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ZeroCollision, ZeroOffCircle
from .ratfun import _BLOCK_BYTES

# the phase line of a numerator of degree m is read on at least this many
# points per zero, and on at most _PHASE_GRID_MAX before a zero it cannot
# bracket is called off the circle
_PHASE_POINTS = 16
_PHASE_GRID_MAX = 1 << 16
# the grid is turned by this fraction of a step, so that no zero at a
# rational multiple of pi sits on the point where the line wraps
_PHASE_OFFSET = 0.37
_EPS = np.finfo(float).eps


def circle_zeros(numerators) -> list:
    """The zeros of each polynomial of numerators (constant first), sorted
    by angle; all must lie on the unit circle and be simple.

    All zeros of a polynomial c of degree m lie on the circle exactly when
    it is self-reciprocal, c_j = kappa conj(c_{m-j}) with |kappa| = 1, as
    the numerators of the para-orthogonal phi_n + tau phi_n^* are
    (Bultheel et al. 1999, ch. 5; Jones, Njåstad & Thron, Bull. LMS 21,
    1989). Then g(theta) = c(e^(i theta)) e^(-i (arg kappa + m theta)/2)
    is real, and its zeros are the zeros' angles. A polynomial further
    than 1e-9 from self-reciprocal raises ZeroOffCircle, naming that
    defect (`_phase_lines`). `_brackets` finds an interval about every
    zero of the others, `_phase_roots` refines the zeros of every
    polynomial together, and `_collisions` raises ZeroCollision for two
    zeros closer than 1e-8, or with g between them at rounding. Each
    polynomial is cut after its last coefficient above 1e-13 of its
    largest; one that is 0, or then of degree 0, raises DomainError
    before any zeros are sought. Then the first polynomial whose zeros
    fail raises.
    """
    if not numerators:
        return []
    lines, m, defect = _phase_lines(numerators)
    nu = 1j * (np.arange(lines.shape[1]) - 0.5 * m[:, None])
    # a bound on the rounding of g at any angle in [0, 2 pi + one step]
    tol = 8.0 * _EPS * np.sum(np.abs(lines) * (1.0 + 7.0 * np.abs(nu)), axis=1)
    ok = defect <= 1e-9
    errors = {
        int(i): ZeroOffCircle(f"para zero left the circle: self-reciprocity defect {defect[i]:.2e}")
        for i in np.flatnonzero(~ok)
    }
    row, lo, hi, up, start = _brackets(lines, m, nu, tol, ok, errors)
    at = lines[row], nu[row]
    theta = _phase_roots(*at, lo, hi, up, tol[row], start)
    _collisions(*at, tol[row], row, theta, errors)
    if errors:
        raise errors[min(errors)]
    z = np.exp(1j * theta)
    z = z[np.lexsort((np.angle(z), row))]
    return np.split(z, np.cumsum(np.bincount(row, minlength=len(numerators)))[:-1])


def _phase_lines(numerators):
    """(lines, m, defect) of the numerators. Numerator i, cut after
    its last coefficient above 1e-13 of its largest, has degree m[i]; row i
    of lines holds it over its largest, zero-padded, times e^(-i arg(kappa)/2)
    for the unimodular kappa of the least-squares fit c_j = kappa conj(c_{m-j}).
    defect[i] is max_j |c_j - kappa conj(c_{m-j})| / max |c|. A zero
    numerator, or one of degree 0, raises DomainError, the first in order."""
    size = max(c.size for c in numerators)
    c = np.zeros((len(numerators), size), dtype=complex)
    for i, numer in enumerate(numerators):
        c[i, : numer.size] = numer
    mag = np.abs(c)
    scale = mag.max(axis=1)
    m = size - 1 - np.argmax(~(mag < 1e-13 * scale[:, None])[:, ::-1], axis=1)
    bad = np.flatnonzero((scale == 0.0) | (m < 1))
    if bad.size:
        raise DomainError("zero numerator" if scale[bad[0]] == 0.0 else "numerator degree must be >= 1")
    j = np.arange(size)
    lines = np.where(j <= m[:, None], c / scale[:, None], 0.0)
    mirror = np.where(j <= m[:, None], np.take_along_axis(lines, np.maximum(m[:, None] - j, 0), axis=1), 0.0)
    kappa = np.sum(lines * mirror, axis=1)
    kappa = np.where(kappa == 0, 1.0, kappa / np.abs(kappa))
    defect = np.max(np.abs(lines - kappa[:, None] * np.conj(mirror)), axis=1)
    return lines * np.exp(-0.5j * np.angle(kappa))[:, None], m, defect


def _phase_values(coeffs, nu, theta):
    """f and f' at theta of each row of f = Re sum_j coeffs_j e^(nu_j theta),
    nu_j = i (j - m/2): the phase line g for coeffs = lines, its derivative
    g' for coeffs = lines nu."""
    terms = coeffs * np.exp(nu * theta[:, None])
    return terms.sum(axis=1).real, (terms * nu).sum(axis=1).real


def _grid_line(coeffs, m, n_grid):
    """The f of `_phase_values` of each row at theta_k = (k + _PHASE_OFFSET) 2 pi / n_grid,
    k = 0..n_grid, from one FFT; the last is (-1)^m times the first, a turn on."""
    theta = (np.arange(n_grid) + _PHASE_OFFSET) * (2.0 * np.pi / n_grid)
    shifted = coeffs * np.exp(1j * theta[0] * np.arange(coeffs.shape[1]))
    vals = (np.fft.ifft(shifted, n_grid, axis=1) * n_grid * np.exp(-0.5j * np.outer(m, theta))).real
    return np.concatenate([vals, np.where(m[:, None] % 2, -vals[:, :1], vals[:, :1])], axis=1)


def _brackets(lines, m, nu, tol, ok, errors):
    """(row, lo, hi, up, start) of every zero of the phase lines ok, sorted
    by row and then by angle: the zero lies in [lo, hi], up says whether g > 0
    at lo, and start is the first guess. The lines are read on one grid of
    `_PHASE_POINTS` points per zero of the longest, a block of lines within
    _BLOCK_BYTES at a time; each sign change brackets one zero, started at
    the secant through its ends. A line with fewer than m sign changes goes
    to `_short_line`, and the error it finds into errors."""
    n_grid = max(16, 1 << (_PHASE_POINTS * (int(m.max()) + 1) - 1).bit_length())
    h = 2.0 * np.pi / n_grid
    parts = []
    step = max(1, _BLOCK_BYTES // (16 * n_grid))
    for first in range(0, m.size, step):
        block = np.arange(first, min(first + step, m.size))
        g = _grid_line(lines[block], m[block], n_grid)
        pos = g > 0
        change = (pos[:, :-1] != pos[:, 1:]) & ok[block, None]
        short = ok[block] & (np.count_nonzero(change, axis=1) < m[block])
        r, k = np.nonzero(change & ~short[:, None])
        lo = (k + _PHASE_OFFSET) * h
        parts.append((block[r], lo, lo + h, pos[r, k], lo + h * g[r, k] / (g[r, k] - g[r, k + 1])))
        for i in block[short]:
            found = _short_line(lines[i : i + 1], m[i : i + 1], nu[i : i + 1], tol[i], n_grid)
            if isinstance(found, Exception):
                errors[int(i)] = found
            else:
                parts.append((np.full(found[0].size, i), *found, 0.5 * (found[0] + found[1])))
    row, lo, hi, up, start = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((lo, row))
    return row[order], lo[order], hi[order], up[order], start[order]


def _short_line(line, m, nu, tol, n_grid):
    """(lo, hi, up) of the m zeros of one phase line (a row) whose grid shows
    fewer sign changes, or the error it raises. Two zeros with no sign
    change between them lie about an inward extremum of g: a positive
    minimum or a negative maximum, found where g' changes sign against g.
    When g crosses 0 there, that splits a bracket in two; when it stays
    within tol of 0 the zeros coincide, ZeroCollision (their separation
    read from g'' there); else they are a pair off the circle,
    ZeroOffCircle by sqrt(2 |g| / |g''|). When the extrema do not account
    for every zero, the grid grows fourfold, up to _PHASE_GRID_MAX, where
    ZeroOffCircle says how many of the m zeros it placed."""
    slope = line * nu
    while True:
        h = 2.0 * np.pi / n_grid
        pos, rising = _grid_line(line, m, n_grid)[0] > 0, _grid_line(slope, m, n_grid)[0] > 0
        cells = np.flatnonzero(pos[:-1] != pos[1:])
        lo, up = (cells + _PHASE_OFFSET) * h, pos[cells]
        cells = np.flatnonzero((rising[:-1] != rising[1:]) & (rising[:-1] != pos[:-1]) & (pos[:-1] == pos[1:]))
        x_lo, inward = (cells + _PHASE_OFFSET) * h, pos[cells]
        at = np.zeros(cells.size, dtype=int)
        x = _phase_roots(slope[at], nu[at], x_lo, x_lo + h, rising[cells], 0.0, x_lo + 0.5 * h)
        gx, gxx = _phase_values(line[at], nu[at], x)[0], _phase_values(slope[at], nu[at], x)[1]
        cross = ((gx > 0) != inward) & (np.abs(gx) > tol)
        if lo.size + 2 * np.count_nonzero(cross) == m[0]:
            return (np.concatenate([lo, x_lo[cross], x[cross]]), np.concatenate([lo + h, x[cross], x_lo[cross] + h]),
                    np.concatenate([up, inward[cross], ~inward[cross]]))
        spread = np.sqrt(2.0 * np.abs(gx) / np.maximum(np.abs(gxx), 1e-300))
        off = ~cross & (np.abs(gx) > tol)
        if off.any():
            return ZeroOffCircle(f"para zero left the circle by {spread[off].max():.2e}")
        if (~cross).any():
            return ZeroCollision(f"para zeros separated by only {2.0 * spread[~cross].min():.2e}")
        if n_grid >= _PHASE_GRID_MAX:
            placed = lo.size + 2 * np.count_nonzero(cross)
            return ZeroOffCircle(f"para zero left the circle: {placed} of {m[0]} zeros placed on it")
        n_grid *= 4


def _phase_roots(coeffs, nu, lo, hi, up, tol, x):
    """The zero in [lo, hi] of the f of `_phase_values` of each row, up
    saying whether f > 0 at lo: safeguarded Newton steps from x, all rows
    together, a step that leaves the bracket replaced by bisection. A row
    stops after a Newton step below 1e-8, as the next would move it by
    rounding only, or one taken where |f| is within its rounding bound
    tol, past which the steps follow the rounding."""
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


def _collisions(lines, nu, tol, row, theta, errors):
    """ZeroCollision into errors for each line with two neighbouring zeros
    closer than 1e-8 on the circle, or closer than 1e-4 with g at rounding
    (within tol) midway between them: a double zero that rounding split.
    theta holds the zeros of each line (a run of row) in increasing order,
    and the first one turn on follows the last."""
    if not row.size:
        return
    idx = np.arange(row.size)
    last = np.flatnonzero(np.append(row[1:] != row[:-1], True))
    nxt = idx + 1
    nxt[last] = np.append(0, last[:-1] + 1)
    second = theta[nxt] + np.where(nxt <= idx, 2.0 * np.pi, 0.0)
    sep = np.abs(np.exp(1j * second) - np.exp(1j * theta))
    near = np.flatnonzero((nxt != idx) & (sep < 1e-4))
    if not near.size:
        return
    g, _ = _phase_values(lines[near], nu[near], 0.5 * (theta + second)[near])
    bad = near[(sep[near] < 1e-8) | (np.abs(g) <= tol[near])]
    for i in np.unique(row[bad]):
        errors.setdefault(int(i), ZeroCollision(f"para zeros separated by only {sep[bad[row[bad] == i]].min():.2e}"))


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
