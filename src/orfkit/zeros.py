"""Zeros on the unit circle from a ladder's lifted phase, and inside a disk
by the Schur-Cohn test.

`phase_zeros` finds the zeros of a para-orthogonal phi_n + tau phi_n^* from
the ladder's recurrence data, reading no numerator; `zeros_inside` says
whether every zero of a polynomial lies in a disk without finding any.
Neither factors a matrix, so no LAPACK code is loaded for them.
"""

from __future__ import annotations

import numpy as np


def phase_zeros(beta, phi0, params, tau):
    """(z, s): the n zeros z of phi_n + tau phi_n^*, sorted by angle, and
    s = sum_{k<n} |phi_k|^2 at each, for the ladder with poles beta_0..beta_n,
    constant phi_0 = phi0 and the pairs (lambda_k, rho_k) of params, e_k
    orthonormal; tau is unimodular.

    On the circle u_n = phi_n/phi_n^* is a Blaschke product of degree n
    (Bultheel et al. 1999, ch. 5), so its lifted phase Phi_n rises strictly,
    by 2 pi n a turn (`_lifted_phase`), and the zeros are where it meets
    arg(-tau) + 2 pi j. One pass on 4(n + 1) angles brackets each target,
    the bracket widened by 1/64 of a step on each side for a crossing that
    rounding puts just past its end. From the monotone cubic Hermite
    inverse, safeguarded Newton steps refine the zeros not yet done; one is
    done after a step s <= 1e-15, or one whose successor C s^2, C = s/s'^2
    from the Newton step s' before, is below 1e-16 (where phi_n has a zero
    near the circle the phase can turn within 1e-9 rad, and a fixed bound
    of 1e-9 on s left nodes 2e-10 off), or once its bracket is 4e-15 wide.
    """
    beta = np.asarray(beta, dtype=complex)
    lam, rho = np.array(params, dtype=complex).reshape(-1, 2).T
    # arg kappa_k, as arg eta_k = -arg beta_k; then for k < n conj(beta_k), 1 - |beta_k|^2, arg eta_k plus
    # arg u_0 = 2 arg phi_0 or arg kappa_k, and lambda_k, 1 - |lambda_k|^2, and last arg kappa_n
    turn = 2.0 * np.angle(rho) + np.angle(beta[1:]) - np.angle(beta[:-1])
    ladder = (np.conj(beta[:-1])[:, None], (1.0 - np.abs(beta[:-1]) ** 2)[:, None],
              (np.append(2.0 * np.angle(phi0), turn[:-1]) - np.angle(beta[:-1]))[:, None],
              lam, (1.0 - np.abs(lam) ** 2)[:, None], turn[-1:])
    n, count = lam.size, 4 * (lam.size + 1)
    h = 2.0 * np.pi / count
    grid = -np.pi + h * np.arange(count + 1)
    phase, slope, _ = _lifted_phase(ladder, grid[:-1])
    phase, slope = np.append(phase, phase[0] + 2.0 * np.pi * n), np.append(slope, slope[0])
    target = np.angle(-tau) + 2.0 * np.pi * (np.ceil((phase[0] - np.angle(-tau)) / (2.0 * np.pi)) + np.arange(n))
    i = np.clip(np.searchsorted(phase, target, side="right") - 1, 0, count - 1)
    # theta against the phase on the bracket, slopes capped at 3 times the chord (Fritsch & Carlson 1980)
    d = phase[i + 1] - phase[i]
    u = np.clip((target - phase[i]) / d, 0.0, 1.0)
    m0, m1 = np.minimum(d / slope[i], 3.0 * h), np.minimum(d / slope[i + 1], 3.0 * h)
    x = grid[i] + u * u * (3.0 - 2.0 * u) * h + u * (1.0 - u) * ((1.0 - u) * m0 - u * m1)
    lo, hi, last = grid[i] - h / 64, grid[i + 1] + h / 64, np.zeros(n)
    active = np.arange(n)
    for _ in range(60):
        if not active.size:
            break
        xa = x[active]
        f, slope, _ = _lifted_phase(ladder, xa)
        f = f - target[active]
        lo[active], hi[active] = np.where(f < 0, xa, lo[active]), np.where(f < 0, hi[active], xa)
        new = xa - f / slope
        newton = (new >= lo[active]) & (new <= hi[active])
        x[active] = np.where(newton, new, 0.5 * (lo[active] + hi[active]))
        step = np.where(newton, np.abs(new - xa), 0.0)
        done, last[active] = newton & ((step <= 1e-15) | (step**3 <= 1e-16 * last[active] ** 2)), step
        active = active[~done & (hi[active] - lo[active] > 4e-15)]
    z, s = np.exp(1j * x), _lifted_phase(ladder, x)[2] * abs(phi0) ** 2
    order = np.argsort(np.angle(z), kind="stable")
    return z[order], s[order]


def _lifted_phase(ladder, theta):
    """(Phi_n, Phi_n', s) at the angles theta: the lifted phase of
    u_n = phi_n/phi_n^* at t = e^(i theta), its derivative, and
    s = sum_{k<n} |phi_k|^2 / |phi_0|^2, for the columns `phase_zeros` makes.

    The recurrence gives u_k = kappa_k (v + conj lambda_k)/(1 + lambda_k v),
    v = zeta_{k-1}(t) u_{k-1}, kappa_k = (rho_k/conj rho_k) conj(eta_k) eta_{k-1}.
    So Phi_k = arg kappa_k + x_k - 2 arg(1 + lambda_k e^(i x_k)), with
    x_k = Phi_{k-1} + theta + arg eta_{k-1} - 2 arg(1 - conj(beta_{k-1}) t),
    each arg that of a number with positive real part, so nothing is
    unwrapped: the loop carries e^(i x_k) by that Moebius map, and the args
    are summed after it. With P_j = (1 - |beta_j|^2)/|t - beta_j|^2 and
    q_k = (1 - |lambda_k|^2)/|1 + lambda_k e^(i x_k)|^2, Phi_k' = (Phi_{k-1}' + P_{k-1}) q_k,
    so Phi_n' = sum_{k<n} P_k q_{k+1}...q_n > 0; and |phi_k|^2 = |phi_{k-1}|^2 (P_k/P_{k-1})/q_k,
    so s = Phi_n'/(P_0 q_1...q_n), the Christoffel-Darboux formula.
    """
    conj_beta, pole_mass, level_arg, lam, lam_mass, last_arg = ladder
    w = 1.0 - conj_beta * np.exp(1j * theta)
    poisson = pole_mass / np.abs(w) ** 2
    shift = theta + level_arg - 2.0 * np.arctan2(w.imag, w.real)
    turn, vs = np.exp(1j * shift), []
    e = turn[0]
    for lam_k, conj_lam_k, turn_k in zip(lam, np.conj(lam), [*turn[1:], 1.0]):
        v = 1.0 + lam_k * e
        e = (e + conj_lam_k) / v * turn_k
        vs.append(v)
    v = np.reshape(vs, (lam.size, theta.size))
    q = lam_mass / np.abs(v) ** 2
    slope = (poisson * q[::-1].cumprod(axis=0)[::-1]).sum(axis=0)
    phase = shift.sum(axis=0) + last_arg - 2.0 * np.arctan2(v.imag, v.real).sum(axis=0)
    return phase, slope, slope / (poisson[0] * q.prod(axis=0))


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
