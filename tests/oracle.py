"""A 60-digit rerun of a ladder's recurrence, for the tests.

The stored poles beta_0..beta_m and parameters (lambda_n, rho_n) of a
ladder are taken as exact, and `recurrence_step` is run again in mpmath:
phi_n = e_n rho_n (eta_{n-1} (z - beta_{n-1}) phi_{n-1}
+ conj(lambda_n) (1 - conj(beta_{n-1}) z) phi*_{n-1}), phi*_n its superstar,
e_n at its orthonormal value. What the double build leaves off these
numerators is its own rounding, not an error in its data.
"""

import mpmath

DIGITS = 60


def _mpc(z):
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def _times_linear(c0, c1, f):
    """The coefficients, constant first, of (c0 + c1 z) f(z)."""
    return [c0 * a + c1 * b for a, b in zip(f + [0], [0] + f)]


def phi_numerators(system):
    """The numerators of phi_0..phi_m of the ladder, constant first, as
    lists of mpmath complex numbers at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        beta = [_mpc(b) for b in system.poles.beta[: system.n_max + 1]]
        eta = [mpmath.conj(b) / abs(b) if b != 0 else mpmath.mpc(1) for b in beta]
        phi = [_mpc(system.levels[0].phi.numer[0])]
        star, ups, out = [mpmath.conj(phi[0])], mpmath.mpc(1), [phi]
        for n, lv in enumerate(system.levels[1:], start=1):
            lam, rho = _mpc(lv.lam), _mpc(lv.rho)
            e = mpmath.sqrt((1 - abs(beta[n]) ** 2) / (1 - abs(beta[n - 1]) ** 2) / (1 - abs(lam) ** 2))
            a = _times_linear(-eta[n - 1] * beta[n - 1], eta[n - 1], phi)
            b = _times_linear(1, -mpmath.conj(beta[n - 1]), star)
            ea, eb = e * rho, e * rho * mpmath.conj(lam)
            phi = [ea * x + eb * y for x, y in zip(a, b)]
            ups *= eta[n]
            star = [ups * mpmath.conj(c) for c in reversed(phi)]
            out.append(phi)
        return out


def coefficient_error(system):
    """Per level n, max |c - c_exact| over the coefficients of the stored
    phi_n, relative to the largest exact one, as floats."""
    exact = phi_numerators(system)
    with mpmath.workdps(DIGITS):
        return [
            float(max(abs(_mpc(c) - x) for c, x in zip(lv.phi.numer, row)) / max(abs(x) for x in row))
            for lv, row in zip(system.levels, exact)
        ]
