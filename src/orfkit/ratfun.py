"""Complex rational functions with a fixed pole sequence inside the unit disk.

A rational function of degree n is stored as numerator coefficients
c_0..c_n over the denominator pi_n(z) = prod_{j=1..n} (1 - conj(beta_j) z).
No common-factor cancellation is ever performed: the representation is
canonical, and the superstar conjugate is a pure coefficient reversal.

The distinguished point beta_0 never enters a denominator, but it anchors
the first Blaschke factor zeta_0 and both kernels.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DomainError,
    KernelSingularity,
    PoleMismatch,
    PoleProximity,
)

# Pole-proximity guard: reject |1 - conj(beta) z| < TAU_POLE * (1 + |z|).
TAU_POLE = 1e-13


def _pole_tol(z):
    return TAU_POLE * (1.0 + np.abs(z))


class PoleSequence:
    """Points beta_0, beta_1, ... strictly inside the unit disk.

    beta_0 is a first-class entry: it never appears in a denominator but
    defines zeta_0 and the kernels. Repeated entries are allowed.
    """

    __slots__ = ("beta", "_ups")

    def __init__(self, beta):
        arr = np.atleast_1d(np.asarray(beta, dtype=complex)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("pole sequence must be a nonempty 1-d list")
        if not (np.abs(arr) < 1.0).all():
            raise DomainError("all poles beta_k must satisfy |beta_k| < 1")
        arr.flags.writeable = False
        self.beta = arr
        self._ups = [1.0 + 0.0j]

    def __len__(self):
        return self.beta.size

    def __eq__(self, other):
        return isinstance(other, PoleSequence) and np.array_equal(self.beta, other.beta)

    def __repr__(self):
        return f"PoleSequence({list(self.beta)})"

    def eta(self, k):
        """Unimodular constant eta_k = conj(beta_k)/|beta_k|, or 1 for beta_k = 0."""
        b = self.beta[k]
        return np.conj(b) / abs(b) if b != 0 else 1.0 + 0.0j

    def upsilon(self, k):
        """Product eta_1 * ... * eta_k (equals 1 for k <= 0).

        The prefix products are kept as they are first asked for, each one
        the previous times the next eta, as a running product would form it.
        A longer list is built on a copy and stored in one assignment, so
        callers racing on one sequence at worst repeat the work.
        """
        ups = self._ups
        if len(ups) <= k:
            ups = list(ups)
            while len(ups) <= k:
                ups.append(ups[-1] * self.eta(len(ups)))
            self._ups = ups
        return ups[max(k, 0)]

    def varpi(self, k, z):
        """1 - conj(beta_k) z."""
        return 1.0 - np.conj(self.beta[k]) * np.asarray(z, dtype=complex)

    def varpi_star(self, k, z):
        """z - beta_k."""
        return np.asarray(z, dtype=complex) - self.beta[k]

    def pi(self, n, z):
        """prod_{j=1..n} (1 - conj(beta_j) z), without proximity checks."""
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for j in range(1, n + 1):
            out = out * (1.0 - np.conj(self.beta[j]) * z)
        return out

    def shifted(self, k):
        """The sequence beta_k, beta_{k+1}, ... used by order-k associated systems."""
        if not 0 <= k < len(self):
            raise DomainError(f"shift index {k} out of range")
        return PoleSequence(self.beta[k:])


class RatFun:
    """Element c(z)/pi_n(z) of the space spanned by B_0..B_n.

    The degree n is declared, not inferred: trailing zero coefficients are
    legal and meaningful (the superstar is taken at the declared degree).
    """

    __slots__ = ("poles", "n", "numer")

    def __init__(self, poles: PoleSequence, numer, n: int | None = None):
        arr = np.array(numer, dtype=complex, ndmin=1)
        if n is None:
            n = arr.size - 1
        if arr.size != n + 1:
            raise DomainError(f"degree {n} needs {n + 1} coefficients, got {arr.size}")
        if len(poles) < n + 1:
            raise DomainError(f"pole sequence too short for degree {n}")
        arr.flags.writeable = False
        self.poles = poles
        self.n = n
        self.numer = arr

    def __call__(self, z):
        return evaluate(self, z)

    def __eq__(self, other):
        return (
            isinstance(other, RatFun)
            and self.n == other.n
            and np.array_equal(self.numer, other.numer)
            and np.array_equal(self.poles.beta[: self.n + 1], other.poles.beta[: self.n + 1])
        )

    def __mul__(self, c):
        if isinstance(c, (int, float, complex, np.number)):
            return RatFun(self.poles, self.numer * c, self.n)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"RatFun(n={self.n}, numer={list(self.numer)})"


def evaluate(f: RatFun, z) -> complex | np.ndarray:
    """Evaluate f at z (scalar or array): Horner numerator over the pole product.

    Raises PoleProximity if any point is within tolerance of a pole
    1/conj(beta_j), j = 1..n. This is the one-member case of evaluate_stack.
    """
    out = evaluate_stack((f,), z)[0]
    return out if out.ndim else complex(out)


def evaluate_stack(fs, z) -> np.ndarray:
    """Values of the RatFuns fs at z, as an array of shape (len(fs),) + shape(z).

    The functions may have different degrees but must share one pole prefix:
    each f over beta_0..beta_{f.n} must agree there with the member of
    highest degree n (PoleMismatch otherwise). The denominators pi_0..pi_n
    come from one running product and the pole-proximity test runs once;
    one Horner pass runs over the stacked numerators of each degree, and
    each row is divided by its own pi. Each row is bit-identical to
    evaluate on that function alone. Points near a pole of the
    highest-degree member raise PoleProximity for the whole stack.
    """
    top = max(fs, key=lambda f: f.n)
    beta = top.poles.beta
    for f in fs:
        if not (f.poles is top.poles or np.array_equal(f.poles.beta[: f.n + 1], beta[: f.n + 1])):
            raise PoleMismatch("stacked functions need one pole prefix")
    z = np.asarray(z, dtype=complex)
    conj_beta = np.conj(beta[1 : top.n + 1])
    if top.n:
        _pole_guard(conj_beta, z)
    rows = {}
    for i, f in enumerate(fs):
        rows.setdefault(f.n, []).append(i)
    out = np.empty((len(fs),) + z.shape, dtype=complex)
    pi = np.ones_like(z)
    for j in range(top.n + 1):
        if j:
            pi = pi * (1.0 - conj_beta[j - 1] * z)
        if j in rows:
            out[rows[j]] = _horner(np.array([fs[i].numer for i in rows[j]]), z) / pi
    return out


def _horner(numers, z):
    """The rows numers (m, n+1) of polynomial coefficients, evaluated at z.

    Horner runs as c_n + 0 z, then c_{n-i} + acc z: the same operations, in
    the same order, as numpy.polynomial's polyval.
    Horner runs on z1, z with a leading axis of length 1, so a single
    member at a single point multiplies two arrays of one shape: numpy
    takes a different complex-multiply loop for a one-element broadcast,
    and that one rounds differently.
    The sum is taken in place, so a pass holds two tables of values, not
    three; a complex sum has the same bits in either order. The product is
    not: numpy's in-place multiply rounds one-element arrays differently.
    """
    c = numers.reshape(numers.shape + (1,) * z.ndim)
    z1 = z[None]
    acc = c[:, -1] + z1 * 0
    for i in range(2, numers.shape[1] + 1):
        acc = acc * z1
        acc += c[:, -i]
    return acc


def _pole_guard(conj_beta, z):
    """PoleProximity naming the first j with |1 - conj(beta_j) z| < TAU_POLE (1 + |z|)
    at some point.

    As |1 - conj(b) z| >= 1 - |b||z|, no factor is near where
    1 - max|b| |z| clears twice the tolerance; only the other points are
    tested factor by factor. Both sides are monotone in |z| in floating
    point too, so when the largest |z| clears, every point does.
    """
    abs_z = np.abs(z)
    b_max = float(np.abs(conj_beta).max())
    z_max = float(abs_z.max(initial=0.0))
    if 1.0 - b_max * z_max > 2.0 * TAU_POLE * (1.0 + z_max):
        return
    tol = TAU_POLE * (1.0 + abs_z)
    near = 1.0 - b_max * abs_z <= 2.0 * tol
    if np.any(near):
        zn, tn = z[near], tol[near]
        for j, cb in enumerate(conj_beta, start=1):
            if np.any(np.abs(1.0 - cb * zn) < tn):
                raise PoleProximity(f"evaluation within tolerance of pole 1/conj(beta_{j})")


def substar_eval(f: RatFun, z) -> complex | np.ndarray:
    """Evaluate the substar conjugate f_*(z) = conj(f(1/conj(z))).

    On |z| = 1 this equals conj(f(z)). z = 0 is rejected unless f is
    constant (degree 0), where the limit is conj(c_0).
    """
    z = np.asarray(z, dtype=complex)
    if f.n == 0:
        out = np.full_like(z, np.conj(f.numer[0]))
        return out if out.ndim else complex(out)
    if np.any(np.abs(z) < _pole_tol(z)):
        raise DomainError("substar of a non-constant function is singular at z = 0")
    return np.conj(evaluate(f, 1.0 / np.conj(z)))


def superstar(f: RatFun) -> RatFun:
    """Superstar conjugate f^* = B_n f_* at the declared degree n.

    At coefficient level this is reversal plus conjugation times the
    unimodular constant upsilon_n; the denominator is unchanged.
    """
    ups = f.poles.upsilon(f.n)
    return RatFun(f.poles, ups * np.conj(f.numer[::-1]), f.n)


def blaschke_factor(poles: PoleSequence, k: int, z) -> complex | np.ndarray:
    """Blaschke factor zeta_k(z) = eta_k (z - beta_k)/(1 - conj(beta_k) z).

    Unimodular on |z| = 1, zero at beta_k; reduces to z when beta_k = 0.
    """
    z = np.asarray(z, dtype=complex)
    den = poles.varpi(k, z)
    if (np.abs(den) < _pole_tol(z)).any():
        raise PoleProximity(f"zeta_{k} evaluated too close to its pole")
    out = poles.eta(k) * poles.varpi_star(k, z) / den
    return out if out.ndim else complex(out)


def blaschke_product(poles: PoleSequence, k: int, z) -> complex | np.ndarray:
    """Blaschke product B_k(z) = zeta_1...zeta_k, k >= 0; B_0 = 1."""
    z = np.asarray(z, dtype=complex)
    if k < 0:
        raise DomainError("Blaschke product index must be >= 0")
    out = np.ones_like(z)
    for j in range(1, k + 1):
        out = out * blaschke_factor(poles, j, z)
    return out if out.ndim else complex(out)


class KernelParams:
    """The distinguished point beta_0 anchoring the two circle kernels."""

    __slots__ = ("beta0",)

    def __init__(self, beta0):
        beta0 = complex(beta0)
        if not abs(beta0) < 1.0:
            raise DomainError("|beta_0| < 1 required")
        self.beta0 = beta0

    def zeta0(self, z):
        z = np.asarray(z, dtype=complex)
        den = 1.0 - np.conj(self.beta0) * z
        if (np.abs(den) < _pole_tol(z)).any():
            raise PoleProximity("zeta_0 evaluated too close to its pole")
        eta0 = np.conj(self.beta0) / abs(self.beta0) if self.beta0 != 0 else 1.0
        return eta0 * (z - self.beta0) / den


def herglotz_kernel(kp: KernelParams, t, z) -> complex | np.ndarray:
    """Riesz-Herglotz kernel D(t, z) = (zeta_0(t) + zeta_0(z))/(zeta_0(t) - zeta_0(z)).

    Equals 1 at z = beta_0 for every admissible t.
    """
    zt = np.asarray(kp.zeta0(t))
    zz = np.asarray(kp.zeta0(z))
    den = zt - zz
    if np.any(np.abs(den) < 1e-12 * (np.abs(zt) + np.abs(zz) + 1.0)):
        raise KernelSingularity("Herglotz kernel evaluated with zeta_0(t) ~ zeta_0(z)")
    out = (zt + zz) / den
    return out if out.ndim else complex(out)


def poisson_kernel(kp: KernelParams, t, z) -> complex | np.ndarray:
    """Poisson kernel P(t, z) for t on the circle and z in the disk.

    Computed from the closed product form; the value is real and positive
    (any imaginary part is rounding noise). P(t, beta_n) is the weight P_n.
    """
    t = np.asarray(t, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if not np.all(np.abs(np.abs(t) - 1.0) <= 1e-8):
        raise DomainError("Poisson kernel requires |t| = 1")
    if not np.all(np.abs(z) < 1.0):
        raise DomainError("Poisson kernel requires |z| < 1")
    b0 = kp.beta0
    num = (1.0 - np.abs(z) ** 2) * (1.0 - np.conj(b0) * t) * (t - b0)
    den = (1.0 - abs(b0) ** 2) * (1.0 - np.conj(z) * t) * (t - z)
    out = num / den
    return out if out.ndim else complex(out)
