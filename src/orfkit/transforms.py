"""Self-reciprocal quad transforms and associated (shifted-recurrence) ladders.

The transform takes a ladder level, multiplies it by a 2x2 matrix of
self-reciprocal rational functions, and divides out the known kernel-times-
Blaschke factor. The division is done synthetically on numerator
polynomials with an explicit remainder bound, which turns the membership
claim of the transform into a checkable quantity.

Associated ladders of order k arise from the particular quad built out of
the level-k para-orthogonal pairs; they are computed both this way and by
running the recurrence with shifted parameters, and the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    ConditionUnchecked,
    DivisionRemainderTooLarge,
    DomainError,
    NumericalFailure,
)
from .measure import (
    CaratheodoryFn,
    CircleMeasure,
    boundary_grid,
    builtin_measure,
    ratio_caratheodory,
    weight_from_caratheodory,
)
from .engine import (
    OrfSystem,
    _level_zero,
    _padded_polymul,
    _run_recurrence,
    caratheodory_from_system,
    identity_residual,
    para_pair,
    zeros_factor,
)
from .ratfun import (
    PoleSequence,
    RatFun,
    blaschke_factor,
    superstar,
)


@dataclass(frozen=True)
class QuadConditionReport:
    """Per-condition residuals of a quad check; relative to natural scales."""

    a1_residual: float
    a2_min: float
    a3_max: float
    a33_min: float
    a42_max: float
    a42_f_min: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SelfReciprocalQuad:
    """Coefficient matrix (A, B, C, D) of a transform, with signature tau_A.

    The four members live over the product space of the first N base poles
    and the r tilde poles; tilde_poles lists the replacement points
    btilde_0..btilde_r (btilde_r = beta_N when orthogonality is wanted).
    """

    A: RatFun
    B: RatFun
    C: RatFun
    D: RatFun
    tau_A: complex
    N: int
    r: int
    tilde_poles: PoleSequence
    report: QuadConditionReport | None = None

    def __post_init__(self):
        if abs(abs(self.tau_A) - 1.0) > 1e-12:
            raise DomainError("tau_A must be unimodular")
        if self.N < 0 or self.r < 0:
            raise DomainError("N and r must be >= 0")
        deg = self.N + self.r
        for name, f in (("A", self.A), ("B", self.B), ("C", self.C), ("D", self.D)):
            if f.n != deg:
                raise DomainError(f"{name} must have declared degree N + r = {deg}")
        if len(self.tilde_poles) != self.r + 1:
            raise DomainError("tilde pole sequence must list btilde_0..btilde_r")


def identity_quad(poles: PoleSequence) -> SelfReciprocalQuad:
    """The trivial quad A = D = 1, B = C = 0 (N = r = 0), which maps a ladder
    to itself up to the constant c_n."""
    one = RatFun(poles, [1.0], 0)
    zero = RatFun(poles, [0.0], 0)
    quad = SelfReciprocalQuad(one, zero, zero, one, 1.0, 0, 0, PoleSequence([poles.beta[0]]))
    report = QuadConditionReport(0.0, np.inf, 0.0, 1.0, 0.0, 1.0, 1e-8, True)
    return replace(quad, report=report)


def _deflate_root(p, r):
    """Divide p by (z - r) from the leading coefficient; stable for |r| <= 1.

    Returns (quotient, |remainder|).
    """
    m = p.size - 1
    q = np.zeros(m, dtype=complex)
    acc = p[m]
    for i in range(m - 1, -1, -1):
        q[i] = acc
        acc = p[i] + r * acc
    return q, abs(acc)


def _deflate_reciprocal(p, c):
    """Divide p by (1 - c z) from the constant term; stable for |c| < 1.

    Returns (quotient, |remainder|), the remainder sitting at the top degree.
    """
    m = p.size - 1
    q = np.zeros(m, dtype=complex)
    acc = 0.0 + 0.0j
    for i in range(m):
        acc = p[i] + c * acc
        q[i] = acc
    return q, abs(p[m] + c * q[m - 1])


def _safe_ratio(num_fn, den_fn, pts, singular, radius=1e-5):
    """den-quotient at pts, replacing evaluations that collide with a known
    zero of the denominator by a small-circle average (a removable 0/0)."""
    out = np.empty(len(pts), dtype=complex)
    singular = np.asarray(singular, dtype=complex) if len(singular) else np.empty(0, complex)
    for i, p in enumerate(pts):
        if singular.size and np.min(np.abs(p - singular)) < 1e-8:
            ring = p + radius * np.exp(2j * np.pi * (np.arange(4) + 0.5) / 4)
            out[i] = np.mean(np.asarray(num_fn(ring)) / np.asarray(den_fn(ring)))
        else:
            out[i] = complex(np.asarray(num_fn(p)) / np.asarray(den_fn(p)))
    return out


def check_quad(
    quad: SelfReciprocalQuad,
    F: CaratheodoryFn,
    base_poles: PoleSequence,
    depth: int = 0,
    tol: float = 1e-8,
) -> QuadConditionReport:
    """Numerically verify the transform conditions for a quad against F.

    Checks the four superstar sign relations, the nonvanishing of B at
    beta_0..beta_{N-1}, the vanishing of A - B F at those points together
    with the nonvanishing of its analytic cofactor g at the tilde and
    shifted points, and the determinant condition on A D - B C with its
    cofactor f. `depth` is the number of levels the transform will act on.
    """
    N, r = quad.N, quad.r
    tau = quad.tau_A

    a1 = 0.0
    for f, sign in ((quad.A, 1.0), (quad.B, -1.0), (quad.C, -1.0), (quad.D, 1.0)):
        scale = float(np.max(np.abs(f.numer)))
        if scale == 0.0:
            continue
        a1 = max(a1, float(np.max(np.abs(superstar(f).numer - sign * tau * f.numer))) / scale)

    _, t512 = boundary_grid(512)
    ring = 0.62 * np.exp(2j * np.pi * (np.arange(48) + 0.13) / 48)

    if N > 0:
        scale_b = max(float(np.max(np.abs(quad.B(t512)))), 1e-300)
        a2_min = float(min(abs(complex(quad.B(b))) for b in base_poles.beta[:N])) / scale_b
    else:
        a2_min = np.inf

    def a_minus_bf(z):
        return np.asarray(quad.A(z)) - np.asarray(quad.B(z)) * np.asarray(F(z))

    scale3 = max(float(np.max(np.abs(a_minus_bf(ring)))), 1e-300)
    if N > 0:
        a3_max = float(max(abs(complex(a_minus_bf(b))) for b in base_poles.beta[:N])) / scale3
    else:
        a3_max = 0.0

    zeros_g = list(base_poles.beta[:N])
    g_pts = list(quad.tilde_poles.beta) + list(base_poles.beta[N + 1 : N + depth + 1])
    g_den = lambda z: zeros_factor(base_poles, N, z)
    g_req = _safe_ratio(a_minus_bf, g_den, g_pts, zeros_g)
    g_ring = _safe_ratio(a_minus_bf, g_den, ring, zeros_g)
    scale_g = float(max(np.max(np.abs(g_req)), np.max(np.abs(g_ring))))
    a33_min = float(np.min(np.abs(g_req))) / scale_g if scale_g > 0 else 0.0

    def adbc(z):
        return np.asarray(quad.A(z)) * np.asarray(quad.D(z)) - np.asarray(quad.B(z)) * np.asarray(
            quad.C(z)
        )

    scale42 = max(float(np.max(np.abs(adbc(ring)))), 1e-300)
    vanish_pts = list(base_poles.beta[:N]) + list(quad.tilde_poles.beta[:r])
    if vanish_pts:
        a42_max = float(max(abs(complex(adbc(b))) for b in vanish_pts)) / scale42
    else:
        a42_max = 0.0

    def f_den(z):
        return zeros_factor(base_poles, N, z) * zeros_factor(quad.tilde_poles, r, z)

    f_ring = _safe_ratio(adbc, f_den, ring, vanish_pts)
    scale_f = float(np.max(np.abs(f_ring)))
    a42_f_min = float(np.min(np.abs(f_ring))) / scale_f if scale_f > 0 else 0.0

    passed = bool(
        a1 <= tol
        and (N == 0 or a2_min > 1e-10)
        and a3_max <= tol
        and a33_min > tol
        and a42_max <= tol
        and a42_f_min > tol
    )
    return QuadConditionReport(a1, a2_min, a3_max, a33_min, a42_max, a42_f_min, tol, passed)


def apply_transform(system: OrfSystem, quad: SelfReciprocalQuad, c_n, n: int, report=None):
    """Transform level N + n of the ladder into (G, H, J, K) over the tilde poles.

    The numerators are formed by polynomial arithmetic and the common factor
    of c_n P_N B_N is cancelled by synthetic division; a remainder above
    1e-10 of the numerator scale means the quad conditions do not actually
    hold. Post-asserts the superstar pairing G^* = tau_A H, J^* = tau_A K.
    """
    report = report if report is not None else quad.report
    if report is None:
        raise ConditionUnchecked("run check_quad before applying a transform")
    if not report.passed:
        raise DomainError("quad failed its condition check")
    c_n = float(c_n)
    if c_n == 0.0:
        raise DomainError("c_n must be nonzero")
    N, r = quad.N, quad.r
    m = N + n
    if n < 0 or m > system.n_max:
        raise DomainError(f"transform level N + n = {m} outside the ladder")
    base = system.poles
    lv = system.level(m)
    res_poles = PoleSequence(np.concatenate([quad.tilde_poles.beta, base.beta[N + 1 : m + 1]]))

    if N == 0:
        kappa = c_n + 0.0j
    else:
        b0, b_n = base.beta[0], base.beta[N]
        kappa = c_n * base.eta(N) * base.upsilon(N - 1) * (1.0 - abs(b_n) ** 2) / (
            1.0 - abs(b0) ** 2
        )
    # the known common factor: (z - beta_0)(1 - conj(beta_0) z) times
    # (z - beta_j)(1 - conj(beta_j) z) for j = 1..N-1, removed one stable
    # deflation at a time; nothing to remove when N = 0
    roots = [base.beta[0]] + list(base.beta[1:N]) if N > 0 else []
    recips = [np.conj(b) for b in roots]

    def reduce(num):
        scale = max(float(np.max(np.abs(num))), 1e-300)
        quo = np.asarray(num, dtype=complex)
        worst = 0.0
        for root in roots:
            quo, rem = _deflate_root(quo, root)
            worst = max(worst, rem)
        for c in recips:
            quo, rem = _deflate_reciprocal(quo, c)
            worst = max(worst, rem)
        if worst > 1e-10 * scale:
            raise DivisionRemainderTooLarge(
                f"cancellation remainder {worst:.2e} vs scale {scale:.2e}"
            )
        quo = quo / kappa
        if quo.size > r + n + 1:
            overflow = float(np.max(np.abs(quo[r + n + 1 :])))
            if overflow > 1e-10 * max(float(np.max(np.abs(quo))), 1e-300):
                raise DivisionRemainderTooLarge(
                    f"quotient degree exceeds the target space by {overflow:.2e}"
                )
            quo = quo[: r + n + 1]
        out = np.zeros(r + n + 1, dtype=complex)
        out[: quo.size] = quo
        return RatFun(res_poles, out, r + n)

    def pm(a, b):
        return _padded_polymul(a, b, m + N + r + 1)

    G = reduce(pm(lv.phi.numer, quad.A.numer) + pm(lv.psi.numer, quad.B.numer))
    H = reduce(pm(lv.phi_star.numer, quad.A.numer) - pm(lv.psi_star.numer, quad.B.numer))
    J = reduce(pm(lv.phi.numer, quad.C.numer) + pm(lv.psi.numer, quad.D.numer))
    K = reduce(pm(lv.psi_star.numer, quad.D.numer) - pm(lv.phi_star.numer, quad.C.numer))

    for x, y in ((G, H), (J, K)):
        scale = max(float(np.max(np.abs(y.numer))), 1e-300)
        if float(np.max(np.abs(superstar(x).numer - quad.tau_A * y.numer))) > 1e-10 * scale:
            raise NumericalFailure("transform outputs violate the superstar pairing")
    return G, H, J, K


def transformed_caratheodory(quad: SelfReciprocalQuad, F: CaratheodoryFn) -> CaratheodoryFn:
    """The transformed C-function (-C + D F)/(A - B F), anchored at btilde_0."""

    def num(z):
        return -np.asarray(quad.C(z)) + np.asarray(quad.D(z)) * np.asarray(F(z))

    def den(z):
        return np.asarray(quad.A(z)) - np.asarray(quad.B(z)) * np.asarray(F(z))

    return ratio_caratheodory(num, den, quad.tilde_poles.beta[0])


def arf_quad(system: OrfSystem, k: int) -> SelfReciprocalQuad:
    """Quad generating the order-k associated ladder: built from the level-k
    para-orthogonal pairs at tau = -1 and tau = +1, with signature 1 and the
    single tilde point beta_k. The condition check runs by construction."""
    if not 0 <= k <= system.n_max:
        raise DomainError("arf order k must satisfy 0 <= k <= n_max")
    pp1 = para_pair(system, k, 1.0)
    ppm = para_pair(system, k, -1.0)
    quad = SelfReciprocalQuad(
        A=ppm.Psi,
        B=(-1.0) * ppm.Phi,
        C=(-1.0) * pp1.Psi,
        D=pp1.Phi,
        tau_A=1.0,
        N=k,
        r=0,
        tilde_poles=PoleSequence([system.poles.beta[k]]),
    )
    report = check_quad(quad, system.caratheodory, system.poles, depth=system.n_max - k)
    if not report.passed:
        raise NumericalFailure(f"associated quad failed its own condition check: {report}")
    return replace(quad, report=report)


def arf_explicit(system: OrfSystem, k: int, n: int, quad: SelfReciprocalQuad | None = None):
    """Order-k associated pair at level n through the explicit transform with
    the orthonormal constant c_{n,k} = sqrt(d_k d_n) = sqrt(2 * 2) = 2.

    The base level n = k is returned as the exact constant 1 (no division)."""
    if not 0 <= k <= n <= system.n_max:
        raise DomainError("need 0 <= k <= n <= n_max")
    if n == k:
        shifted = PoleSequence(system.poles.beta[k : system.n_max + 1])
        one = RatFun(shifted, [1.0], 0)
        return one, one
    quad = quad if quad is not None else arf_quad(system, k)
    G, _, J, _ = apply_transform(system, quad, 2.0, n - k)
    return G, J


@dataclass(frozen=True)
class ArfSystem:
    """Order-k associated ladder: a plain ladder over the shifted poles
    beta_k, beta_{k+1}, ..., built by the shifted recurrence.

    Everything else derived from (base, order) is computed on first access
    and kept: `quad` (the quad of the level-k para-orthogonal pairs), `F_k`
    (the transformed C-function) and `mu_k` (the density recovered from
    F_k). A failure in one of them is raised at that first access.
    """

    base: OrfSystem
    order: int
    system: OrfSystem

    @property
    def n_max(self):
        return self.order + self.system.n_max

    def level(self, n):
        """Level by original index n (order <= n <= n_max)."""
        return self.system.level(n - self.order)

    @cached_property
    def quad(self) -> SelfReciprocalQuad:
        return arf_quad(self.base, self.order)

    @cached_property
    def F_k(self) -> CaratheodoryFn:
        return arf_caratheodory(self.base, self.base.caratheodory, self.order)

    @cached_property
    def mu_k(self) -> CircleMeasure:
        """Samples of the F_k boundary density on the base ladder's grid."""
        theta, _ = boundary_grid(self.base.n_points or 2048)
        w = weight_from_caratheodory(self.F_k, self.system.poles.beta[0], theta)
        return builtin_measure("samples", theta=theta, w=w)


def _arf_ratio_terms(system: OrfSystem, F: CaratheodoryFn, k: int):
    """Numerator and denominator Phi_{k,tau} F + Psi_{k,tau}, tau = 1 and -1,
    of the order-k transformed C-function."""
    pp1 = para_pair(system, k, 1.0)
    ppm = para_pair(system, k, -1.0)

    def num(z):
        return np.asarray(pp1.Phi(z)) * np.asarray(F(z)) + np.asarray(pp1.Psi(z))

    def den(z):
        return np.asarray(ppm.Phi(z)) * np.asarray(F(z)) + np.asarray(ppm.Psi(z))

    return num, den


def arf_anchor_residual(system: OrfSystem, F: CaratheodoryFn, k: int) -> float:
    """Deviation of the transformed C-function from 1 at its anchor beta_k.

    When earlier poles repeat beta_k, both the numerator and denominator of
    the defining ratio vanish there (a removable point); the residual is
    then the vanishing defect of their difference, scaled by the size of
    the denominator nearby, which is the numerical content of the limit.
    """
    num_fn, den_fn = _arf_ratio_terms(system, F, k)
    b_k = system.poles.beta[k]
    num, den = complex(num_fn(b_k)), complex(den_fn(b_k))
    ring = b_k + 0.3 * np.exp(2j * np.pi * (np.arange(16) + 0.41) / 16)
    ring = ring[np.abs(ring) < 0.97]
    den_scale = float(np.max(np.abs(den_fn(ring))))
    if abs(den) > 1e-6 * den_scale:
        return abs(num / den - 1.0)
    return abs(num - den) / den_scale


def arf_caratheodory(system: OrfSystem, F: CaratheodoryFn, k: int) -> CaratheodoryFn:
    """Transformed C-function of the order-k associated ladder:
    (Phi_{k,1} F + Psi_{k,1})/(Phi_{k,-1} F + Psi_{k,-1}), anchored at beta_k.

    Asserts the anchor value 1 (within 1e-9) and positive real part on a
    fixed seeded sample of 200 disk points before returning.
    """
    Fk = ratio_caratheodory(*_arf_ratio_terms(system, F, k), system.poles.beta[k])
    anchor = arf_anchor_residual(system, F, k)
    if anchor > 1e-9:
        raise NumericalFailure(f"transformed C-function anchor defect {anchor:.2e}")
    rng = np.random.default_rng(0)
    zs = 0.95 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    re_min = float(np.min(np.real(np.asarray(Fk(zs)))))
    if re_min <= 0.0:
        raise NumericalFailure(f"transformed C-function lost positivity (min Re = {re_min:.2e})")
    return Fk


def arf_recurrence(system: OrfSystem, k: int) -> ArfSystem:
    """Order-k associated ladder by running the recurrence with the stored
    parameters shifted by k, over the shifted pole sequence, from the
    constant initial level 1. Its quad, F_k and mu_k follow on first use."""
    if not 0 <= k <= system.n_max:
        raise DomainError("arf order k must satisfy 0 <= k <= n_max")
    if k == 0:
        # order 0 leaves the ladder untouched
        sub = OrfSystem(system.poles, system.levels, source=system.source, n_points=system.n_points)
    else:
        shifted = PoleSequence(system.poles.beta[k : system.n_max + 1])
        params = ((lv.lam, lv.rho, lv.e) for lv in system.levels[k + 1 :])
        levels = _run_recurrence(shifted, _level_zero(shifted, 1.0), params)
        sub = OrfSystem(shifted, levels, source="parameters", n_points=system.n_points)
    sub.caratheodory = caratheodory_from_system(sub)
    return ArfSystem(system, k, sub)


def arf_discrepancy(arf: ArfSystem) -> float:
    """Sup distance on the circle between the explicit (transform) and the
    recurrence route of an associated ladder, over phi and psi at every
    level order..n_max."""
    system, k = arf.base, arf.order
    quad = arf.quad
    _, t = boundary_grid(512)
    worst = 0.0
    for n in range(k, arf.n_max + 1):
        phi_e, psi_e = arf_explicit(system, k, n, quad=quad)
        lv = arf.level(n)
        worst = max(worst, float(np.max(np.abs(phi_e(t) - lv.phi(t)))))
        worst = max(worst, float(np.max(np.abs(psi_e(t) - lv.psi(t)))))
    return worst


@dataclass(frozen=True)
class RelationReport:
    """Sup-norm residuals of the order-mixing relations and their psi-swapped
    forms, relative to the left-hand-side scale."""

    rel1: float
    rel2: float
    rel3: float
    rel1_swapped: float
    rel2_swapped: float
    rel3_swapped: float

    def max_residual(self):
        return max(
            self.rel1, self.rel2, self.rel3,
            self.rel1_swapped, self.rel2_swapped, self.rel3_swapped,
        )


def relation_residuals(system: OrfSystem, j: int, k: int, n: int, n_points: int = 256) -> RelationReport:
    """Check the three relations tying associated ladders of orders j and k
    at level n (orthonormal normalization, so all coupling constants are 1),
    plus the same relations with phi and psi exchanged."""
    if not 0 <= j <= k <= n <= system.n_max:
        raise DomainError("need 0 <= j <= k <= n <= n_max")
    aj = arf_recurrence(system, j)
    ak = arf_recurrence(system, k)
    _, t = boundary_grid(n_points)

    jn, jk, kn = aj.level(n), aj.level(k), ak.level(n)
    pj_n, pj_n_s = jn.phi(t), jn.phi_star(t)
    qj_n, qj_n_s = jn.psi(t), jn.psi_star(t)
    pj_k, pj_k_s = jk.phi(t), jk.phi_star(t)
    qj_k, qj_k_s = jk.psi(t), jk.psi_star(t)
    pk_n, pk_n_s = kn.phi(t), kn.phi_star(t)
    qk_n, qk_n_s = kn.psi(t), kn.psi_star(t)

    def rel(lhs, rhs):
        return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)))

    r1 = rel(2 * pj_n, (pj_k + pj_k_s) * pk_n + (pj_k - pj_k_s) * qk_n)
    r2 = rel(2 * pj_n, (pk_n + qk_n) * pj_k + (pk_n - qk_n) * pj_k_s)
    r1s = rel(2 * qj_n, (qj_k + qj_k_s) * qk_n + (qj_k - qj_k_s) * pk_n)
    r2s = rel(2 * qj_n, (qk_n + pk_n) * qj_k + (qk_n - pk_n) * qj_k_s)

    beta = system.poles.beta
    pr = (1.0 - abs(beta[n]) ** 2) / (1.0 - abs(beta[k]) ** 2)
    pr = pr * system.poles.varpi(k, t) * system.poles.varpi_star(k, t)
    pr = pr / (system.poles.varpi(n, t) * system.poles.varpi_star(n, t))
    br = np.ones_like(t)
    for i in range(k + 1, n + 1):
        br = br * blaschke_factor(system.poles, i, t)
    r3 = rel(2 * pr * br * pj_k, (qk_n_s + pk_n_s) * pj_n + (qk_n - pk_n) * pj_n_s)
    r3s = rel(2 * pr * br * qj_k, (pk_n_s + qk_n_s) * qj_n + (pk_n - qk_n) * qj_n_s)
    return RelationReport(r1, r2, r3, r1s, r2s, r3s)


def remark_identity_residual(G: RatFun, J: RatFun, n_points: int = 512):
    """Constant dtilde and sup residual of G^* J + G J^* = dtilde Ptilde Btilde
    over the tilde pole sequence carried by G (same contract as the base
    determinant identity)."""
    d, resid = identity_residual(G, J, superstar(G), superstar(J), n_points)
    return float(d.real), resid
