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
    identity_residual,
    para_pair,
    zeros_factor,
)
from .ratfun import (
    PoleSequence,
    RatFun,
    blaschke_factor,
    evaluate_stack,
    superstar,
)

# threshold of the transform conditions that check_quad tests
QUAD_TOL = 1e-8


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
    report = QuadConditionReport(0.0, np.inf, 0.0, 1.0, 0.0, 1.0, QUAD_TOL, True)
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


def _safe_ratio(num_fn, den_fn, pts, singular):
    """Numerator values and quotient num/den at pts, each function evaluated
    once on one array. A point within 1e-8 of a known zero of the denominator
    (a removable 0/0) takes the mean quotient over a 4-point ring of radius
    1e-5 around it instead, so the division never runs there."""
    near = (np.abs(pts[:, None] - singular[None, :]) < 1e-8).any(axis=1)
    small = pts[near, None] + 1e-5 * np.exp(2j * np.pi * (np.arange(4) + 0.5) / 4)
    z = np.concatenate([pts, small.ravel()])
    num, den = np.asarray(num_fn(z)), np.asarray(den_fn(z))
    divide = np.concatenate([~near, np.ones(z.size - pts.size, dtype=bool)])
    q = np.divide(num, den, out=np.zeros_like(num), where=divide)
    ratio = q[: pts.size]
    ratio[near] = q[pts.size :].reshape(-1, 4).mean(axis=1)
    return num[: pts.size], ratio


def check_quad(
    quad: SelfReciprocalQuad,
    F: CaratheodoryFn,
    base_poles: PoleSequence,
    depth: int = 0,
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
    zeros_b = base_poles.beta[:N]

    if N > 0:
        b_abs = np.abs(quad.B(np.concatenate([zeros_b, t512])))
        a2_min = float(np.min(b_abs[:N])) / max(float(np.max(b_abs[N:])), 1e-300)
    else:
        a2_min = np.inf

    def a_minus_bf(z):
        a, b = evaluate_stack((quad.A, quad.B), z)
        return a - b * np.asarray(F(z))

    # A - B F and g = (A - B F)/(zeta_0 B_{N-1}) at beta_0..beta_{N-1}, the
    # tilde and shifted points, and the ring; g at beta_0..beta_{N-1} is unused
    g_pts = np.concatenate([quad.tilde_poles.beta, base_poles.beta[N + 1 : N + depth + 1]])
    pts = np.concatenate([zeros_b, g_pts, ring])
    amb, g = _safe_ratio(a_minus_bf, lambda z: zeros_factor(base_poles, N, z), pts, zeros_b)
    scale3 = max(float(np.max(np.abs(amb[-ring.size :]))), 1e-300)
    a3_max = float(np.max(np.abs(amb[:N]))) / scale3 if N > 0 else 0.0
    g_req, g_ring = g[N : N + g_pts.size], g[-ring.size :]
    scale_g = float(max(np.max(np.abs(g_req)), np.max(np.abs(g_ring))))
    a33_min = float(np.min(np.abs(g_req))) / scale_g if scale_g > 0 else 0.0

    def adbc(z):
        a, b, c, d = evaluate_stack((quad.A, quad.B, quad.C, quad.D), z)
        return a * d - b * c

    def f_den(z):
        return zeros_factor(base_poles, N, z) * zeros_factor(quad.tilde_poles, r, z)

    # A D - B C at its required zeros and on the ring, its cofactor f on the ring
    vanish_pts = np.concatenate([zeros_b, quad.tilde_poles.beta[:r]])
    det, f = _safe_ratio(adbc, f_den, np.concatenate([vanish_pts, ring]), vanish_pts)
    scale42 = max(float(np.max(np.abs(det[-ring.size :]))), 1e-300)
    a42_max = float(np.max(np.abs(det[: vanish_pts.size]))) / scale42 if vanish_pts.size else 0.0
    f_ring = f[-ring.size :]
    scale_f = float(np.max(np.abs(f_ring)))
    a42_f_min = float(np.min(np.abs(f_ring))) / scale_f if scale_f > 0 else 0.0

    passed = bool(
        a1 <= QUAD_TOL
        and (N == 0 or a2_min > 1e-10)
        and a3_max <= QUAD_TOL
        and a33_min > QUAD_TOL
        and a42_max <= QUAD_TOL
        and a42_f_min > QUAD_TOL
    )
    return QuadConditionReport(a1, a2_min, a3_max, a33_min, a42_max, a42_f_min, QUAD_TOL, passed)


def apply_transform(system: OrfSystem, quad: SelfReciprocalQuad, c_n, n: int):
    """Transform level N + n of the ladder into (G, H, J, K) over the tilde poles.

    The numerators are formed by polynomial arithmetic and the common factor
    of c_n P_N B_N is cancelled by synthetic division; a remainder above
    1e-10 of the numerator scale means the quad conditions do not actually
    hold. Post-asserts the superstar pairing G^* = tau_A H, J^* = tau_A K.
    """
    if quad.report is None:
        raise ConditionUnchecked("run check_quad before applying a transform")
    if not quad.report.passed:
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

    def terms(z):
        a, b, c, d = evaluate_stack((quad.A, quad.B, quad.C, quad.D), z)
        f = np.asarray(F(z))
        return -c + d * f, a - b * f

    return ratio_caratheodory(terms, quad.tilde_poles.beta[0])


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
    and kept: `quad` (the quad of the level-k para-orthogonal pairs),
    `explicit` (the pairs of the explicit transform route), `F_k` (the
    transformed C-function) and `mu_k` (the density recovered from F_k). A
    failure in one of them is raised at that first access.
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
    def explicit(self) -> tuple:
        """arf_explicit(base, order, n, quad) for n = order..n_max, in order."""
        return tuple(
            arf_explicit(self.base, self.order, n, quad=self.quad)
            for n in range(self.order, self.n_max + 1)
        )

    @cached_property
    def F_k(self) -> CaratheodoryFn:
        return arf_caratheodory(self.base, self.base.caratheodory, self.order)

    @cached_property
    def mu_k(self) -> CircleMeasure:
        """Samples of the F_k boundary density on the base ladder's grid."""
        theta, _ = boundary_grid(self.base.n_points)
        w = weight_from_caratheodory(self.F_k, self.system.poles.beta[0], theta)
        return builtin_measure("samples", theta=theta, w=w)


def _arf_ratio_terms(system: OrfSystem, F: CaratheodoryFn, k: int):
    """terms(z) -> (numerator, denominator) Phi_{k,tau} F + Psi_{k,tau}, tau = 1
    and -1, of the order-k transformed C-function; F is evaluated once."""
    pp1 = para_pair(system, k, 1.0)
    ppm = para_pair(system, k, -1.0)

    def terms(z):
        phi1, psi1, phim, psim = evaluate_stack((pp1.Phi, pp1.Psi, ppm.Phi, ppm.Psi), z)
        f = np.asarray(F(z))
        return phi1 * f + psi1, phim * f + psim

    return terms


def arf_anchor_residual(system: OrfSystem, F: CaratheodoryFn, k: int) -> float:
    """Deviation of the transformed C-function from 1 at its anchor beta_k.

    When earlier poles repeat beta_k, both the numerator and denominator of
    the defining ratio vanish there (a removable point); the residual is
    then the vanishing defect of their difference, scaled by the size of
    the denominator nearby, which is the numerical content of the limit.
    """
    terms = _arf_ratio_terms(system, F, k)
    b_k = system.poles.beta[k]
    num, den = (complex(v) for v in terms(b_k))
    ring = b_k + 0.3 * np.exp(2j * np.pi * (np.arange(16) + 0.41) / 16)
    ring = ring[np.abs(ring) < 0.97]
    den_scale = float(np.max(np.abs(terms(ring)[1])))
    if abs(den) > 1e-6 * den_scale:
        return abs(num / den - 1.0)
    return abs(num - den) / den_scale


def arf_caratheodory(system: OrfSystem, F: CaratheodoryFn, k: int) -> CaratheodoryFn:
    """Transformed C-function of the order-k associated ladder:
    (Phi_{k,1} F + Psi_{k,1})/(Phi_{k,-1} F + Psi_{k,-1}), anchored at beta_k.

    Asserts the anchor value 1 (within 1e-9), kept as its `anchor_residual`,
    and positive real part on a fixed seeded sample of 200 disk points
    before returning.
    """
    Fk = ratio_caratheodory(_arf_ratio_terms(system, F, k), system.poles.beta[k])
    Fk.anchor_residual = arf_anchor_residual(system, F, k)
    if Fk.anchor_residual > 1e-9:
        raise NumericalFailure(f"transformed C-function anchor defect {Fk.anchor_residual:.2e}")
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
    return ArfSystem(system, k, sub)


def arf_discrepancy(arf: ArfSystem) -> float:
    """Sup distance on the circle between the explicit (transform) and the
    recurrence route of an associated ladder, over phi and psi at every
    level order..n_max."""
    _, t = boundary_grid(512)
    worst = 0.0
    for n, (phi_e, psi_e) in enumerate(arf.explicit, start=arf.order):
        lv = arf.level(n)
        pe, qe, p, q = evaluate_stack((phi_e, psi_e, lv.phi, lv.psi), t)
        worst = max(worst, float(np.max(np.abs(pe - p))))
        worst = max(worst, float(np.max(np.abs(qe - q))))
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


def relation_residuals(aj: ArfSystem, ak: ArfSystem, n: int) -> RelationReport:
    """Check the three relations tying the associated ladders aj and ak of
    orders j and k of one base ladder at level n (orthonormal normalization,
    so all coupling constants are 1), plus the same relations with phi and
    psi exchanged."""
    system, j, k = aj.base, aj.order, ak.order
    if ak.base is not system:
        raise DomainError("both associated ladders must come from one base ladder")
    if not 0 <= j <= k <= n <= system.n_max:
        raise DomainError("need 0 <= j <= k <= n <= n_max")
    _, t = boundary_grid(256)

    pj_n, pj_n_s, qj_n, qj_n_s = aj.level(n).values(t)
    pj_k, pj_k_s, qj_k, qj_k_s = aj.level(k).values(t)
    pk_n, pk_n_s, qk_n, qk_n_s = ak.level(n).values(t)

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


def remark_identity_residual(G: RatFun, J: RatFun):
    """Constant dtilde and sup residual of G^* J + G J^* = dtilde Ptilde Btilde
    over the tilde pole sequence carried by G (same contract as the base
    determinant identity)."""
    d, resid = identity_residual(G, J, superstar(G), superstar(J))
    return float(d.real), resid
