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
    _blocks,
    _completion_grid,
    _level_zero,
    _negative_modes,
    _run_recurrence,
    _zero_free,
    para_pair,
    zeros_factor,
)
from .ratfun import (
    PoleSequence,
    RatFun,
    _disk_sample,
    blaschke_factor,
    evaluate_stack,
    superstar,
)

# threshold of the transform conditions that check_quad tests
QUAD_TOL = 1e-8
# threshold of the negative Fourier modes of the cofactors that check_quad reads
VANISH_TOL = 1e-10


@dataclass(frozen=True)
class QuadConditionReport:
    """Per-condition residuals of a quad check; relative to natural scales."""

    a1_residual: float
    a2_min: float
    a3_max: float
    a33_min: float
    a42_max: float
    a42_f_min: float
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
        if not abs(abs(self.tau_A) - 1.0) <= 1e-12:
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
    report = QuadConditionReport(0.0, np.inf, 0.0, 1.0, 0.0, 1.0, True)
    return replace(quad, report=report)


def _deflate_root(p, r):
    """Divide each row of p by (z - r) from the leading coefficient; stable
    for |r| <= 1. Zeros above a row's own leading coefficient stay zeros.

    Returns (quotients, |remainders|).
    """
    q = np.zeros((p.shape[0], p.shape[1] - 1), dtype=complex)
    acc = p[:, -1]
    for i in range(p.shape[1] - 2, -1, -1):
        q[:, i] = acc
        acc = p[:, i] + r * acc
    return q, np.abs(acc)


def _deflate_reciprocal(p, c, sizes):
    """Divide each row of p by (1 - c z) from the constant term; stable for
    |c| < 1. Row i holds sizes[i] coefficients and zeros above them.

    Returns (quotients, |remainders|), each remainder taken at its row's top
    degree and each quotient zero above its own size.
    """
    q = np.zeros(p.shape, dtype=complex)
    acc = np.zeros(p.shape[0], dtype=complex)
    for i in range(p.shape[1]):
        acc = p[:, i] + c * acc
        q[:, i] = acc
    rem = np.abs(q[np.arange(p.shape[0]), sizes - 1])
    q[np.arange(p.shape[1]) >= (sizes - 1)[:, None]] = 0.0
    return q[:, :-1], rem


def check_quad(
    quad: SelfReciprocalQuad,
    F: CaratheodoryFn,
    base_poles: PoleSequence,
    n_points: int,
) -> QuadConditionReport:
    """Numerically verify the transform conditions for a quad against F.

    Checks the four superstar sign relations, the nonvanishing of B at
    beta_0..beta_{N-1}, and on the grid 2 pi j / n_points the vanishing of
    A - B F at those points with a zero-free cofactor g, and the
    determinant condition that A D - B C vanishes there and at
    btilde_0..btilde_{r-1}, with a zero-free cofactor f. The zeros factors
    are unimodular on the grid, so each cofactor is the line times their
    conjugate: it must have no negative Fourier modes (a3, a42, at most
    VANISH_TOL) and no zero in the closed disk (a33, a42_f, above QUAD_TOL).
    F(t) and the zeros factors are held on the whole grid; A, B, C and D
    are evaluated one block of it at a time into the two lines.
    """
    N, r = quad.N, quad.r
    tau = quad.tau_A

    a1 = 0.0
    for f, sign in ((quad.A, 1.0), (quad.B, -1.0), (quad.C, -1.0), (quad.D, 1.0)):
        scale = float(np.abs(f.numer).max())
        if scale == 0.0:
            continue
        a1 = max(a1, float(np.abs(superstar(f).numer - sign * tau * f.numer).max()) / scale)

    _, t = boundary_grid(n_points)
    f_t = np.asarray(F(t))
    conj_zeros = np.conj(zeros_factor(base_poles, N, t))
    conj_tilde = np.conj(zeros_factor(quad.tilde_poles, r, t))
    lines = np.empty((2, t.size), dtype=complex)
    b_max = 0.0
    funcs = (quad.A, quad.B, quad.C, quad.D)
    for block in _blocks(t.size, funcs):
        a, b, c, d = evaluate_stack(funcs, t[block])
        b_max = max(b_max, float(np.max(np.abs(b))))
        lines[0, block] = (a - b * f_t[block]) * conj_zeros[block]
        lines[1, block] = (a * d - b * c) * conj_zeros[block] * conj_tilde[block]
    if N > 0:
        b_zeros = np.abs(quad.B(base_poles.beta[:N]))
        a2_min = float(np.min(b_zeros)) / max(b_max, 1e-300)
    else:
        a2_min = np.inf

    a3_max, a42_max = _negative_modes(lines, np.max(np.abs(lines), axis=1)).tolist()
    a33_min, a42_f_min = (_zero_free(line) for line in lines)

    passed = bool(
        a1 <= QUAD_TOL
        and (N == 0 or a2_min > 1e-10)
        and a3_max <= VANISH_TOL
        and a33_min > QUAD_TOL
        and a42_max <= VANISH_TOL
        and a42_f_min > QUAD_TOL
    )
    return QuadConditionReport(a1, a2_min, a3_max, a33_min, a42_max, a42_f_min, passed)


def apply_transform_stack(system: OrfSystem, quad: SelfReciprocalQuad, c_n, offsets):
    """(G, H, J, K) over the tilde poles for each level N + n, n in offsets, in order.

    The numerators are formed by polynomial arithmetic and the common factor
    of c_n P_N B_N is cancelled by synthetic division; a remainder above
    1e-10 of the numerator scale means the quad conditions do not actually
    hold. Post-asserts the superstar pairing G^* = tau_A H, J^* = tau_A K.
    The levels go through one pass, as rows of one array per function;
    every row keeps its own remainder, overflow and pairing test, and the
    first level that fails one raises.
    """
    if quad.report is None:
        raise ConditionUnchecked("run check_quad before applying a transform")
    if not quad.report.passed:
        raise DomainError("quad failed its condition check")
    c_n = float(c_n)
    if c_n == 0.0:
        raise DomainError("c_n must be nonzero")
    N, r = quad.N, quad.r
    offsets = [int(v) for v in offsets]
    for v in offsets:
        if v < 0 or N + v > system.n_max:
            raise DomainError(f"transform level N + n = {N + v} outside the ladder")
    base = system.poles
    top = N + max(offsets)
    res_poles = PoleSequence(np.concatenate([quad.tilde_poles.beta, base.beta[N + 1 : top + 1]]))

    if N == 0:
        kappa = c_n + 0.0j
    else:
        b0, b_n = base.beta[0], base.beta[N]
        kappa = c_n * base.eta(N) * base.upsilon(N - 1) * (1.0 - abs(b_n) ** 2) / (
            1.0 - abs(b0) ** 2
        )

    # numerators of phi, phi^*, psi, psi^* at each level, zero-padded to degree top
    numers = np.zeros((4, len(offsets), top + 1), dtype=complex)
    for i, v in enumerate(offsets):
        lv = system.level(N + v)
        for row, f in zip(numers[:, i], (lv.phi, lv.phi_star, lv.psi, lv.psi_star)):
            row[: N + v + 1] = f.numer
    # [G; H; J; K] = sum_j z^j M_j [phi; phi^*; psi; psi^*], M_j holding the
    # j-th coefficients of A, B, C and D; level N + v has 2N + r + v + 1 of them
    a, b, c, d = (f.numer for f in (quad.A, quad.B, quad.C, quad.D))
    num = np.zeros((4, len(offsets), top + N + r + 1), dtype=complex)
    for j in range(N + r + 1):
        m = np.array([[a[j], 0, b[j], 0], [0, a[j], 0, -b[j]], [c[j], 0, d[j], 0], [0, -c[j], 0, d[j]]])
        num[:, :, j : j + top + 1] += np.tensordot(m, numers, axes=1)
    num = num.reshape(4 * len(offsets), -1)
    sizes = np.tile([2 * N + r + v + 1 for v in offsets], 4)
    scale = np.maximum(np.max(np.abs(num), axis=1), 1e-300)
    # the known common factor: (z - beta_0)(1 - conj(beta_0) z) times
    # (z - beta_j)(1 - conj(beta_j) z) for j = 1..N-1, removed one stable
    # deflation at a time; nothing to remove when N = 0
    roots = [base.beta[0]] + list(base.beta[1:N]) if N > 0 else []
    quo, worst = num, np.zeros(num.shape[0])
    for root in roots:
        quo, rem = _deflate_root(quo, root)
        worst, sizes = np.maximum(worst, rem), sizes - 1
    for root in roots:
        quo, rem = _deflate_reciprocal(quo, np.conj(root), sizes)
        worst, sizes = np.maximum(worst, rem), sizes - 1
    quo = quo / kappa
    target = np.tile([r + v + 1 for v in offsets], 4)
    beyond = np.arange(quo.shape[1]) >= target[:, None]
    overflow = np.max(np.abs(quo) * beyond, axis=1, initial=0.0)
    quo_scale = np.maximum(np.max(np.abs(quo), axis=1), 1e-300)

    out = []
    for i, v in enumerate(offsets):
        funcs = []
        for row in range(i, num.shape[0], len(offsets)):
            if worst[row] > 1e-10 * scale[row]:
                raise DivisionRemainderTooLarge(
                    f"cancellation remainder {worst[row]:.2e} vs scale {scale[row]:.2e}"
                )
            if overflow[row] > 1e-10 * quo_scale[row]:
                raise DivisionRemainderTooLarge(
                    f"quotient degree exceeds the target space by {overflow[row]:.2e}"
                )
            funcs.append(RatFun(res_poles, quo[row, : r + v + 1], r + v))
        G, H, J, K = funcs
        for x, y in ((G, H), (J, K)):
            y_scale = max(float(np.abs(y.numer).max()), 1e-300)
            if float(np.abs(superstar(x).numer - quad.tau_A * y.numer).max()) > 1e-10 * y_scale:
                raise NumericalFailure("transform outputs violate the superstar pairing")
        out.append((G, H, J, K))
    return tuple(out)


def transformed_caratheodory(quad: SelfReciprocalQuad, F: CaratheodoryFn) -> CaratheodoryFn:
    """The transformed C-function (-C + D F)/(A - B F), anchored at btilde_0.

    Asserts the anchor value 1 (within 1e-9), kept as its `anchor_residual`,
    and positive real part on a fixed seeded sample of 200 disk points
    before returning.
    """
    terms_on = _quad_terms(quad, F)
    # z[...] is all of z, whatever its shape
    Ft = ratio_caratheodory(lambda z: terms_on(z)(...), quad.tilde_poles.beta[0])
    Ft.anchor_residual = anchor_residual(quad, F)
    if not Ft.anchor_residual <= 1e-9:
        raise NumericalFailure(f"transformed C-function anchor defect {Ft.anchor_residual:.2e}")
    re_min = float(np.min(np.real(np.asarray(Ft(_disk_sample(0, 0.95, 200))))))
    if not re_min > 0.0:
        raise NumericalFailure(f"transformed C-function lost positivity (min Re = {re_min:.2e})")
    return Ft


def _quad_terms(quad: SelfReciprocalQuad, F: CaratheodoryFn):
    """terms_on(z) -> terms, where terms(part) -> (-C + D F, A - B F) are the
    numerator and denominator of the transformed C-function at z[part]. F
    is read on all of z once; A, B, C and D on z[part] alone at each call,
    so the parts of a grid can be taken one block at a time."""
    funcs = (quad.A, quad.B, quad.C, quad.D)

    def terms_on(z):
        f = np.asarray(F(z))

        def terms(part):
            a, b, c, d = evaluate_stack(funcs, z[part])
            return -c + d * f[part], a - b * f[part]

        return terms

    return terms_on


def anchor_residual(quad: SelfReciprocalQuad, F: CaratheodoryFn) -> float:
    """Deviation of the transformed C-function from 1 at its anchor btilde_0.

    When both the numerator and denominator of the defining ratio vanish
    there (a removable point, as when earlier poles repeat btilde_0), the
    residual is the vanishing defect of their difference, scaled by the
    size of the denominator on a ring nearby, which is the numerical
    content of the limit.
    """
    b0 = quad.tilde_poles.beta[0]
    ring = b0 + 0.3 * np.exp(2j * np.pi * (np.arange(16) + 0.41) / 16)
    ring = ring[np.abs(ring) < 0.97]
    # the anchor and the ring in one evaluation
    nums, dens = _quad_terms(quad, F)(np.concatenate([[b0], ring]))(...)
    num, den = complex(nums[0]), complex(dens[0])
    den_scale = float(np.max(np.abs(dens[1:])))
    if abs(den) > 1e-6 * den_scale:
        return abs(num / den - 1.0)
    return abs(num - den) / den_scale


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
    report = check_quad(quad, system.caratheodory, system.poles, system.n_points)
    if not report.passed:
        raise NumericalFailure(f"associated quad failed its own condition check: {report}")
    return replace(quad, report=report)


@dataclass(frozen=True)
class ArfSystem:
    """Order-k associated ladder: a plain ladder over the shifted poles
    beta_k, beta_{k+1}, ..., built by the shifted recurrence.

    Everything else derived from (base, order) is computed on first access
    and kept: `quad` (the quad of the level-k para-orthogonal pairs),
    `explicit` (the pairs of the explicit transform route), `F_k` (the
    base C-function through that quad's transform) and `mu_k` (the density
    of F_k, sampled on this order's own grid). A failure in one of them is
    raised at that first access; F_k builds and checks the quad first.
    """

    base: OrfSystem
    order: int
    system: OrfSystem

    def level(self, n):
        """Level by original index n (order <= n <= n_max)."""
        return self.system.level(n - self.order)

    @cached_property
    def quad(self) -> SelfReciprocalQuad:
        return arf_quad(self.base, self.order)

    @cached_property
    def explicit(self) -> tuple:
        """Order-k pairs (phi, psi) at levels order..n_max of the base ladder,
        in order: the exact constant 1 at the order, then one
        apply_transform_stack pass with c_{n,k} = sqrt(d_k d_n) = 2. The
        quad is built, and its conditions checked, at every order, the top
        one included."""
        quad = self.quad  # built even when no level lies above the order
        one = RatFun(self.system.poles, [1.0], 0)
        above = range(1, self.system.n_max + 1)
        moved = apply_transform_stack(self.base, quad, 2.0, above) if above else ()
        return ((one, one),) + tuple((G, J) for G, _, J, _ in moved)

    @cached_property
    def F_k(self) -> CaratheodoryFn:
        return transformed_caratheodory(self.quad, self.base.caratheodory)

    @cached_property
    def mu_k(self) -> CircleMeasure:
        """Samples of the F_k boundary density, Re F_k on the circle.

        The grid is the larger of the base ladder's and the completion grid
        of this ladder's own top level, whose zeros can lie closer to the
        circle than the base ladder's. The base C-function is read on the
        whole grid once; F_k, whose checks run first, is formed from its
        terms there one block of the grid at a time.
        """
        own = _completion_grid(self.system.levels[-1], self.system.n_max)
        theta, t = boundary_grid(max(self.base.n_points, own))
        b0 = self.F_k.beta0
        terms = _quad_terms(self.quad, self.base.caratheodory)(t)
        w = np.empty(theta.size)
        for block in _blocks(theta.size, (self.quad.A, self.quad.B, self.quad.C, self.quad.D)):
            # F_k on t[block], the points weight_from_caratheodory reads it at
            f_k = ratio_caratheodory(lambda _: terms(block), b0)
            w[block] = weight_from_caratheodory(f_k, b0, theta[block])
        return builtin_measure("samples", theta=theta, w=w)


def arf_recurrence(system: OrfSystem, k: int) -> ArfSystem:
    """Order-k associated ladder by running the recurrence with the stored
    parameters shifted by k, over the shifted pole sequence, from the
    constant initial level 1. Its quad, F_k and mu_k follow on first use."""
    if not 0 <= k <= system.n_max:
        raise DomainError("arf order k must satisfy 0 <= k <= n_max")
    if k == 0:
        # order 0 leaves the ladder untouched
        return ArfSystem(system, 0, system)
    shifted = PoleSequence(system.poles.beta[k : system.n_max + 1])
    params = ((lv.lam, lv.rho) for lv in system.levels[k + 1 :])
    levels = _run_recurrence(shifted, _level_zero(shifted, 1.0), params)
    return ArfSystem(system, k, OrfSystem(shifted, levels, source="parameters", n_points=system.n_points))


def arf_discrepancy(arf: ArfSystem) -> float:
    """Sup distance on the circle between the explicit (transform) and the
    recurrence route of an associated ladder, over phi and psi at every
    level order..n_max."""
    _, t = boundary_grid(512)
    funcs = [
        f
        for (phi_e, psi_e), lv in zip(arf.explicit, arf.system.levels)
        for f in (phi_e, psi_e, lv.phi, lv.psi)
    ]
    pe, qe, p, q = evaluate_stack(funcs, t).reshape(-1, 4, t.size).transpose(1, 0, 2)
    return float(max(np.max(np.abs(pe - p)), np.max(np.abs(qe - q))))


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
    if ak.base is not aj.base:
        raise DomainError("both associated ladders must come from one base ladder")
    return relation_residual_stack({aj.order: aj, ak.order: ak}, [(aj.order, ak.order, n)])[0]


def relation_residual_stack(arfs: dict, triples) -> list:
    """relation_residuals of arfs[j], arfs[k] at level n for each (j, k, n)
    of triples, in order. The levels of each order's ladder (arfs is keyed
    by order) up to the highest n of triples are evaluated on the 256-point
    boundary grid in one call."""
    system = next(iter(arfs.values())).base
    if any(arf.base is not system for arf in arfs.values()):
        raise DomainError("the associated ladders must come from one base ladder")
    for j, k, n in triples:
        if not 0 <= j <= k <= n <= system.n_max:
            raise DomainError("need 0 <= j <= k <= n <= n_max")
    if not triples:
        return []
    _, t = boundary_grid(256)
    hi = max(n for _, _, n in triples)
    tables = {}
    for order in {o for j, k, _ in triples for o in (j, k)}:
        levels = arfs[order].system.levels[: hi - order + 1]
        funcs = [f for lv in levels for f in (lv.phi, lv.phi_star, lv.psi, lv.psi_star)]
        tables[order] = evaluate_stack(funcs, t).reshape(len(levels), 4, t.size)

    def rel(lhs, rhs):
        return float(np.abs(lhs - rhs).max() / np.abs(lhs).max())

    beta = system.poles.beta
    out = []
    for j, k, n in triples:
        pj_n, pj_n_s, qj_n, qj_n_s = tables[j][n - j]
        pj_k, pj_k_s, qj_k, qj_k_s = tables[j][k - j]
        pk_n, pk_n_s, qk_n, qk_n_s = tables[k][n - k]

        r1 = rel(2 * pj_n, (pj_k + pj_k_s) * pk_n + (pj_k - pj_k_s) * qk_n)
        r2 = rel(2 * pj_n, (pk_n + qk_n) * pj_k + (pk_n - qk_n) * pj_k_s)
        r1s = rel(2 * qj_n, (qj_k + qj_k_s) * qk_n + (qj_k - qj_k_s) * pk_n)
        r2s = rel(2 * qj_n, (qk_n + pk_n) * qj_k + (qk_n - pk_n) * qj_k_s)

        pr = (1.0 - abs(beta[n]) ** 2) / (1.0 - abs(beta[k]) ** 2)
        pr = pr * system.poles.varpi(k, t) * system.poles.varpi_star(k, t)
        pr = pr / (system.poles.varpi(n, t) * system.poles.varpi_star(n, t))
        br = np.ones_like(t)
        for i in range(k + 1, n + 1):
            br = br * blaschke_factor(system.poles, i, t)
        r3 = rel(2 * pr * br * pj_k, (qk_n_s + pk_n_s) * pj_n + (qk_n - pk_n) * pj_n_s)
        r3s = rel(2 * pr * br * qj_k, (pk_n_s + qk_n_s) * qj_n + (pk_n - qk_n) * qj_n_s)
        out.append(RelationReport(r1, r2, r3, r1s, r2s, r3s))
    return out

