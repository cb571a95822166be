"""Self-reciprocal quad transforms and associated (shifted-recurrence) ladders.

The transform takes a ladder level, multiplies it by a 2x2 matrix of
self-reciprocal rational functions, and divides out the known kernel-times-
Blaschke factor. The division is done pointwise on roots of unity, where
that factor has no zero, and one FFT reads the quotient back; its modes
above the target degree bound the remainder, which turns the membership
claim of the transform into a checkable quantity.

Associated ladders of order k arise from the particular quad built out of
the level-k para-orthogonal pairs; they are computed both this way and by
running the recurrence with shifted parameters, and the two must agree.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
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
    _ZERO_FREE_MIN,
    OrfSystem,
    _completion_grid,
    _determinant_numerators,
    _four,
    _level_zero,
    _remainders,
    _run_recurrence,
    para_pair,
)
from .ratfun import (
    PoleSequence,
    RatFun,
    _disk_sample,
    _evaluate_blocks,
    _horner,
    superstar,
)
from .zeros import zeros_inside

# threshold of check_quad's superstar condition a1
QUAD_TOL = 1e-8
# threshold of the remainders of check_quad's two lines, over each line's largest coefficient
VANISH_TOL = 1e-10
# the fixed disk points at which transformed_caratheodory asserts positive real part
_POSITIVITY_POINTS = _disk_sample(0, 0.95, 200)
_POSITIVITY_POINTS.flags.writeable = False


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


def check_quad(quad: SelfReciprocalQuad, F: CaratheodoryFn, base_poles: PoleSequence) -> QuadConditionReport:
    """Numerically verify the transform conditions for a quad against F:
    the four superstar sign relations (a1); B nonzero at beta_0..beta_{N-1},
    over its numerator's largest coefficient (a2); A - B F vanishing there
    with a zero-free cofactor (a3, a33); and A D - B C vanishing there and
    at btilde_0..btilde_{r-1} with a zero-free cofactor (a42, a42_f).

    Both lines are read on coefficients by `_divided`: A D - B C is
    a d - b c over pi^2, and A - B F is a bot - b top over pi bot, F =
    top/bot its `numerators`. Each quotient is its cofactor times factors
    with no zero in the closed disk; a33 and a42_f read `zeros_inside` on
    its conjugate reversal. DomainError when F carries no numerators.
    """
    if F.numerators is None:
        raise DomainError("check_quad reads the numerators of F, and this C-function carries none")
    N, r, tau = quad.N, quad.r, quad.tau_A
    funcs = (quad.A, quad.B, quad.C, quad.D)
    a, b, c, d = (f.numer for f in funcs)
    a1 = float(np.max([np.abs(superstar(f).numer - sign * tau * f.numer).max() / max(np.abs(f.numer).max(), 1e-300)
                       for f, sign in zip(funcs, (1.0, -1.0, -1.0, 1.0))]))
    a2_min = float(np.min(np.abs(quad.B(base_poles.beta[:N])), initial=np.inf) / max(np.abs(b).max(), 1e-300))
    top, bot = F.numerators
    q3, a3_max = _divided(np.convolve(a, bot) - np.convolve(b, top), base_poles.beta[:N])
    roots = np.append(base_poles.beta[:N], quad.tilde_poles.beta[:r])
    q42, a42_max = _divided(np.convolve(a, d) - np.convolve(b, c), roots)
    a33_min, a42_f_min = (float(np.isfinite(q).all() and zeros_inside(np.conj(q[::-1]), 1.0)) for q in (q3, q42))

    passed = bool(a1 <= QUAD_TOL and a2_min > 1e-10 and a3_max <= VANISH_TOL and a42_max <= VANISH_TOL
                  and a33_min > _ZERO_FREE_MIN and a42_f_min > _ZERO_FREE_MIN)
    return QuadConditionReport(a1, a2_min, a3_max, a33_min, a42_max, a42_f_min, passed)


def _divided(line, roots):
    """(quotient, residual) of the polynomial line, constant first, with
    zeros at roots: the quotient of dividing them out (`_remainders`),
    constant first, and the largest remainder over the line's largest
    coefficient."""
    quotient, remainder = _remainders(line, roots)
    return quotient, remainder / max(float(np.max(np.abs(line))), 1e-300)


def apply_transform_stack(system: OrfSystem, quad: SelfReciprocalQuad, c_n, offsets):
    """(G, H, J, K) over the tilde poles for each level N + n, n in offsets, in order.

    The numerators are read on the M-th roots of unity, M the power of two
    above the degree 2N + r + max(offsets) of their products with A, B, C
    and D. There each line is divided by the known common factor of c_n P_N
    B_N, kappa prod_{j<N} (z - beta_j)(1 - conj(beta_j) z), which has no
    zero on the circle, and one FFT gives the quotient's coefficients. An
    exact quotient has degree r + n; one that is not has poles inside the
    disk, whose negative modes alias into the modes above that degree, so
    those modes above 1e-10 of the quotient's scale mean the quad
    conditions do not actually hold. Post-asserts the superstar pairing
    G^* = tau_A H, J^* = tau_A K. The levels go through one pass, as rows
    of one array per function; every row keeps its own mode and pairing
    test, and the first level that fails one raises.
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
    if not offsets:
        return ()
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

    size = 1 << (top + N + r).bit_length()
    _, t = boundary_grid(size)
    # numerators of phi, phi^*, psi, psi^* at each level, zero-padded to degree top
    numers = np.zeros((4, len(offsets), top + 1), dtype=complex)
    for i, v in enumerate(offsets):
        lv = system.level(N + v)
        for row, f in zip(numers[:, i], (lv.phi, lv.phi_star, lv.psi, lv.psi_star)):
            row[: N + v + 1] = f.numer
    p, p_s, q, q_s = _horner(numers.reshape(-1, top + 1), t).reshape(4, len(offsets), size)
    a, b, c, d = _horner(np.array([f.numer for f in (quad.A, quad.B, quad.C, quad.D)]), t)
    factor = np.full(size, kappa)
    for root in base.beta[:N]:
        factor = factor * (t - root) * (1.0 - np.conj(root) * t)
    lines = np.stack([a * p + b * q, a * p_s - b * q_s, c * p + d * q, d * q_s - c * p_s])
    quo = np.fft.fft(lines / factor, axis=-1) / size
    scale = np.maximum(np.max(np.abs(quo), axis=-1), 1e-300)

    out = []
    for i, v in enumerate(offsets):
        excess = np.max(np.abs(quo[:, i, r + v + 1 :]), axis=-1, initial=0.0) / scale[:, i]
        if excess.max() > 1e-10:
            raise DivisionRemainderTooLarge(
                f"quotient modes above degree {r + v} reach {excess.max():.2e} of its scale"
            )
        G, H, J, K = (RatFun(res_poles, row[: r + v + 1], r + v) for row in quo[:, i])
        for x, y in ((G, H), (J, K)):
            y_scale = max(float(np.abs(y.numer).max()), 1e-300)
            if float(np.abs(superstar(x).numer - quad.tau_A * y.numer).max()) > 1e-10 * y_scale:
                raise NumericalFailure("transform outputs violate the superstar pairing")
        out.append((G, H, J, K))
    return tuple(out)


def transformed_caratheodory(quad: SelfReciprocalQuad, F: CaratheodoryFn) -> CaratheodoryFn:
    """The transformed C-function (-C + D F)/(A - B F), anchored at btilde_0.

    With F = top/bot (`CaratheodoryFn.numerators`) it is the ratio of the
    lines d top - c bot and a bot - b top, both of which vanish at
    beta_0..beta_{N-1}. Those zeros are divided out of each (`_divided`),
    a remainder above VANISH_TOL of its line's scale raising
    DivisionRemainderTooLarge, and the two quotients are its numerators.
    Asserts the anchor value 1 (within 1e-9), kept as its
    `anchor_residual`, and positive real part on a fixed seeded sample of
    200 disk points before returning. DomainError when F carries no numerators.
    """
    Ft = _cofactor_ratio(quad, F)
    Ft.anchor_residual = abs(Ft(Ft.beta0) - 1.0)
    if not Ft.anchor_residual <= 1e-9:
        raise NumericalFailure(f"transformed C-function anchor defect {Ft.anchor_residual:.2e}")
    re_min = float(np.min(np.real(np.asarray(Ft(_POSITIVITY_POINTS)))))
    if not re_min > 0.0:
        raise NumericalFailure(f"transformed C-function lost positivity (min Re = {re_min:.2e})")
    return Ft


def _cofactor_ratio(quad: SelfReciprocalQuad, F: CaratheodoryFn) -> CaratheodoryFn:
    """The transformed C-function as the ratio of its two cofactors, unchecked."""
    if F.numerators is None:
        raise DomainError("the transformed C-function reads the numerators of F, and this one carries none")
    top, bot = F.numerators
    a, b, c, d = (f.numer for f in (quad.A, quad.B, quad.C, quad.D))
    lines = (np.convolve(d, top) - np.convolve(c, bot), np.convolve(a, bot) - np.convolve(b, top))
    (num, num_res), (den, den_res) = (_divided(line, quad.A.poles.beta[: quad.N]) for line in lines)
    if not (num_res <= VANISH_TOL and den_res <= VANISH_TOL):
        raise DivisionRemainderTooLarge(f"transformed C-function cofactor remainders {num_res:.2e}, {den_res:.2e}")
    stack = np.array([num, den])
    Ft = ratio_caratheodory(lambda z: _horner(stack, z), quad.tilde_poles.beta[0])
    Ft.numerators = num, den
    return Ft


def _ratio_terms(f, abcd):
    """(-C + D F, A - B F) from the values f of F and abcd of A, B, C, D."""
    a, b, c, d = abcd
    return -c + d * f, a - b * f


def anchor_residual(quad: SelfReciprocalQuad, F: CaratheodoryFn) -> float:
    """|F_k(btilde_0) - 1| of the transformed C-function's cofactor ratio,
    which has no 0/0 at its anchor, even where earlier poles repeat btilde_0."""
    return abs(_cofactor_ratio(quad, F)(quad.tilde_poles.beta[0]) - 1.0)


def _check_order(system: OrfSystem, k):
    """DomainError unless the order k is an integer with 0 <= k <= n_max."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= system.n_max:
        raise DomainError(f"arf order k must satisfy 0 <= k <= n_max and be an integer, got {k!r}")


def arf_quad(system: OrfSystem, k: int) -> SelfReciprocalQuad:
    """Quad generating the order-k associated ladder: built from the level-k
    para-orthogonal pairs at tau = -1 and tau = +1, with signature 1 and the
    single tilde point beta_k. The condition check runs by construction."""
    _check_order(system, k)
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
    report = check_quad(quad, system.caratheodory, system.poles)
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
        if not self.order <= n <= self.base.n_max:
            raise DomainError(f"level {n} outside {self.order}..{self.base.n_max}")
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
        moved = apply_transform_stack(self.base, quad, 2.0, range(1, self.system.n_max + 1))
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
        f = np.asarray(self.base.caratheodory(t))
        w = np.empty(theta.size)
        for block, abcd in _evaluate_blocks((self.quad.A, self.quad.B, self.quad.C, self.quad.D), t):
            # F_k on t[block], the points weight_from_caratheodory reads it at
            f_k = ratio_caratheodory(lambda _: _ratio_terms(f[block], abcd), b0)
            w[block] = weight_from_caratheodory(f_k, b0, theta[block])
        return builtin_measure("samples", theta=theta, w=w)


def arf_recurrence(system: OrfSystem, k: int) -> ArfSystem:
    """Order-k associated ladder by running the recurrence with the stored
    parameters shifted by k, over the shifted pole sequence, from the
    constant initial level 1. Its quad, F_k and mu_k follow on first use."""
    _check_order(system, k)
    if k == 0:
        # order 0 leaves the ladder untouched
        return ArfSystem(system, 0, system)
    shifted = PoleSequence(system.poles.beta[k : system.n_max + 1])
    params = ((lv.lam, lv.rho) for lv in system.levels[k + 1 :])
    levels = _run_recurrence(shifted, _level_zero(shifted, 1.0), params)
    return ArfSystem(system, k, OrfSystem(shifted, levels, source="parameters", n_points=system.n_points))


def arf_discrepancy(arf: ArfSystem) -> float:
    """Largest gap between the numerators of the explicit (transform) and the
    recurrence route of an associated ladder, both over beta_k, beta_{k+1},
    ..., relative to the recurrence numerator's largest coefficient, over
    phi and psi at every level order..n_max. A NaN gap is returned as NaN."""
    gaps = [
        np.max(np.abs(f_e.numer - f.numer)) / np.max(np.abs(f.numer))
        for (phi_e, psi_e), lv in zip(arf.explicit, arf.system.levels)
        for f_e, f in ((phi_e, lv.phi), (psi_e, lv.psi))
    ]
    return float(np.max(gaps))


@dataclass(frozen=True)
class RelationReport:
    """Residuals of the order-mixing relations and their psi-swapped forms,
    read on numerators: max |L - R| / max |L| over the coefficients, L the
    numerator of the left-hand side."""

    rel1: float
    rel2: float
    rel3: float
    rel1_swapped: float
    rel2_swapped: float
    rel3_swapped: float

    def max_residual(self):
        return float(np.max(astuple(self)))


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
    of triples, in order (arfs is keyed by order). Both sides of r1 and r2
    lie over prod_{i=j+1..n} (1 - conj(beta_i) z); in r3, 2 pr br is the
    order-k ladder's 2 P B, R_{n-k} (`_determinant_numerators`) over its
    pi_{n-k}^2. So each relation is read on numerator products."""
    if not triples:
        return []
    orders = {o for j, k, _ in triples for o in (j, k)}
    if orders - arfs.keys():
        raise DomainError(f"arfs holds no ladder of order {min(orders - arfs.keys())}")
    system = next(iter(arfs.values())).base
    if any(arf.base is not system for arf in arfs.values()):
        raise DomainError("the associated ladders must come from one base ladder")
    for j, k, n in triples:
        if not 0 <= j <= k <= n <= system.n_max:
            raise DomainError("need 0 <= j <= k <= n <= n_max")
    cv = np.convolve

    def rel(lhs, rhs):
        return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)))

    def rels(fj_n, fj_k, fk_n, pb):
        # r1, r2, r3 from the numerators (phi, phi*, psi, psi*) of order j at n and k, and of order k at n
        (pj_n, pj_n_s), (pj_k, pj_k_s) = fj_n[:2], fj_k[:2]
        pk_n, pk_n_s, qk_n, qk_n_s = fk_n
        return (
            rel(2 * pj_n, cv(pj_k + pj_k_s, pk_n) + cv(pj_k - pj_k_s, qk_n)),
            rel(2 * pj_n, cv(pk_n + qk_n, pj_k) + cv(pk_n - qk_n, pj_k_s)),
            rel(cv(pb, pj_k), cv(qk_n_s + pk_n_s, pj_n) + cv(qk_n - pk_n, pj_n_s)),
        )

    out = []
    for j, k, n in triples:
        pb = _determinant_numerators(arfs[k].system.poles, n - k)[n - k]
        rows = [np.array([f.numer for f in _four(arfs[o].level(m))]) for o, m in ((j, n), (j, k), (k, n))]
        # the relations, then the same with phi and psi exchanged
        out.append(RelationReport(*rels(*rows, pb), *rels(*(f[[2, 3, 0, 1]] for f in rows), pb)))
    return out
