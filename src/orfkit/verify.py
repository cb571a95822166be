"""Named identity checks behind the `verify` command.

Every check runs one identity family over the configured system and reports
{residual, tolerance, pass}. Checks are independent; `run_verification`
executes a selection (default: all) and returns a name-keyed mapping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import serialize
from .engine import (
    _ZERO_FREE_MIN,
    OrfSystem,
    _fit_ladder,
    _four,
    _gram_defect,
    _parameters,
    grid_quadrature,
    identity_residual_stack,
    interpolation_residual_stack,
    measure_from_system,
    second_kind_functional_residual_stack,
    second_kind_integral_stack,
    szego_rule,
)
from .errors import NumericalFailure, OrfkitError, ZeroOffCircle
from .measure import boundary_grid, weight_from_caratheodory
from .ratfun import _disk_sample, evaluate_stack, superstar
from .transforms import (
    arf_discrepancy,
    arf_recurrence,
    relation_residual_stack,
)
from .zeros import zeros_inside

DEFAULT_TOLERANCES = {
    "orthonormality": 1e-9,
    "recurrence_fit": 1e-9,
    "determinant": 1e-10,
    "para_zeros": 1e-9,
    "second_kind": 1e-8,
    "interpolation": 1e-10,
    "multiplier_identities": 1e-7,
    "arf_consistency": 1e-9,
    "arf_orthogonality": 1e-8,
    "relations": 1e-10,
    "remark": 1e-10,
    "positivity": 1e-9,
    "roundtrip_lambda": 1e-10,
    "roundtrip_measure": 1e-6,
    "serialization": 0.0,
}

CHECK_NAMES = tuple(DEFAULT_TOLERANCES)


@dataclass
class VerifyContext:
    """Everything a check needs: the system, its measure, quadrature and
    C-function, the recurrence fit of its stored functions, its associated
    ladders and their rules, and the seed of the sampled checks. positivity
    and multiplier_identities draw their samples through ratfun._disk_sample,
    from the stdlib generator random.Random. Each is built once per context."""

    system: OrfSystem
    seed: int
    tolerances: dict
    arfs: dict = field(default_factory=dict, init=False, repr=False)
    rules: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def measure(self):
        return self.system.measure or measure_from_system(self.system)

    @cached_property
    def quadrature(self):
        """What the Gram and Herglotz checks sum on: the measure's grid, or
        without a measure the ladder's own rule."""
        s = self.system
        return self.rule(0) if s.measure is None else grid_quadrature(s.measure, s.n_points)

    @cached_property
    def fits(self):
        """The `_fit_ladder` pass of the stored phi_n and phi_n^*, which both fit checks read."""
        s = self.system
        return _fit_ladder(s.poles, [lv.phi for lv in s.levels], [lv.phi_star for lv in s.levels])

    def arf(self, k):
        """The order-k associated ladder of the system."""
        if k not in self.arfs:
            self.arfs[k] = arf_recurrence(self.system, k)
        return self.arfs[k]

    def rule(self, k):
        """The Szegő rule of the order-k associated ladder (k = 0: the system)."""
        if k not in self.rules:
            self.rules[k] = szego_rule(self.arf(k).system)
        return self.rules[k]

    @property
    def F(self):
        return self.system.caratheodory

    def tol(self, name):
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


def check_orthonormality(ctx):
    return _gram_defect([lv.phi for lv in ctx.system.levels], ctx.quadrature)


def check_recurrence_fit(ctx):
    return float(np.max([resid / scale for _, _, resid, scale in ctx.fits], initial=0.0))


def check_determinant(ctx):
    phi, phi_s, psi, psi_s = zip(*map(_four, ctx.system.levels))
    return float(np.max(identity_residual_stack(phi, psi, phi_s, psi_s)))


def check_para_zeros(ctx):
    """The zeros of phi_n + tau phi_n^* are simple and on the circle for
    every unimodular tau when phi_n^* is the superstar of phi_n and phi_n's
    zeros lie in the disk: then phi_n/phi_n^* is a Blaschke product of
    degree n, whose phase rises strictly around the circle (Bultheel et al.
    1999, ch. 5). A zero of phi_n on or outside the circle, by the
    Schur-Cohn test, raises ZeroOffCircle; the residual is the largest
    superstar defect, relative to phi_n's largest coefficient."""
    defects = [0.0]
    for n, lv in enumerate(ctx.system.levels[1:], start=1):
        if not zeros_inside(lv.phi.numer, 1.0):
            raise ZeroOffCircle(f"para zeros of level {n} leave the circle: phi_{n} has a zero on or outside it")
        defects.append(np.abs(lv.phi_star.numer - superstar(lv.phi).numer).max() / np.abs(lv.phi.numer).max())
    return float(np.max(defects))


def check_second_kind(ctx):
    s = ctx.system
    _, t = boundary_grid(512)
    # one quadrature for every level; the comparison is one evaluation
    integral = second_kind_integral_stack(ctx.quadrature, s)
    psi_int, psi_rec = np.split(evaluate_stack(integral + [lv.psi for lv in s.levels], t), 2)
    return float(np.max(np.abs(psi_int - psi_rec)))


def check_interpolation(ctx):
    resid, witness = interpolation_residual_stack(ctx.system)
    worst = float(np.max(resid))
    return max(worst, 1.0) if np.min(witness) <= _ZERO_FREE_MIN else worst


def check_multiplier_identities(ctx):
    return float(np.max(second_kind_functional_residual_stack(ctx.system, ctx.quadrature, seed=ctx.seed)))


def check_arf_consistency(ctx):
    return max(arf_discrepancy(ctx.arf(k)) for k in range(min(3, ctx.system.n_max) + 1))


def _caratheodory_gap(arf):
    """Relative sup gap between F_k and the order's own psi*_(k)/phi*_(k) on
    512 circle points, which bounds it in the disk (maximum principle)."""
    _, t = boundary_grid(512)
    own = np.asarray(arf.system.caratheodory(t))
    return float(np.max(np.abs(np.asarray(arf.F_k(t)) - own)) / np.max(np.abs(own)))


def check_arf_orthogonality(ctx):
    # with a measure, each order against the samples of its density mu_k;
    # without one, at the order's own rule, whose measure is mu_k when F_k
    # equals that order's own psi*_(k)/phi*_(k); order 0 there is the
    # orthonormality check's own Gram sum, so it starts at order 1
    worst, rational = 0.0, ctx.system.measure is None
    for k in range(int(rational), min(2, ctx.system.n_max) + 1):
        arf = ctx.arf(k)
        quad = ctx.rule(k) if rational else grid_quadrature(arf.mu_k, arf.mu_k.params["w"].size)
        gap = _caratheodory_gap(arf) if rational else 0.0
        worst = max(worst, _gram_defect([lv.phi for lv in arf.system.levels], quad), gap)
    return worst


def check_relations(ctx):
    triples = [t for t in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)) if t[2] <= ctx.system.n_max]
    if not triples:
        return 0.0
    arfs = {order: ctx.arf(order) for j, k, _ in triples for order in (j, k)}
    return max(rep.max_residual() for rep in relation_residual_stack(arfs, triples))


def check_remark(ctx):
    s = ctx.system
    worst = 0.0
    for k in range(1, min(3, s.n_max) + 1):
        # levels k + 1..n_max of the explicit route that arf_consistency built
        above = ctx.arf(k).explicit[1:]
        if above:
            Gs, Js = zip(*above)
            resid = identity_residual_stack(Gs, Js, [superstar(G) for G in Gs], [superstar(J) for J in Js])
            worst = float(np.max(resid, initial=worst))
    return worst


def check_positivity(ctx):
    s = ctx.system
    zs = _disk_sample(ctx.seed, 0.9, 200)
    worst = 0.0
    for k in range(min(3, s.n_max) + 1):
        Fk = ctx.arf(k).F_k
        worst = max(worst, Fk.anchor_residual)
        if not np.min(np.real(np.asarray(Fk(zs)))) > 0:
            worst = max(worst, 1.0)
    return worst


def check_roundtrip_lambda(ctx):
    # the fitted (lambda_n, rho_n) against the stored ones; whether the fit closes is recurrence_fit's to read
    gaps = []
    for lv, fit in zip(ctx.system.levels[1:], ctx.fits):
        lam, _, rho = _parameters(fit)
        gaps += [abs(lam - lv.lam), abs(rho - lv.rho)]
    return float(np.max(gaps, initial=0.0))


def check_roundtrip_measure(ctx):
    # the density back from the ladder's own C-function: a lambda ladder's
    # psi*_m/phi*_m needs no moment series of its density
    theta, _ = boundary_grid(512)
    w = weight_from_caratheodory(ctx.F, ctx.system.poles.beta[0], theta)
    return float(np.max(np.abs(w - ctx.measure.weight(theta))))


def check_serialization(ctx):
    # compact dumps, with no NaN or infinity, as the artifact writer's: they differ from
    # its indented ones only in whitespace, so they are equal exactly when those are
    try:
        blob = json.dumps(serialize.system_to_dict(ctx.system), allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"ladder not serializable: {exc}") from exc
    again = json.dumps(serialize.system_to_dict(serialize.system_from_dict(json.loads(blob))))
    return 0.0 if blob == again else 1.0


_CHECKS = {name: globals()[f"check_{name}"] for name in CHECK_NAMES}


def run_verification(ctx: VerifyContext, which=None) -> dict:
    """Run the selected checks (all by default). A check that raises is
    reported as failed with an infinite residual and the error message."""
    names = list(which) if which else list(CHECK_NAMES)
    out = {}
    for name in names:
        if name not in _CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
        tol = ctx.tol(name)
        try:
            resid = float(_CHECKS[name](ctx))
            entry = {"residual": resid, "tolerance": tol, "pass": bool(resid <= tol)}
        except OrfkitError as exc:
            entry = {"residual": float("inf"), "tolerance": tol, "pass": False, "error": str(exc)}
        out[name] = entry
    return out
