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
    _FIT_POINTS,
    OrfSystem,
    _fit_ladder,
    _gram_defect,
    _level_zero,
    _parameters,
    _run_recurrence,
    determinant_residual_stack,
    identity_residual_stack,
    interpolation_residual_stack,
    measure_from_system,
    para_pair,
    para_zeros_stack,
    second_kind_functional_residual_stack,
    second_kind_integral_stack,
)
from .errors import OrfkitError
from .measure import boundary_grid, weight_from_caratheodory
from .ratfun import PoleSequence, _disk_sample, evaluate_stack, superstar
from .transforms import (
    arf_discrepancy,
    arf_recurrence,
    relation_residual_stack,
)

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
    """Everything a check needs: the system, its measure and C-function, its
    associated ladders, and the seed of the sampled checks. positivity,
    roundtrip_lambda (with seed + 1) and multiplier_identities draw their
    samples through ratfun._disk_sample, from the stdlib generator
    random.Random. The measure and each associated ladder are built once
    per context."""

    system: OrfSystem
    seed: int
    tolerances: dict
    arfs: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def measure(self):
        return self.system.measure or measure_from_system(self.system)

    def arf(self, k):
        """The order-k associated ladder of the system."""
        if k not in self.arfs:
            self.arfs[k] = arf_recurrence(self.system, k)
        return self.arfs[k]

    @property
    def F(self):
        return self.system.caratheodory

    def tol(self, name):
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


def _sampled_gram_defect(system, mu, n_points):
    return _gram_defect([lv.phi for lv in system.levels], mu.weight(boundary_grid(n_points)[0]))


def _ladder_fits(poles, levels):
    """_fit_ladder of every level, from one evaluation of phi_n and phi_n^* at the fit points."""
    funcs = [lv.phi for lv in levels] + [lv.phi_star for lv in levels]
    return _fit_ladder(poles, *np.split(evaluate_stack(funcs, _FIT_POINTS), 2))


def check_orthonormality(ctx):
    return _sampled_gram_defect(ctx.system, ctx.measure, ctx.system.n_points)


def check_recurrence_fit(ctx):
    worst = 0.0
    for _, _, resid, scale in _ladder_fits(ctx.system.poles, ctx.system.levels):
        worst = max(worst, resid / scale)
    return worst


def check_determinant(ctx):
    d, resid = determinant_residual_stack(ctx.system, range(ctx.system.n_max + 1))
    return float(max(np.max(resid), np.max(np.abs(d - 2.0))))


def check_para_zeros(ctx):
    s = ctx.system
    pairs = [para_pair(s, n, tau) for n in range(1, s.n_max + 1) for tau in (1.0, 1.0j, -1.0, -1.0j)]
    return max((float(np.abs(np.abs(zs) - 1.0).max()) for zs in para_zeros_stack(pairs)), default=0.0)


def check_second_kind(ctx):
    s = ctx.system
    _, t = boundary_grid(512)
    # one quadrature for every level; the comparison is one evaluation
    integral = second_kind_integral_stack(ctx.measure, s, range(s.n_max + 1))
    psi_int, psi_rec = np.split(evaluate_stack(integral + [lv.psi for lv in s.levels], t), 2)
    return float(np.max(np.abs(psi_int - psi_rec)))


def check_interpolation(ctx):
    resid, witness = interpolation_residual_stack(ctx.system, ctx.F, range(ctx.system.n_max + 1))
    worst = float(np.max(resid))
    return max(worst, 1.0) if np.min(witness) <= 1e-8 else worst


def check_multiplier_identities(ctx):
    s = ctx.system
    levels = range(s.n_max + 1)
    return float(np.max(second_kind_functional_residual_stack(s, ctx.measure, levels, seed=ctx.seed)))


def check_arf_consistency(ctx):
    s = ctx.system
    worst = 0.0
    for k in range(min(3, s.n_max) + 1):
        worst = max(worst, arf_discrepancy(ctx.arf(k)))
    return worst


def check_arf_orthogonality(ctx):
    worst = 0.0
    for k in range(min(2, ctx.system.n_max) + 1):
        arf = ctx.arf(k)
        worst = max(worst, _sampled_gram_defect(arf.system, arf.mu_k, arf.mu_k.params["w"].size))
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
            d, resid = identity_residual_stack(Gs, Js, [superstar(G) for G in Gs], [superstar(J) for J in Js])
            worst = max(worst, float(np.max(resid)), float(np.max(np.abs(d.real - 2.0))))
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
    s = ctx.system
    n = max(s.n_max, 1)
    lams = _disk_sample(ctx.seed + 1, 0.6, n)
    poles = s.poles if len(s.poles) >= n + 1 else PoleSequence(np.concatenate([s.poles.beta, [0.0]]))
    # the recurrence on the ladder's own poles, which the config has admitted
    levels = _run_recurrence(poles, _level_zero(poles, 1.0), ((lam, 1.0) for lam in lams))
    worst = 0.0
    for i, fit in enumerate(_ladder_fits(poles, levels), start=1):
        worst = max(worst, abs(_parameters(i, fit)[0] - lams[i - 1]))
    return worst


def check_roundtrip_measure(ctx):
    # the density back from the ladder's own C-function: a lambda ladder's
    # psi*_m/phi*_m needs no moment series of its density
    theta, _ = boundary_grid(512)
    w = weight_from_caratheodory(ctx.F, ctx.system.poles.beta[0], theta)
    return float(np.max(np.abs(w - ctx.measure.weight(theta))))


def check_serialization(ctx):
    # compact dumps: they differ from the artifact's indented ones only in
    # whitespace, so they are equal exactly when those are
    blob = json.dumps(serialize.system_to_dict(ctx.system))
    again = json.dumps(serialize.system_to_dict(serialize.system_from_dict(json.loads(blob))))
    return 0.0 if blob == again else 1.0


_CHECKS = {
    "orthonormality": check_orthonormality,
    "recurrence_fit": check_recurrence_fit,
    "determinant": check_determinant,
    "para_zeros": check_para_zeros,
    "second_kind": check_second_kind,
    "interpolation": check_interpolation,
    "multiplier_identities": check_multiplier_identities,
    "arf_consistency": check_arf_consistency,
    "arf_orthogonality": check_arf_orthogonality,
    "relations": check_relations,
    "remark": check_remark,
    "positivity": check_positivity,
    "roundtrip_lambda": check_roundtrip_lambda,
    "roundtrip_measure": check_roundtrip_measure,
    "serialization": check_serialization,
}


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
