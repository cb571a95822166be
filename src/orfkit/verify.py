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
    OrfSystem,
    _fit_step,
    _gram_defect,
    _min_separation,
    _run_recurrence,
    determinant_residual,
    extract_parameters,
    interpolation_residuals,
    measure_from_system,
    para_pair,
    para_zeros,
    second_kind_functional_residual,
    second_kind_integral,
    synthesize,
)
from .errors import OrfkitError
from .measure import boundary_grid
from .ratfun import PoleSequence
from .transforms import (
    apply_transform,
    arf_discrepancy,
    arf_recurrence,
    relation_residuals,
    remark_identity_residual,
)

DEFAULT_TOLERANCES = {
    "orthonormality": 1e-9,
    "recurrence_fit": 1e-9,
    "determinant": 1e-10,
    "para_zeros": 1e-9,
    "second_kind": 1e-8,
    "interpolation": 1e-8,
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
    associated ladders, and the shared RNG seed for sampled checks. The
    measure and each associated ladder are built once per context."""

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

    @property
    def grid(self):
        return self.system.n_points or 1024

    def tol(self, name):
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


def _sampled_gram_defect(system, mu, n_points):
    theta, t = boundary_grid(n_points)
    return _gram_defect([np.asarray(lv.phi(t)) for lv in system.levels], mu.weight(theta))


def check_orthonormality(ctx):
    return _sampled_gram_defect(ctx.system, ctx.measure, ctx.grid)


def check_recurrence_fit(ctx):
    s = ctx.system
    worst = 0.0
    for n in range(1, s.n_max + 1):
        prev, cur = s.level(n - 1), s.level(n)
        _, _, resid, scale = _fit_step(s.poles, n, prev.phi, prev.phi_star, cur.phi)
        worst = max(worst, resid / scale)
    return worst


def check_determinant(ctx):
    worst = 0.0
    for n in range(ctx.system.n_max + 1):
        d, resid = determinant_residual(ctx.system, n)
        worst = max(worst, resid, abs(d - 2.0))
    return worst


def check_para_zeros(ctx):
    worst = 0.0
    for n in range(1, ctx.system.n_max + 1):
        for tau in (1.0, 1.0j, -1.0, -1.0j):
            zs = para_zeros(para_pair(ctx.system, n, tau))
            worst = max(worst, float(np.max(np.abs(np.abs(zs) - 1.0))))
    return worst


def check_second_kind(ctx):
    s = ctx.system
    mu = ctx.measure
    rebuilt = _run_recurrence(s.poles, s.level(0), ((lv.lam, lv.rho, lv.e) for lv in s.levels[1:]))
    _, t = boundary_grid(512)
    worst = 0.0
    for n in range(s.n_max + 1):
        psi_int = second_kind_integral(mu, s, n)
        worst = max(worst, float(np.max(np.abs(psi_int(t) - rebuilt[n].psi(t)))))
    return worst


def check_interpolation(ctx):
    s = ctx.system
    worst = 0.0
    for n in range(s.n_max + 1):
        if not _min_separation(s.poles.beta[: n + 1]) > 1e-12:
            continue
        rep = interpolation_residuals(s, ctx.F, n, seed=ctx.seed)
        worst = max(worst, rep.max_residual() / rep.scale)
        if rep.g_min <= 1e-8 * rep.scale or rep.g_at_anchor <= 1e-8 * rep.scale:
            worst = max(worst, 1.0)
    return worst


def check_multiplier_identities(ctx):
    worst = 0.0
    for n in range(ctx.system.n_max + 1):
        worst = max(worst, second_kind_functional_residual(ctx.system, ctx.measure, n, seed=ctx.seed))
    return worst


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
        worst = max(worst, _sampled_gram_defect(arf.system, arf.mu_k, ctx.grid))
    return worst


def check_relations(ctx):
    s = ctx.system
    worst = 0.0
    for j, k, n in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        if n > s.n_max:
            continue
        worst = max(worst, relation_residuals(ctx.arf(j), ctx.arf(k), n).max_residual())
    return worst


def check_remark(ctx):
    s = ctx.system
    worst = 0.0
    for k in range(1, min(3, s.n_max) + 1):
        quad = ctx.arf(k).quad
        for n in range(1, s.n_max - k + 1):
            G, _, J, _ = apply_transform(s, quad, 2.0, n)
            d, resid = remark_identity_residual(G, J)
            worst = max(worst, resid, abs(d - 2.0))
    return worst


def check_positivity(ctx):
    s = ctx.system
    rng = np.random.default_rng(ctx.seed)
    zs = 0.9 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    worst = 0.0
    for k in range(min(3, s.n_max) + 1):
        Fk = ctx.arf(k).F_k
        worst = max(worst, Fk.anchor_residual)
        if np.min(np.real(np.asarray(Fk(zs)))) <= 0:
            worst = max(worst, 1.0)
    return worst


def check_roundtrip_lambda(ctx):
    s = ctx.system
    rng = np.random.default_rng(ctx.seed + 1)
    n = max(s.n_max, 1)
    lams = 0.6 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    poles = s.poles if len(s.poles) >= n + 1 else PoleSequence(np.concatenate([s.poles.beta, [0.0]]))
    synth = synthesize(lams, poles)
    worst = 0.0
    for i in range(1, n + 1):
        worst = max(worst, abs(extract_parameters(synth, i)[0] - lams[i - 1]))
    return worst


def check_roundtrip_measure(ctx):
    from .measure import caratheodory_from_measure, weight_from_caratheodory

    mu = ctx.measure
    theta, _ = boundary_grid(512)
    F = caratheodory_from_measure(mu, ctx.system.poles.beta[0], n_points=ctx.grid)
    w = weight_from_caratheodory(F, ctx.system.poles.beta[0], theta)
    return float(np.max(np.abs(w - mu.weight(theta))))


def check_serialization(ctx):
    blob = serialize.dumps(serialize.system_to_dict(ctx.system))
    again = serialize.dumps(serialize.system_to_dict(serialize.system_from_dict(json.loads(blob))))
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
