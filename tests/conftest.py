import dataclasses

import numpy as np
import pytest

from orfkit import (
    DomainError,
    OrfSystem,
    PoleSequence,
    RatFun,
    builtin_measure,
    evaluate,
    gram_schmidt_orf,
    superstar,
    synthesize,
)
from orfkit.engine import POLE_CAP
from orfkit.measure import CaratheodoryFn, boundary_grid
from orfkit.ratfun import TAU_POLE


def _pole_tol(z):
    """The pole-proximity tolerance TAU_POLE (1 + |z|) at the points z."""
    return TAU_POLE * (1.0 + np.abs(z))


def random_poles(seed, count, cap=0.7):
    rng = np.random.default_rng(seed)
    return PoleSequence(
        cap * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    )


def random_lambdas(seed, count, cap=0.6):
    rng = np.random.default_rng(seed)
    return cap * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))


def substar_eval(f: RatFun, z):
    """The substar conjugate f_*(z) = conj(f(1/conj(z))), evaluated as defined:
    a reference for superstar and the multiplier identities.

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


def _probe_disk(seed):
    """disk(c, m) of the probe ladders: m points c sqrt(u) e^(2 pi i v) for
    uniform u, v, drawn in turn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return lambda c, m: c * np.sqrt(rng.random(m)) * np.exp(2j * np.pi * rng.random(m))


def probe_ladder(n, seed, cap=0.7, lcap=0.2):
    """The seeded probe ladder, synthesized on its completion grid: from
    default_rng(seed), poles disk(cap, n + 1), beta_0 included, drawn first,
    then lambdas disk(lcap, n). The pole cap is overridden only above POLE_CAP."""
    disk = _probe_disk(seed)
    poles = PoleSequence(disk(cap, n + 1))
    return synthesize(disk(lcap, n), poles, allow_poles_near_circle=cap > POLE_CAP)


def probe_poisson(n, seed, cap=0.7):
    """The Poisson probe ladder: gram_schmidt_orf of the Poisson measure of
    alpha = 0.3 - 0.2i on the poles of probe_ladder(n, seed, cap)."""
    poles = PoleSequence(_probe_disk(seed)(cap, n + 1))
    return gram_schmidt_orf(builtin_measure("poisson", alpha=0.3 - 0.2j), poles, n)


def perturbed_ladders(system, n=3, size=1e-6):
    """Copies of the ladder, each with one stored datum off by a relative size,
    by name:
    - "phi", "phi*", "psi", "psi*": that function of level n, its numerator
      coefficient c_k times 1 + size e^(ik), so that the function leaves the
      span the recurrence allows and no real or unimodular factor undoes it;
    - "lambda": lambda_n moved by size e^(i pi/4), the disk's radius its scale;
    - "rho": rho_n turned by size radians; "e": e_n times 1 + size;
    - "top": phi_m of the top level m bent as phi_n is, and phi_m^* set to
      its superstar; the C-function is rebuilt as the constructor builds it,
      from the top level on a ladder without a measure;
    - "F", on a ladder with a measure only: the C-function times
      1 + size e^(i pi/4), its numerators (top, bot) as that factor times top, and bot.
    Every other datum, and the grid, is the ladder's own."""

    def bent(f):
        return RatFun(f.poles, f.numer * (1 + size * np.exp(1j * np.arange(f.numer.size))), f.n)

    def with_level(k, caratheodory=system.caratheodory, **changes):
        levels = list(system.levels)
        levels[k] = dataclasses.replace(levels[k], **changes)
        return OrfSystem(system.poles, levels, system.source, system.measure, caratheodory, system.n_points)

    lv, F, tilt = system.level(n), system.caratheodory, size * np.exp(0.25j * np.pi)
    out = {name.replace("_star", "*"): with_level(n, **{name: bent(getattr(lv, name))})
           for name in ("phi", "phi_star", "psi", "psi_star")}
    out["lambda"] = with_level(n, lam=lv.lam + tilt)
    out["rho"] = with_level(n, rho=lv.rho * np.exp(1j * size))
    out["e"] = with_level(n, e=lv.e * (1 + size))
    phi_m = bent(system.level(system.n_max).phi)
    out["top"] = with_level(system.n_max, None, phi=phi_m, phi_star=superstar(phi_m))
    if system.measure is not None:
        wrong = CaratheodoryFn(lambda z: (1 + tilt) * F(z), F.beta0)
        wrong.numerators = (1 + tilt) * F.numerators[0], F.numerators[1]
        out["F"] = OrfSystem(system.poles, system.levels, system.source, system.measure, wrong, system.n_points)
    return out


@pytest.fixture(scope="session")
def lebesgue():
    return builtin_measure("lebesgue")


@pytest.fixture(scope="session")
def worked_system(lebesgue):
    # the golden configuration: beta = [0, 0.5, 0], Lebesgue, two levels
    return gram_schmidt_orf(lebesgue, PoleSequence([0.0, 0.5, 0.0]), 2)


@pytest.fixture(scope="session")
def poisson_system():
    # measure-sourced ladder with distinct complex poles
    mu = builtin_measure("poisson", alpha=0.3 - 0.2j)
    poles = PoleSequence([0.1 + 0.1j, -0.35, 0.2 + 0.4j, 0.45j, -0.1 - 0.3j])
    return gram_schmidt_orf(mu, poles, 4)


@pytest.fixture(scope="session")
def synth_system():
    # parameter-sourced ladder, nontrivial lambdas and poles
    return synthesize(random_lambdas(11, 4), random_poles(7, 5))


@pytest.fixture(scope="session")
def expcos_system():
    # measure-sourced ladder whose associated C-functions are not constant:
    # the table of exp(cos theta) on 512 points, poles disk(0.7, 13) of seed 0
    theta = boundary_grid(512)[0]
    mu = builtin_measure("samples", theta=theta, w=np.exp(np.cos(theta)))
    return gram_schmidt_orf(mu, random_poles(0, 13), 12)
