import numpy as np
import pytest

from orfkit import (
    DomainError,
    PoleSequence,
    RatFun,
    builtin_measure,
    evaluate,
    gram_schmidt_orf,
    synthesize,
)
from orfkit.engine import POLE_CAP
from orfkit.measure import boundary_grid
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


def probe_ladder(n, seed, cap=0.7, lcap=0.2):
    """The seeded probe ladder, synthesized on its completion grid: from
    default_rng(seed), poles disk(cap, n + 1), beta_0 included, drawn first,
    then lambdas disk(lcap, n), disk(c, m) holding m points c sqrt(u) e^(2 pi i v)
    for uniform u, v. The pole cap is overridden only above POLE_CAP."""
    rng = np.random.default_rng(seed)

    def disk(c, m):
        return c * np.sqrt(rng.random(m)) * np.exp(2j * np.pi * rng.random(m))

    poles = PoleSequence(disk(cap, n + 1))
    return synthesize(disk(lcap, n), poles, allow_poles_near_circle=cap > POLE_CAP)


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
