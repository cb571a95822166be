import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from orfkit import (
    DivisionRemainderTooLarge,
    OrfkitError,
    OrfSystem,
    PoleSequence,
    RatFun,
    blaschke_factor,
    builtin_measure,
    caratheodory_from_measure,
    cli,
    engine,
    evaluate_stack,
    gram_schmidt_orf,
    measure,
    measure_from_system,
    ratfun,
    superstar,
    synthesize,
    transforms,
    verify,
    weight_from_caratheodory,
)
from orfkit.engine import _circle_nodes
from orfkit.measure import boundary_grid, default_grid
from orfkit.verify import CHECK_NAMES, DEFAULT_TOLERANCES, VerifyContext, run_verification

from conftest import perturbed_ladders, probe_ladder, probe_poisson, substar_eval


def _ladder():
    rng = np.random.default_rng(4)
    lams, betas = (
        cap * np.sqrt(rng.uniform(size=4)) * np.exp(2j * np.pi * rng.uniform(size=4)) for cap in (0.5, 0.6)
    )
    return synthesize(lams, PoleSequence(np.concatenate([[0.0], betas])))


def _disk(rng, cap, size):
    return cap * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))


def _measure_ladder(kind, n, seed, beta0=0.0):
    # beta_0 as given, the other poles up to 0.7 and a Poisson alpha up to 0.6
    rng = np.random.default_rng(seed)
    poles = PoleSequence(np.concatenate([[beta0], _disk(rng, 0.7, n)]))
    if kind == "lebesgue":
        return gram_schmidt_orf(builtin_measure("lebesgue"), poles, n)
    return gram_schmidt_orf(builtin_measure("poisson", alpha=complex(_disk(rng, 0.6, 1)[0])), poles, n)


def _failing(system, which=None):
    report = run_verification(VerifyContext(system, seed=0, tolerances={}), which)
    return {name: entry["residual"] for name, entry in report.items() if not entry["pass"]}


def _count(monkeypatch, calls, module, name):
    original = getattr(module, name)
    calls.setdefault(name, 0)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_verify_builds_each_order_once(monkeypatch):
    s = _ladder()
    calls = {}
    for module, name in (
        (transforms, "check_quad"),
        (transforms, "transformed_caratheodory"),
        (verify, "measure_from_system"),
        (verify, "arf_recurrence"),
        (transforms, "arf_recurrence"),
        (verify, "szego_rule"),
        (transforms, "apply_transform_stack"),
        (verify, "apply_transform_stack"),
    ):
        # a name counts wherever a caller looks it up
        if hasattr(module, name):
            _count(monkeypatch, calls, module, name)
    report = run_verification(VerifyContext(s, seed=0, tolerances={}))
    assert [name for name, entry in report.items() if entry["pass"]] == list(CHECK_NAMES)
    # orders 0..3 each get one ladder, one quad and one transformed
    # C-function, whose own anchor residual positivity reads back; the explicit
    # transforms of levels k + 1..4 are built in one pass per order and the
    # remark check reuses those of orders 1..3
    assert calls == {
        "check_quad": 4,
        "transformed_caratheodory": 4,
        "measure_from_system": 1,
        "arf_recurrence": 4,
        "szego_rule": 3,
        "apply_transform_stack": 4,
    }


def test_verify_fits_the_ladder_once(monkeypatch):
    # recurrence_fit and roundtrip_lambda read one fit of the stored ladder
    calls = {}
    for module in (engine, verify):
        _count(monkeypatch, calls, module, "_fit_ladder")
    report = run_verification(VerifyContext(_ladder(), seed=0, tolerances={}))
    assert all(entry["pass"] for entry in report.values())
    assert calls == {"_fit_ladder": 1}


def test_verify_checks_the_top_order_quad(monkeypatch):
    # with n_max = 2 the top order has no level above it to transform, yet
    # its quad is still built and checked, as at every order
    rng = np.random.default_rng(4)
    s = synthesize(_disk(rng, 0.5, 2), PoleSequence(np.concatenate([[0.0], _disk(rng, 0.6, 2)])))
    calls = {}
    _count(monkeypatch, calls, transforms, "check_quad")
    report = run_verification(VerifyContext(s, seed=0, tolerances={}))
    assert all(entry["pass"] for entry in report.values())
    assert calls == {"check_quad": s.n_max + 1}


@pytest.mark.parametrize("k", [1, 3])
def test_check_quad_evaluates_on_arrays(monkeypatch, k):
    s = _ladder()
    quad = transforms.arf_quad(s, k)
    calls = {}
    _count(monkeypatch, calls, ratfun, "evaluate")
    report = transforms.check_quad(quad, s.caratheodory, s.poles)
    assert report == quad.report and report.passed
    assert calls["evaluate"] <= 40


@pytest.mark.parametrize(
    "kind, n, seed, beta0",
    [
        pytest.param("poisson", 16, 0, 0.0, id="poisson-16-0"),
        pytest.param("lebesgue", 24, 1, 0.0, id="lebesgue-24-1"),
        pytest.param("poisson", 20, 2, 0.3 - 0.4j, id="poisson-20-2-beta0"),
    ],
)
def test_measure_ladder_beyond_n_12(kind, n, seed, beta0):
    # the second-kind companions set the accuracy of every check and of the
    # associated ladder built from them
    s = _measure_ladder(kind, n, seed, beta0)
    assert _failing(s) == {}
    assert transforms.arf_discrepancy(transforms.arf_recurrence(s, 1)) < cli.ARF_AGREEMENT


@pytest.mark.parametrize("n", [16, 32])
def test_polynomial_ladder(n):
    # Lebesgue with every pole at 0 is the monomial ladder, all lambda_n = 0
    s = gram_schmidt_orf(builtin_measure("lebesgue"), PoleSequence([0.0] * (n + 1)), n)
    assert max(abs(lv.lam) for lv in s.levels[1:]) < 1e-12
    assert _failing(s) == {}


def test_synthesized_n_32_second_kind():
    rng = np.random.default_rng(2)
    s = synthesize(_disk(rng, 0.2, 32), PoleSequence(_disk(rng, 0.7, 33)))
    assert _failing(s, ["second_kind", "multiplier_identities"]) == {}


@pytest.mark.parametrize("kind", ["lebesgue", "poisson"])
def test_measure_ladder_n_32_random_beta0(kind):
    # beta_0 drawn with the other poles, all up to 0.85: these four identities
    # failed by factors of 1.2-2.7 while each psi_n came from quadrature
    rng = np.random.default_rng([32, 0, 7])
    poles = PoleSequence(_disk(rng, 0.85, 33))
    mu = builtin_measure("lebesgue") if kind == "lebesgue" else builtin_measure("poisson", alpha=0.3 - 0.2j)
    s = gram_schmidt_orf(mu, poles, 32)
    assert _failing(s, ["determinant", "interpolation", "arf_consistency", "remark"]) == {}


@pytest.mark.parametrize("kind", ["lambdas", "poisson"])
def test_interpolation_at_n_48(kind):
    # the pointwise residual divided by a scale of order |B_{n-1}| taken in
    # the disk and read 4.2e-8 (lambdas) and 7.7e-8 (poisson) here
    rng = np.random.default_rng(0)
    if kind == "lambdas":
        poles = PoleSequence(_disk(rng, 0.7, 49))
        s = synthesize(_disk(rng, 0.2, 48), poles)
        assert s.n_points == 8192
    else:
        poles = PoleSequence(np.concatenate([[0.0], _disk(rng, 0.7, 48)]))
        s = gram_schmidt_orf(builtin_measure("poisson", alpha=0.3 - 0.2j), poles, 48)
    assert verify.check_interpolation(VerifyContext(s, seed=0, tolerances={})) <= 1e-12


def test_rational_completion_has_mass_one():
    # the n = 64 ladder's grid is 32768 points; a mass taken as the density's
    # mean on a fixed 8192-point grid was off by 1.2e-4
    rng = np.random.default_rng(1)
    poles = PoleSequence(_disk(rng, 0.7, 65))
    s = synthesize(_disk(rng, 0.2, 64), poles)
    ctx = VerifyContext(s, seed=0, tolerances={})
    assert ctx.measure.mass == 1.0
    assert verify.check_orthonormality(ctx) < 1e-9


def _series_roundtrip(s):
    """The density of a lambda ladder back through the moment series of its
    rational completion density, against that density on 512 points."""
    mu, theta = measure_from_system(s), boundary_grid(512)[0]
    F = caratheodory_from_measure(mu, s.poles.beta[0], n_points=s.n_points)
    return float(np.max(np.abs(weight_from_caratheodory(F, theta) - mu.weight(theta))))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roundtrip_measure_on_lambda_ladder(seed):
    # beta_0 is drawn with the other poles, so the moment series is
    # anchored away from the origin
    rng = np.random.default_rng(seed)
    lams, betas = _disk(rng, 0.4, 6), _disk(rng, 0.7, 7)
    assert abs(betas[0]) > 0.1
    assert _series_roundtrip(synthesize(lams, PoleSequence(betas))) <= 1e-6


def test_roundtrip_measure_where_zeta0_ran_out():
    # poles first, |beta_0| = 0.55, top zero 0.9975: pulled back through
    # zeta_0 this density needed more than 65536 moments; read on the grid
    # it lives on, its series converges at 65536
    rng = np.random.default_rng(7)
    betas, lams = _disk(rng, 0.7, 17), _disk(rng, 0.4, 16)
    assert _series_roundtrip(synthesize(lams, PoleSequence(betas))) <= 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roundtrip_measure_reads_the_ladders_own_c_function(monkeypatch, seed):
    # the synthesized n = 64 probes (poles first, cap 0.7, lcap 0.2), whose
    # moment series runs out at 65536 points; the check reads psi*_m/phi*_m
    # and runs no series
    rng = np.random.default_rng(seed)
    betas, lams = _disk(rng, 0.7, 65), _disk(rng, 0.2, 64)
    s = synthesize(lams, PoleSequence(betas))
    monkeypatch.setattr(measure, "_moment_series", None)
    assert _failing(s, ["roundtrip_measure"]) == {}


def test_poisson_ladder_with_random_beta0(monkeypatch):
    # alpha first, then all 17 poles with beta_0 among them; the moments
    # decay as |alpha|^k, and the first grid resolves them
    grids = []
    original = measure._moment_series
    monkeypatch.setattr(measure, "_moment_series", lambda mu, b0, n: grids.append(n) or original(mu, b0, n))
    rng = np.random.default_rng(1032)
    mu = builtin_measure("poisson", alpha=complex(_disk(rng, 0.6, 1)[0]))
    s = gram_schmidt_orf(mu, PoleSequence(_disk(rng, 0.7, 17)), 16)
    assert _failing(s) == {}
    assert grids and max(grids) <= 2048


@pytest.mark.parametrize(
    "seed, check, limit, rows",
    [
        pytest.param(8, "arf_orthogonality", 1e-12, 4096, id="seed-8"),
        pytest.param(4, "roundtrip_measure", 1e-6, 16384, id="seed-4"),
    ],
)
def test_densities_read_on_the_circle(seed, check, limit, rows):
    # Re F on |t| = 1 leaves rounding error only: the two-radius probe left
    # 4.0e-6 in roundtrip_measure on seed 4, and the base ladder's grid of
    # 2048 left 1.2e-7 in arf_orthogonality on seed 8, whose order 1 needs
    # 4096 points
    rng = np.random.default_rng(seed)
    lams, betas = _disk(rng, 0.4, 12), _disk(rng, 0.7, 13)
    ctx = VerifyContext(synthesize(lams, PoleSequence(betas)), seed=0, tolerances={})
    assert run_verification(ctx, [check])[check]["residual"] <= limit
    assert ctx.arf(1).mu_k.params["w"].size == rows


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_synthesized_n_64_passes_every_check(seed):
    # the lambda path at n = 64, where rounding in any layer shows first;
    # seed 0 failed interpolation (about 1.2e-10) while that check read its
    # stored numerators on the circle (ROADMAP items 2 and 21)
    assert _failing(probe_ladder(64, seed)) == {}


@pytest.mark.parametrize("n, seed", [(64, 0), (128, 2)], ids=["n64-seed0", "n128-seed2"])
def test_interpolation_passes_at_n_64_and_128(n, seed):
    # read on the circle, the stored numerators over pi_n gave 1.2e-10 and
    # 2.3e-9 (cond 1.1e6 and 1.6e7); the lines' remainders read 1.1e-12
    # and 6.2e-12, and the witness stays above 1e-4
    report = run_verification(VerifyContext(probe_ladder(n, seed), seed=0, tolerances={}), ["interpolation"])
    assert report["interpolation"]["pass"] and report["interpolation"]["residual"] <= 1e-11


def test_synthesized_n_64_seed_0_passes_on_its_rule():
    # the checks that sum on the Szegő rule pass on this ladder (cond
    # 1.1e6): the rule's nodes and weights come from (lambda_k, rho_k), not
    # from the stored numerators, whose rounding would move a node by up
    # to about 6e-5; orthonormality reads about 2.3e-10 against 1e-9
    checks = ["orthonormality", "multiplier_identities", "arf_orthogonality"]
    assert _failing(probe_ladder(64, 0), checks) == {}


@pytest.mark.parametrize("which", ["lambda n = 64 cap 0.9", "Poisson n = 64"])
def test_numerator_identities_leave_the_representation_error_to_the_value_checks(which):
    # the recurrence, the two associated routes and the determinant identity
    # of the ladder and of its associated pairs are identities between
    # numerators: they hold to rounding on these ladders, whose stored
    # numerators carry a representation error that the value checks read;
    # on the cap-0.9 ladder interpolation's witness finds the first line's
    # cofactor winding on the circle from level 39, and the Poisson ladder
    # passes every check
    lam = which.startswith("lambda")
    s = probe_ladder(64, 0, cap=0.9) if lam else probe_poisson(64, 0)
    numerator_checks = ["recurrence_fit", "roundtrip_lambda", "arf_consistency", "determinant", "remark"]
    which_checks = numerator_checks + ["interpolation"] if lam else None
    report = run_verification(VerifyContext(s, seed=0, tolerances={}), which_checks)
    for name in numerator_checks:
        assert report[name]["residual"] <= 1e-12, name
    assert {name for name, entry in report.items() if not entry["pass"]} == ({"interpolation"} if lam else set())
    assert len(report) == (6 if lam else len(CHECK_NAMES))


@pytest.mark.parametrize(
    "which",
    ["lambda n = 64", "lambda n = 128 seed 2", "lambda n = 64 cap 0.9", "Poisson n = 64"],
)
def test_determinant_and_remark_pass_alone_at_n_64_and_128(which):
    # the probes whose stored numerators failed both on 512 circle points,
    # by up to 2.9e-6 and 4.5e-6 at cap 0.9
    s = {
        "lambda n = 64": lambda: probe_ladder(64, 0),
        "lambda n = 128 seed 2": lambda: probe_ladder(128, 2),
        "lambda n = 64 cap 0.9": lambda: probe_ladder(64, 0, cap=0.9),
        "Poisson n = 64": lambda: probe_poisson(64, 0),
    }[which]()
    assert _failing(s, ["determinant", "remark"]) == {}


def test_determinant_reads_rounding_at_n_256():
    # 2.2e-5 on 512 circle points; its remark raises in arf_quad, on the
    # zero-free gate (ROADMAP item 4)
    report = run_verification(VerifyContext(probe_ladder(256, 1), seed=0, tolerances={}), ["determinant"])
    assert report["determinant"]["residual"] <= 1e-11


def test_wrong_determinant_constant_fails_the_check():
    # a level scaled by 1.01 turns the constant 2 into 2.0402, read against
    # that level's own scale: a failed check with a finite residual, not an error
    s = _ladder()
    lv = s.level(2)
    levels = list(s.levels)
    levels[2] = dataclasses.replace(
        lv, phi=1.01 * lv.phi, phi_star=1.01 * lv.phi_star, psi=1.01 * lv.psi, psi_star=1.01 * lv.psi_star
    )
    scaled = OrfSystem(s.poles, levels, s.source, n_points=s.n_points)
    entry = run_verification(VerifyContext(scaled, seed=0, tolerances={}), ["determinant"])["determinant"]
    assert not entry["pass"] and "error" not in entry
    assert entry["residual"] == pytest.approx(0.0402 / 2.0402, rel=1e-6)


def _nan_ladder():
    """probe_ladder(6, 3) with stored phi_3's coefficient 1 set to NaN."""
    s = probe_ladder(6, 3)
    phi = s.level(3).phi
    numer = phi.numer.copy()
    numer[1] = np.nan
    levels = list(s.levels)
    levels[3] = dataclasses.replace(levels[3], phi=RatFun(phi.poles, numer, phi.n))
    return OrfSystem(s.poles, levels, s.source, s.measure, s.caratheodory, s.n_points)


def test_nan_ladder_fails_the_fit_checks_and_serialization():
    # the fits of levels 3 and 4 are NaN: both fit checks read NaN, which
    # fails, and serialization refuses to dump it, as the artifact writer does
    checks = ["recurrence_fit", "roundtrip_lambda", "serialization"]
    report = run_verification(VerifyContext(_nan_ladder(), seed=0, tolerances={}), checks)
    for name in ("recurrence_fit", "roundtrip_lambda"):
        assert np.isnan(report[name]["residual"]) and not report[name]["pass"] and "error" not in report[name]
    assert not report["serialization"]["pass"]
    assert report["serialization"]["error"].startswith("ladder not serializable")


def test_nan_ladder_fails_relations_and_para_zeros_with_nan():
    # relations reduces its reports with np.max, which keeps a NaN that is
    # not first; para_zeros reads a non-finite phi_3 as a NaN defect, not as
    # a zero off the circle; interpolation takes the largest remainder with
    # np.max, where Python's max drops a NaN that is not first. The suite
    # turns a RuntimeWarning into an error, so none is raised
    checks = ["relations", "para_zeros", "interpolation"]
    report = run_verification(VerifyContext(_nan_ladder(), seed=0, tolerances={}), checks)
    assert set(report) == set(checks)
    for name, entry in report.items():
        assert np.isnan(entry["residual"]) and not entry["pass"] and "error" not in entry, name


def test_arf_orthogonality_keeps_a_nan_gap(monkeypatch):
    # a NaN C-function gap at order 1 fails the check, whatever order 2 reads
    real = verify._caratheodory_gap
    monkeypatch.setattr(verify, "_caratheodory_gap", lambda arf: np.nan if arf.order == 1 else real(arf))
    ctx = VerifyContext(probe_ladder(6, 3), seed=0, tolerances={})
    entry = run_verification(ctx, ["arf_orthogonality"])["arf_orthogonality"]
    assert np.isnan(entry["residual"]) and not entry["pass"] and "error" not in entry


@pytest.mark.parametrize("which", ["n = 64", "n = 64 cap 0.9", "n = 128 seed 2"])
def test_caratheodory_identity_reads_numerators(monkeypatch, which):
    # F_k = psi*_(k)/phi*_(k) of orders 1 and 2, cross-multiplied on
    # numerators, with the quads built: no function is evaluated, and the
    # gap reads rounding, where on 512 circle points it read 5.1e-10,
    # 7.5e-7 and 3.8e-9
    s = {
        "n = 64": lambda: probe_ladder(64, 0),
        "n = 64 cap 0.9": lambda: probe_ladder(64, 0, cap=0.9),
        "n = 128 seed 2": lambda: probe_ladder(128, 2),
    }[which]()
    arfs = [transforms.arf_recurrence(s, k) for k in (1, 2)]
    assert all(arf.quad.report.passed for arf in arfs)

    def fail(*args, **kwargs):
        raise AssertionError("the C-function gap evaluated a function")

    # every evaluation runs ratfun._horner, or measure's own import of it
    for module, name in [(ratfun, "_horner"), (measure, "_horner"), (ratfun, "blaschke_factor"),
                         (measure, "boundary_grid"), (verify, "boundary_grid")]:
        monkeypatch.setattr(module, name, fail)
    assert max(verify._caratheodory_gap(arf) for arf in arfs) <= 1e-13


@pytest.mark.parametrize("perturbation", ["phi", "phi*", "top"])
def test_roundtrip_lambda_reads_a_fit_that_does_not_close(perturbation):
    # where recurrence_fit fails, roundtrip_lambda still reads the fitted
    # parameters against the stored ones: a finite failing gap, not an error
    s = perturbed_ladders(probe_ladder(6, 3))[perturbation]
    report = run_verification(VerifyContext(s, seed=0, tolerances={}), ["recurrence_fit", "roundtrip_lambda"])
    assert not report["recurrence_fit"]["pass"]
    entry = report["roundtrip_lambda"]
    assert np.isfinite(entry["residual"]) and not entry["pass"] and "error" not in entry


def _matrix_table(failing):
    """The checks each perturbation fails, as text: one row per check, one
    column per perturbation, x where it failed, grouped by ladder;
    failing[ladder][perturbation] is the set of checks that failed."""

    def row(first, mark):
        groups = (" ".join(mark(ladder, p).center(len(p)) for p in perts) for ladder, perts in failing.items())
        return (first.ljust(22) + " | ".join(groups)).rstrip()

    names = " | ".join(ladder.ljust(len(" ".join(perts))) for ladder, perts in failing.items())
    lines = [(" " * 22 + names).rstrip(), row("", lambda ladder, p: p)]
    for name in CHECK_NAMES:
        lines.append(row(name, lambda ladder, p: "x" if name in failing[ladder][p] else "."))
    return "\n".join(lines)


# which checks fail under each perturbation of conftest.perturbed_ladders, of
# relative size 1e-6 at level 3 (and at the top level for "top"), on
# probe_ladder(6, 3) and on the Poisson probe with poles disk(0.5, 7) of
# seed 0; "none" is the ladder itself. A change that blinds a check, or
# makes a check fail where it did not, shows here. On a mismatch the test
# prints the observed table in this form, to be pasted here once the change
# is meant
PERTURBATION_MATRIX = """
                      lambda n = 6                            | Poisson n = 6
                      none phi phi* psi psi* lambda rho e top | none phi phi* psi psi* lambda rho e top F
orthonormality         .    x   .    .   .     x     x  .  x  |  .    x   .    .   .     .     .  .  x  .
recurrence_fit         .    x   x    .   .     .     .  .  x  |  .    x   .    .   .     .     .  .  x  .
determinant            .    x   x    x   x     .     .  .  x  |  .    x   x    x   x     .     .  .  x  .
para_zeros             .    x   x    .   .     .     .  .  .  |  .    x   x    .   .     .     .  .  .  .
second_kind            .    x   .    x   .     x     x  .  x  |  .    x   .    x   .     .     .  .  x  .
interpolation          .    x   .    x   .     .     .  .  x  |  .    x   .    x   .     .     .  .  x  x
multiplier_identities  .    x   x    x   x     x     x  .  x  |  .    x   x    x   x     .     .  .  x  .
arf_consistency        .    x   x    x   x     x     x  .  x  |  .    x   x    x   x     x     x  .  x  x
arf_orthogonality      .    .   .    .   .     x     x  .  x  |  .    x   .    .   .     x     .  .  x  x
relations              .    x   x    x   x     x     x  .  .  |  .    x   .    x   .     x     x  .  .  .
remark                 .    x   x    x   x     .     .  .  x  |  .    x   x    x   x     .     .  .  x  x
positivity             .    x   x    x   x     .     .  .  x  |  .    x   x    x   x     .     .  .  .  x
roundtrip_lambda       .    x   x    .   .     x     x  .  x  |  .    x   .    .   .     x     x  .  x  .
roundtrip_measure      .    .   .    .   .     .     .  .  x  |  .    .   .    .   .     .     .  .  .  x
serialization          .    .   .    .   .     x     .  x  .  |  .    .   .    .   .     x     .  x  .  .
"""


def test_perturbation_matrix():
    failing = {}
    for ladder, s in (("lambda n = 6", probe_ladder(6, 3)), ("Poisson n = 6", probe_poisson(6, 0, cap=0.5))):
        failing[ladder] = {
            name: {c for c, entry in run_verification(VerifyContext(p, seed=0, tolerances={})).items() if not entry["pass"]}
            for name, p in {"none": s, **perturbed_ladders(s)}.items()
        }
    observed = _matrix_table(failing)
    if observed != PERTURBATION_MATRIX.strip("\n"):
        print(observed)  # the observed table, in the form pinned above
    assert observed == PERTURBATION_MATRIX.strip("\n")
    # every check fails on some perturbation of one of the ladders
    assert set().union(*(cells for row in failing.values() for cells in row.values())) == set(CHECK_NAMES)


# -- per-level references ------------------------------------------------------
# The checks below once ran one level (or one order, or one pair) per call.
# These are those bodies, kept to pin the stacked checks to them.


def reference_identity_residual(f, g, f_star, g_star):
    # both sides as numerators over pi_m^2: 2 P_m B_m pi_m^2 is c q(z) z^m conj(q(1/conj(z))), q the
    # monic polynomial with zeros beta_0..beta_{m-1}, c = 2 (1 - |beta_m|^2)/(1 - |beta_0|^2) upsilon_m
    m, beta = f.n, f.poles.beta
    left = npp.polyadd(npp.polymul(f_star.numer, g.numer), npp.polymul(f.numer, g_star.numer))
    q = npp.polyfromroots(beta[:m])
    ups = np.prod([np.conj(b) / abs(b) if b else 1.0 for b in beta[1 : m + 1]])
    right = 2.0 * (1 - abs(beta[m]) ** 2) / (1 - abs(beta[0]) ** 2) * ups * npp.polymul(q, np.conj(q[::-1]))
    return float(np.max(np.abs(npp.polysub(left, right))) / np.max(np.abs(left)))


def reference_determinant(ctx):
    worst = 0.0
    for lv in ctx.system.levels:
        worst = max(worst, reference_identity_residual(lv.phi, lv.psi, lv.phi_star, lv.psi_star))
    return worst


def _min_separation(pts) -> float:
    """Smallest pairwise distance among the points (inf for fewer than two)."""
    if len(pts) < 2:
        return np.inf
    diffs = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diffs, np.inf)
    return float(diffs.min())


def reference_para_zeros(c):
    scale = float(np.max(np.abs(c)))
    m = c.size - 1
    while m >= 0 and abs(c[m]) < 1e-13 * scale:
        m -= 1
    trimmed = c[: m + 1]
    roots = npp.polyroots(trimmed)
    pv = npp.polyval(roots, trimmed)
    dv = npp.polyval(roots, npp.polyder(trimmed))
    ok = np.abs(dv) > 0
    roots = np.where(ok, roots - np.where(ok, pv / np.where(ok, dv, 1.0), 0.0), roots)
    off = np.abs(np.abs(roots) - 1.0)
    if np.any(off > 1e-9) or _min_separation(roots) < 1e-8:
        return np.inf
    return float(np.max(off))


def reference_check_para_zeros(ctx):
    worst = 0.0
    for lv in ctx.system.levels[1:]:
        for tau in (1.0, 1.0j, -1.0, -1.0j):
            worst = max(worst, reference_para_zeros(lv.phi.numer + tau * lv.phi_star.numer))
    return worst


def reference_interpolation(s, F, n):
    """One level on numerators, each product by polymul: the lines
    phi_n top + psi_n bot and phi_n^* top - psi_n^* bot, F = top/bot, the
    superstars reversed from the stored phi_n and psi_n, with z - beta_j
    divided out by polydiv for j < n and j <= n in turn. The largest
    remainder over the first line's largest coefficient, or at least 1 when
    polyroots finds a zero of the first line's quotient in the closed disk."""
    top, bot = F.numerators
    lv = s.level(n)
    phi_s, psi_s = (s.poles.upsilon(n) * np.conj(f.numer[::-1]) for f in (lv.phi, lv.psi))
    g = npp.polyadd(npp.polymul(lv.phi.numer, top), npp.polymul(lv.psi.numer, bot))
    h = npp.polysub(npp.polymul(phi_s, top), npp.polymul(psi_s, bot))
    rems = [0.0]

    def divided(line, count):
        for b in s.poles.beta[:count]:
            line, rem = npp.polydiv(line, [-b, 1.0])
            rems.append(np.max(np.abs(rem)))
        return line

    quotient, _ = divided(g, n), divided(h, n + 1)
    resid = float(np.max(rems) / np.max(np.abs(g)))
    zero_free = np.all(np.abs(npp.polyroots(quotient)) > 1.0)
    return resid if zero_free else max(resid, 1.0)


def reference_check_interpolation(ctx):
    s = ctx.system
    return max(reference_interpolation(s, ctx.F, n) for n in range(s.n_max + 1))


def reference_multiplier(s, mu, n, seed):
    N = s.n_points
    poles = s.poles
    theta, t = boundary_grid(N)
    w = mu.weight(theta)
    rng = np.random.default_rng(seed)
    deg = max(n - 1, 0)
    h1 = RatFun(poles, rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1), deg)
    h2 = RatFun(poles, rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1), deg)
    lv = s.level(n)
    zs = _circle_nodes(6, N)

    def means(f_t, f_z):
        zt, zz = blaschke_factor(poles, 0, t), blaschke_factor(poles, 0, zs)[:, None]
        return ((zt + zz) / (zt - zz) * (f_t - f_z[:, None]) * w).mean(axis=1)

    phi_t, phi_s_t = evaluate_stack((lv.phi, lv.phi_star), t)
    phi_z, phi_s_z, psi_z, psi_s_z = evaluate_stack((lv.phi, lv.phi_star, lv.psi, lv.psi_star), zs)
    f_t, f_z = substar_eval(h1, t), substar_eval(h1, zs)
    lhs1 = means(phi_t * f_t, phi_z * f_z) + (phi_t * f_t * w).mean()
    rhs1 = psi_z * f_z
    g_t, g_z = substar_eval(h2, t), substar_eval(h2, zs)
    if n:
        g_t, g_z = g_t / blaschke_factor(poles, n, t), g_z / blaschke_factor(poles, n, zs)
    lhs2 = means(phi_s_t * g_t, phi_s_z * g_z) - (phi_s_t * g_t * w).mean()
    rhs2 = -psi_s_z * g_z
    return float(max(
        np.max(np.abs(lhs1 - rhs1)) / max(np.max(np.abs(rhs1)), 1e-30),
        np.max(np.abs(lhs2 - rhs2)) / max(np.max(np.abs(rhs2)), 1e-30),
    ))


def reference_check_multiplier(ctx):
    s = ctx.system
    return max(reference_multiplier(s, ctx.measure, n, ctx.seed) for n in range(s.n_max + 1))


def _padded_polymul(a, b, size):
    out = np.zeros(size, dtype=complex)
    c = npp.polymul(a, b)
    out[: c.size] = c
    return out


def _deflate_root(p, r):
    q, acc = np.zeros(p.size - 1, dtype=complex), p[-1]
    for i in range(p.size - 2, -1, -1):
        q[i] = acc
        acc = p[i] + r * acc
    return q, abs(acc)


def _deflate_reciprocal(p, c):
    q, acc = np.zeros(p.size - 1, dtype=complex), 0.0 + 0.0j
    for i in range(p.size - 1):
        acc = p[i] + c * acc
        q[i] = acc
    return q, abs(p[-1] + c * q[-1])


def reference_explicit(system, quad, n):
    """(G, J) of level N + n, one level per call: the products by polymul and
    the common factor removed from one numerator at a time."""
    N, r = quad.N, quad.r
    m = N + n
    base = system.poles
    lv = system.level(m)
    res_poles = PoleSequence(np.concatenate([quad.tilde_poles.beta, base.beta[N + 1 : m + 1]]))
    kappa = 2.0 + 0.0j
    if N:
        kappa = 2.0 * base.eta(N) * base.upsilon(N - 1) * (1.0 - abs(base.beta[N]) ** 2) / (
            1.0 - abs(base.beta[0]) ** 2
        )
    roots = [base.beta[0]] + list(base.beta[1:N]) if N > 0 else []

    def reduce(num):
        scale = max(float(np.max(np.abs(num))), 1e-300)
        quo, worst = num, 0.0
        for root in roots:
            quo, rem = _deflate_root(quo, root)
            worst = max(worst, rem)
        for root in roots:
            quo, rem = _deflate_reciprocal(quo, np.conj(root))
            worst = max(worst, rem)
        if worst > 1e-10 * scale:
            raise DivisionRemainderTooLarge(f"cancellation remainder {worst:.2e}")
        return RatFun(res_poles, quo / kappa, r + n)

    def pm(a, b):
        return _padded_polymul(a.numer, b.numer, m + N + r + 1)

    return reduce(pm(lv.phi, quad.A) + pm(lv.psi, quad.B)), reduce(pm(lv.phi, quad.C) + pm(lv.psi, quad.D))


def reference_arf_consistency(ctx):
    _, t = boundary_grid(512)
    worst = 0.0
    for k in range(min(3, ctx.system.n_max) + 1):
        arf = ctx.arf(k)
        quad = arf.quad  # built and checked at every order, as ArfSystem.explicit does
        for n in range(k, ctx.system.n_max + 1):
            lv = arf.level(n)
            if n == k:
                one = RatFun(lv.phi.poles, [1.0], 0)
                phi_e = psi_e = one
            else:
                phi_e, psi_e = reference_explicit(ctx.system, quad, n - k)
            pe, qe, p, q = evaluate_stack((phi_e, psi_e, lv.phi, lv.psi), t)
            worst = max(worst, float(np.max(np.abs(pe - p))), float(np.max(np.abs(qe - q))))
    return worst


def reference_remark(ctx):
    worst = 0.0
    for k in range(1, min(3, ctx.system.n_max) + 1):
        for n in range(k + 1, ctx.system.n_max + 1):
            G, J = reference_explicit(ctx.system, ctx.arf(k).quad, n - k)
            worst = max(worst, reference_identity_residual(G, J, superstar(G), superstar(J)))
    return worst


REFERENCES = {
    "determinant": reference_determinant,
    "para_zeros": reference_check_para_zeros,
    "interpolation": reference_check_interpolation,
    "multiplier_identities": reference_check_multiplier,
    "arf_consistency": reference_arf_consistency,
    "remark": reference_remark,
}


def _lambda_ladder(n, seed):
    rng = np.random.default_rng(seed)
    betas = _disk(rng, 0.7, n + 1)
    return synthesize(_disk(rng, 0.5, n), PoleSequence(betas))


@pytest.mark.parametrize(
    "kind, n, seed",
    [
        ("lambdas", 2, 0), ("lambdas", 5, 1), ("lambdas", 8, 2), ("lambdas", 12, 3),
        ("poisson", 3, 4), ("poisson", 7, 5), ("poisson", 12, 6),
        ("lebesgue", 2, 7), ("lebesgue", 10, 8),
    ],
)
def test_stacked_checks_match_per_level_references(kind, n, seed):
    s = _lambda_ladder(n, seed) if kind == "lambdas" else _measure_ladder(kind, n, seed)
    ctx = VerifyContext(s, seed=seed, tolerances={})
    report = run_verification(ctx, list(REFERENCES))
    for name, reference in REFERENCES.items():
        try:
            expected = reference(ctx)
        except OrfkitError:
            expected = np.inf
        entry = report[name]
        assert entry["pass"] == (expected <= DEFAULT_TOLERANCES[name]), name
        assert entry["residual"] == expected or abs(entry["residual"] - expected) <= 1e-12, name


def test_system_without_a_grid_gets_the_default():
    # OrfSystem(poles, levels, source) once kept n_points None, and verify
    # died in boundary_grid(None) with a TypeError
    s = _ladder()
    bare = OrfSystem(s.poles, s.levels, s.source)
    assert bare.n_points == default_grid(s.n_max)
    report = run_verification(VerifyContext(bare, seed=0, tolerances={}))
    assert set(report) == set(CHECK_NAMES)
    assert all(entry["pass"] for entry in report.values()), report


def _traced_verify_peak(s, n_points):
    """Traced peak of a verify of s on n_points, every check but
    roundtrip_measure, which all must pass. An untraced verify of a copy
    runs first, so what earlier tests left cached does not move the peak."""
    names = [c for c in CHECK_NAMES if c != "roundtrip_measure"]

    def fresh():
        return VerifyContext(OrfSystem(s.poles, s.levels, s.source, s.measure, n_points=n_points), seed=0, tolerances={})

    run_verification(fresh(), names)
    ctx = fresh()
    tracemalloc.start()
    try:
        report = run_verification(ctx, names)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(entry["pass"] for entry in report.values()), report
    return peak


def _n6_ladder():
    rng = np.random.default_rng(12)
    return synthesize(_disk(rng, 0.5, 6), PoleSequence(_disk(rng, 0.7, 7)))


def _n6_measure_ladder():
    # the poles of _n6_ladder under a Poisson measure, on 8192 points
    rng = np.random.default_rng(12)
    _disk(rng, 0.5, 6)
    poles = PoleSequence(_disk(rng, 0.7, 7))
    return gram_schmidt_orf(builtin_measure("poisson", alpha=0.3 - 0.2j), poles, 6, n_points=8192)


def test_verify_memory_stays_per_level():
    # no table of several functions on the quadrature grid: phi_n of the 7
    # levels on 8192 points is 0.9 MiB, and whole-grid tables of the four
    # functions of a quad, or of phi_n and psi_n beside their two lines,
    # lift the peak to 2.8 MiB. The peak read 1.43 MiB while this lambda
    # ladder was verified on its 8192-point grid
    assert _traced_verify_peak(_n6_ladder(), 8192) <= 1.6 * 2**20


def test_verify_memory_stays_per_level_on_a_measure_ladder():
    # the same bound on a measure ladder, whose checks still sum on its grid
    assert _traced_verify_peak(_n6_measure_ladder(), 8192) <= 1.6 * 2**20


def test_verify_memory_stays_per_block_at_n24():
    # 25 levels on 16384 points: phi_n of every level is 6.3 MiB, and
    # whole-grid tables of several functions lift the peak to 9.4 MiB. The
    # peak reads 4.48 MiB; Herglotz blocks sized by their rows read 5.58
    rng = np.random.default_rng(24)
    poles = PoleSequence(_disk(rng, 0.7, 25))
    s = synthesize(_disk(rng, 0.3, 24), poles)
    assert _traced_verify_peak(s, 16384) <= 5.0 * 2**20


def test_para_zeros_check_memory_at_n64():
    # the check reads each level's phi_n and phi_n^* once: a batch search
    # for the zeros of all 4n para pairs traces 34.8 MiB on this ladder
    ctx = VerifyContext(probe_ladder(64, 1), seed=0, tolerances={})
    tracemalloc.start()
    try:
        report = run_verification(ctx, ["para_zeros"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["para_zeros"]["pass"], report
    assert peak < 2**20


def _stack_calls(monkeypatch, s):
    """(functions, degrees, points) of every evaluate_stack call of a verify of s, which must pass."""
    calls = []
    stack = ratfun.evaluate_stack

    def spy(fs, z):
        fs = list(fs)
        calls.append((len(fs), len({f.n for f in fs}), np.size(z)))
        return stack(fs, z)

    for module in (ratfun, engine, cli):
        monkeypatch.setattr(module, "evaluate_stack", spy)
    report = run_verification(VerifyContext(s, 0, {}))
    assert all(entry["pass"] for entry in report.values()), report
    return calls


def test_verify_reads_the_grid_in_reader_blocks(monkeypatch):
    # a measure ladder's verify walks its 8192-point grid in the 1024-node
    # blocks of engine._BLOCK_POINTS: no evaluate_stack call takes more
    # points; its density, its moment-series C-function and the transformed
    # densities mu_k (F_k on its two numerators) are read without one
    calls = _stack_calls(monkeypatch, _n6_measure_ladder())
    assert max(points for _, _, points in calls) <= 1024
    # seven walks of eight blocks: interpolation and the quads of the
    # moment-series C-function read numerators, and no quad's A, B, C and
    # D are stacked on the grid
    blocks = [count for count, _, points in calls if points == 1024]
    assert len(blocks) == 56 and 4 not in blocks


def test_lambda_verify_reads_no_more_than_the_fourier_grid(monkeypatch):
    # on its 8192-point grid the lambda ladder's checks sum on its rule and
    # read their Fourier tests on the 1024 points its poles ask for: no
    # evaluate_stack call takes more (interpolation, which read them, now
    # evaluates no function)
    s = _n6_ladder()
    s = OrfSystem(s.poles, s.levels, s.source, n_points=8192)
    assert engine.fourier_grid(s) == 1024
    assert max(points for _, _, points in _stack_calls(monkeypatch, s)) <= 1024
