import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orfkit import CircleMeasure, DomainError, NumericalFailure, PoleSequence, arf_recurrence, default_grid, synthesize
from orfkit.serialize import (
    arf_to_dict,
    dumps,
    system_from_dict,
    system_to_dict,
    write_csv_atomic,
    write_json_atomic,
)
from orfkit.verify import CHECK_NAMES, VerifyContext, run_verification


def _reloaded(system):
    return system_from_dict(json.loads(dumps(system_to_dict(system))))


def test_roundtrip_bit_exact(synth_system):
    blob = dumps(system_to_dict(synth_system))
    data = json.loads(blob)
    # format constants of the orthonormal normalization
    assert data["normalization"] == "orthonormal"
    assert all(level["d"] == 2.0 for level in data["levels"])
    again = system_from_dict(data)
    assert dumps(system_to_dict(again)) == blob
    for n in range(synth_system.n_max + 1):
        assert np.array_equal(again.level(n).phi.numer, synth_system.level(n).phi.numer)
        assert np.array_equal(again.level(n).psi_star.numer, synth_system.level(n).psi_star.numer)
        if n:
            assert again.level(n).lam == synth_system.level(n).lam
            assert again.level(n).e == synth_system.level(n).e


def test_roundtrip_measure_system(poisson_system):
    blob = dumps(system_to_dict(poisson_system))
    again = system_from_dict(json.loads(blob))
    assert dumps(system_to_dict(again)) == blob
    assert np.array_equal(again.poles.beta, poisson_system.poles.beta)


def test_reloaded_ladder_verifies_identically():
    # a reloaded ladder carries the same C-function psi*_m/phi*_m as synthesize
    poles = PoleSequence([0.0, 0.4 + 0.1j, -0.3 + 0.2j, 0.1 - 0.5j])
    s = synthesize([0.3 + 0.1j, -0.2 + 0.25j, 0.1 - 0.4j], poles)
    report = run_verification(VerifyContext(s, seed=0, tolerances={}))
    again = run_verification(VerifyContext(_reloaded(s), seed=0, tolerances={}))
    assert dumps(again) == dumps(report)
    assert [name for name, entry in report.items() if entry["pass"]] == list(CHECK_NAMES)


def test_reloaded_measure_ladder_passes_all_checks(poisson_system):
    report = run_verification(VerifyContext(_reloaded(poisson_system), seed=0, tolerances={}))
    assert [name for name, entry in report.items() if entry["pass"]] == list(CHECK_NAMES)


def test_reload_without_grid_uses_one_default(monkeypatch):
    # a ladder stored without n_points gets default_grid(n_max) on reload,
    # and the order-k density uses that grid
    rng = np.random.default_rng(12)
    lams = 0.2 * np.sqrt(rng.uniform(size=16)) * np.exp(2j * np.pi * rng.uniform(size=16))
    poles = 0.6 * np.sqrt(rng.uniform(size=17)) * np.exp(2j * np.pi * rng.uniform(size=17))
    data = system_to_dict(synthesize(lams, PoleSequence(poles)))
    data["n_points"] = None
    again = system_from_dict(json.loads(dumps(data)))
    grid = default_grid(16)
    assert again.n_points == grid == 2048
    assert arf_recurrence(again, 1).mu_k.params["theta"].size == grid
    sizes = set()
    weight = CircleMeasure.weight

    def spy(mu, theta):
        sizes.add(np.size(theta))
        return weight(mu, theta)

    monkeypatch.setattr(CircleMeasure, "weight", spy)
    report = run_verification(
        VerifyContext(again, seed=0, tolerances={}),
        ["orthonormality", "second_kind", "multiplier_identities", "arf_orthogonality"],
    )
    assert all(entry["pass"] for entry in report.values())
    # none of these checks reads the density: without a measure they sum
    # on the ladder's own rule
    assert sizes == set()


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda data: data.pop("levels"), id="no-levels"),
        pytest.param(lambda data: data.pop("poles"), id="no-poles"),
        pytest.param(lambda data: data.update(levels=[]), id="empty-levels"),
        pytest.param(lambda data: data["levels"][1].update({"lambda": [0.25]}), id="one-number-lambda"),
        pytest.param(lambda data: data["levels"].reverse(), id="levels-out-of-order"),
        pytest.param(lambda data: data.update(n_points=100), id="grid-100"),
        pytest.param(lambda data: data.update(n_points=0), id="grid-zero"),
        pytest.param(lambda data: data.update(n_points=-4), id="grid-negative"),
        pytest.param(lambda data: data.update(n_points="1024"), id="grid-string"),
        pytest.param(lambda data: data["levels"][2].update(rho=None), id="null-rho"),
        pytest.param(lambda data: data["levels"][1].update({"lambda": None}), id="null-lambda"),
        pytest.param(lambda data: data["levels"][3].update(e=None), id="null-e"),
        pytest.param(lambda data: data["levels"][1].update(e="1.0"), id="string-e"),
        pytest.param(lambda data: data["levels"][2].update(e=True), id="bool-e"),
        pytest.param(lambda data: data["levels"][2].update(e=float("nan")), id="nan-e"),
        pytest.param(lambda data: data["levels"][2].update(e=data["levels"][2]["e"] * (1 + 1e-12)), id="wrong-e"),
        # refused before e_n's square root runs: a RuntimeWarning there fails the test
        pytest.param(lambda data: data["levels"][2].update({"lambda": [1.2, 0.0]}), id="lambda-outside-disk"),
        pytest.param(lambda data: data["levels"][0].update({"lambda": [0.25, 0.0]}), id="lambda-at-level-0"),
        pytest.param(lambda data: data["levels"][0].update(e=1.0), id="e-at-level-0"),
        pytest.param(lambda data: data["levels"][0].update(rho=[1.0, 0.0]), id="rho-at-level-0"),
        pytest.param(lambda data: data["levels"][1].update(n=True), id="bool-n"),
        pytest.param(lambda data: data["levels"][1]["phi"].__setitem__(0, [True, False]), id="bool-pair"),
        pytest.param(lambda data: data.update(source="moments"), id="unknown-source"),
        pytest.param(lambda data: data.update(source=None), id="null-source"),
    ],
)
def test_malformed_ladder_is_a_domain_error(synth_system, edit):
    # a stored ladder is outside input: each defect is refused on load, not
    # met later as a KeyError, IndexError or a check reading nonsense
    data = json.loads(dumps(system_to_dict(synth_system)))
    edit(data)
    with pytest.raises(DomainError):
        system_from_dict(data)


def test_arf_serialization(worked_system):
    arf = arf_recurrence(worked_system, 1)
    data = arf_to_dict(arf)
    assert data["order"] == 1
    assert data["c"] == [2.0, 2.0]
    assert data["mu_weight"] is not None
    blob = dumps(data)
    assert dumps(json.loads(blob)) == blob


def test_csv_17g_roundtrip(tmp_path):
    vals = np.array([[0.1, 1.0 / 3.0], [np.pi, 2.0 ** -52]])
    path = tmp_path / "t.csv"
    write_csv_atomic(path, ["a", "b"], vals)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed, vals)


def test_csv_matches_per_value_format(tmp_path):
    vals = np.array([[-0.0, 1.0, 5e-324], [1e308, -1.7976931348623157e308, 2.0**-1074], [-1e-300, 0.1, -2.5e-17]])
    path = tmp_path / "t.csv"
    write_csv_atomic(path, ["a", "b", "c"], vals)
    expected = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in vals)
    assert path.read_text() == expected


def test_json_atomic_write(tmp_path, synth_system):
    path = tmp_path / "s.json"
    write_json_atomic(path, system_to_dict(synth_system))
    data = json.loads(path.read_text())
    again = system_from_dict(data)
    assert_allclose(again.level(1).phi.numer, synth_system.level(1).phi.numer, rtol=0)
    assert not list(tmp_path.glob("*.tmp"))


# -- exact-bytes writers -------------------------------------------------------


def _assert_same_text(got, want):
    """Equality of long texts, failing with the first difference only (a
    full diff of two long texts takes minutes)."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        lo = max(i - 40, 0)
        pytest.fail(f"texts differ at {i}: {got[lo : i + 40]!r} vs {want[lo : i + 40]!r}")


def _floats(rng, size):
    """Seeded doubles spread over many decades, some of them whole numbers."""
    vals = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size=size)
    vals[::7] = np.round(vals[::7])
    return vals.tolist()


def _nested(seed):
    rng = np.random.default_rng(seed)
    return {
        "kind": "a, b ] [c]",
        "empty": [],
        "one": _floats(rng, 1),
        "nine": _floats(rng, 9),
        "table": _floats(rng, 2048),
        "special": [-0.0, 0.0, 5e-324, 1.7976931348623157e308] + _floats(rng, 20),
        "with_int": _floats(rng, 10) + [3, -7, 2**70] + _floats(rng, 10),
        "bools": [True, False] * 10,
        "strings": ["x, y", "]", "[1.0, 2.0]", ", ]"] * 5,
        "pairs": [_floats(rng, 2) for _ in range(20)],
        "tables_in_a_list": [_floats(rng, 40), _floats(rng, 17)],
        "k, ]": {"deeper": {"table": _floats(rng, 100), "note": "], ["}, "n": None},
        "ints": list(range(-5, 40)),
        "levels": [{"phi": [_floats(rng, 2)], "w": _floats(rng, 16)}, {}],
    }


@pytest.mark.parametrize("seed", range(4))
def test_dumps_equals_indented_json(seed):
    obj = _nested(seed)
    _assert_same_text(dumps(obj), json.dumps(obj, indent=1))
    for key in ("table", "special", "with_int", "empty", "strings"):
        _assert_same_text(dumps(obj[key]), json.dumps(obj[key], indent=1))
        _assert_same_text(dumps({key: obj[key]}), json.dumps({key: obj[key]}, indent=1))


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "place",
    [
        lambda rng, bad: {"table": _floats(rng, 20) + [bad]},
        lambda rng, bad: {"pair": [bad, 0.0]},
        lambda rng, bad: {"levels": [{"e": bad}]},
        lambda rng, bad: [bad],
    ],
    ids=["table", "pair", "nested", "list"],
)
def test_dumps_rejects_non_finite_numbers(place, bad):
    # JSON has no number for NaN or +-inf: the writer raises, where
    # json.dumps writes the bare NaN, Infinity or -Infinity
    obj = place(np.random.default_rng(3), bad)
    with pytest.raises(NumericalFailure, match="artifact not written"):
        dumps(obj)


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_writers_leave_no_file_for_non_finite_numbers(tmp_path, bad):
    rows = np.ones((4, 2))
    rows[2, 1] = bad
    with pytest.raises(NumericalFailure, match="artifact not written"):
        write_csv_atomic(tmp_path / "t.csv", ["a", "b"], rows)
    with pytest.raises(NumericalFailure, match="artifact not written"):
        write_json_atomic(tmp_path / "t.json", {"w": rows[:, 1].tolist()})
    assert list(tmp_path.iterdir()) == []


def test_dumps_with_a_marker_like_string():
    # a string that looks like the stand-in of a table still dumps exactly
    rng = np.random.default_rng(9)
    for text in ("@orfkit-table-0@", "@orfkit-table-1@", "@orfkit-table-"):
        obj = {"a": _floats(rng, 32), "b": text, "c": [text, _floats(rng, 20)], text: _floats(rng, 24)}
        _assert_same_text(dumps(obj), json.dumps(obj, indent=1))


def test_arf_dump_equals_indented_json(worked_system):
    data = arf_to_dict(arf_recurrence(worked_system, 1))
    assert len(data["mu_weight"]["w"]) >= 1024
    _assert_same_text(dumps(data), json.dumps(data, indent=1))


def reference_csv_body(header, rows):
    """The body as it was written before: one %-format per row."""
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    return "".join(row_format % tuple(row) for row in rows.tolist())


@pytest.mark.parametrize("shape", [(1024, 2), (256, 13)])
def test_csv_one_format_matches_per_row(tmp_path, shape):
    rng = np.random.default_rng(shape[1])
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    rows.flat[:3] = [-0.0, 5e-324, 1.0]
    header = [f"c{i}" for i in range(shape[1])]
    path = tmp_path / "t.csv"
    write_csv_atomic(path, header, rows)
    _assert_same_text(path.read_text(), ",".join(header) + "\n" + reference_csv_body(header, rows))
