import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orfkit import OrfSystem, PoleSequence, cli, engine, synthesize, transforms
from orfkit.cli import main
from orfkit.engine import lebesgue_orf
from orfkit.measure import boundary_grid
from orfkit.serialize import dumps, system_from_dict
from orfkit.verify import CHECK_NAMES, VerifyContext, run_verification
from conftest import probe_ladder

SQ3 = np.sqrt(3.0)

WORKED = {
    "poles": [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
    "measure": {"type": "lebesgue"},
    "n_max": 2,
}

# the config file shown in README.md
README_CONFIG = {
    "poles": [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
    "measure": {"type": "lebesgue"},
    "lambdas": [[0.0, 0.0], [0.0, 0.0]],
    "n_max": 2,
    "arf_order": 1,
    "seed": 0,
    "tolerances": {"determinant": 1e-10},
}


LAMBDA_CONFIG = {
    "poles": [[0.1, 0.1], [-0.3, 0.0], [0.2, 0.3], [0.0, -0.25]],
    "lambdas": [[0.3, 0.1], [0.0, -0.35], [0.2, 0.0]],
    "n_max": 3,
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestSynth:
    def test_worked_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, WORKED)
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "orf.json").read_text())
        assert data["kind"] == "orf_system"
        assert len(data["levels"]) == 3
        # phi_1 column matches (sqrt(3)/2) z / (1 - 0.5 z)
        lines = (tmp_path / "orf_table.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        theta = rows[:, header.index("theta")]
        t = np.exp(1j * theta)
        phi1 = rows[:, header.index("phi1_re")] + 1j * rows[:, header.index("phi1_im")]
        assert np.max(np.abs(phi1 - (SQ3 / 2) * t / (1 - 0.5 * t))) < 1e-10

    def test_table_matches_per_level_rows(self, tmp_path):
        # the table is one evaluation of every level; each column keeps the
        # bits of that level's own evaluation, written one row at a time
        rng = np.random.default_rng(2)
        lams = (0.3 * rng.uniform(size=(4, 2))).tolist()
        poles = (0.5 * rng.uniform(size=(5, 2))).tolist()
        cfg = write_config(tmp_path, {"poles": poles, "lambdas": lams, "n_max": 4})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path), "--table-points", "300"]) == 0
        system = system_from_dict(json.loads((tmp_path / "orf.json").read_text()))
        theta, t = boundary_grid(300)
        cols = [lv.phi(t) for lv in system.levels]
        lines = ["theta" + "".join(f",phi{n}_re,phi{n}_im" for n in range(5))]
        for j in range(300):
            vals = [theta[j]] + [x for col in cols for x in (col[j].real, col[j].imag)]
            lines.append(",".join("%.17g" % x for x in vals))
        text = (tmp_path / "orf_table.csv").read_text()
        assert text.endswith("\n") and len(text.splitlines()) == len(lines)
        for got, want in zip(text.splitlines(), lines):
            assert got == want

    def test_polynomial_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"poles": [[0, 0]] * 4, "measure": {"type": "lebesgue"}, "n_max": 3},
        )
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0
        system = system_from_dict(json.loads((tmp_path / "orf.json").read_text()))
        # the fitted lambdas are zero to rounding, so each phi_n is z^n to the last bits
        for n, lv in enumerate(system.levels):
            assert np.abs(lv.phi.numer - lebesgue_orf(system.poles, n).numer).max() <= 1e-15

    def test_lambda_config(self, tmp_path):
        cfg = write_config(
            tmp_path, {"poles": [[0, 0], [0, 0]], "lambdas": [[0.5, 0.0]], "n_max": 1}
        )
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "orf.json").read_text())
        expected = np.array([0.5, 1.0]) / np.sqrt(0.75)
        got = np.array([v[0] for v in data["levels"][1]["phi"]])
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_cross_check_both_sources(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "poles": [[0, 0], [0.5, 0], [0, 0]],
                "measure": {"type": "lebesgue"},
                "lambdas": [[0, 0], [0, 0]],
                "n_max": 2,
            },
        )
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_inconsistent_sources_fail(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "poles": [[0, 0], [0.5, 0], [0, 0]],
                "measure": {"type": "lebesgue"},
                "lambdas": [[0.4, 0], [0, 0]],
                "n_max": 2,
            },
        )
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, WORKED)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["synth", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "orf.json").read_bytes() == (out2 / "orf.json").read_bytes()
        assert (out1 / "orf_table.csv").read_bytes() == (out2 / "orf_table.csv").read_bytes()


class TestConfigValidation:
    def test_unimodular_lambda_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"poles": [[0, 0], [0, 0]], "lambdas": [[1.0, 0.0]], "n_max": 1}
        )
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_pole_cap(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"poles": [[0, 0], [0.95, 0]], "measure": {"type": "lebesgue"}, "n_max": 1},
        )
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_pole_cap_override(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "poles": [[0, 0], [0.95, 0]],
                "measure": {"type": "lebesgue"},
                "n_max": 1,
                "allow_poles_near_circle": True,
            },
        )
        with pytest.warns(UserWarning):
            assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_missing_source(self, tmp_path):
        cfg = write_config(tmp_path, {"poles": [[0, 0]], "n_max": 0})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_short_poles(self, tmp_path):
        cfg = write_config(
            tmp_path, {"poles": [[0, 0]], "measure": {"type": "lebesgue"}, "n_max": 2}
        )
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "override",
        [
            {"n_max": "one"},
            {"seed": "x"},
            {"poles": [["a", 0], [0.5, 0], [0, 0]]},
            {"arf_order": "first"},
            {"grid": "big"},
            {"n_max": [2]},
            {"measure": {"type": "samples", "theta": [0, 1.5707963267948966, 3.141592653589793,
                                                      4.71238898038469], "w": ["a", 1, 1, 1]}},
            {"measure": {"type": "poisson", "alpha": ["x", 0]}},
            {"measure": {"type": "samples", "theta": [0, 1.5707963267948966, 3.141592653589793,
                                                      4.71238898038469], "w": [float("nan"), 1, 1, 1]}},
            {"measure": {"type": "poisson", "alpha": [float("nan"), 0]}},
            {"poles": 5},
            {"lambdas": 3},
            {"poles": [[float("nan"), 0], [0.5, 0], [0, 0]]},
            {"lambdas": [[float("nan"), 0], [0, 0]]},
            # only an absent key or null means no tolerances; a falsy non-object is an error
            {"tolerances": []},
            {"tolerances": 0},
            {"tolerances": False},
            {"tolerances": ""},
            # a JSON number only: booleans and numeric strings are config errors too
            {"poles": [[False, False], [0.5, 0], [0, 0]]},
            {"poles": [["0.1", "0"], [0.5, 0], [0, 0]]},
            {"lambdas": [["0", "0"], [0, 0]]},
            {"measure": {"type": "poisson", "alpha": [False, 0.2]}},
            {"measure": {"type": "samples", "theta": [0, 1.5707963267948966, 3.141592653589793,
                                                      4.71238898038469], "w": [True, 1, 1, 1]}},
        ],
    )
    def test_non_numeric_values(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, {**WORKED, **override})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("w0", [0.0, -1.0])
    def test_nonpositive_sample(self, tmp_path, capsys, w0):
        theta = (2 * np.pi * np.arange(8) / 8).tolist()
        measure = {"type": "samples", "theta": theta, "w": [w0] + [1.0] * 7}
        cfg = write_config(tmp_path, {**WORKED, "measure": measure})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tolerances",
        [
            {"orthonormality": "loose"},
            {"orthonormality": True},
            {"orthonormality": -1e-9},
            {"orthonormality": float("inf")},
            {"orthonormality": float("nan")},
            {"orthonormality": 10**400},
        ],
    )
    def test_tolerance_must_be_a_finite_nonnegative_number(self, tmp_path, capsys, tolerances):
        # a string once ended verify in a ValueError traceback
        cfg = write_config(tmp_path, {**WORKED, "tolerances": tolerances})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error: tolerance 'orthonormality'" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerances", [None, {}])
    def test_null_or_empty_tolerances_mean_none(self, tmp_path, tolerances):
        cfg = write_config(tmp_path, {**WORKED, "tolerances": tolerances})
        assert cli.JobConfig.from_file(cfg).tolerances == {}

    def test_unknown_tolerance_name_rejected(self, tmp_path, capsys):
        # a misspelt check name once left its check at the default tolerance
        cfg = write_config(tmp_path, {**WORKED, "tolerances": {"orthonormalty": 1e-6}})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown tolerance 'orthonormalty'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["false", 0, 1, None])
    def test_pole_cap_override_must_be_boolean(self, tmp_path, capsys, flag):
        # bool("false") is True: the string once switched the override on
        cfg = write_config(
            tmp_path,
            {
                "poles": [[0, 0], [0.95, 0]],
                "measure": {"type": "lebesgue"},
                "n_max": 1,
                "allow_poles_near_circle": flag,
            },
        )
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "allow_poles_near_circle must be true or false" in capsys.readouterr().err

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["synth", "--config", str(path), "--out", str(tmp_path)]) == 2

    # each of these once ran with exit 0: n_max 2.7 built an n_max = 2
    # ladder, grid 1024.5 ran on 1024, arf_order 1.9 ran order 1 and seed
    # true ran seed 1
    @pytest.mark.parametrize("value", [2.7, 2.0, True, "2"])
    def test_n_max_must_be_an_integer(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {**WORKED, "n_max": value})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "n_max must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1.5, 1.0, True, False, "1"])
    def test_seed_must_be_an_integer(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {**WORKED, "seed": value})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "seed must be an integer" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # a negative seed once reached numpy's default_rng and ended verify
        # in a ValueError traceback
        cfg = write_config(tmp_path, {**WORKED, "seed": -3})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1.9, 1.0, True, "1"])
    def test_arf_order_must_be_an_integer(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {**WORKED, "arf_order": value})
        assert main(["arf", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "arf_order must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1024.5, 1024.0, True, "1024"])
    def test_grid_must_be_an_integer(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {**WORKED, "grid": value})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "grid must be an integer" in capsys.readouterr().err

    def test_integer_fields_accept_integers(self, tmp_path):
        cfg = write_config(tmp_path, {**WORKED, "seed": 3, "arf_order": 1, "grid": 1024})
        assert main(["arf", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "arf_1.json").is_file()

    @pytest.mark.parametrize("where", ["config"])
    def test_grid_follows_the_quadrature_rule(self, tmp_path, capsys, where):
        # one rule for a grid, the one the quadrature applies, as a config error
        cfg = write_config(tmp_path, {**WORKED, "grid": 500})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error: grid size must be a power of two >= 256, got 500" in capsys.readouterr().err


class TestSizeBound:
    """A grid or table past 2^20 points is a config error, found before
    anything is built or written: 2^40 points would take 16 TiB a row."""

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        monkeypatch.setattr(cli, "build_system", lambda cfg: pytest.fail("a ladder was built"))

    @pytest.mark.parametrize(
        "config, command",
        [
            pytest.param(LAMBDA_CONFIG, ["synth"], id="lambda-synth"),
            pytest.param(LAMBDA_CONFIG, ["arf", "--order", "1"], id="lambda-arf"),
            pytest.param(WORKED, ["synth"], id="lebesgue-synth"),
            pytest.param(WORKED, ["arf", "--order", "1"], id="lebesgue-arf"),
            pytest.param(WORKED, ["verify"], id="lebesgue-verify"),
        ],
    )
    def test_grid_past_the_bound(self, tmp_path, capsys, config, command):
        cfg = write_config(tmp_path, {**config, "grid": 1 << 40})
        out = tmp_path / "out"
        assert main(command + ["--config", cfg, "--out", str(out)]) == 2
        assert "config error: grid size must be at most 1048576, got 1099511627776" in capsys.readouterr().err
        assert not out.exists()

    def test_table_points_past_the_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path, LAMBDA_CONFIG)
        out = tmp_path / "out"
        assert main(["synth", "--config", cfg, "--out", str(out), "--table-points", "1000000000000"]) == 2
        assert "config error: --table-points must be in 2..1048576, got 1000000000000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [0, 16384, 20000])
    def test_example_order_out_of_range(self, monkeypatch, capsys, n):
        # default_grid(16383) is 2^20, the bound; one more level doubles it
        monkeypatch.setattr(cli, "PoleSequence", lambda beta: pytest.fail("a pole sequence was built"))
        assert main(["example", "lebesgue", "--n", str(n)]) == 2
        assert f"config error: --n must be >= 1 with default_grid(n) <= 1048576, got {n}" in capsys.readouterr().err


class TestArfCommand:
    def test_worked_order_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**WORKED, "arf_order": 1})
        assert main(["arf", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "arf_1.json").read_text())
        assert data["order"] == 1
        lines = (tmp_path / "mu_1.csv").read_text().strip().splitlines()
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        target = 0.75 / np.abs(np.exp(1j * rows[:, 0]) - 0.5) ** 2
        assert np.max(np.abs(rows[:, 1] - target)) < 1e-8
        assert "discrepancy" in capsys.readouterr().out

    def test_order_zero_matches_base(self, tmp_path):
        cfg = write_config(tmp_path, WORKED)
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["arf", "--config", cfg, "--order", "0", "--out", str(tmp_path)]) == 0
        base = json.loads((tmp_path / "orf.json").read_text())
        arf = json.loads((tmp_path / "arf_0.json").read_text())
        assert arf["system"]["levels"][1]["phi"] == base["levels"][1]["phi"]

    @pytest.mark.parametrize("order", [19, 23])
    def test_orders_the_pointwise_ratio_failed(self, tmp_path, capsys, order):
        # on this probe the pointwise F_k read anchor defects of 4.9e-9 and
        # 1.1e-7 at these orders, and arf exited 3
        s = probe_ladder(24, 5, lcap=0.3)
        config = {"poles": [[b.real, b.imag] for b in s.poles.beta],
                  "lambdas": [[lv.lam.real, lv.lam.imag] for lv in s.levels[1:]], "n_max": s.n_max}
        cfg = write_config(tmp_path, config)
        assert main(["arf", "--config", cfg, "--order", str(order), "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"arf_{order}.json").exists() and (tmp_path / f"mu_{order}.csv").exists()
        disc = float(capsys.readouterr().out.split("discrepancy:")[1])
        assert disc < 1e-13

    def test_order_required(self, tmp_path):
        cfg = write_config(tmp_path, WORKED)
        assert main(["arf", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_order_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path, WORKED)
        assert main(["arf", "--config", cfg, "--order", "5", "--out", str(tmp_path)]) == 2

    def test_non_finite_density_exits_3(self, tmp_path, capsys, monkeypatch):
        # a NaN in the order-k density is a numerical failure, and no
        # artifact holds it
        monkeypatch.setattr(cli.serialize, "arf_to_dict", lambda arf: {"w": [1.0, float("nan")]})
        cfg = write_config(tmp_path, WORKED)
        assert main(["arf", "--config", cfg, "--order", "1", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: NumericalFailure: artifact not written")
        assert not (tmp_path / "arf_1.json").exists()

    def test_a_nan_route_gap_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "arf_discrepancy", lambda arf: float("nan"))
        cfg = write_config(tmp_path, WORKED)
        assert main(["arf", "--config", cfg, "--order", "1", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("FAIL: associated-ladder routes disagree by nan >= 1e-08")

    def test_routes_that_disagree_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "arf_discrepancy", lambda arf: 1e-7)
        cfg = write_config(tmp_path, WORKED)
        assert main(["arf", "--config", cfg, "--order", "1", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("FAIL: associated-ladder routes disagree by 1.000e-07 >= 1e-08")
        # the artifacts are written all the same
        assert json.loads((tmp_path / "arf_1.json").read_text())["order"] == 1
        assert (tmp_path / "mu_1.csv").read_text().startswith("theta,weight\n")


# sha256 of the synth and arf --order 1 artifacts, recorded on x86-64 with
# numpy 2.4.6; a change that moves these bytes updates them and says so
PINNED_CONFIGS = {
    "n3": LAMBDA_CONFIG,
    "n6-grid4096": {
        "poles": [[0.2, -0.1], [0.45, 0.3], [-0.6, 0.15], [0.05, 0.55], [-0.25, -0.5], [0.6, -0.2], [-0.1, 0.35]],
        "lambdas": [[0.25, 0.1], [-0.15, 0.3], [0.05, -0.4], [0.35, 0.0], [-0.2, -0.2], [0.1, 0.45]],
        "n_max": 6,
        "grid": 4096,
    },
}
PINNED_DIGESTS = {
    "n3": {
        "orf.json": "78e2a1ae55a5c9a447183639f5deefbc9e734086a292e8312ea40e27610ecc0f",
        "orf_table.csv": "900a89f57762a98008a0896e9f8c5ae9f3ca9b4104eb76b8b4aa3104e92be52c",
        "arf_1.json": "98e62595111049c49f24efaaad92a2e9eeee68c14a7a2d5471057fbf4185dd86",
        "mu_1.csv": "949db33bf9ff096ff9fb648db1873f8ebd749ecd0c776ae1c6b8e694f34d9b8f",
    },
    "n6-grid4096": {
        "orf.json": "eaac47853ab2e48ffecec9fe1005e313e24fb3ad0c0049cd6e6168c5c527094f",
        "orf_table.csv": "e17b3bb69554a01a2be1f94877be5e6fda6b32a0d1a998daacb8a8646d0635c9",
        "arf_1.json": "a42e8230a99e66699fa84206b4c97a2e533117fdd534489aaa6d00aba114f130",
        "mu_1.csv": "f5db99d99220bece1d1d60d663224ccb5b9eedfd1bd2c88cf6b3ef1ce70f47ee",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_artifact_bytes_are_pinned(tmp_path, name):
    cfg = write_config(tmp_path, PINNED_CONFIGS[name])
    assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["arf", "--config", cfg, "--order", "1", "--out", str(tmp_path)]) == 0
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in PINNED_DIGESTS[name]}
    assert digests == PINNED_DIGESTS[name]


# sha256 of verify.json of two measure configs and one lambda config,
# recorded as above. The residuals carry the rounding of the recursion that
# builds the ladder: a change to that build moves them at rounding level,
# and their pass flags must hold before the digests are recorded again
_THETA = 2.0 * np.pi * np.arange(256) / 256
PINNED_VERIFY = {
    "lambdas-n3": (LAMBDA_CONFIG, "f9cfb99b12c498c2d5e0d638d79c933e5686fe0a6f7a47894b8044084c94a15b"),
    "poisson-n5": (
        {
            "poles": [[0.2, -0.1], [0.45, 0.3], [-0.6, 0.15], [0.05, 0.55], [-0.25, -0.5], [0.6, -0.2]],
            "measure": {"type": "poisson", "alpha": [0.3, -0.2]},
            "n_max": 5,
        },
        "b6c65ae589b267d59630a8b8753da029a15bdb809e82370bde8464a84cd00dfe",
    ),
    "samples-n4-grid2048": (
        {
            "poles": [[0.0, 0.0], [0.4, 0.2], [-0.3, 0.5], [0.1, -0.6], [-0.5, -0.1]],
            "measure": {"type": "samples", "theta": _THETA.tolist(), "w": np.exp(np.cos(_THETA)).tolist()},
            "n_max": 4,
            "grid": 2048,
        },
        "a3aca0421d88696cb5995621961b93926f4cb288fa65257a64139fe18d17b9af",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_VERIFY))
def test_measure_verify_bytes_are_pinned(tmp_path, name):
    config, digest = PINNED_VERIFY[name]
    cfg = write_config(tmp_path, config)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "verify.json").read_bytes()).hexdigest() == digest


COMMANDS = [["synth"], ["arf", "--order", "1"], ["verify"]]


class TestOutput:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_artifacts_take_the_umask_mode(self, tmp_path, umask):
        cfg = write_config(tmp_path, WORKED)
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            for command in COMMANDS:
                assert main(command + ["--config", cfg, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        names = ("orf.json", "orf_table.csv", "arf_1.json", "mu_1.csv", "verify.json")
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        for name in names:
            assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask, name

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("where", ["file", "under a file"])
    def test_out_that_cannot_be_made(self, tmp_path, capsys, command, where):
        cfg = write_config(tmp_path, WORKED)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken if where == "file" else taken / "sub"
        assert main(command + ["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: cannot write --out {out}: ")
        assert taken.read_text() == "kept"


class TestVerifyCommand:
    def test_worked_all_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, WORKED)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert all(entry["pass"] for entry in report.values())
        assert "orthonormality" in report and "relations" in report

    def test_selected_checks(self, tmp_path):
        cfg = write_config(tmp_path, WORKED)
        code = main(
            ["verify", "--config", cfg, "--out", str(tmp_path),
             "--check", "determinant", "--check", "para_zeros"]
        )
        assert code == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert set(report) == {"determinant", "para_zeros"}

    def test_one_parser_serves_many_calls(self, tmp_path, monkeypatch):
        # the parser is built once per process: each call starts from fresh
        # defaults, so a verify.json holds exactly the checks of its own call
        cfg = write_config(tmp_path, README_CONFIG)
        one, two, three = (tmp_path / name for name in ("one", "two", "three"))
        assert main(["verify", "--config", cfg, "--out", str(one), "--check", "determinant"]) == 0
        argv = ["verify", "--config", cfg, "--out", str(two), "--check", "para_zeros", "--check", "determinant"]
        assert main(argv) == 0
        assert main(["verify", "--config", cfg, "--out", str(three)]) == 0
        assert list(json.loads((one / "verify.json").read_text())) == ["determinant"]
        assert list(json.loads((two / "verify.json").read_text())) == ["para_zeros", "determinant"]
        assert len(json.loads((three / "verify.json").read_text())) == 15
        # the command is looked up by name at each call
        calls = []
        monkeypatch.setattr(cli, "cmd_synth", lambda args: calls.append(args.config) or 0)
        assert main(["synth", "--config", cfg]) == 0
        assert calls == [cfg]
        assert not (tmp_path / "orf.json").exists()

    def test_unknown_check(self, tmp_path):
        cfg = write_config(tmp_path, WORKED)
        assert main(["verify", "--config", cfg, "--check", "nope"]) == 2

    def test_lambda_config_runs(self, tmp_path):
        cfg = write_config(tmp_path, LAMBDA_CONFIG)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert "roundtrip_measure" not in report

    def test_lambda_config_runs_roundtrip_measure_on_request(self, tmp_path):
        cfg = write_config(tmp_path, LAMBDA_CONFIG)
        assert main(["verify", "--config", cfg, "--check", "roundtrip_measure", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert list(report) == ["roundtrip_measure"] and report["roundtrip_measure"]["pass"]

    def test_pinned_grid_lambda_report_matches_a_rebuilt_system(self, tmp_path):
        # synthesize on the config's grid verifies bit for bit as its levels
        # put on that grid afterwards, the one C-function psi*_m/phi*_m
        cfg = write_config(tmp_path, {**LAMBDA_CONFIG, "grid": 4096})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        poles, lams = ([complex(*p) for p in LAMBDA_CONFIG[key]] for key in ("poles", "lambdas"))
        s = synthesize(lams, PoleSequence(poles))
        assert s.n_points < 4096
        pinned = OrfSystem(s.poles, s.levels, s.source, n_points=4096)
        checks = [c for c in CHECK_NAMES if c != "roundtrip_measure"]
        report = run_verification(VerifyContext(pinned, seed=0, tolerances={}), checks)
        assert (tmp_path / "verify.json").read_text() == dumps(report) + "\n"

    @pytest.mark.parametrize(
        "poles",
        [
            [[0.95, 0.0], [0.0, 0.95], [-0.95, 0.0]],
            [[0.0, 0.0], [0.0, 0.95], [-0.95, 0.0]],
            [[0.95, 0.0], [0.3, 0.1], [-0.2, 0.4]],
        ],
    )
    def test_roundtrip_lambda_near_circle(self, tmp_path, poles):
        # the round trip runs on the poles the config admitted, beyond the cap too
        cfg = write_config(
            tmp_path,
            {"poles": poles, "lambdas": [[0.2, 0.0], [0.1, -0.2]], "allow_poles_near_circle": True},
        )
        with pytest.warns(UserWarning):
            assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["roundtrip_lambda"]["residual"] <= 1e-14

    def test_poles_near_the_circle_pass_the_associated_checks(self, tmp_path):
        # the quad's cofactors read 2.6e-9 against the 1e-8 zero-free gate
        # as min |g| / max |g| on the circle, so these four checks raised;
        # on numerators Schur-Cohn finds them zero-free
        cfg = write_config(
            tmp_path,
            {
                "poles": [[0.99, 0.0], [0.0, 0.99], [-0.99, 0.0], [0.0, -0.99]],
                "lambdas": [[0.1, 0.0], [0.0, 0.2], [-0.1, 0.0]],
                "allow_poles_near_circle": True,
            },
        )
        with pytest.warns(UserWarning):
            assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        for name in ("arf_consistency", "arf_orthogonality", "remark", "positivity"):
            assert report[name]["residual"] <= 1e-13, name

    def test_failed_check_writes_null_residual(self, tmp_path, capsys, monkeypatch):
        # with a Schur-Cohn test that finds every cofactor has a zero in the
        # disk, every associated quad fails its own check, so four checks
        # raise; verify.json must still be strict JSON
        monkeypatch.setattr(transforms, "zeros_inside", lambda *args: False)
        cfg = write_config(
            tmp_path,
            {
                "poles": [[0.99, 0.0], [0.0, 0.99], [-0.99, 0.0], [0.0, -0.99]],
                "lambdas": [[0.1, 0.0], [0.1, 0.0], [0.1, 0.0]],
                "allow_poles_near_circle": True,
            },
        )
        with pytest.warns(UserWarning):
            assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1

        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads((tmp_path / "verify.json").read_text(), parse_constant=no_constants)
        raised = {"arf_consistency", "arf_orthogonality", "remark", "positivity"}
        assert {name for name, entry in report.items() if "error" in entry} == raised
        for name in raised:
            assert report[name]["residual"] is None and report[name]["pass"] is False
        assert all(report[name]["pass"] for name in report.keys() - raised)
        out = capsys.readouterr().out
        assert all(f"FAIL {name:20s} residual=inf " in out for name in raised)

    def test_tolerance_override_forces_failure(self, tmp_path):
        cfg = write_config(
            tmp_path, {**WORKED, "tolerances": {"determinant": 1e-30}}
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--check", "determinant"]) == 1

    def test_random_seed_sweep(self, tmp_path):
        # five seeded lambda configs, |lambda| <= 0.6, |beta| <= 0.7, n = 6
        for seed in range(5):
            rng = np.random.default_rng(seed)
            beta = 0.7 * np.sqrt(rng.uniform(size=7)) * np.exp(2j * np.pi * rng.uniform(size=7))
            lams = 0.6 * np.sqrt(rng.uniform(size=6)) * np.exp(2j * np.pi * rng.uniform(size=6))
            cfg = write_config(
                tmp_path,
                {
                    "poles": [[b.real, b.imag] for b in beta],
                    "lambdas": [[v.real, v.imag] for v in lams],
                    "n_max": 6,
                    "seed": seed,
                },
                name=f"sweep{seed}.json",
            )
            out = tmp_path / f"sweep{seed}"
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
            report = json.loads((out / "verify.json").read_text())
            assert all(entry["pass"] for entry in report.values())


class TestExampleCommand:
    def test_default(self, capsys):
        assert main(["example", "lebesgue"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5

    def test_complex_pole(self, capsys):
        assert main(["example", "lebesgue", "--beta1", "0.3,0.4", "--n", "3"]) == 0

    def test_bad_beta(self):
        assert main(["example", "lebesgue", "--beta1", "2,0"]) == 2

    @pytest.mark.parametrize("beta1", ["nan,0", "0,nan", "inf,0"])
    def test_non_finite_beta(self, capsys, beta1):
        # nan fails every comparison, so the cap test must reject it rather than pass it
        assert main(["example", "lebesgue", "--beta1", beta1]) == 2
        assert "config error" in capsys.readouterr().err


# runs in a fresh interpreter: the commands, then the numpy subpackages loaded
FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
from orfkit import cli

lam_cfg, samples_cfg, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    for cfg in (lam_cfg, samples_cfg):
        for argv in (["synth"], ["arf", "--order", "1"], ["verify"]):
            assert cli.main(argv + ["--config", cfg, "--out", out]) == 0, (argv, cfg)
    assert cli.main(["example", "lebesgue"]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def _footprint_configs(tmp_path):
    """A lambda config without a grid, so its ladder takes the completion
    grid, and a samples config."""
    theta = 2.0 * np.pi * np.arange(256) / 256
    poles = [[0.0, 0.0], [0.4, 0.1], [-0.3, 0.3], [0.1, -0.5]]
    lam_cfg = write_config(
        tmp_path, {"poles": poles, "lambdas": [[0.2, 0.1], [-0.3, 0.2], [0.1, -0.4]], "seed": 3}, "lam.json"
    )
    samples = {"type": "samples", "theta": theta.tolist(), "w": np.exp(np.cos(theta)).tolist()}
    samples_cfg = write_config(tmp_path, {"poles": poles, "measure": samples, "n_max": 3, "seed": 5}, "samples.json")
    return lam_cfg, samples_cfg


def test_commands_make_no_linalg_call(tmp_path, monkeypatch, capsys):
    # every public numpy.linalg function raises; the completion grid's
    # Schur-Cohn test must still run
    def no_linalg(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, no_linalg)
    tested = []
    monkeypatch.setattr(engine, "zeros_inside", lambda c, r, real=engine.zeros_inside: tested.append(c) or real(c, r))
    for cfg in _footprint_configs(tmp_path):
        for argv in COMMANDS:
            assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 0, (argv, cfg)
    assert tested


def test_commands_load_neither_numpy_random_nor_polynomial(tmp_path):
    lam_cfg, samples_cfg = _footprint_configs(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, lam_cfg, samples_cfg, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(done.stdout)
    assert "numpy.linalg" in loaded
    assert not [m for m in loaded if m.startswith(("numpy.random", "numpy.polynomial"))]

