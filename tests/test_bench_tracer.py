"""Smoke tests of the benchmark (perfbench/) against the library it runs.

The tracer (spans.py) wraps orfkit's public functions and verify checks by
name, and the runner (run.py) expects a fixed list of checks; a refactor
that renames or hides what they rely on breaks the benchmark without
breaking any library test, so run the three CLI commands under the tracer
and compare the runner's check list with verify's here. The runner also
marks an op failed when any check fails on its generated ladders, so the
first round of each gated workload runs through its correctness gate here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from orfkit import cli, verify
from orfkit.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the README's example config
GOLDEN = {
    "poles": [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
    "measure": {"type": "lebesgue"},
    "lambdas": [[0.0, 0.0], [0.0, 0.0]],
    "n_max": 2,
    "arf_order": 1,
    "seed": 0,
    "tolerances": {"determinant": 1e-10},
}


def load(name):
    """The module perfbench/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_runs_cli(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(GOLDEN))
    out = str(tmp_path / "out")
    originals = dict(verify._CHECKS)
    tracer = load("spans").Tracer()
    tracer.install()
    try:
        codes = [
            main(["synth", "--config", str(cfg), "--out", out]),
            main(["arf", "--config", str(cfg), "--order", "1", "--out", out]),
            main(["verify", "--config", str(cfg), "--out", out]),
        ]
        summary = tracer.summarize()
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    assert not any(summary["failed"].values())
    assert all(verify._CHECKS[name] is fn for name, fn in originals.items())
    assert len(summary["grid_points"]) == 3
    assert summary["counts"]["serialize.bytes_written"] > 0
    assert summary["calls"]["verify.determinant"] == 1


def test_benchmark_check_counts_match_verify():
    # the benchmark marks a verify op failed when verify.json holds another
    # number of checks than it expects, so its list and counts follow verify's
    run = load("run")
    assert run.CHECK_NAMES == verify.CHECK_NAMES
    assert run.LAMBDA_CHECKS == len(verify.CHECK_NAMES) - 1
    assert run.MEASURE_CHECKS == len(verify.CHECK_NAMES)


# sha256 per artifact kind of round 0 of the seed-1 sweep_mixed plan, as
# run.digests gives them: its Lebesgue, Poisson and sampled ladders pin the
# bytes of measure-sourced artifacts, which the lambda configs of
# test_cli.PINNED_DIGESTS do not reach
SWEEP_DIGESTS = {
    "arf_1.json": "1c195633c66b6736223c710f09226cea9bd8d682bf3d0edc5a80e319686a259b",
    "mu_1.csv": "b8c6a3df70d066f7fcf32645153b1aebe52a485fbb5c1c0678b1cbaccf6030fb",
    "orf.json": "5e269be14b3a56eb234a93444167db16fa93c88af3f3e3a7d768721beb3808fb",
    "orf_table.csv": "09e0001cde5f58f2d09661a2a8313347ed157f785066d55250326ec681294e97",
}


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]])
def test_first_round_passes_the_correctness_gate(tmp_path, workload):
    # round 0 of the seed-1 plan, each op checked as the runner checks it;
    # the sweep's artifact bytes are pinned too
    gen, run = load("gen"), load("run")
    ops = gen.generate(workload, 1, tmp_path / "inputs")["rounds"][0]
    problems = {}
    for i, op in enumerate(ops):
        out = tmp_path / f"op{i:03d}"
        problem = run.check_op(op, run.run_op(cli, op["command"], tmp_path / "inputs" / op["config"], out), out)
        if problem:
            problems[i] = problem
    assert problems == {}
    if workload == "sweep_mixed":
        assert run.digests(ops, tmp_path) == SWEEP_DIGESTS
