"""Smoke test of the benchmark's outside-in tracer (perfbench/spans.py).

The tracer wraps orfkit's public functions and verify checks by name; a
refactor that renames or hides what it hooks breaks the benchmark without
breaking any library test, so run the three CLI commands under it here.
"""

import importlib.util
import json
from pathlib import Path

from orfkit import verify
from orfkit.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

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


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_runs_cli(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(GOLDEN))
    out = str(tmp_path / "out")
    originals = dict(verify._CHECKS)
    tracer = load_spans().Tracer()
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
