"""Seeded input generator for the orfkit benchmark.

Writes one JSON config per ladder and a plan.json that lists every op in
draw order with the properties the program's cost depends on (source, n,
max |beta|, max |lambda|, grid, sample-table size). The program under test
only ever sees the config files.

Run as a script it is also the set-up probe: a fresh interpreter that
imports orfkit and writes the inputs, which is what `setup_s` times.

    python3 perfbench/gen.py --workload build_measure --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import orfkit  # noqa: E402
from orfkit.measure import default_grid  # noqa: E402

BETA_CAP = 0.7
# verify_lambda: one ladder per grid slot in every round. The grid is pinned
# in the config so a round costs the same whatever the seed draws; the lambda
# cap of each slot (never above the test suite's 0.6) keeps the ladder's own
# completion grid at or below the pinned one, so the pin only ever raises
# the quadrature size.
# Two cheap slots of each small grid put the median op inside one grid class.
LAMBDA_SLOTS = ((1024, 0.2), (1024, 0.2), (2048, 0.3), (2048, 0.3), (4096, 0.4), (8192, 0.5))
LAMBDA_N = 6
# Measure-sourced ladders put beta_0 at the origin. beta_0 anchors the kernel
# of the moment series in caratheodory_from_measure, whose stopping rule waits
# for four moments below 1e-16 in a row. Rounding noise decides when that
# happens, so with beta_0 drawn like the other poles the grid doubles a random
# number of times, up to 65536, and about 2% of ladders raise NumericalFailure
# (README.md). With beta_0 = 0 it stops by 8192.
# build_measure: every (n, measure) pair once per round. At n = 32 about 1% of
# ladders raise FitResidualTooLarge in orfkit 0.1.0 (README.md), so the
# largest ladder is n = 24.
MEASURE_NS = (8, 12, 16, 20, 24)
POISSON_ALPHA_CAP = 0.6
# arf at n >= 14 raises DivisionRemainderTooLarge in orfkit 0.1.0 (see
# README.md); the workload runs it where it succeeds.
ARF_MAX_N = 12
# sweep_mixed: every source at every n once per two rounds.
SWEEP_SOURCES = ("lambdas", "lebesgue", "poisson", "samples")
SWEEP_NS = (2, 3, 4, 5)
SWEEP_LAMBDA_CAP = 0.3
SWEEP_ALPHA_CAP = 0.5
SAMPLE_TABLES = (256, 512)

# Rounds written per run: at least twice what fits in 56 s with orfkit 0.1.0.
ROUNDS = {"verify_lambda": 8, "build_measure": 80, "sweep_mixed": 24}
WORKLOADS = tuple(ROUNDS)


def _disk(rng, cap, size):
    return cap * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))


def _pairs(values):
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex)]


def _lambda_ladder(rng, n, lam_cap):
    beta = _disk(rng, BETA_CAP, n + 1)
    lams = _disk(rng, lam_cap, n)
    natural = orfkit.synthesize(lams, orfkit.PoleSequence(beta)).n_points
    cfg = {"poles": _pairs(beta), "lambdas": _pairs(lams), "n_max": n}
    props = {"source": "lambdas", "n": n, "max_beta": float(np.max(np.abs(beta))),
             "max_lambda": float(np.max(np.abs(lams))), "grid": natural, "table": None}
    return cfg, props


def _measure_ladder(rng, n, kind, alpha_cap=None, table=None):
    beta = np.concatenate([[0.0], _disk(rng, BETA_CAP, n)])
    if kind == "lebesgue":
        spec = {"type": "lebesgue"}
    elif kind == "poisson":
        spec = {"type": "poisson", "alpha": _pairs(_disk(rng, alpha_cap, 1))[0]}
    else:
        # a strictly positive density known only by its samples: a trigonometric
        # polynomial of degree 2, so its moment series ends at the first grid
        a, b = 0.5 * rng.uniform(), 0.3 * rng.uniform()
        p1, p2 = 2.0 * np.pi * rng.uniform(size=2)
        theta = 2.0 * np.pi * np.arange(table) / table
        w = 1.0 + a * np.cos(theta - p1) + b * np.cos(2.0 * theta - p2)
        spec = {"type": "samples", "theta": theta.tolist(), "w": w.tolist()}
    cfg = {"poles": _pairs(beta), "measure": spec, "n_max": n}
    props = {"source": kind, "n": n, "max_beta": float(np.max(np.abs(beta))),
             "max_lambda": None, "grid": default_grid(n), "table": table}
    return cfg, props


def _ladders(workload, rng, rnd):
    """Yield (config, properties, commands) for one round, in draw order."""
    if workload == "verify_lambda":
        for grid, cap in LAMBDA_SLOTS:
            cfg, props = _lambda_ladder(rng, LAMBDA_N, cap)
            cfg["grid"] = max(grid, props["grid"])
            props["grid"] = cfg["grid"]
            yield cfg, props, ("verify",)
    elif workload == "build_measure":
        for i in range(2 * len(MEASURE_NS)):
            n = MEASURE_NS[i % len(MEASURE_NS)]
            kind = ("poisson", "lebesgue")[i % 2]
            cfg, props = _measure_ladder(rng, n, kind, POISSON_ALPHA_CAP)
            yield cfg, props, ("synth", "arf") if n <= ARF_MAX_N else ("synth",)
    elif workload == "sweep_mixed":
        # two rounds cover all 16 (source, n) pairs; each round has every
        # source twice and every n twice
        for i, source in enumerate(SWEEP_SOURCES * 2):
            n = SWEEP_NS[(i + (i // 4) * 2 + (rnd % 2)) % 4]
            if source == "lambdas":
                cfg, props = _lambda_ladder(rng, n, SWEEP_LAMBDA_CAP)
            else:
                table = SAMPLE_TABLES[i // 4] if source == "samples" else None
                cfg, props = _measure_ladder(rng, n, source, SWEEP_ALPHA_CAP, table)
            yield cfg, props, ("synth", "arf", "verify")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the configs and plan.json for `workload` under `out`; return the plan."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    rounds = []
    index = 0
    for rnd in range(ROUNDS[workload]):
        ops = []
        for cfg, props, commands in _ladders(workload, rng, rnd):
            cfg["seed"] = seed
            name = f"cfg{index:04d}.json"
            (out / name).write_text(json.dumps(cfg))
            for cmd in commands:
                ops.append({"config_index": index, "config": name, "command": cmd, **props})
            index += 1
        rounds.append(ops)
    plan = {"workload": workload, "seed": seed, "rounds": rounds}
    (out / "plan.json").write_text(json.dumps(plan))
    return plan


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
