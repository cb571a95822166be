"""orfkit benchmark: seeded CLI workloads, end-to-end times, per-layer spans.

    python3 perfbench/run.py --workload verify_lambda --seed 1 --seconds 56 --trace 0

Run from the root of a source checkout (it imports orfkit from ./src). The
generator (gen.py) writes seeded configs; every op then goes through the
public entry point `orfkit.cli.main` in this one process, and its outputs
are checked. Ops run in rounds, each round on fresh draws of the same shape,
until --seconds have passed; figures are medians over rounds. With
--trace 1 each round runs twice on the same configs, untraced and then
traced (spans.py), and the per-layer figures come from the traced half.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics of BENCHMARK.json (end_to_end without --trace,
per_layer with it). Lines above it give every figure by name and unit, the
environment, the input properties and one sha256 per artifact kind.
See perfbench/README.md for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
ARF_ORDER = 1
ARTIFACTS = {
    "synth": ("orf.json", "orf_table.csv"),
    "arf": (f"arf_{ARF_ORDER}.json", f"mu_{ARF_ORDER}.csv"),
    "verify": ("verify.json",),
}
# verify.json is left out: its residual bits may legitimately move
DIGESTED = ("orf.json", "orf_table.csv", f"arf_{ARF_ORDER}.json", f"mu_{ARF_ORDER}.csv")
TABLE_POINTS = 256
MEASURE_CHECKS, LAMBDA_CHECKS = 15, 14
WARMUP_CONFIG = {"poles": [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]], "measure": {"type": "lebesgue"}, "n_max": 2}
# the metric names are fixed by BENCHMARK.json, so the checks are listed here
# rather than read from orfkit.verify
CHECK_NAMES = (
    "orthonormality", "recurrence_fit", "determinant", "para_zeros", "second_kind",
    "interpolation", "multiplier_identities", "arf_consistency", "arf_orthogonality",
    "relations", "remark", "positivity", "roundtrip_lambda", "roundtrip_measure", "serialization",
)
TIMED_FUNCTIONS = (
    "measure.weight.analytic", "measure.caratheodory_from_measure", "measure.weight_from_caratheodory",
    "engine.gram_schmidt_orf", "engine.synthesize", "engine.second_kind_integral", "engine.para_zeros",
    "ratfun.combine", "ratfun.evaluate",
    "transforms.arf_recurrence", "transforms.arf_quad", "transforms.apply_transform",
)
COUNTED_FUNCTIONS = ("measure.caratheodory_from_measure", "ratfun.combine", "ratfun.evaluate")


# -- environment --------------------------------------------------------------


def pin_environment() -> dict:
    """Pin BLAS/OpenMP threads and drop ORFKIT_GRID, before numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = 1  # at most nproc; one thread keeps runs steady
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    orfkit_grid = os.environ.pop("ORFKIT_GRID", None)
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            found = re.search(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
            cpu = found.group(1) if found else cpu
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu,
        "blas_threads": threads,
        "orfkit_grid_unset": orfkit_grid,
        "process": "single process; ops call orfkit.cli.main in-process",
    }


# -- running ops --------------------------------------------------------------


def run_op(cli, command, config, out) -> dict:
    """One CLI call through orfkit.cli.main; returns exit code, error type, seconds."""
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "arf":
        argv += ["--order", str(ARF_ORDER)]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc, error = exc.code, "SystemExit"
    except Exception as exc:  # any escape from the CLI is a failed op, not a crashed benchmark
        rc, error = None, type(exc).__name__
    dt = time.perf_counter() - t0
    if error is None and rc != 0:
        found = re.search(r"numerical failure: (\w+):", stderr.getvalue())
        error = found.group(1) if found else ("ConfigError" if rc == 2 else None)
    return {"rc": rc, "error": error, "seconds": dt}


def _csv_rows(path):
    lines = path.read_text().splitlines()
    width = len(lines[0].split(","))
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if not rows or any(len(r) != width for r in rows):
        raise ValueError("ragged or empty table")
    return width, len(rows)


def check_op(op, result, out) -> str | None:
    """Return why the op's outputs are wrong, or None when they are right."""
    if result["rc"] != 0:
        return f"exit code {result['rc']}"
    n = op["n"]
    try:
        if op["command"] == "synth":
            orf = json.loads((out / "orf.json").read_text())
            if orf.get("kind") != "orf_system" or len(orf["levels"]) != n + 1:
                return "orf.json does not hold the ladder"
            if _csv_rows(out / "orf_table.csv") != (1 + 2 * (n + 1), TABLE_POINTS):
                return "orf_table.csv has the wrong shape"
        elif op["command"] == "arf":
            arf = json.loads((out / f"arf_{ARF_ORDER}.json").read_text())
            if arf.get("kind") != "arf_system" or len(arf["system"]["levels"]) != n - ARF_ORDER + 1:
                return f"arf_{ARF_ORDER}.json does not hold the associated ladder"
            if _csv_rows(out / f"mu_{ARF_ORDER}.csv")[0] != 2:
                return f"mu_{ARF_ORDER}.csv has the wrong shape"
        else:
            report = json.loads((out / "verify.json").read_text())
            expected = LAMBDA_CHECKS if op["source"] == "lambdas" else MEASURE_CHECKS
            if len(report) != expected:
                return f"verify.json has {len(report)} checks, expected {expected}"
            failing = [name for name, entry in report.items() if entry["pass"] is not True]
            if failing:
                return "checks failed: " + ", ".join(failing)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"missing or unparseable artifact ({type(exc).__name__}: {exc})"
    return None


def run_round(cli, ops, inputs, out_dir, tracer=None) -> dict:
    """Run one round of ops in draw order; outputs are checked after the clock stops."""
    results = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        results.append(run_op(cli, op["command"], inputs / op["config"], out_dir / f"op{i:03d}"))
    wall = time.perf_counter() - t0
    for i, (op, res) in enumerate(zip(ops, results)):
        res["problem"] = check_op(op, res, out_dir / f"op{i:03d}")
    return {"wall": wall, "results": results}


def digests(ops, out_dir) -> dict:
    """sha256 per artifact kind over the round's artifacts, in op order."""
    hashes = {}
    for i, op in enumerate(ops):
        for name in ARTIFACTS[op["command"]]:
            path = out_dir / f"op{i:03d}" / name
            if name in DIGESTED and path.is_file():
                hashes.setdefault(name, hashlib.sha256()).update(path.read_bytes())
    return {name: h.hexdigest() for name, h in sorted(hashes.items())}


# -- figures ------------------------------------------------------------------


def tail(latencies):
    """Highest whole percentile with at least ten ops beyond it: (pct, value)."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # nearest rank, ceil(pct * n / 100) <= n - 10
    return pct, ordered[rank - 1]


def per_round_commands(rounds):
    sums = []
    for rnd in rounds:
        s = {"synth": 0.0, "arf": 0.0, "verify": 0.0}
        for op, res in zip(rnd["ops"], rnd["results"]):
            s[op["command"]] += res["seconds"]
        sums.append(s)
    return {cmd: statistics.median(s[cmd] for s in sums) for cmd in ("synth", "arf", "verify")}


def layer_metrics(summaries, traced_walls, untraced_walls, verify_reports) -> dict:
    """Per-layer figures: medians over traced rounds, ratios pooled over them."""
    med = statistics.median
    m = {}
    for layer in summaries[0]["self_s"]:
        m[f"{layer}.self_s"] = med(s["self_s"][layer] for s in summaries)
        m[f"{layer}.failed"] = sum(s["failed"][layer] for s in summaries)
    for name in TIMED_FUNCTIONS:
        m[f"{name}.s"] = med(s["incl_s"].get(name, 0.0) for s in summaries)
    for name in COUNTED_FUNCTIONS:
        m[f"{name}.calls"] = med(s["calls"].get(name, 0) for s in summaries)
    m["measure.weight.samples.s"] = med(s["incl_s"].get("measure.weight.samples", 0.0) for s in summaries)
    terms = med(s["counts"].get("measure.weight.samples.terms", 0.0) for s in summaries)
    m["measure.weight.samples.terms"] = terms
    m["measure.weight.samples.bytes_computed"] = 16 * terms
    grids = [g for s in summaries for g in s["grid_points"]]
    m["engine.grid_points.median"] = med(grids) if grids else 0
    m["engine.grid_points.max"] = max(grids) if grids else 0
    calls = sum(s["calls"].get("transforms.apply_transform", 0) for s in summaries)
    errors = sum(s["errors"].get("transforms.apply_transform", 0) for s in summaries)
    m["transforms.apply_transform.ok_ratio"] = (calls - errors) / calls if calls else 1.0
    for check in CHECK_NAMES:
        m[f"verify.{check}.s"] = med(s["incl_s"].get(f"verify.{check}", 0.0) for s in summaries)
    entries = [e for report in verify_reports for e in report.values()]
    m["verify.checks_passed_ratio"] = sum(e["pass"] is True for e in entries) / len(entries) if entries else 1.0
    m["serialize.write.s"] = med(
        s["incl_s"].get("serialize.write_json_atomic", 0.0) + s["incl_s"].get("serialize.write_csv_atomic", 0.0)
        for s in summaries
    )
    m["serialize.bytes_written"] = med(s["counts"].get("serialize.bytes_written", 0.0) for s in summaries)
    m["bench.self_s"] = med(w - s["root_s"] for w, s in zip(traced_walls, summaries))
    m["trace.wall_s"] = med(traced_walls)
    m["trace.overhead_s"] = med(t - u for t, u in zip(traced_walls, untraced_walls))
    m["trace.spans"] = med(s["spans"] for s in summaries)
    # the layers' self times plus bench.self_s add up to the traced wall time
    m["trace.layer_share_ratio"] = med(
        sum(s["self_s"].values()) / w for w, s in zip(traced_walls, summaries)
    )
    return m


UNITS = {"peak_rss_mb": "MiB", "ops_failed": "fraction"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "fraction"
    if name.endswith("bytes_computed") or name.endswith("bytes_written"):
        return "bytes"
    if ".grid_points." in name:
        return "points"
    return "count"


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="orfkit benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "orfkit" / "cli.py").is_file():
        print(f"error: no orfkit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    env = pin_environment()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(gen.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return measure(args, env, gen, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def time_setup(args, run_dir):
    """Median wall time of fresh interpreters that import orfkit and write the inputs."""
    times = []
    for k in range(SETUP_PROBES):
        out = run_dir / f"inputs{k}"
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(out)],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
        if k + 1 < SETUP_PROBES:
            shutil.rmtree(out)
    return statistics.median(times), out


def measure(args, env, gen, run_dir) -> int:
    setup_s, inputs = time_setup(args, run_dir)
    import numpy

    import orfkit
    import orfkit.cli as cli

    env["numpy"] = numpy.__version__
    env["orfkit"] = orfkit.__version__
    plan = json.loads((inputs / "plan.json").read_text())

    # warm-up on a tiny fixed config, so lazy first-call costs stay out of the rounds
    (run_dir / "warmup.json").write_text(json.dumps(WARMUP_CONFIG))
    for command in ("synth", "arf", "verify"):
        run_op(cli, command, run_dir / "warmup.json", run_dir / "warmup")

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    rounds, traced, summaries = [], [], []
    start = time.perf_counter()
    for index, ops in enumerate(plan["rounds"]):
        out = run_dir / f"round{index:03d}"
        rnd = run_round(cli, ops, inputs, out)
        rnd["ops"] = ops
        if index == 0:
            rnd["digests"] = digests(ops, out)
        shutil.rmtree(out)
        rounds.append(rnd)
        if tracer is not None:
            tracer.new_round()
            tracer.install()
            try:
                trnd = run_round(cli, ops, inputs, out, tracer)
            finally:
                tracer.uninstall()
            trnd["ops"] = ops
            reports = [out / f"op{i:03d}" / "verify.json" for i, op in enumerate(ops) if op["command"] == "verify"]
            trnd["verify"] = [json.loads(path.read_text()) for path in reports if path.is_file()]
            shutil.rmtree(out)
            summaries.append(tracer.summarize())
            traced.append(trnd)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(rounds)
        if elapsed + per_round > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_rounds = rounds + traced
    ops_done = [(op, res) for rnd in all_rounds for op, res in zip(rnd["ops"], rnd["results"])]
    failures = [(op, res) for op, res in ops_done if res["problem"]]
    latencies = [res["seconds"] for rnd in rounds for res in rnd["results"]]
    walls = [rnd["wall"] for rnd in rounds]
    commands = per_round_commands(rounds)
    tail_fig = tail(latencies)

    e2e = {"wall_s": statistics.median(walls), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    # report only: not in BENCHMARK.json (perfbench/README.md says why)
    extra = {"op_p50_s": statistics.median(latencies)}
    extra.update((f"{cmd}_s", v) for cmd, v in commands.items() if any(op["command"] == cmd for op, _ in ops_done))
    if tail_fig is not None:
        extra["op_tail_s"] = tail_fig[1]
    extra["ops_failed"] = len(failures) / len(ops_done)

    # -- report -------------------------------------------------------------
    print(f"# orfkit benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# rounds={len(rounds)} ops/round={len(plan['rounds'][0])} ops={len(latencies)}"
          + (f" traced_ops={len(ops_done) - len(latencies)}" if traced else ""))
    ran = [op for rnd in rounds for op in rnd["ops"]]
    for key in ("source", "n", "grid", "table"):
        print(f"# inputs by {key}: " + json.dumps(dict(sorted(collections.Counter(str(op[key]) for op in ran).items()))))
    for key in ("max_beta", "max_lambda"):
        vals = [op[key] for op in ran if op[key] is not None]
        if vals:
            print(f"# inputs {key}: {max(vals):.4f} at most")
    print("# sha256 of round 0 artifacts " + json.dumps(rounds[0]["digests"]))
    for op, res in failures:
        line = (f"FAILED {op['command']} config_index={op['config_index']} exit={res['rc']} "
                f"error={res['error']}: {res['problem']}")
        print(line)
        print(line, file=sys.stderr)
    for name, value in {**e2e, **extra}.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    if tail_fig is not None:
        print(f"# op_tail_s is p{tail_fig[0]} of {len(latencies)} ops")

    metrics = e2e
    if args.trace:
        metrics = layer_metrics(summaries, [r["wall"] for r in traced], walls[: len(traced)],
                                [rep for r in traced for rep in r["verify"]])
        for cmd in ("synth", "arf", "verify"):
            metrics[f"cmd.{cmd}_s"] = commands[cmd]
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {unit_of(name)}")
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.json.gz")
    record = {
        "env": env, "args": vars(args), "digests": rounds[0]["digests"], "metrics": {**e2e, **extra, **metrics},
        "ops": [{**op, **res, "round": i} for i, rnd in enumerate(rounds) for op, res in zip(rnd["ops"], rnd["results"])],
    }
    (WORK / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    result = {
        "correct": not failures,
        "attempted": len(ops_done),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
