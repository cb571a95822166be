"""Command-line front end.

Subcommands:
  synth    build a ladder from a config, write orf.json + orf_table.csv
  arf      build the order-k associated ladder, write arf_k.json + mu_k.csv
  verify   run identity checks, write verify.json
  example  run the worked Lebesgue example against its closed forms

Exit codes: 0 ok, 1 verification failure, 2 config error or an --out that
cannot be made or written, 3 numerical failure.
The config's "grid" sets the quadrature size (a power of two, 256..2^20).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .engine import (
    POLE_CAP,
    gram_schmidt_orf,
    lebesgue_arf,
    lebesgue_orf,
    synthesize,
)
from .errors import DomainError, NonPositiveWeight, OrfkitError
from .measure import (
    MAX_GRID,
    _check_grid,
    _is_number,
    boundary_grid,
    builtin_measure,
    default_grid,
    measure_from_config,
)
from .ratfun import PoleSequence, _disk_sample, evaluate_stack
from .transforms import arf_discrepancy, arf_recurrence
from .verify import CHECK_NAMES, VerifyContext, run_verification

TABLE_POINTS = 256
ARF_AGREEMENT = 1e-8


class ConfigError(DomainError):
    pass


def _number(value, what):
    """A JSON number (int or float, not bool) as a float."""
    if _is_number(value):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ConfigError(f"{what} must be numeric, got {value!r}")


def _integer(value, what, low=None):
    """A JSON integer, at least low if given; floats, booleans and strings are config errors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{what} must be >= {low}")
    return value


def _tolerance(name, value):
    """A check's tolerance: a JSON number, finite and >= 0."""
    if name not in CHECK_NAMES:
        raise ConfigError(f"unknown tolerance {name!r}; known: {', '.join(CHECK_NAMES)}")
    tol = _number(value, f"tolerance {name!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"tolerance {name!r} must be finite and >= 0, got {value!r}")
    return tol


def _complex_pairs(raw, what):
    """A JSON list of [re, im] pairs with finite parts, as complex numbers."""
    if not isinstance(raw, list):
        raise ConfigError(f"{what} must be a list of [re, im] pairs, got {raw!r}")
    out = []
    for item in raw:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ConfigError(f"{what} entries must be [re, im] pairs")
        re, im = _number(item[0], what), _number(item[1], what)
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ConfigError(f"{what} entries must be finite, got {item!r}")
        out.append(complex(re, im))
    return out


@dataclass
class JobConfig:
    """Validated run configuration (poles, source data, sizes, seed)."""

    poles: list
    lambdas: list | None
    measure_spec: dict | None
    n_max: int
    arf_order: int | None
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    source: str = "measure"
    allow_poles_near_circle: bool = False
    grid: int | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "JobConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if "poles" not in raw or not raw["poles"]:
            raise ConfigError("config needs a nonempty 'poles' list")
        poles = _complex_pairs(raw["poles"], "poles")
        if any(abs(b) >= 1.0 for b in poles):
            raise ConfigError("every pole must satisfy |beta| < 1")
        allow = raw.get("allow_poles_near_circle", False)
        if not isinstance(allow, bool):
            raise ConfigError("allow_poles_near_circle must be true or false")
        if not allow and any(abs(b) > POLE_CAP for b in poles):
            raise ConfigError(f"|beta| > {POLE_CAP} requires allow_poles_near_circle: true")
        lambdas = None
        if raw.get("lambdas") is not None:
            lambdas = _complex_pairs(raw["lambdas"], "lambdas")
            if any(abs(v) >= 1.0 for v in lambdas):
                raise ConfigError("every lambda must satisfy |lambda| < 1")
        measure_spec = raw.get("measure")
        if measure_spec is None and lambdas is None:
            raise ConfigError("config needs a measure, lambdas, or both")
        n_max = raw.get("n_max")
        if n_max is None:
            if lambdas is None:
                raise ConfigError("n_max is required for measure-only configs")
            n_max = len(lambdas)
        n_max = _integer(n_max, "n_max", low=0)
        if lambdas is not None and len(lambdas) != n_max:
            raise ConfigError("lambdas must have exactly n_max entries")
        if n_max > len(poles) - 1:
            raise ConfigError("poles must list beta_0..beta_n_max")
        arf_order = raw.get("arf_order")
        if arf_order is not None:
            arf_order = _integer(arf_order, "arf_order")
            if not 0 <= arf_order <= n_max:
                raise ConfigError("arf_order must satisfy 0 <= k <= n_max")
        source = raw.get("source")
        if source is None:
            source = "measure" if measure_spec is not None else "lambdas"
        if source not in ("measure", "lambdas"):
            raise ConfigError("source must be 'measure' or 'lambdas'")
        if source == "measure" and measure_spec is None:
            raise ConfigError("source 'measure' without a measure spec")
        if source == "lambdas" and lambdas is None:
            raise ConfigError("source 'lambdas' without lambdas")
        # only an absent key or null means none: [], 0, false and "" are not objects
        tolerances = {} if raw.get("tolerances") is None else raw["tolerances"]
        if not isinstance(tolerances, dict):
            raise ConfigError("tolerances must be an object")
        tolerances = {name: _tolerance(name, value) for name, value in tolerances.items()}
        grid = raw.get("grid")
        if grid is not None:
            grid = _integer(grid, "grid")
            try:
                _check_grid(grid)
            except DomainError as exc:
                raise ConfigError(str(exc)) from exc
        return cls(
            poles=poles,
            lambdas=lambdas,
            measure_spec=measure_spec,
            n_max=n_max,
            arf_order=arf_order,
            tolerances=tolerances,
            seed=_integer(raw.get("seed", 0), "seed", low=0),
            source=source,
            allow_poles_near_circle=allow,
            grid=grid,
        )

    @classmethod
    def from_file(cls, path) -> "JobConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def measure(self):
        if self.measure_spec is None:
            return None
        try:
            return measure_from_config(self.measure_spec)
        except (DomainError, NonPositiveWeight) as exc:
            raise ConfigError(str(exc)) from exc


def build_system(cfg: JobConfig):
    """Build the configured ladder, on the config's grid when it names one;
    when both sources are present, build both and require them to agree
    (phase-invariant comparison)."""
    poles = PoleSequence(cfg.poles)
    mu = cfg.measure()
    gs = synth = None
    if mu is not None:
        gs = gram_schmidt_orf(
            mu, poles, cfg.n_max, n_points=cfg.grid,
            allow_poles_near_circle=cfg.allow_poles_near_circle,
        )
    if cfg.lambdas is not None:
        synth = synthesize(
            cfg.lambdas, poles, n_points=cfg.grid,
            allow_poles_near_circle=cfg.allow_poles_near_circle,
        )
    if gs is not None and synth is not None:
        _, t = boundary_grid(TABLE_POINTS)
        gs_t, synth_t = np.split(np.abs(evaluate_stack([lv.phi for lv in gs.levels + synth.levels], t)), 2)
        lams = [abs(abs(a.lam) - abs(b.lam)) for a, b in zip(gs.levels[1:], synth.levels[1:])]
        worst = max([float(np.max(np.abs(gs_t - synth_t)))] + lams)
        if worst > 1e-8:
            raise OrfkitError(
                f"measure and lambda routes disagree (max deviation {worst:.2e}); "
                "the config is inconsistent"
            )
    return gs if cfg.source == "measure" else synth


@contextlib.contextmanager
def _writing_to(out):
    """An OSError making the directory --out names, or writing into it, as
    a ConfigError: one line and exit 2."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc}") from exc


def _write_table(path, system, n_points=TABLE_POINTS):
    theta, t = boundary_grid(n_points)
    vals = evaluate_stack([lv.phi for lv in system.levels], t)
    header = ["theta"] + [f"phi{n}_{part}" for n in range(system.n_max + 1) for part in ("re", "im")]
    rows = np.empty((n_points, len(header)))
    rows[:, 0] = theta
    rows[:, 1::2] = vals.real.T
    rows[:, 2::2] = vals.imag.T
    serialize.write_csv_atomic(path, header, rows)


def cmd_synth(args) -> int:
    cfg = JobConfig.from_file(args.config)
    if not 2 <= args.table_points <= MAX_GRID:
        raise ConfigError(f"--table-points must be in 2..{MAX_GRID}, got {args.table_points}")
    with _writing_to(args.out):
        os.makedirs(args.out, exist_ok=True)
    system = build_system(cfg)
    with _writing_to(args.out):
        serialize.write_json_atomic(os.path.join(args.out, "orf.json"), serialize.system_to_dict(system))
        _write_table(os.path.join(args.out, "orf_table.csv"), system, args.table_points)
    print(f"wrote {args.out}/orf.json and {args.out}/orf_table.csv (n_max={system.n_max})")
    return 0


def cmd_arf(args) -> int:
    cfg = JobConfig.from_file(args.config)
    k = args.order if args.order is not None else cfg.arf_order
    if k is None:
        raise ConfigError("give --order or set arf_order in the config")
    if not 0 <= k <= cfg.n_max:
        raise ConfigError("arf order must satisfy 0 <= k <= n_max")
    with _writing_to(args.out):
        os.makedirs(args.out, exist_ok=True)
    system = build_system(cfg)
    arf = arf_recurrence(system, k)
    disc = arf_discrepancy(arf)
    arf_dict = serialize.arf_to_dict(arf)
    table = np.stack([arf.mu_k.params["theta"], arf.mu_k.params["w"]], axis=1)
    with _writing_to(args.out):
        serialize.write_json_atomic(os.path.join(args.out, f"arf_{k}.json"), arf_dict)
        serialize.write_csv_atomic(os.path.join(args.out, f"mu_{k}.csv"), ["theta", "weight"], table)
    print(f"explicit-vs-recurrence max discrepancy: {disc:.3e}")
    if disc >= ARF_AGREEMENT:
        print(f"FAIL: associated-ladder routes disagree by {disc:.3e} >= {ARF_AGREEMENT}", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    cfg = JobConfig.from_file(args.config)
    checks = args.check or None
    if checks:
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise ConfigError(f"unknown checks: {', '.join(unknown)}")
    elif cfg.measure_spec is None:
        checks = [c for c in CHECK_NAMES if c != "roundtrip_measure"]
    with _writing_to(args.out):
        os.makedirs(args.out, exist_ok=True)
    system = build_system(cfg)
    ctx = VerifyContext(system=system, seed=cfg.seed, tolerances=cfg.tolerances)
    report = run_verification(ctx, checks)
    with _writing_to(args.out):
        # JSON has no infinity: a residual that is not finite (a check raised) is written as null
        written = {name: {**e, "residual": e["residual"] if math.isfinite(e["residual"]) else None}
                   for name, e in report.items()}
        serialize.write_json_atomic(os.path.join(args.out, "verify.json"), written)
    ok = True
    for name, entry in report.items():
        status = "pass" if entry["pass"] else "FAIL"
        extra = f" ({entry['error']})" if "error" in entry else ""
        print(f"{status:4s} {name:20s} residual={entry['residual']:.3e} tol={entry['tolerance']:.1e}{extra}")
        ok = ok and entry["pass"]
    return 0 if ok else 1


def cmd_example(args) -> int:
    try:
        re, im = (float(v) for v in args.beta1.split(","))
    except ValueError as exc:
        raise ConfigError("--beta1 must be 're,im'") from exc
    beta1 = complex(re, im)
    if not abs(beta1) <= POLE_CAP:
        raise ConfigError(f"|beta1| <= {POLE_CAP} required")
    n = args.n
    if n < 1 or default_grid(n) > MAX_GRID:
        raise ConfigError(f"--n must be >= 1 with default_grid(n) <= {MAX_GRID}, got {n}")
    poles = PoleSequence([0.0, beta1] + [0.0] * (n - 1))
    mu = builtin_measure("lebesgue")
    system = gram_schmidt_orf(mu, poles, n)
    _, t = boundary_grid(TABLE_POINTS)

    ok = True

    def line(label, value, tol):
        nonlocal ok
        good = value < tol
        ok = ok and good
        print(f"[{'PASS' if good else 'FAIL'}] {label}: {value:.3e} (tol {tol:.1e})")

    err = max(
        float(np.max(np.abs(system.level(m).phi(t) - lebesgue_orf(poles, m)(t))))
        for m in range(n + 1)
    )
    line("orthonormal functions vs closed form", err, 1e-10)
    lam = max(abs(system.level(m).lam) for m in range(1, n + 1))
    line("recurrence parameters vanish", lam, 1e-10)
    zs = _disk_sample(0, 0.8, 50)
    line("C-function is 1 on the disk", float(np.max(np.abs(system.caratheodory(zs) - 1.0))), 1e-10)
    arf = arf_recurrence(system, 1)
    err = max(
        float(np.max(np.abs(phi_e(t) - lebesgue_arf(poles, 1, m)(t))))
        for m, (phi_e, _) in enumerate(arf.explicit, start=1)
    )
    line("order-1 associated functions vs closed form", err, 1e-9)
    theta = arf.mu_k.params["theta"]
    target = (1.0 - abs(beta1) ** 2) / np.abs(np.exp(1j * theta) - beta1) ** 2
    line("recovered order-1 density vs closed form", float(np.max(np.abs(arf.mu_k.params["w"] - target))), 1e-8)
    return 0 if ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orfkit",
        description="Orthogonal rational functions on the unit circle with "
        "prescribed poles: construction, associated ladders, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build a ladder and write orf.json / orf_table.csv")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--table-points", type=int, default=TABLE_POINTS)

    p = sub.add_parser("arf", help="build an associated ladder and write arf_k.json / mu_k.csv")
    p.add_argument("--config", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--out", default=".")

    p = sub.add_parser("verify", help="run identity checks and write verify.json")
    p.add_argument("--config", required=True)
    p.add_argument("--check", action="append", default=None)
    p.add_argument("--out", default=".")

    p = sub.add_parser("example", help="run the worked Lebesgue example")
    p.add_argument("which", choices=["lebesgue"])
    p.add_argument("--beta1", default="0.5,0")
    p.add_argument("--n", type=int, default=2)
    return parser


# built once per process; each parse_args call starts from a fresh namespace
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # looked up by name at each call, so a replaced cmd_* function is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OrfkitError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
