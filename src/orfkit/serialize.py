"""Lossless JSON/CSV serialization of ladders and associated ladders.

Complex numbers are stored as [re, im] pairs; floats go through the JSON
writer's shortest round-trip representation (and through %.17g in CSV),
so a dump/load cycle reproduces every double bit-exactly.

The per-level "d": 2.0, the top-level "normalization": "orthonormal" and
the associated ladder's "c": [2.0, ...] are fixed by the orthonormal
normalization; they are written as format constants and ignored on load.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .engine import OrfLevel, OrfSystem, _orthonormal_e
from .errors import DomainError, NumericalFailure
from .measure import _is_number
from .ratfun import PoleSequence, RatFun


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def _carray(arr):
    return np.ascontiguousarray(arr, dtype=complex).view(float).reshape(-1, 2).tolist()


def _from_c(pair):
    re, im = pair  # exactly two numbers
    if not (_is_number(re) and _is_number(im) and math.isfinite(re) and math.isfinite(im)):
        raise DomainError(f"a stored complex number is two finite numbers, got {pair!r}")
    return complex(re, im)


def _from_carray(pairs):
    return np.array([_from_c(p) for p in pairs], dtype=complex)


def system_to_dict(system: OrfSystem) -> dict:
    levels = []
    for lv in system.levels:
        levels.append(
            {
                "n": lv.n,
                "phi": _carray(lv.phi.numer),
                "phi_star": _carray(lv.phi_star.numer),
                "psi": _carray(lv.psi.numer),
                "psi_star": _carray(lv.psi_star.numer),
                "lambda": None if lv.lam is None else _c(lv.lam),
                "e": lv.e,
                "rho": None if lv.rho is None else _c(lv.rho),
                "d": 2.0,
            }
        )
    return {
        "kind": "orf_system",
        "poles": _carray(system.poles.beta),
        "source": system.source,
        "normalization": "orthonormal",
        "n_points": system.n_points,
        "levels": levels,
    }


def system_from_dict(data: dict) -> OrfSystem:
    """The ladder of a system_to_dict dump. A dump is outside input: one
    that does not hold levels 0..m in order, each entry in its place, with
    finite numbers, recurrence data (lambda, e, rho) above level 0 only,
    |lambda| < 1, e its orthonormal value and |rho| = 1 within 1e-12, from a
    known source, on no grid or a grid the quadrature accepts, raises DomainError."""
    if not isinstance(data, dict) or data.get("kind") != "orf_system":
        raise DomainError("not a serialized ladder")
    try:
        poles = PoleSequence(_from_carray(data["poles"]))
        levels = []
        for n, item in enumerate(data["levels"]):
            if item["n"] != n or not _is_number(item["n"]):
                raise DomainError(f"level {n} of the ladder is stored as level {item['n']!r}")
            funcs = [RatFun(poles, _from_carray(item[key]), n) for key in ("phi", "phi_star", "psi", "psi_star")]
            lam, rho = (None if item[key] is None else _from_c(item[key]) for key in ("lambda", "rho"))
            e = item["e"]
            held = None not in (lam, rho) and _is_number(e) and abs(lam) < 1.0 and abs(abs(rho) - 1.0) <= 1e-12
            if (lam, e, rho) != (None,) * 3 if n == 0 else not (held and e == _orthonormal_e(poles, n, lam)):
                raise DomainError(f"level {n} holds recurrence data no ladder has there: {lam}, {e!r}, {rho}")
            levels.append(OrfLevel(n, *funcs, lam, e, rho))
        source, n_points = data["source"], data.get("n_points")
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed serialized ladder: {type(exc).__name__}: {exc}") from exc
    if source not in ("measure", "parameters"):
        raise DomainError(f"a ladder's source is 'measure' or 'parameters', got {source!r}")
    if not levels:
        raise DomainError("a serialized ladder needs level 0")
    if n_points is not None and (isinstance(n_points, bool) or not isinstance(n_points, int)):
        raise DomainError(f"n_points must be an integer or null, got {n_points!r}")
    return OrfSystem(poles, levels, source=source, n_points=n_points)


def arf_to_dict(arf) -> dict:
    return {
        "kind": "arf_system",
        "order": arf.order,
        "c": [2.0] * (arf.system.n_max + 1),
        "system": system_to_dict(arf.system),
        "mu_weight": {
            "theta": np.asarray(arf.mu_k.params["theta"], dtype=float).tolist(),
            "w": np.asarray(arf.mu_k.params["w"], dtype=float).tolist(),
        },
    }


# "<prefix><index>@" stands in for a table while the rest of an object is dumped
_TABLE = "@orfkit-table-"
# plain numbers; a bool is an int subclass and stays out
_NUMBERS = {float, int}


def dumps(obj) -> str:
    """json.dumps(obj, indent=1), byte for byte, or NumericalFailure for an
    object holding a float JSON has no number for (NaN, +-inf).

    Python's indented encoder formats one value at a time. A dict entry that
    is a list of 16 or more plain numbers (a density table) is instead
    rendered by the C encoder, which writes each number as the same text,
    and its ", " separators are turned into the indented layout. Each such
    list stands in the object as a marker string while the rest is dumped
    with indent=1, and is spliced back at its own depth. Lists inside lists
    are left to the indented encoder, so the search stays off the many short
    [re, im] pairs of a ladder.
    """
    tables = []

    def strip(value, depth):
        if isinstance(value, dict):
            return {key: strip(v, depth + 1) for key, v in value.items()}
        if isinstance(value, list) and len(value) >= 16 and set(map(type, value)) <= _NUMBERS:
            tables.append((value, depth))
            return f"{_TABLE}{len(tables) - 1}@"
        return value

    def text(value, **kw):
        try:
            return json.dumps(value, allow_nan=False, **kw)
        except ValueError as exc:
            raise NumericalFailure(f"artifact not written: {exc}") from exc

    stripped = strip(obj, 0)
    if not tables:
        return text(obj, indent=1)
    pieces = text(stripped, indent=1).split('"' + _TABLE)
    if len(pieces) != len(tables) + 1:
        # a string of the object itself looks like a marker
        return text(obj, indent=1)
    out = [pieces[0]]
    for piece in pieces[1:]:
        index, rest = piece.split('@"', 1)
        values, depth = tables[int(index)]
        inner = "\n" + " " * (depth + 1)
        out += ["[", inner, text(values)[1:-1].replace(", ", "," + inner), "\n", " " * depth, "]", rest]
    return "".join(out)


def _write_atomic(path, lines):
    """Write via a temp file and rename, so readers never see a torn file.

    The temp file is created with mode 0666, so the umask gives the file
    the mode a plain open() would; O_EXCL keeps it from clobbering another.
    """
    tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, obj: dict):
    """JSON with a trailing newline, written atomically."""
    _write_atomic(path, [dumps(obj), "\n"])


def write_csv_atomic(path, header, rows):
    """CSV of a 2-D float array with 17-significant-digit decimals (lossless
    for doubles), the whole body from one %-format; NumericalFailure, and
    no file, for a value that is not finite."""
    values = np.asarray(rows, dtype=float)
    if not np.isfinite(values).all():
        raise NumericalFailure("artifact not written: a table value is not finite")
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    body = (row_format * len(rows)) % tuple(values.ravel().tolist())
    _write_atomic(path, [",".join(header) + "\n", body])
