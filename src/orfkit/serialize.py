"""Lossless JSON/CSV serialization of ladders and associated ladders.

Complex numbers are stored as [re, im] pairs; floats go through the JSON
writer's shortest round-trip representation (and through %.17g in CSV),
so a dump/load cycle reproduces every double bit-exactly.

The per-level "d": 2.0, the top-level "normalization": "orthonormal" and
the associated ladder's "c": [2.0, ...] are fixed by the orthonormal
normalization; they are written as format constants and ignored on load.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile

import numpy as np

from .engine import OrfLevel, OrfSystem
from .errors import DomainError
from .measure import default_grid
from .ratfun import PoleSequence, RatFun


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def _carray(arr):
    return [_c(v) for v in np.asarray(arr)]


def _from_c(pair):
    return complex(pair[0], pair[1])


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
    if data.get("kind") != "orf_system":
        raise DomainError("not a serialized ladder")
    poles = PoleSequence(_from_carray(data["poles"]))
    levels = []
    for item in data["levels"]:
        n = item["n"]
        levels.append(
            OrfLevel(
                n,
                RatFun(poles, _from_carray(item["phi"]), n),
                RatFun(poles, _from_carray(item["phi_star"]), n),
                RatFun(poles, _from_carray(item["psi"]), n),
                RatFun(poles, _from_carray(item["psi_star"]), n),
                None if item["lambda"] is None else _from_c(item["lambda"]),
                item["e"],
                None if item["rho"] is None else _from_c(item["rho"]),
            )
        )
    # a ladder stored without its grid gets the default one for its size
    n_points = data.get("n_points") or default_grid(len(levels) - 1)
    return OrfSystem(poles, levels, source=data["source"], n_points=n_points)


def arf_to_dict(arf) -> dict:
    return {
        "kind": "arf_system",
        "order": arf.order,
        "c": [2.0] * (arf.system.n_max + 1),
        "system": system_to_dict(arf.system),
        "mu_weight": {
            "theta": [float(v) for v in arf.mu_k.params["theta"]],
            "w": [float(v) for v in arf.mu_k.params["w"]],
        },
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=1)


def _write_atomic(path, lines):
    """Write via a temp file and rename, so readers never see a torn file."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
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
    """CSV with 17-significant-digit decimals (lossless for doubles)."""
    body = (",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    _write_atomic(path, itertools.chain([",".join(header) + "\n"], body))
