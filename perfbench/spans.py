"""Spans around the public functions of orfkit's modules, installed from outside.

`Tracer.install()` replaces every public module-level function of the seven
layers with a wrapper that records a span, in the defining module and in
every orfkit module that imported the name, so callers that look the name
up in their own namespace are traced too. The verify checks are wrapped
through `verify._CHECKS`, and `CircleMeasure.weight` on its class, split
by measure kind. `uninstall()` restores the originals.

A span is (name id, op id, start, end, parent span, outermost-of-its-name).
Spans stay in memory; `dump()` writes them when the benchmark ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("ratfun", "measure", "engine", "transforms", "verify", "serialize", "cli")
WEIGHT_SAMPLES = "measure.weight.samples"
WEIGHT_ANALYTIC = "measure.weight.analytic"


class Tracer:
    def __init__(self):
        from orfkit.errors import OrfkitError

        self._error_type = OrfkitError
        self.modules = {layer: importlib.import_module(f"orfkit.{layer}") for layer in LAYERS}
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list = []
        self.rounds: list[list] = []
        self.op = -1
        self.new_round()

    # -- recording -------------------------------------------------------

    def _name_id(self, name, layer):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def new_round(self):
        """Start a fresh span list and fresh counters for one traced round."""
        self.spans: list = []
        self.rounds.append(self.spans)
        self.stack: list[int] = []
        self.active = defaultdict(int)
        self.errors = defaultdict(int)
        self.failed = defaultdict(int)
        self.counts = defaultdict(float)
        self.grid_points: list[int] = []
        self._raised: dict[int, tuple] = {}

    def _call(self, nid, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        outer = self.active[nid] == 0
        self.active[nid] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except self._error_type as exc:
            self.errors[nid] += 1
            # count an error once per layer it leaves, however many of the
            # layer's functions it passes through
            _, seen = self._raised.setdefault(id(exc), (exc, set()))
            layer = self.layer_of[nid]
            if layer not in seen:
                seen.add(layer)
                self.failed[layer] += 1
            raise
        finally:
            t1 = perf_counter()
            self.active[nid] -= 1
            self.stack.pop()
            self.spans[idx] = (nid, self.op, t0, t1, parent, outer)

    def _wrap(self, fn, name, layer, after=None):
        nid = self._name_id(name, layer)
        call = self._call

        def wrapper(*args, **kwargs):
            result = call(nid, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installation ----------------------------------------------------

    def _after_write(self, args, _result):
        self.counts["serialize.bytes_written"] += os.path.getsize(args[0])

    def _after_build(self, _args, system):
        self.grid_points.append(int(system.n_points))

    def _weight_wrapper(self, original):
        samples = self._name_id(WEIGHT_SAMPLES, "measure")
        analytic = self._name_id(WEIGHT_ANALYTIC, "measure")
        call = self._call

        def weight(mu, theta):
            if mu.kind == "samples":
                self.counts["measure.weight.samples.terms"] += np.size(theta) * mu.params["theta"].size
                return call(samples, original, (mu, theta), {})
            return call(analytic, original, (mu, theta), {})

        return weight

    def install(self):
        """Put the wrappers in place; call `uninstall()` before installing again."""
        hooks = {
            "serialize.write_json_atomic": self._after_write,
            "serialize.write_csv_atomic": self._after_write,
            "cli.build_system": self._after_build,
        }
        verify = self.modules["verify"]
        check_names = {id(fn): name for name, fn in verify._CHECKS.items()}
        wrapped = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    span = f"verify.{check_names[id(obj)]}" if id(obj) in check_names else f"{layer}.{name}"
                    wrapped[id(obj)] = (obj, self._wrap(obj, span, layer, hooks.get(span)))
        targets = [importlib.import_module("orfkit"), *self.modules.values()]
        for mod in targets:
            for name, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, name, entry[1])
        for name, fn in list(verify._CHECKS.items()):
            self._patch(verify._CHECKS, name, wrapped[id(fn)][1])
        cls = self.modules["measure"].CircleMeasure
        self._patch(cls, "weight", self._weight_wrapper(cls.weight))

    def _patch(self, target, key, value):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- summaries -------------------------------------------------------

    def summarize(self) -> dict:
        """Per-layer figures of the current round (times in seconds)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = dict.fromkeys(LAYERS, 0.0)
        incl = defaultdict(float)
        calls = defaultdict(int)
        roots = 0.0
        for i, (nid, _, t0, t1, parent, outer) in enumerate(spans):
            dur = t1 - t0
            self_s[self.layer_of[nid]] += dur - child[i]
            calls[self.names[nid]] += 1
            if outer:
                incl[self.names[nid]] += dur
            if parent < 0:
                roots += dur
        return {
            "self_s": self_s,
            "incl_s": dict(incl),
            "calls": dict(calls),
            "errors": {self.names[k]: v for k, v in self.errors.items()},
            "failed": {layer: self.failed.get(layer, 0) for layer in LAYERS},
            "counts": dict(self.counts),
            "grid_points": list(self.grid_points),
            "root_s": roots,
            "spans": len(spans),
        }

    def dump(self, path):
        """Write every recorded span as gzipped JSON."""
        doc = {
            "fields": ["name", "op", "start_s", "end_s", "parent", "outermost"],
            "names": self.names,
            "layers": self.layer_of,
            "rounds": [[list(s) for s in spans] for spans in self.rounds if spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
