"""Span tracing of layerfield from outside the library.

``Tracer.install`` replaces each traced function by a wrapper that records
a span (name, start, end, parent span, op id). The wrapper is bound under
every name that refers to the function in any ``layerfield`` module, so
calls through ``from .basefield import extension_values`` are traced as
well as calls inside the defining module. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("spectral", "opalgebra", "basefield", "transmute", "oracle", "cli")

# Private helpers and foreign functions traced in addition to every public
# function of MODULES: the mode/sample split of the base field and the
# sparse solve of the fd oracle.
EXTRA_FUNCTIONS = (("basefield", "_mode_values"),
                   ("basefield", "_sample_values"),
                   ("oracle", "spsolve"))
EXTRA_METHODS = (("opalgebra", "TermSumOperator", "compose"),
                 ("opalgebra", "TermSumOperator", "merged"))


def _apply_operator(count, args, result):
    op, xs, ys = args["op"], args["xs"], args["ys"]
    count("transmute.apply_operator.term_evals",
          len(op.terms) * np.size(xs) * np.size(ys))


def _extension_values(count, args, result):
    count("basefield.points", np.size(args["xs"]) * np.size(args["ys"]))


def _robin_values(count, args, result):
    count("transmute.quadrature_error", result[1], combine=max)


def _image_series(count, args, result):
    count("opalgebra.orders_used", result.orders_used, combine=max)
    count("opalgebra.terms",
          len(result.layer1.terms) + len(result.layer2.terms), combine=max)
    capped = result.orders_used == args["j_max"] + 1
    converged = 0.0 < result.last_term_norm < args["series_tol"]
    count("opalgebra.j_max_hits", int(capped and not converged))


def _fd_solve(count, args, result):
    count("oracle.fd_unknowns", result.values.size)


# Counters read from the arguments and result of a traced call.
HOOKS = {
    "transmute.apply_operator": _apply_operator,
    "basefield.extension_values": _extension_values,
    "transmute.robin_values": _robin_values,
    "opalgebra.image_series": _image_series,
    "oracle.fd_solve": _fd_solve,
}


class Tracer:
    """Records spans and counters of the calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # (name id, start, end, parent, op id)
        self.counters = defaultdict(dict)   # op id -> counter -> value
        self._combine = {}                  # counter -> max, or absent: sum
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    def count(self, key: str, value, combine=None):
        """Add ``value`` to a counter of the current op; ``combine=max``
        keeps the largest value instead."""
        if combine is not None:
            self._combine[key] = combine
        self._merge(self.counters[self.op_id], key, value)

    def _merge(self, into: dict, key: str, value):
        if key in into:
            combine = self._combine.get(key)
            value = combine(into[key], value) if combine else into[key] + value
        into[key] = value

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        errors_key = name.split(".", 1)[0] + ".errors"
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(errors_key, 1)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op_id)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.count, bound.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap the traced functions in every loaded layerfield module."""
        package = [m for n, m in sys.modules.items()
                   if n == "layerfield" or n.startswith("layerfield.")]
        targets = []
        for short in MODULES:
            mod = sys.modules[f"layerfield.{short}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets.append((f"{short}.{attr}", obj))
        for short, attr in EXTRA_FUNCTIONS:
            targets.append((f"{short}.{attr}",
                            getattr(sys.modules[f"layerfield.{short}"], attr)))
        for fq_name, fn in targets:
            wrapper = self._wrap(fn, fq_name)
            for mod in package:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for short, cls_name, meth in EXTRA_METHODS:
            cls = getattr(sys.modules[f"layerfield.{short}"], cls_name)
            fn = vars(cls)[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{short}.{cls_name}.{meth}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as fh:
            for idx, (nid, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": self.names[nid],
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def aggregate(self, groups) -> list[dict]:
        """For each group of op ids: per-name calls, total and self
        seconds of the spans of those ops, and their counters combined."""
        group_of = {op: g for g, ops in enumerate(groups) for op in ops}
        child = defaultdict(float)
        for nid, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = [{"calls": defaultdict(int), "total": defaultdict(float),
                "self": defaultdict(float), "counters": {}} for _ in groups]
        for idx, (nid, start, end, parent, op) in enumerate(self.spans):
            g = group_of.get(op)
            if g is None:
                continue
            name = self.names[nid]
            out[g]["calls"][name] += 1
            out[g]["total"][name] += end - start
            out[g]["self"][name] += end - start - child[idx]
        for op, g in group_of.items():
            for key, value in self.counters.get(op, {}).items():
                self._merge(out[g]["counters"], key, value)
        return out
