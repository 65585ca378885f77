"""Spans around the public functions of each hilb3 module.

While a Tracer is installed, every listed function is replaced by a
wrapper in each hilb3 module that binds it, so calls through a module
attribute (gfp.matmul), through a name imported with `from ... import`
(tanlin's reduce_full) and through an import made at call time
(poly3.evaluate_at_matrices fetching gfp.matmul) are all recorded.
A span holds its name, start, end, parent span and op id, plus the
counts listed for its function.  Spans stay in memory; `layer_metrics`
turns them into per-layer self time, inclusive time and counts.
Everything runs on one thread, so spans nest and no layer waits.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict


def _rref_counts(args, result):
    m, n = args[0].shape
    r = len(result[1])
    # model count: each of the r pivots updates up to m rows of n entries
    return {"cells": m * n, "rank_sum": r, "ops_computed": 2 * m * n * r}


def _matmul_counts(args, result):
    (m, k), n = args[0].shape, args[1].shape[1]
    return {"ops_computed": 2 * m * k * n, "bytes_computed": 8 * (m * k + k * n + m * n)}


#: "module.function" -> counts taken from (args, result), or None.  Entry
#: points without a metric of their own (tangent_report, groebner, ...) are
#: wrapped too, so their own work is not charged to the caller's self time.
TRACED = {
    "cli.main": None,
    "cli.build_parser": None,
    "cli.render": None,
    "mono3.plane_partitions": None,  # a generator: one span per next()
    "mono3.ideal_from_plane_partition": None,
    "mono3.socle": None,
    "mono3.from_generators": None,
    "mono3.macmahon_series": None,
    "smoothcls.smooth_census": None,
    "smoothcls.find_triple": None,
    "tancomb.tangent_report": None,
    "tancomb.weight_candidates": lambda a, r: {"weights": len(r)},
    "tancomb.bounded_components": lambda a, r: {"nonzero": int(r > 0)},
    "tanlin.mono_hom_dim": None,
    "tanlin.hom_dim_weight": lambda a, r: {"nonzero": int(r > 0)},
    "tanlin.tangent_excess": None,
    "tanlin.hom_dim": None,
    "tanlin.syzygies": lambda a, r: {"rows": len(r.syzygies)},
    "tanlin.generator_syzygies": None,
    "poly3.groebner": None,
    "poly3.buchberger": lambda a, r: {"basis_out": len(r)},
    "poly3.reduce_basis": None,
    "poly3.reduce_full": None,
    "poly3.intersect": None,
    "poly3.colon": None,
    "poly3.quotient_data": lambda a, r: {"colength_sum": r.colength},
    "poly3.evaluate_at_matrices": None,
    "gfp.matmul": _matmul_counts,
    "gfp.rref": _rref_counts,
    "gfp.rank": None,
    "gfp.kernel_basis": None,
    "linkage.link": None,
    "linkage.verify_link_chain": None,
    "linkage.parity_report": None,
    "duality.bicanonical_degree": None,
    "duality.gorenstein_type": None,
    "apolarity.annihilator": None,
}


class Tracer:
    """Records spans while installed; `op` tags spans with the current op."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, counts)
        self.op = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, result)
                return result
            finally:
                spans[sid] = (sid, name, start, clock(), parent, self.op, counts)
                stack.pop()

        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(sid)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    spans[sid] = (sid, name, start, clock(), parent, self.op, None)
                    stack.pop()
                yield item

        return gen_wrapper if inspect.isgeneratorfunction(fn) else wrapper

    def install(self) -> None:
        mods = {k.split(".", 1)[1]: m for k, m in sys.modules.items()
                if k.startswith("hilb3.") and m is not None}
        for name, counter in TRACED.items():
            mod, attr = name.split(".")
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(name, original, counter)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "counts": counts}) + "\n")


def layer_metrics(spans) -> dict[str, float]:
    """Per function: calls, self_s, total_s and the summed counts."""
    child = defaultdict(float)
    for sid, name, start, end, parent, op, counts in spans:
        child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, parent, op, counts in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += end - start
        out[f"{name}.self_s"] += end - start - child[sid]
        for key, value in (counts or {}).items():
            out[f"{name}.{key}"] += value
    return out
