"""Span recorder that measures kpzlab's layers from outside.

Each traced name is replaced, in every module or class where callers look
it up, by a wrapper that opens a span on entry and closes it on exit.
Generators get one span per ``next()``, so time spent by the consumer
between items is not charged to the generator.  Spans are kept in memory
(name, start, end, parent, round) and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, round]
        self.stack: list[int] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.round = -1  # -1 is set-up; rounds count from 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans and counters -------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.round])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[self.round][key] += amount

    # -- wrappers -----------------------------------------------------------
    def span_fn(self, name, fn, on_call=None, on_return=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the bound args."""
        sig = inspect.signature(fn) if callable(name) or on_call or on_return else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if sig:
                binding = sig.bind(*args, **kwargs)
                binding.apply_defaults()
                bound = binding.arguments
            label = name(bound) if callable(name) else name
            if on_call:
                on_call(self, bound)
            index = self.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_return:
                on_return(self, bound, result)
            return result

        return wrapper

    def span_gen(self, name: str, fn, count_key: str):
        """Wrap a generator function: one span per item, one count per item."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                index = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                self.add(count_key)
                yield item

        return wrapper

    def count_fn(self, fn, key: str, amount=lambda args, kwargs: 1, when=None):
        """Count calls (or an amount per call) without opening a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or self.innermost() == when:
                self.add(key, amount(args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------
    def patch(self, owners, attr: str, make) -> None:
        """Replace ``attr`` on each owner that has it by ``make(original)``."""
        for owner in owners:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------
    def totals(self, round_index: int) -> dict[str, dict[str, float]]:
        """Per span name: total time and self time within one round.

        A span nested inside a span of the same name (recursion, or one
        patched alias calling another) is not counted twice in the total.
        """
        total: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for i, (name, start, end, parent, rnd) in enumerate(self.spans):
            if rnd != round_index or end is None:
                continue
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
            if not self._has_ancestor(i, name):
                total[name] += duration
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, rnd) in enumerate(self.spans):
            if rnd == round_index and end is not None:
                self_time[name] += (end - start) - child_time[i]
        return {"total": total, "self": self_time}

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": [
                    {"name": n, "start": s, "end": e, "parent": p, "round": r}
                    for n, s, e, p, r in self.spans
                ],
                "counts": {str(r): dict(c) for r, c in self.counts.items()},
            }, fh)


def point_count(args, kwargs) -> int:
    """Number of points in a broadcast ``f(t, x)`` evaluation."""
    t, x = args[-2], args[-1]
    return int(np.broadcast(np.asarray(t), np.asarray(x)).size)


def install(rec: Recorder) -> None:
    """Patch every traced public name of kpzlab, wherever it is looked up."""
    from kpzlab import cumulants, graphs, kernels, noise, power_counting, sim, symbols

    # exact half
    rec.patch([symbols], "build_symbol_set",
              lambda f: rec.span_fn("symbols.build_symbol_set", f))
    rec.patch([symbols], "homogeneity",
              lambda f: rec.count_fn(f, "symbols.homogeneity_calls"))
    rec.patch([symbols], "certify_symbol",
              lambda f: rec.span_fn("symbols.certify_symbol", f))
    rec.patch([cumulants, graphs], "iter_wick_partitions",
              lambda f: rec.span_gen("cumulants.iter_wick_partitions", f,
                                     "cumulants.wick_partitions"))
    rec.patch([graphs, power_counting], "iter_contractions",
              lambda f: rec.span_gen("graphs.iter_contractions", f,
                                     "graphs.contractions"))

    def scanned(rec, bound, report):
        n = len(bound["G"].vertex_ids)  # merging multi-edges keeps every vertex
        rec.add("power_counting.scans")
        rec.add("power_counting.subset_masks", 2 ** n)
        counts = rec.counts[rec.round]
        counts["power_counting.max_vertices"] = max(
            counts["power_counting.max_vertices"], n)

    rec.patch([power_counting], "check_contracted",
              lambda f: rec.span_fn("power_counting.check_contracted", f,
                                    on_return=scanned))
    rec.patch([power_counting], "check_admissible",
              lambda f: rec.span_fn("power_counting.check_admissible", f))

    # numerical half
    rec.patch([kernels], "build_truncated_kernel",
              lambda f: rec.span_fn("kernels.build_truncated_kernel", f))
    rec.patch([kernels.LegTable], "__init__",
              lambda f: rec.span_fn("kernels.leg_table", f))
    rec.patch([kernels.TruncatedKernel], "value",
              lambda f: rec.count_fn(f, "kernels.leg_table_kernel_evals",
                                     point_count, when="kernels.leg_table"))
    rec.patch([kernels], "evaluate_diagram",
              lambda f: rec.span_fn(
                  lambda b: "kernels.evaluate_diagram." + b["diagram"].name, f,
                  on_call=lambda rec, b: rec.add(
                      "kernels.mc_samples." + b["diagram"].name, b["budget"])))

    rec.patch([noise.PairingWindows], "__init__",
              lambda f: rec.span_fn("noise.pairing_windows", f))
    rec.patch([noise.PairingWindows], "interpolate",
              lambda f: rec.count_fn(f, "noise.cloud_points",
                                     lambda a, k: len(a[2]) if a[1] == 0 else 0))
    rec.patch([noise], "sample_pairings",
              lambda f: rec.span_fn("noise.sample_pairings", f))

    def counted_etas(make):
        @functools.wraps(make)
        def wrapper(*args, **kwargs):
            return tuple(rec.count_fn(eta, "noise.window_eta_evals", point_count,
                                      when="noise.pairing_windows")
                         for eta in make(*args, **kwargs))
        return wrapper

    rec.patch([noise], "make_test_functions", counted_etas)
    rec.patch([noise.PoissonNoiseModel], "phi",
              lambda f: rec.span_fn("noise.phi", f))

    # the cloud-to-field step is named sample_field_from_cloud today; the
    # planned split (draw_cloud + field_from_cloud) keeps the same span
    for attr in ("sample_field_from_cloud", "field_from_cloud"):
        rec.patch([sim, noise], attr, lambda f: rec.span_fn("sim.field_from_cloud", f))
    rec.patch([sim], "solve_renormalised",
              lambda f: rec.span_fn("sim.solve_renormalised", f))
    rec.patch([sim], "solve_hopf_cole",
              lambda f: rec.span_fn("sim.solve_hopf_cole", f))
    rec.patch([sim], "compare_statistics",
              lambda f: rec.span_fn("sim.compare_statistics", f))
