"""Spans around the calls into each cfslab layer, recorded from outside.

The library is not edited: `install` replaces module attributes at each
layer boundary, as bound in the calling module, with thin wrappers that
record a span (id, name, start, end, parent id, thread, info). Spans stay in
memory until the run ends. `layer_metrics` turns them into the per-layer
numbers: a span's self time is its duration minus that of its direct
children.

An attribute that a later version of the library no longer has is skipped
and reported in `missing`, so the benchmark still runs; the metrics it fed
then read zero.
"""
from __future__ import annotations

import itertools
import statistics
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.missing: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info=None):
        """A function that records one span per call of `fn`."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            extra = info(*args, **kwargs) if info is not None else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent,
                              threading.get_ident(), extra))

        return wrapper

    def wrap_iter(self, name, fn):
        """For a generator function: one span per resumption, so the
        consumer's work between items stays outside the span."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack = stack_of()
                sid = next(ids)
                parent = stack[-1] if stack else 0
                stack.append(sid)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans.append((sid, name, t0, t1, parent,
                                  threading.get_ident(), None))
                yield item

        return wrapper

    def patch(self, owner, attr, name, info=None, is_iter=False):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapped = (self.wrap_iter(name, fn) if is_iter
                   else self.wrap(name, fn, info))
        setattr(owner, attr, wrapped)


def _chunk_info(spec, ctx, grid_tail, streams, *_, **__):
    return (spec.name, len(streams), grid_tail.n_steps)


def _trmm_info(xi, factor, *_, **__):
    return xi.shape[0] * factor.shape[0] * factor.shape[1]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from cfslab import cli, core, gaussian, models, smallball, suite

    tracer.patch(core.RngStream, "generator", "core.generator")
    tracer.patch(gaussian, "gen_fbm", "gaussian.gen_fbm")
    tracer.patch(models, "fbm_conditional_factors",
                 "gaussian.fbm_conditional_factors")
    tracer.patch(models, "lower_tri_matmul", "gaussian.lower_tri_matmul",
                 info=_trmm_info)
    tracer.patch(models, "continue_chunk", "models.continue_chunk",
                 info=_chunk_info)
    tracer.patch(suite, "simulate", "models.simulate")
    tracer.patch(cli, "simulate", "models.simulate")
    tracer.patch(suite, "iter_continuations", "suite.pilot", is_iter=True)
    tracer.patch(smallball, "iter_continuations", "models.iter_continuations",
                 is_iter=True)
    tracer.patch(suite, "estimate_many", "smallball.estimate_many")
    tracer.patch(smallball, "estimate_many", "smallball.estimate_many")
    tracer.patch(cli, "render_report", "suite.render_report")


def factor_cache_misses() -> int:
    from cfslab import gaussian

    info = getattr(gaussian.fbm_conditional_factors, "cache_info", None)
    return info().misses if info is not None else 0


def _cells(spans) -> list[float]:
    """Per-cell durations: a battery cell runs from its history simulation
    to the end of its tube estimates, on one thread."""
    by_thread = defaultdict(list)
    for s in spans:
        if s[1] in ("models.simulate", "smallball.estimate_many"):
            by_thread[s[5]].append(s)
    cells = []
    for seq in by_thread.values():
        seq.sort(key=lambda s: s[2])
        start = None
        for s in seq:
            if s[1] == "models.simulate":
                start = s[2] if start is None else start
            elif start is not None:
                cells.append(s[3] - start)
                start = None
    return cells


def layer_metrics(spans, presets, factor_misses: int) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced run."""
    child_time = defaultdict(float)
    for s in spans:
        child_time[s[4]] += s[3] - s[2]
    total = defaultdict(float)
    self_time = defaultdict(float)
    count = defaultdict(int)
    continue_self = defaultdict(float)
    paths = steps = trmm_flop = 0
    for s in spans:
        dur = s[3] - s[2]
        own = dur - child_time[s[0]]
        total[s[1]] += dur
        self_time[s[1]] += own
        count[s[1]] += 1
        if s[1] == "models.continue_chunk":
            preset, rows, m = s[6]
            continue_self[preset] += own
            paths += rows
            steps += rows * m
        elif s[1] == "gaussian.lower_tri_matmul":
            trmm_flop += s[6]
    cells = _cells(spans)
    cell_total = sum(cells)
    trmm_s = total["gaussian.lower_tri_matmul"]
    out = {
        "core.generator_calls": count["core.generator"],
        "core.generators_per_rep": (count["core.generator"] / paths
                                    if paths else 0.0),
        "core.generator_s": total["core.generator"],
        "gaussian.factor_s": (total["gaussian.fbm_conditional_factors"]
                              + total["gaussian.gen_fbm"]),
        "gaussian.factor_cache_misses": factor_misses,
        "gaussian.trmm_s": trmm_s,
        "gaussian.trmm_gflop": trmm_flop / 1e9,
        "gaussian.trmm_gflops": trmm_flop / 1e9 / trmm_s if trmm_s else 0.0,
        "models.simulate_s": total["models.simulate"],
    }
    for preset in presets:
        out[f"models.continue_s.{preset}"] = continue_self[preset]
    cont_s = total["models.continue_chunk"]
    out.update({
        "models.paths": paths,
        "models.steps_per_s": steps / cont_s if cont_s else 0.0,
        "smallball.estimate_self_s": self_time["smallball.estimate_many"],
        "suite.pilot_s": total["suite.pilot"],
        "suite.pilot_share": (total["suite.pilot"] / cell_total
                              if cell_total else 0.0),
        "suite.cell_s.p50": statistics.median(cells) if cells else 0.0,
        "suite.cell_s.max": max(cells, default=0.0),
        "suite.render_s": total["suite.render_report"],
    })
    return out
