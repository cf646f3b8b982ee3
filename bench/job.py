"""One benchmark job: a fresh interpreter that runs `cfslab.cli.main` once.

Usage: python3 bench/job.py SRC_DIR REQUEST_JSON RESULT_JSON

REQUEST_JSON holds {"argv": [...], "trace": bool, "spans_path": str | null}.
The job writes RESULT_JSON with the wall and CPU time of the `main` call,
peak RSS, a
summary of every tube-estimate call, and, when traced, the per-layer
metrics. The CLI's own stdout is discarded.
"""
import json
import resource
import sys
import threading
import time
import traceback


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


class Capture:
    """Describes every tube-estimate call (one per battery cell, or the
    single smallball query) right after it returns: which thread ran it,
    each query's analytic-zero reason recomputed through the public
    `detect_analytic_zero`, and whether the cell is debiased. Only these
    small summaries are kept, so no cell's arrays outlive the cell."""

    def __init__(self) -> None:
        self.cells = []

    def install(self) -> None:
        from cfslab import smallball, suite

        for owner in (suite, smallball):
            fn = getattr(owner, "estimate_many", None)
            if fn is not None:
                setattr(owner, "estimate_many", self._wrap(fn, smallball))

    def _wrap(self, fn, smallball):
        def wrapper(spec, ctx, queries, *args, **kwargs):
            queries = list(queries)
            result = fn(spec, ctx, queries, *args, **kwargs)
            debiased = bool(queries) and smallball.cell_noise_scale(
                spec, ctx, queries[0].target.grid) is not None
            self.cells.append({
                "thread": threading.get_ident(),
                "model": spec.name, "t_index": ctx.t_index,
                "eps": [q.eps for q in queries],
                "reasons": [smallball.detect_analytic_zero(spec, ctx, q)
                            for q in queries],
                "debiased_queries": len(queries) if debiased else 0,
            })
            return result
        return wrapper

    def summary(self) -> dict:
        return {"cells": self.cells,
                "debiased_queries": sum(c["debiased_queries"]
                                        for c in self.cells),
                "workers_used": len({c["thread"] for c in self.cells})}


def _host() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(src: str, request_path: str, result_path: str) -> int:
    sys.path.insert(0, src)
    from cfslab import cli

    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    capture = Capture()
    capture.install()
    recorder = None
    if request["trace"]:
        import tracer
        from workloads import ALL_PRESETS

        recorder = tracer.Tracer()
        tracer.install(recorder)

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        rc = cli.main(request["argv"])
    except Exception:  # a crash in the program is a failed job, not ours
        traceback.print_exc()
        rc = "exception"
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; children count by their largest one
        "peak_rss_mb": (self1.ru_maxrss + kids1.ru_maxrss) / 1024.0,
        "host": _host(),
        "capture": capture.summary(),
    }
    if recorder is not None:
        result["layers"] = tracer.layer_metrics(
            recorder.spans, ALL_PRESETS, tracer.factor_cache_misses())
        result["hooks_missing"] = recorder.missing
        with open(request["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "thread", "info"],
                       "spans": recorder.spans}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
