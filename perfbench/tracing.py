"""In-memory span tracing of repclass, installed from the benchmark's side.

`Tracer.active()` replaces the public functions at the names the layer above
calls (for example `repclass.harness.fit_pca`, which `run_experiment` calls)
with wrappers that record one span per call and hand arguments and return
values through untouched. On exit the originals are put back, so untraced
calls run the unmodified program. `summarize` turns the spans of one call
into per-layer metrics; a span's self time is its duration minus the time
its direct child spans cover.
"""

import contextlib
import functools
import os
import statistics
import time
from pathlib import Path

# (module, attribute, span name). The span name's prefix before the first
# dot is the layer that `<layer>.failed` counts exceptions for.
TARGETS = (
    ("repclass.harness", "load_dataset", "io.load"),
    ("repclass.harness", "fit_pca", "features.pca_fit"),
    ("repclass.harness", "project_pca", "features.pca_project"),
    ("repclass.harness", "build_dictionary", "dictionary.build"),
    ("repclass.harness", "build_projector", "dictionary.projector"),
    ("repclass.harness", "classify_crc_rls", "classifiers.decide"),
    ("repclass.harness", "classify_src", "classifiers.decide"),
    ("repclass.harness", "classify_rcrc", "classifiers.decide"),
    ("repclass.harness", "classify_rns", "classifiers.decide"),
    ("repclass.harness", "classify_nn", "classifiers.decide"),
    ("repclass.harness", "classify_ns", "classifiers.decide"),
    ("repclass.harness", "compute_sci", "classifiers.sci"),
    ("repclass.harness", "run_experiment", "harness.run"),
    ("repclass.harness:Report", "to_json", "harness.report"),
    ("repclass.harness:Report", "write_query_log", "harness.report"),
    ("repclass.classifiers", "solve_alm_l1res", "solvers.alm"),
    ("repclass.classifiers", "solve_fista_l1", "solvers.fista"),
    ("repclass.degradation", "corrupt_pixels", "degradation"),
    ("repclass.degradation", "occlude_block", "degradation"),
)

LAYERS = ("io", "degradation", "features", "dictionary", "classifiers", "solvers", "harness")

SELF_TIME_METRICS = {
    "io.load": "io.load_s",
    "features.pca_fit": "features.pca_fit_s",
    "features.pca_project": "features.pca_project_s",
    "dictionary.build": "dictionary.build_s",
    "dictionary.projector": "dictionary.projector_s",
    "classifiers.decide": "classifiers.decide_s",
    "classifiers.sci": "classifiers.sci_s",
    "harness.run": "harness.self_s",
    "harness.report": "harness.report_write_s",
    "degradation": "degradation.s",
}


def _file_bytes(path):
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".json")
    return sum(os.path.getsize(p) for p in (path, sidecar) if p.exists())


def _solver_info(args, kwargs, out):
    return {"iterations": int(out.iterations), "converged": bool(out.converged)}


# Counters read from a call's arguments or result once its span has ended.
INFO = {
    ("repclass.harness", "load_dataset"): lambda a, k, out: {"bytes": _file_bytes(a[0])},
    ("repclass.harness:Report", "write_query_log"): lambda a, k, out: {
        "log_bytes": os.path.getsize(a[1])
    },
    ("repclass.classifiers", "solve_alm_l1res"): _solver_info,
    ("repclass.classifiers", "solve_fista_l1"): _solver_info,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "failed", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.failed = False
        self.info = None


def _resolve(target):
    import importlib

    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Collects the spans of the calls made while `active()` is entered."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, orig, name, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def active(self):
        self.spans.clear()
        patched = []
        try:
            for target, attr, name in TARGETS:
                owner = _resolve(target)
                orig = owner.__dict__.get(attr)
                if orig is None:
                    continue  # the program no longer has this entry point
                setattr(owner, attr, self._wrap(orig, name, INFO.get((target, attr))))
                patched.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(patched):
                setattr(owner, attr, orig)


def _solver_metrics(prefix, spans, self_time):
    iters = [s.info["iterations"] for s in spans if s.info]
    converged = [s.info["converged"] for s in spans if s.info]
    total = sum(iters)
    busy = sum(self_time[id(s)] for s in spans)
    return {
        f"solvers.{prefix}_s": busy,
        f"solvers.{prefix}_calls": len(spans),
        f"solvers.{prefix}_iters_total": total,
        f"solvers.{prefix}_iters_p50": statistics.median(iters) if iters else 0,
        f"solvers.{prefix}_converged_frac": sum(converged) / len(converged) if converged else 0.0,
        f"solvers.{prefix}_us_per_iter": busy / total * 1e6 if total else 0.0,
    }


def summarize(spans, wall_s):
    """Per-layer metrics of one traced call that took `wall_s` seconds."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)] = children.get(id(s.parent), 0.0) + (s.end - s.start)
    self_time = {id(s): (s.end - s.start) - children.get(id(s), 0.0) for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(self_time[id(s)] for s in by_name.get(name, ()))

    out = {metric: busy(name) for name, metric in SELF_TIME_METRICS.items()}
    out["classifiers.decide_calls"] = len(by_name.get("classifiers.decide", ()))
    out["degradation.calls"] = len(by_name.get("degradation", ()))
    out["io.bytes_read"] = sum(s.info["bytes"] for s in by_name.get("io.load", ()) if s.info)
    out["harness.log_bytes"] = sum(
        s.info["log_bytes"] for s in by_name.get("harness.report", ()) if s.info
    )
    out.update(_solver_metrics("alm", by_name.get("solvers.alm", []), self_time))
    out.update(_solver_metrics("fista", by_name.get("solvers.fista", []), self_time))
    for layer in LAYERS:
        out[f"{layer}.failed"] = sum(
            1 for s in spans if s.failed and s.name.split(".")[0] == layer
        )
    out["trace.unattributed_s"] = wall_s - sum(self_time.values())
    return out
