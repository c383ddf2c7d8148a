"""Outside-in tracing of the rnla modules.

`Tracer.install` wraps every public function of every rnla module at each
module global that binds it (so `rnla.lsq.thin_svd` and `rnla.linalg.thin_svd`
both go through the same wrapper), and `Tracer.uninstall` puts the original
objects back.  Each wrapper records a span on an in-memory stack; a span's
self time is its duration minus the durations of the spans it directly
contains, so self times over all spans plus the time outside any span add up
to the wall time of the traced call.

A few spans also count work at the boundary (transform adds, SVD cells,
validated bytes, file bytes, sketch rows); `layer_metrics` folds spans and
counts into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

import numpy as np

# Spans whose self time is reported under a name other than "<module>.self_s".
_SELF_BUCKETS = {
    "linalg.thin_svd": "linalg.svd_s",
    "linalg.as_matrix": "linalg.validate_s",
    "linalg.as_vector": "linalg.validate_s",
    "matio.read_matrix": "matio.read_s",
    "matio.read_vector": "matio.read_s",
    "matio.write_matrix": "matio.write_s",
    "matio.write_vector": "matio.write_s",
    "harness.aggregate": "harness.report_s",
    "harness.build_report": "harness.report_s",
    "harness.dumps_report": "harness.report_s",
    "harness.write_report": "harness.report_s",
    "harness.load_report": "harness.report_s",
    "harness.report_to_csv": "harness.report_s",
}
_MODULE_BUCKETS = {
    "linalg": "linalg.other_s",
    "generators": "generators.gen_s",
    "sampling": "sampling.plan_s",
}

# Inclusive durations (span plus everything it calls).
_INCLUSIVE = {
    "srht.srht_apply": "srht.apply_s",
    "lsq.rand_least_squares": "lsq.solve_s",
    "lsq.check_conditions": "lsq.diag_s",
    "lowrank.rand_low_rank": "lowrank.solve_s",
    "lowrank.rayleigh_ritz_identity_check": "lowrank.identity_s",
}

# Self-time buckets, which partition the traced wall time together with
# trace.untraced_s.
SELF_METRICS = (
    "cli.self_s", "harness.self_s", "harness.report_s", "generators.gen_s",
    "matio.read_s", "matio.write_s", "sampling.plan_s", "matmul.self_s",
    "srht.self_s", "linalg.svd_s", "linalg.validate_s", "linalg.other_s",
    "lsq.self_s", "lowrank.self_s",
)

COUNT_METRICS = (
    "srht.apply_calls", "srht.adds", "srht.adds_per_budget",
    "linalg.svd_calls", "linalg.svd_cells", "linalg.validate_calls",
    "linalg.validate_bytes", "matio.bytes", "lsq.sketch_rows",
)


def self_bucket(span: str) -> str:
    if span in _SELF_BUCKETS:
        return _SELF_BUCKETS[span]
    module = span.split(".", 1)[0]
    return _MODULE_BUCKETS.get(module, f"{module}.self_s")


def _rnla_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "rnla" or name.startswith("rnla."))]


def public_functions() -> list[tuple[object, str, object]]:
    """(module, attribute, function) for every public rnla function binding."""
    out = []
    for mod in _rnla_modules():
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__.startswith("rnla")):
                out.append((mod, attr, obj))
    return out


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Span stack and counters for one traced process."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # span -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.outside_s = 0.0               # summed duration of root spans
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for mod, attr, fn in public_functions():
            w = wrappers.get(id(fn))
            if w is None:
                w = wrappers[id(fn)] = self._wrap(fn)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------- spans

    def _count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, fn):
        span = span_name(fn)
        hook = _HOOKS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                else:
                    self.outside_s += dur
                st = self.stats.setdefault(span, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]

        return traced

    # ----------------------------------------------------------- metrics

    def layer_metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics for a traced wall time run_s."""
        out = {name: 0.0 for name in SELF_METRICS}
        for name in _INCLUSIVE.values():
            out[name] = 0.0
        for span, (calls, total, self_s) in self.stats.items():
            out[self_bucket(span)] = out.get(self_bucket(span), 0.0) + self_s
            if span in _INCLUSIVE:
                out[_INCLUSIVE[span]] += total
        counts = dict(self.counts)
        budget = counts.pop("srht.budget", 0.0)
        for name in COUNT_METRICS:
            out[name] = counts.get(name, 0)
        out["srht.apply_calls"] = self._calls("srht.srht_apply")
        out["linalg.svd_calls"] = self._calls("linalg.thin_svd")
        out["linalg.validate_calls"] = (self._calls("linalg.as_matrix")
                                        + self._calls("linalg.as_vector"))
        out["srht.adds_per_budget"] = out["srht.adds"] / budget if budget else 0.0
        out["trace.run_s"] = run_s
        out["trace.untraced_s"] = run_s - self.outside_s
        return out

    def _calls(self, span: str) -> int:
        return self.stats.get(span, [0])[0]


# Hooks run the wrapped function and count the work it did.

def _srht_apply(tracer, fn, args, kwargs):
    op, M = args[0], args[1]
    counter = args[2] if len(args) > 2 else kwargs.get("counter")
    if counter is None:
        counter = sys.modules["rnla.srht"].OpCounter()
    before = counter.adds_subs
    out = fn(op, M, counter)
    cols = 1 if out.ndim == 1 else (out.shape[1] if op.side == "left"
                                    else out.shape[0])
    tracer._count("srht.adds", counter.adds_subs - before)
    tracer._count("srht.budget", 2.0 * op.n_pad * math.log2(op.r + 1) * cols)
    return out


def _thin_svd(tracer, fn, args, kwargs):
    shape = np.shape(args[0] if args else kwargs["M"])
    if len(shape) == 2:
        tracer._count("linalg.svd_cells", shape[0] * shape[1])
    return fn(*args, **kwargs)


def _validate(tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tracer._count("linalg.validate_bytes", out.nbytes)
    return out


def _file_io(tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tracer._count("matio.bytes", os.path.getsize(args[0] if args else kwargs["path"]))
    return out


def _lsq_solve(tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tracer._count("lsq.sketch_rows", out.r_used)
    return out


_HOOKS = {
    "srht.srht_apply": _srht_apply,
    "linalg.thin_svd": _thin_svd,
    "linalg.as_matrix": _validate,
    "linalg.as_vector": _validate,
    "matio.read_matrix": _file_io,
    "matio.read_vector": _file_io,
    "matio.write_matrix": _file_io,
    "matio.write_vector": _file_io,
    "lsq.rand_least_squares": _lsq_solve,
}
