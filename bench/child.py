"""One run of a workload, in a fresh process started by run.py.

Usage: python3 child.py SPEC.json

SPEC holds the checkout root, the workload spec, the seed, the work
directory, the number of seconds to measure, the hard deadline and whether to
trace.  The child imports rnla from <root>/src and runs one untimed warm-up
repetition of the workload, so imports, lazy set-up and the first growth of
the heap stay out of the timings.  It then runs timed repetitions back to
back, a closed loop with one client, until the seconds, counted from its
start, are spent.  A repetition calls `rnla.cli.main` in-process for each of
the workload's CLI calls (timing each call) in a directory of its own, and
loads every report with `rnla.harness.load_report`.  With tracing on, each
repetition runs untraced and then traced with identical arguments, and the
two reports must match once their wall_time fields are stripped.  The direct
numpy call is timed before the first timed repetition and after each one.
At the end the child checks the warm-up reports against independent numpy
oracles and writes its findings to <work>/result.json.
"""

from __future__ import annotations

import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from workloads import from_spec, time_direct

MIN_REPS = 3  # timed repetitions (or untraced + traced pairs) per run

_WALL_TIME = re.compile(r'"wall_time": [0-9eE+.\-]+')


def strip_wall_time(text: str) -> str:
    """A report with every wall_time value replaced by 0."""
    return _WALL_TIME.sub('"wall_time": 0', text)


def _import_rnla(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import rnla.cli
    if not Path(rnla.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"rnla imported from {rnla.__file__}, not from {src}")
    return rnla


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_", "default"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _git_commit(root),
    }


class Child:
    """The repetitions of one run and what they found."""

    def __init__(self, spec: dict):
        self.root = Path(spec["root"])
        self.work = Path(spec["work"])
        self.seed = spec["seed"]
        self.wl = from_spec(spec["workload"])
        self.rnla = _import_rnla(self.root)
        self.errors: list[str] = []

    def repetition(self, rep: int, traced: bool) -> dict:
        """Run the workload's CLI calls once in a directory of their own."""
        work = self.work / f"rep{rep}{'t' if traced else 'u'}"
        work.mkdir(parents=True)
        os.chdir(work)
        tracer = None
        if traced:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        calls = []
        try:
            for argv, report in self.wl.calls(self.seed, rep):
                start = time.perf_counter()
                try:
                    rc = self.rnla.cli.main(argv)
                except SystemExit as e:
                    rc = e.code if isinstance(e.code, int) else 1
                calls.append({"argv": argv, "rc": rc, "report": report,
                              "run_s": time.perf_counter() - start})
                if rc != 0:
                    self.errors.append(f"rnla {' '.join(argv[:2])} exited {rc}")
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
            os.chdir(self.work)
        out = {"run_s": sum(c["run_s"] for c in calls),
               "trials": [], "reports": [], "texts": []}
        if tracer is not None:
            out["layers"] = tracer.layer_metrics(out["run_s"])
        for c in calls:
            if c["report"] is None or c["rc"] != 0:
                continue
            path = work / c["report"]
            try:
                report = self.rnla.harness.load_report(path)
            except (ValueError, KeyError, TypeError) as e:
                self.errors.append(f"load_report rejected {c['report']}: {e}")
                continue
            out["reports"].append(report)
            out["texts"].append(strip_wall_time(path.read_text()))
            for t in report["trials"]:
                out["trials"].append({
                    "ok": t["ok"],
                    "success": bool(t["ok"] and t["flags"].get("success", False)),
                    "retried": bool(t["flags"].get("retried", False)),
                    "wall_time": t["wall_time"],
                    "quality": self.wl.quality(t) if t["ok"] else None,
                })
            recount = sum(1 for t in report["trials"]
                          if t["ok"] and t["flags"].get("success", False))
            if report["aggregate"]["success_rate"] != recount / len(report["trials"]):
                self.errors.append(f"{c['report']}: aggregate success_rate "
                                   "disagrees with the trial flags")
        if tracer is not None:
            out["layers"]["lowrank.retries"] = sum(t["retried"] for t in out["trials"])
            if out["layers"]["srht.adds_per_budget"] > 1.0:
                self.errors.append("srht.adds_per_budget exceeds 1")
        shutil.rmtree(work)
        return out

    def run(self, end: float, deadline: float, trace: bool) -> dict:
        """Warm up, then repeat until `end` (at least MIN_REPS times) or `deadline`."""
        warmup = self.repetition(0, False)
        # The benchmark holds its own copy of the instance from here on, so
        # the peak is read now, after one workload call in a fresh process.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        instance = self.wl.instance(self.seed)
        direct = self.wl.direct_call(instance)
        reps: list[dict] = []
        traced: list[dict] = []
        durations: list[float] = []
        before = time_direct(direct)
        while not self.errors:
            now = time.perf_counter()
            est = statistics.fmean(durations) if durations else 0.0
            if len(reps) >= MIN_REPS and now + est > end:
                break
            if reps and now + est > deadline:
                break
            rep = len(reps) + 1
            u = self.repetition(rep, False)
            # The direct call timed just before and just after the
            # repetition, so both see the host as the repetition saw it.
            after = time_direct(direct)
            u["direct_s"] = (before + after) / 2
            before = after
            reps.append(u)
            if trace:
                t = self.repetition(rep, True)
                traced.append(t)
                if t["texts"] != u["texts"]:
                    self.errors.append(f"traced reports of repetition {rep} differ "
                                       "from the untraced ones")
            durations.append(time.perf_counter() - now)
        if warmup["reports"] and not self.errors:
            self.errors.extend(self.wl.check(instance, warmup["reports"]))
        keep = ("run_s", "trials")
        return {
            "reps": [{k: r[k] for k in (*keep, "direct_s")} for r in reps],
            "traced": [{**{k: r[k] for k in keep}, "layers": r["layers"]}
                       for r in traced],
            "peak_rss_mb": peak_rss_mb,
            "errors": self.errors,
            "env": environment(self.root),
        }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    start = time.perf_counter()
    result = Child(spec).run(start + spec["seconds"], start + spec["deadline_s"],
                             spec["trace"])
    Path(spec["work"], "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
