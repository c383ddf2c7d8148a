"""rnla benchmark: three CLI workloads, run-level metrics, outside-in trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lsq_tall --seed 1 --seconds 40 --trace 0

One run is a closed loop with a single client in one fresh child process
(bench/child.py) with the BLAS thread count pinned to 1.  After one untimed
warm-up repetition the child repeats the workload back to back until
--seconds have passed (at least three repetitions).  Each repetition calls
`rnla.cli.main` in-process for every CLI call of the workload; interpreter
start-up, imports and the warm-up are outside the timings.  With --trace 1
every repetition runs twice, untraced and then traced with identical
arguments, and the traced reports must equal the untraced ones byte for byte
once their wall_time fields are stripped.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1.  The lines above it print every metric with
its unit, the environment, the correctness gate and the comparison against
the direct numpy call.  The exit code is 0 when the gate passes, 1 when it
fails and 2 when the checkout holds no rnla sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import COUNT_METRICS, SELF_METRICS  # noqa: E402
from workloads import WORKLOADS, to_spec  # noqa: E402

DEADLINE_S = 150.0       # the child starts no repetition that would end after this
CHILD_TIMEOUT_S = 170.0  # and is killed if it is still running at this

THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# A fixed glibc mmap threshold: every allocation of 256 KiB or more gets
# fresh pages and returns them when freed.  With glibc's default sliding
# threshold, large arrays land in a heap whose growth and fragmentation
# depend on allocation history, and the child's peak RSS fell in modes up to
# 21 MB apart from run to run on identical work (see NOTES.md).
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "262144"}

# The trial time in the result line is a ratio to the direct numpy call on
# the same instance, timed around each repetition: contention from other
# tenants of a shared host slows both alike, so the ratio holds still where
# seconds drift (see NOTES.md).  The ratio moves only with rnla's own speed.
END_TO_END = {
    "trial_per_direct": "ratio",
    "setup_s": "s",
    "quality_ratio": "ratio",
    "success_rate": "fraction",
    "peak_rss_mb": "MB",
}

# Printed with the end-to-end metrics but kept out of the result line's
# metrics: the seconds drift with the host, and fail_rate is 0 on every
# healthy run (the result line carries it as `failed` out of `attempted`).
EXTRA_END_TO_END = {
    "run_s": "s",
    "trial_p50_s": "s",
    "ref.direct_s": "s",
    "fail_rate": "fraction",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name == "matio.bytes":
        return "bytes"
    if name == "srht.adds_per_budget":
        return "ratio"
    return "count"


PER_LAYER = {name: _layer_unit(name) for name in (
    *SELF_METRICS,
    "srht.apply_s", "lsq.solve_s", "lsq.diag_s", "lowrank.solve_s",
    "lowrank.identity_s",
    *COUNT_METRICS, "lowrank.retries",
    "trace.run_s", "trace.untraced_s", "trace.overhead_s",
    "ref.direct_s",
)}

# What each workload was chosen to stress, checked on the traced run.
LAYER_CHECKS = {
    "lsq_tall": [("srht + linalg self time >= 80% of run_s",
                  lambda m: (m["srht.self_s"] + m["linalg.svd_s"]
                             + m["linalg.validate_s"] + m["linalg.other_s"])
                  >= 0.8 * m["trace.run_s"])],
    "lowrank_spiked": [("linalg.svd_s >= 70% of run_s",
                        lambda m: m["linalg.svd_s"] >= 0.7 * m["trace.run_s"])],
    "matmul_mtx": [("matio.read_s + matio.write_s >= 60% of run_s",
                    lambda m: m["matio.read_s"] + m["matio.write_s"]
                    >= 0.6 * m["trace.run_s"]),
                   ("srht.apply_calls == 0", lambda m: m["srht.apply_calls"] == 0)],
}

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One run of a workload and the metrics folded from its repetitions."""

    def __init__(self, workload, seed: int, trace: bool, work: Path):
        self.wl = workload
        self.seed = seed
        self.trace = trace
        self.work = work
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.peak_rss_mb = 0.0
        self.env: dict = {}

    def repeat(self, seconds: float) -> None:
        """Run the workload in one fresh child for `seconds` of repetitions."""
        self.work.mkdir(parents=True)
        spec_path = self.work / "spec.json"
        spec_path.write_text(json.dumps({
            "root": str(ROOT), "work": str(self.work), "seed": self.seed,
            "seconds": seconds, "deadline_s": DEADLINE_S, "trace": self.trace,
            "workload": to_spec(self.wl)}))
        env = {**os.environ, **THREAD_ENV, **MALLOC_ENV, "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(spec_path)],
                cwd=self.work, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._lost(f"child killed after {CHILD_TIMEOUT_S:.0f} s")
            return
        if proc.returncode != 0:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            self._lost(f"child exited {proc.returncode}: {tail}")
            return
        res = json.loads((self.work / "result.json").read_text())
        self.untraced = res["reps"]
        self.traced = res["traced"]
        self.peak_rss_mb = res["peak_rss_mb"]
        self.env = res["env"]
        self.errors.extend(res["errors"])
        for r in self.untraced + self.traced:
            self.attempted += len(r["trials"])
            self.failed += sum(1 for t in r["trials"] if not t["ok"])
        if not self.untraced or (self.trace and not self.traced):
            self._lost("no repetition completed")

    def _lost(self, error: str) -> None:
        """A child that died or ran nothing: its trials count as failed."""
        self.errors.append(error)
        lost = max(self.wl.trials, 1)
        self.attempted += lost
        self.failed += lost

    # --------------------------------------------------------- metrics

    def per_rep(self, name: str) -> list[float]:
        """One value of `name` for each untraced repetition."""
        reps = self.untraced
        if name == "setup_s":
            return [r["run_s"] - sum(t["wall_time"] for t in r["trials"]) for r in reps]
        if name == "trial_per_direct":
            return [_median([t["wall_time"] for t in r["trials"]]) / r["direct_s"]
                    for r in reps if r["trials"]]
        return [r[name] for r in reps]

    def end_to_end(self) -> dict[str, float]:
        trials = [t for r in self.untraced for t in r["trials"]]
        ok = [t for t in trials if t["ok"]]
        out = {name: _median(self.per_rep(name)) for name in
               ("trial_per_direct", "setup_s", "run_s")}
        return {
            **out,
            "quality_ratio": statistics.fmean(t["quality"] for t in ok) if ok else 0.0,
            "success_rate": (sum(t["success"] for t in trials) / len(trials)
                             if trials else 0.0),
            "peak_rss_mb": self.peak_rss_mb,
            "trial_p50_s": _median([t["wall_time"] for t in trials]),
            "ref.direct_s": _median(self.per_rep("direct_s")),
            "fail_rate": self.failed / self.attempted if self.attempted else 0.0,
        }

    def per_layer(self, e2e: dict[str, float]) -> dict[str, float]:
        out = {name: _median([r["layers"][name] for r in self.traced
                              if name in r["layers"]]) for name in PER_LAYER}
        out["trace.overhead_s"] = _median(
            [t["run_s"] - u["run_s"] for u, t in zip(self.untraced, self.traced)])
        out["ref.direct_s"] = e2e["ref.direct_s"]
        return out


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_lines(run: Run, e2e: dict, layers: dict | None) -> list[str]:
    wl = run.wl
    trials = sum(len(r["trials"]) for r in run.untraced)
    env = "  ".join(f"{k} {v}" for k, v in run.env.items()) or "unavailable"
    lines = [
        f"workload {wl.name}  seed {run.seed}  trace {int(run.trace)}  "
        f"repetitions {len(run.untraced)} untraced, {len(run.traced)} traced",
        f"why: {wl.why}",
        f"env: {env}",
        "end-to-end (untraced repetitions):",
    ]
    units = {**END_TO_END, **EXTRA_END_TO_END}
    for name, unit in units.items():
        note = ""
        if name == "trial_p50_s":
            note = f"  (median of {trials} trials)"
        elif name in ("trial_per_direct", "setup_s", "run_s"):
            note = f"  (median of {len(run.untraced)} repetitions: " + " ".join(
                f"{v:.4g}" for v in run.per_rep(name)) + ")"
        lines.append(f"  {name:<28} {_fmt(e2e[name]):>14} {unit}{note}")
    if layers is not None:
        lines.append(f"per-layer (median of {len(run.traced)} traced repetitions):")
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name:<28} {_fmt(layers[name]):>14} {unit}")
        total = layers["trace.run_s"]
        if total > 0:
            shares = sorted(((layers[n] / total, n) for n in SELF_METRICS), reverse=True)
            lines.append("self-time shares of traced run_s: " + "  ".join(
                f"{n} {s:.1%}" for s, n in shares if s >= 0.005))
        for label, check in LAYER_CHECKS.get(wl.name, []):
            lines.append(f"layer check: {label}: {'yes' if check(layers) else 'NO'}")
    ratio = e2e["trial_per_direct"]
    if ratio > 0:
        verdict = "SLOWER" if ratio > 1 else "faster"
        lines.append(f"direct reference: the randomized trial is {verdict} than "
                     f"{wl.direct} on this instance: trial_per_direct {ratio:.3g} "
                     f"(trial_p50_s {e2e['trial_p50_s']:.4g} s, "
                     f"ref.direct_s {e2e['ref.direct_s']:.4g} s)")
    lines.append("gate: " + ("pass" if not run.errors else "FAIL"))
    lines.extend(f"  {err}" for err in run.errors[:10])
    if len(run.errors) > 10:
        lines.append(f"  ... and {len(run.errors) - 10} more")
    return lines


def run_workload(wl, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; return its result line and the lines printed above it."""
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(wl, seed, trace, work)
    try:
        run.repeat(seconds)
        e2e = run.end_to_end()
        layers = run.per_layer(e2e) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    names = PER_LAYER if trace else END_TO_END
    values = layers if trace else e2e
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": names[n]} for n in names},
    }
    return result, report_lines(run, e2e, layers)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the child, and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "rnla" / "cli.py").is_file():
        print(f"bench: no rnla sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, lines = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
