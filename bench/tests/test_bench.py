"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import rnla.cli  # noqa: E402
import run  # noqa: E402
from child import strip_wall_time  # noqa: E402
from spans import SELF_METRICS, Tracer, public_functions  # noqa: E402
from workloads import (WORKLOADS, LowrankWorkload, LsqWorkload,  # noqa: E402
                       MatmulWorkload)

TINY = [
    LsqWorkload(name="tiny_lsq", why="test", m=512, n=4, eps=0.5, r=64, trials=2),
    LowrankWorkload(name="tiny_lowrank", why="test", m=64, n=32, sigma="3,2,1",
                    eta=0.01, k=3, eps=0.25, c=12, trials=2),
    MatmulWorkload(name="tiny_matmul", why="test", m=8, n=64, c=16,
                   probs="optimal", trials=4),
]


def _bindings() -> dict:
    return {(mod.__name__, attr): fn for mod, attr, fn in public_functions()}


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_and_untraced_remainder_sum_to_traced_run_s(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["lsq", "--m", "512", "--n", "4", "--eps", "0.5", "--r", "64",
            "--trials", "3", "--seed", "1", "--out", "r.json"]
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        assert rnla.cli.main(argv) == 0
        run_s = time.perf_counter() - start
    m = tracer.layer_metrics(run_s)
    parts = [m[name] for name in SELF_METRICS] + [m["trace.untraced_s"]]
    assert sum(parts) == pytest.approx(run_s, rel=1e-9, abs=1e-12)
    assert min(parts) >= -1e-9
    assert m["trace.run_s"] == run_s
    # Inclusive spans cover their own layer's self time.
    assert m["lsq.solve_s"] >= m["srht.apply_s"] + m["lsq.diag_s"] - 1e-9
    # Two transforms per trial with diagnostics on; r rows per solve.
    assert m["srht.apply_calls"] == 6
    assert m["lsq.sketch_rows"] == 3 * 64
    assert 0.0 < m["srht.adds_per_budget"] <= 1.0
    assert m["linalg.svd_calls"] > 0 and m["linalg.svd_cells"] > 0
    assert m["matio.bytes"] == 0


def test_every_binding_is_wrapped_then_restored():
    before = _bindings()
    assert ("rnla.lsq", "thin_svd") in before
    assert ("rnla.harness", "read_matrix") in before
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            during = _bindings()
            assert all(during[key] is not fn for key, fn in before.items())
            # One wrapper per function, shared by every module that binds it.
            assert rnla.lsq.thin_svd is rnla.linalg.thin_svd
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())


def test_strip_wall_time_ignores_only_wall_time():
    a = '{\n  "wall_time": 0.125,\n  "residual": 1.5\n}\n'
    b = '{\n  "wall_time": 3.5e-05,\n  "residual": 1.5\n}\n'
    c = '{\n  "wall_time": 0.125,\n  "residual": 1.5000000000000002\n}\n'
    assert strip_wall_time(a) == strip_wall_time(b)
    assert strip_wall_time(a) != strip_wall_time(c)


def test_trial_per_direct_is_the_median_of_per_repetition_ratios():
    r = run.Run(TINY[0], seed=1, trace=False, work=Path("unused"))

    def trial(wall_time):
        return {"ok": True, "success": True, "wall_time": wall_time, "quality": 1.0}

    r.untraced = [
        {"run_s": 1.0, "direct_s": 0.10, "trials": [trial(0.2), trial(0.4)]},  # 3
        {"run_s": 2.0, "direct_s": 0.40, "trials": [trial(0.8), trial(0.8)]},  # 2
        {"run_s": 4.0, "direct_s": 0.05, "trials": [trial(0.5), trial(0.7)]},  # 12
    ]
    e2e = r.end_to_end()
    assert e2e["trial_per_direct"] == pytest.approx(3.0)
    assert e2e["ref.direct_s"] == pytest.approx(0.10)
    assert e2e["run_s"] == pytest.approx(2.0)
    assert e2e["setup_s"] == pytest.approx(0.4)


def test_benchmark_json_names_the_workloads_and_units():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.name)
def test_printed_metrics_match_benchmark_json(wl):
    spec = _benchmark_json()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, lines = run.run_workload(wl, seed=3, seconds=0, trace=trace)
        assert result["correct"], lines
        assert result["failed"] == 0
        assert result["attempted"] >= wl.trials
        names = [m["name"] for m in spec[key]]
        assert list(result["metrics"]) == names
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert "gate: pass" in lines


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lsq_tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
