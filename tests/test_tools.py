import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep = _load("identity_sweep")
record = _load("bench_record")


def test_identity_sweep_names_each_differing_field_with_its_largest_gap():
    report = b'{"trials": [{"metrics": {"Z": %s}, "flags": {"ok": %s}}, ' \
             b'{"metrics": {"Z": 4.0}, "flags": {"ok": true}}], "meta": {"wall_time": 0}}'
    parent = [(["lsq"], 0, report % (b"1.0", b"true"), b""),
              ("r.csv", b"metric,mean\nZ,2.5\n"), ("r.json", report % (b"2.0", b"true"))]
    change = [(["lsq"], 0, report % (b"1.5", b"false"), b""),
              ("r.csv", b"metric,mean\nZ,2.5\n"), ("r.json", report % (b"2.0", b"true"))]
    assert sweep._differences(parent, change) == [
        "  exit code identical; stdout differs in 1 calls; stderr identical; "
        "a flag differs",
        "  stdout of rnla lsq: trials.flags.ok differs, trials.metrics.Z 0.33",
    ]
    change[1] = ("r.csv", b"metric,mean\nZ,2.0\n")
    change[2] = ("s.json", b"")
    assert sweep._differences(parent, change)[2:] == [
        "  r.csv: Z.mean 0.2", "  files r.json vs s.json"]


def test_identity_sweep_says_when_only_the_bytes_differ():
    parent = [("r.json", b'{"x": 5, "y": 0.10000000000000001}\n')]
    change = [("r.json", b'{\n  "x": 5.0,\n  "y": 0.1\n}\n')]
    assert sweep._differences(parent, change) == [
        "  exit code identical; stdout identical; stderr identical; flags identical",
        "  r.json: same values, different bytes"]


# One `bench/run.py --workload matmul_mtx --seed 1 --seconds 3 --trace 0`.
TRANSCRIPT = """\
workload matmul_mtx  seed 1  trace 0  repetitions 3 untraced, 0 traced
why: MatrixMarket write then read, sampled product A A^T with optimal probabilities; the only workload with file I/O and no SRHT
env: python 3.11.7  numpy 2.4.6  blas scipy-openblas 0.3.31.188.0  blas_threads 1  malloc_mmap_threshold 262144  nproc 2  affinity 2  commit aa9101f204621741e2d5c361ca25d31f955c617a
end-to-end (untraced repetitions):
  trial_per_direct                   0.841932 ratio  (median of 3 repetitions: 0.7415 0.8419 0.8929)
  setup_s                             0.87551 s  (median of 3 repetitions: 0.9247 0.8415 0.8755)
  quality_ratio                      0.995386 ratio
  success_rate                       0.546667 fraction
  peak_rss_mb                          50.457 MB
  run_s                               1.10713 s  (median of 3 repetitions: 1.143 1.055 1.107)
  trial_p50_s                      0.00423407 s  (median of 150 trials)
  ref.direct_s                     0.00489052 s
  fail_rate                                 0 fraction
direct reference: the randomized trial is faster than A @ A.T on this instance: trial_per_direct 0.842 (trial_p50_s 0.004234 s, ref.direct_s 0.004891 s)
gate: pass
{"correct": true, "attempted": 150, "failed": 0, "metrics": {"trial_per_direct": {"value": 0.8419318235314637, "unit": "ratio"}, "setup_s": {"value": 0.8755095710007481, "unit": "s"}, "quality_ratio": {"value": 0.9953861989897653, "unit": "ratio"}, "success_rate": {"value": 0.5466666666666666, "unit": "fraction"}, "peak_rss_mb": {"value": 50.45703125, "unit": "MB"}}}
"""


def test_bench_record_parses_the_env_and_result_lines():
    entry = record.parse_run(TRANSCRIPT, 0)
    assert entry["env"]["blas"] == "scipy-openblas 0.3.31.188.0"
    assert entry["env"]["malloc_mmap_threshold"] == "262144"
    assert (entry["exit"], entry["attempted"], entry["failed"]) == (0, 150, 0)
    assert entry["metrics"]["peak_rss_mb"] == {"value": 50.45703125, "unit": "MB"}


def test_bench_record_refuses_a_failed_or_incorrect_run():
    with pytest.raises(record.Refused, match="exited 1"):
        record.parse_run(TRANSCRIPT, 1)
    wrong = TRANSCRIPT.replace('"correct": true, "attempted": 150, "failed": 0',
                               '"correct": false, "attempted": 150, "failed": 3')
    with pytest.raises(record.Refused, match="3 of 150"):
        record.parse_run(wrong, 0)


def test_bench_record_refuses_uncommitted_sources_and_keeps_medians(tmp_path):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("")
    (tmp_path / "notes.txt").write_text("")
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "src"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "a"], check=True)
    head = record.commit(tmp_path)  # an untracked file outside src/ is allowed
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    with pytest.raises(record.Refused, match="src/a.py"):
        record.commit(tmp_path)
    path = tmp_path / "BENCH_w.json"
    for seed, value in ((1, 3.0), (2, 1.0), (3, 2.0)):
        record.append(path, "w", {"commit": head, "seed": seed, "metrics": {
            "m": {"value": value, "unit": "s"}}})
    data = json.loads(path.read_text())
    assert [e["seed"] for e in data["entries"]] == [1, 2, 3]
    assert data["medians"] == {head: {"m": 2.0}}
