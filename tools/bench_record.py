"""Append benchmark runs to the committed trajectory file BENCH_<workload>.json.

    python3 tools/bench_record.py --workload W --seeds 1,2,3 --seconds 40

For each seed it runs `python3 bench/run.py --workload W --seed S --seconds N
--trace 0` from the root of the checkout that holds this script, and parses
the run's `env:` line and its last line, the JSON result.  Each accepted run
becomes one entry of BENCH_<W>.json at that root: the commit (from
`git rev-parse HEAD`), seed, seconds, env, exit code, attempted, failed and
the end-to-end metrics with their units.  The file also holds, per commit,
the median of each metric over that commit's entries, and is rewritten after
every accepted run.

The tool refuses a tree with uncommitted changes under `src/` or `bench/`,
whose commit would not name the code that was measured, before it runs
anything.  It refuses a run that exits non-zero or reports `"correct":
false`: that run is not recorded, and the tool stops with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class Refused(Exception):
    """A tree or a run that must not enter the trajectory."""


def parse_run(stdout: str, exit_code: int) -> dict:
    """The entry fields of one `bench/run.py` transcript, or Refused."""
    if exit_code != 0:
        raise Refused(f"bench/run.py exited {exit_code}")
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise Refused(f'"correct": false ({result["failed"]} of '
                      f'{result["attempted"]} operations failed)')
    env_line = next(line for line in lines if line.startswith("env: "))
    env = dict(pair.split(" ", 1) for pair in env_line[len("env: "):].split("  "))
    return {"env": env, "exit": exit_code, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def commit(root: Path) -> str:
    """HEAD of the tree at root, or Refused if src/ or bench/ has changes."""
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "bench"],
                           cwd=root, capture_output=True, text=True, check=True).stdout
    if dirty:
        raise Refused("uncommitted changes under src/ or bench/:\n" + dirty)
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=True).stdout.strip()


def append(path: Path, workload: str, entry: dict) -> None:
    """Add entry to the file at path and recompute its per-commit medians."""
    data = json.loads(path.read_text()) if path.exists() else {
        "workload": workload, "entries": [], "medians": {}}
    data["entries"].append(entry)
    by_commit: dict[str, list[dict]] = {}
    for e in data["entries"]:
        by_commit.setdefault(e["commit"], []).append(e["metrics"])
    data["medians"] = {
        c: {name: statistics.median(m[name]["value"] for m in runs)
            for name in runs[0]}
        for c, runs in by_commit.items()}
    path.write_text(json.dumps(data, indent=2) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated, e.g. 1,2,3")
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    path = ROOT / f"BENCH_{args.workload}.json"
    try:
        head = commit(ROOT)
        for seed in (int(s) for s in args.seeds.split(",")):
            run = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            entry = {"commit": head, "seed": seed, "seconds": args.seconds,
                     **parse_run(run.stdout, run.returncode)}
            append(path, args.workload, entry)
            print(f"{args.workload} seed {seed}: " + "  ".join(
                f"{n} {m['value']:.6g}" for n, m in entry["metrics"].items()), flush=True)
    except Refused as err:
        print(f"bench_record: refused: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
