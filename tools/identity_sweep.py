"""Compare the CLI's outputs between a parent tree and this checkout, call by call.

    python tools/identity_sweep.py PARENT

PARENT is a checkout of this repository, e.g. a parent commit unpacked with
`git archive <commit> | tar -x -C <dir>`; it is compared with the checkout
that holds this script.  Each group below is a list of `rnla` calls run in
order, once per tree, in a fresh temporary directory: one process per call,
`python -m rnla.cli` with the tree's `src` first on PYTHONPATH,
`OPENBLAS_NUM_THREADS=1` and `RNLA_SEED` unset.  A group is identical when
every call's exit code, stdout and stderr and every file left in the
directory match, with each `"wall_time": <number>` set aside.  The script
prints one line per group and a summary, and exits 1 if any group differs.
Under a differing group it says whether any exit code, stdout, stderr or
report flag (a true/false field) differs, then names each differing JSON or
CSV document, file or stdout, with every field that differs and the largest
relative difference of its values, or "same values, different bytes" when
every parsed field matches.  A field is the document's key path with list
indices dropped, so one line covers a field over all trials.
The benchmark's calls come from this checkout's `bench/workloads.py`; the
script does not import rnla itself.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

WALL_TIME = re.compile(rb'"wall_time": [^,\n]*')
NO_TIME = b'"wall_time": 0'


def _readme_calls(readme: Path) -> list[list[str]]:
    """Every `rnla ...` line of the README's sh blocks, in order."""
    calls = []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["rnla"]:
                calls.append(words[1:])
    return calls


def _split(lines: str) -> list[list[str]]:
    return [shlex.split(line) for line in lines.strip().splitlines()]


def _every_probs(argv: str) -> list[list[str]]:
    """The matmul call under every probability family, with and without
    diagnostics."""
    return [[*shlex.split(argv), "--probs", probs, *extra]
            for probs in ("optimal", "colnorm", "rownorm", "uniform")
            for extra in ([], ["--no-diagnostics"])]


def _matmul_shape(m, n, p, c) -> list[list[str]]:
    """Generated matmul under every probability family, with and without
    diagnostics, two trials each."""
    return _every_probs(f"matmul --m {m} --n {n} --p {p} --c {c} --trials 2 --seed 3")


def groups(readme: Path) -> dict[str, list[list[str]]]:
    # The benchmark workloads' calls at two workload seeds, first repetition.
    out = {f"bench seed {seed}": [argv for w in WORKLOADS.values()
                                  for argv, _ in w.calls(seed, 0)]
           for seed in (1, 7)}
    out["readme"] = _readme_calls(readme)
    for suite in ("srht", "matmul", "lsq", "lowrank"):
        out[f"check {suite}"] = [["check", suite, "--seed", str(s)] for s in range(5)]
    out["check flags"] = _split("""
        check srht --n 256 --r 4 --seed 2
        check matmul --n 4 --c 3
        check lsq --n 256 --d 3 --eps 0.25 --r 64
        check lowrank --m 20 --n 12 --k 2 --c 6
        check lsq --k 3
    """)
    # The Gram shape (n + c >= min(m, p)), the factored core (n + c < min(m, p))
    # and a wide inner dimension.
    out["matmul 64x32 p48 c16"] = _matmul_shape(64, 32, 48, 16)
    out["matmul 200x8 p150 c20"] = _matmul_shape(200, 8, 150, 20)
    out["matmul 12x20 p9 c5"] = _matmul_shape(12, 20, 9, 5)
    out["gen"] = _split("""
        gen gaussian --m 6 --n 4 --seed 1 --out g.mtx
        gen gaussian --m 6 --n 4 --seed 1 --out g.bin
        gen coherent --m 6 --n 4 --out c.mtx
        gen lowrank_plus_noise --m 8 --n 5 --sigma 3,2 --seed 2 --out l.mtx
        gen lowrank_plus_noise --m 8 --n 5 --sigma 3,2 --eta 0.1 --seed 2 --out l.rnla
        gen lowrank_plus_noise --m 8 --n 5 --sigma 3,2 --eta 0 --seed 2 --out l0.mtx
        gen consistent_lsq --m 9 --n 3 --seed 4 --out s.mtx --rhs-out b.mtx
        gen consistent_lsq --m 9 --n 3 --seed 4 --out t.bin --rhs-out t.rhs --sol-out x.mtx
        gen gaussian --m 6 --n 4 --sigma 1 --out bad.mtx
        gen consistent_lsq --m 9 --n 3 --out bad.mtx
    """)
    # Gram calls (a file A with no B) take the symmetric rule, the factored
    # core (F.mtx: n + c < m) and more draws than columns (c = 30 > n = 12),
    # from text and binary files, under every probability family, and on a
    # single row and a single column.
    out["file instances"] = _split("""
        gen gaussian --m 40 --n 12 --seed 1 --out A.mtx
        gen gaussian --m 12 --n 30 --seed 2 --out B.bin
        gen gaussian --m 11 --n 30 --seed 3 --out B11.mtx
        gen consistent_lsq --m 256 --n 4 --seed 5 --out L.mtx --rhs-out b.mtx
        gen gaussian --m 40 --n 3 --seed 4 --out F.mtx
        gen gaussian --m 1 --n 30 --seed 6 --out R1.mtx
        gen gaussian --m 30 --n 1 --seed 7 --out C1.mtx
        matmul --in A.mtx --c 8 --trials 3 --seed 2 --out gram.json
        matmul --in B.bin --c 8 --trials 3 --seed 2 --out gram_bin.json
        matmul --in A.mtx --c 8 --trials 3 --seed 2 --probs colnorm --out gram_col.json
        matmul --in A.mtx --c 8 --trials 3 --seed 2 --probs rownorm --out gram_row.json
        matmul --in A.mtx --c 8 --trials 3 --seed 2 --probs uniform --out gram_uni.json
        matmul --in A.mtx --c 8 --trials 3 --seed 2 --no-diagnostics --out gram_nodiag.json
        matmul --in R1.mtx --c 8 --trials 3 --seed 2 --out gram_row1.json
        matmul --in C1.mtx --c 8 --trials 3 --seed 2 --out gram_col1.json
        matmul --in F.mtx --c 4 --trials 3 --seed 2 --out gram_core.json
        matmul --in A.mtx --c 30 --trials 3 --seed 2 --out gram_repeats.json
        matmul --in A.mtx --in-b B.bin --c 8 --trials 3 --seed 2 --out ab.json --csv ab.csv
        matmul --in A.mtx --in-b B11.mtx --c 8 --trials 3 --out mismatched.json
        lsq --in L.mtx --rhs b.mtx --eps 0.5 --r 64 --trials 3 --seed 1 --out l.json
        lowrank --in A.mtx --k 2 --eps 0.25 --c 6 --trials 3 --seed 4 --out r.json
        matmul --in A.mtx --m 4 --c 8
        lsq --in L.mtx --eps 0.5 --r 64
        matmul --m 8 --n 6 --c 2 --in-b B.bin
    """)
    # The last lowrank call is wide (m < n): the oracle factors A^T.
    out["lowrank"] = _split("""
        lowrank --m 64 --n 32 --sigma 3,2,1 --eta 0.01 --k 2 --eps 0.25 --c 8 --trials 4 --seed 5
        lowrank --m 64 --n 32 --sigma 3,2,1 --eta 0.01 --k 2 --eps 0.25 --c 8 --trials 4 --seed 5 --no-diagnostics
        lowrank --family gaussian --m 40 --n 20 --k 3 --eps 0.25 --c 8 --trials 3
        lowrank --family coherent --m 40 --n 20 --k 3 --eps 0.25 --c 8 --trials 3
        lowrank --m 12 --n 10 --sigma 5 --k 2 --eps 0.25 --c 4 --trials 3
        lowrank --m 64 --n 32 --sigma 3,2,1 --k 2 --eps 0.25
        lowrank --family gaussian --m 40 --n 20 --sigma 1 --k 3 --eps 0.25 --c 8
        lowrank --m 20 --n 48 --sigma 3,2,1 --k 2 --eps 0.25 --c 8 --trials 3
    """)
    out["lsq"] = _split("""
        lsq --m 512 --n 4 --eps 0.5 --r 64 --trials 3 --seed 2 --out l.json --csv l.csv
        lsq --family consistent_lsq --m 512 --n 4 --eps 0.5 --r 64 --trials 3
        lsq --family gaussian --m 512 --n 4 --eps 0.5 --r 64 --instance-seed 9 --trials 2
        lsq --m 512 --n 4 --eps 0.5 --r 64 --trials 2 --no-diagnostics
        lsq --m 512 --n 4 --eps 0.5
        report l.json
        report l.json --csv again.csv
    """)
    # Padded operators: m (lsq) or n (lowrank) not a power of two, and more
    # draws than n_pad, so indices repeat.
    out["padded"] = _split("""
        lsq --m 300 --n 4 --eps 0.5 --r 600 --trials 3 --seed 2
        lsq --family consistent_lsq --m 1000 --n 3 --eps 0.5 --r 2000 --trials 2 --seed 4
        lowrank --m 64 --n 20 --sigma 3,2,1 --eta 0.01 --k 2 --eps 0.25 --c 40 --trials 3 --seed 5
        lowrank --family gaussian --m 50 --n 12 --k 2 --eps 0.25 --c 20 --trials 2
        lowrank --m 20 --n 48 --sigma 3,2,1 --k 2 --eps 0.25 --c 70 --trials 2 --seed 1
    """)
    # Each branch of the harness's instance resolution: lsq, lowrank and
    # matmul from files and from generators, the Gram and file-B matmul, an
    # lsq right-hand side one entry short (refused by the oracle), a file B
    # whose rows miss A's columns, and lowrank_plus_noise at large, finite
    # sigma and eta.
    out["resolve"] = _split("""
        gen gaussian --m 40 --n 12 --seed 1 --out A.mtx
        gen gaussian --m 12 --n 30 --seed 2 --out B.bin
        gen gaussian --m 11 --n 30 --seed 3 --out B11.mtx
        gen consistent_lsq --m 64 --n 4 --seed 5 --out L.bin --rhs-out b.mtx
        gen gaussian --m 63 --n 1 --seed 6 --out short.mtx
        gen gaussian --m 1 --n 64 --seed 7 --out row.rnla
        lsq --in L.bin --rhs b.mtx --eps 0.5 --r 32 --trials 2 --seed 1
        lsq --in L.bin --rhs row.rnla --eps 0.5 --r 32 --trials 2 --out row.json
        lsq --in L.bin --rhs short.mtx --eps 0.5 --r 32 --trials 2 --out short.json
        lsq --m 64 --n 4 --eps 0.5 --r 32 --trials 2 --seed 3
        lsq --family consistent_lsq --m 64 --n 4 --eps 0.5 --r 32 --trials 2 --no-diagnostics
        lowrank --in A.mtx --k 2 --eps 0.25 --c 6 --trials 2 --seed 2
        lowrank --m 40 --n 12 --sigma 1e150,1e149 --eta 1e140 --k 1 --eps 0.25 --c 6 --trials 2
        lowrank --family coherent --m 40 --n 12 --k 2 --eps 0.25 --c 6 --trials 2
        matmul --in A.mtx --c 8 --trials 2 --probs uniform
        matmul --in A.mtx --in-b B.bin --c 8 --trials 2 --probs rownorm --out ab.json
        matmul --in A.mtx --in-b B11.mtx --c 8 --trials 2 --out bad.json
        matmul --m 12 --n 8 --p 5 --c 4 --trials 2 --probs colnorm
        matmul --family lowrank_plus_noise --m 12 --n 8 --sigma 1e60,1e50 --eta 1e40 --c 4 --trials 2
        matmul --family coherent --m 12 --n 8 --c 4 --trials 2
    """)
    # Matrices built column-major for LAPACK: an lsq oracle of 10 full TSQR
    # blocks and a tail (k = 4, 4096-row blocks), right-side fills of 300 rows
    # (blocks of 128, 128, 44) and of 200, and a generated matmul whose
    # spectral error takes the factored core.
    out["layout"] = _split("""
        lsq --m 45000 --n 3 --eps 0.5 --r 256 --trials 2 --seed 1
        lsq --family consistent_lsq --m 45000 --n 3 --eps 0.5 --r 256 --trials 2 --no-diagnostics
        lowrank --family gaussian --m 300 --n 200 --k 3 --eps 0.25 --c 16 --trials 2 --seed 2
        lowrank --m 200 --n 300 --sigma 3,2,1 --eta 0.01 --k 2 --eps 0.25 --c 16 --trials 2
        matmul --m 400 --n 6 --p 300 --c 20 --trials 2 --seed 3
    """)
    # A's squared column norms and B's squared row norms, taken by 128 KiB row
    # blocks: a Gram instance of a 37x50 A, a file B with a tall A (5000x3,
    # one block), and two that cross blocks under both axes (a 20x1000 Gram:
    # blocks of 16 and 819 rows; a 12000x3 A: blocks of 5461 rows).
    out["norms"] = _split("""
        gen gaussian --m 37 --n 50 --seed 1 --out G.mtx
        gen gaussian --m 5000 --n 3 --seed 2 --out T.bin
        gen gaussian --m 3 --n 40 --seed 3 --out B.mtx
        gen gaussian --m 20 --n 1000 --seed 4 --out W.bin
        gen gaussian --m 12000 --n 3 --seed 5 --out L.bin
    """) + [call for argv in ("matmul --in G.mtx --c 8 --trials 2 --seed 2",
                              "matmul --in T.bin --in-b B.mtx --c 4 --trials 2 --seed 2",
                              "matmul --in W.bin --c 30 --trials 2 --seed 2",
                              "matmul --in L.bin --in-b B.mtx --c 4 --trials 2 --seed 2")
            for call in _every_probs(argv)]
    out["matmul stdout"] = _split("""
        matmul --m 8 --n 6 --c 3 --trials 2 --csv m.csv
        matmul --family lowrank_plus_noise --sigma 2,1 --eta 0 --m 8 --n 6 --c 3 --trials 2
        matmul --family lowrank_plus_noise --sigma 2,1 --eta 0.5 --m 8 --n 6 --c 3
        matmul --m 8 --n 6 --c 2 --sigma 1,2 --eta 0.5
        matmul --m 8 --n 6 --c 2 --trials 0
    """)
    return out


def run_group(tree: Path, calls: list[list[str]]) -> list[tuple]:
    """Each call's (argv, exit code, stdout, stderr), then each file left behind
    as (name, bytes); every wall_time value reads 0."""
    env = {k: v for k, v in os.environ.items() if k != "RNLA_SEED"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(tree / "src")
    results = []
    with tempfile.TemporaryDirectory(prefix="identity_sweep_") as work:
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "rnla.cli", *argv],
                                  cwd=work, env=env, capture_output=True)
            results.append((argv, proc.returncode, WALL_TIME.sub(NO_TIME, proc.stdout),
                            proc.stderr))
        for path in sorted(Path(work).rglob("*")):
            if path.is_file():
                results.append((path.name, WALL_TIME.sub(NO_TIME, path.read_bytes())))
    return results


def _walk(obj, path: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _walk(value, f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list):
        for value in obj:
            _walk(value, path, out)
    else:
        out.setdefault(path, []).append(obj)


def _fields(data: bytes) -> dict | None:
    """Field -> its values in order, from a JSON document or a CSV table
    (field <row name>.<column>); None for any other text."""
    text = data.decode(errors="replace")
    try:
        obj = json.loads(text)
    except ValueError:
        rows = [line.split(",") for line in text.splitlines()]
        if len(rows) < 2 or len(rows[0]) < 2 or any(len(r) != len(rows[0]) for r in rows):
            return None
        obj = {r[0]: dict(zip(rows[0][1:], r[1:])) for r in rows[1:]}
    out: dict = {}
    _walk(obj, "", out)
    return out


def _number(v):
    if isinstance(v, bool):
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _relative(x, y) -> float | None:
    """|x - y| / max(|x|, |y|) for two numbers, 0 for equal values, else None."""
    a, b = _number(x), _number(y)
    if a is None or b is None:
        return 0.0 if x == y else None
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def _field_line(name: str, a: bytes, b: bytes) -> tuple[str, bool]:
    """A line naming each differing field of the document (or saying that
    none differs), and whether a true/false field differs."""
    fa, fb = _fields(a), _fields(b)
    if fa is None or fb is None:
        return f"  {name}: differs (not JSON or CSV)", False
    parts, flags = [], False
    for field in sorted(fa.keys() | fb.keys()):
        va, vb = fa.get(field, []), fb.get(field, [])
        if va == vb:
            continue
        flags |= any(isinstance(v, bool) for v in va + vb)
        rel = ([_relative(x, y) for x, y in zip(va, vb)] if len(va) == len(vb)
               else [None])
        parts.append(f"{field} " + ("differs" if None in rel else f"{max(rel):.2g}"))
    return f"  {name}: {', '.join(parts) or 'same values, different bytes'}", flags


def _differences(a: list[tuple], b: list[tuple]) -> list[str]:
    """Lines saying which streams, exit codes and flags differ between the two
    trees' results of one group, then each differing document's fields."""
    if len(a) != len(b):
        return [f"  {len(a)} vs {len(b)} calls and files"]
    streams = {"exit code": 0, "stdout": 0, "stderr": 0}
    docs, flags = [], False
    for x, y in zip(a, b):
        if x == y:
            continue
        if isinstance(x[0], list):
            for i, what in enumerate(streams, start=1):
                streams[what] += x[i] != y[i]
            if x[2] == y[2]:
                continue
            line, f = _field_line(f"stdout of {shlex.join(['rnla', *x[0]])}", x[2], y[2])
        elif x[0] != y[0]:
            line, f = f"  files {x[0]} vs {y[0]}", False
        else:
            line, f = _field_line(x[0], x[1], y[1])
        docs.append(line)
        flags |= f
    summary = [f"{what} differs in {n} calls" if n else f"{what} identical"
               for what, n in streams.items()]
    summary.append("a flag differs" if flags else "flags identical")
    return ["  " + "; ".join(summary)] + docs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = Path(args[0]).resolve(), ROOT
    if not (parent / "src" / "rnla" / "cli.py").is_file():
        print(f"identity_sweep: no rnla sources under {parent / 'src'}",
              file=sys.stderr)
        return 2
    all_groups = groups(change / "README.md")
    differ = 0
    for name, calls in all_groups.items():
        a, b = run_group(parent, calls), run_group(change, calls)
        differ += a != b
        print(f"{name:24s} {len(calls):3d} calls  "
              f"{'different' if a != b else 'identical'}", flush=True)
        if a != b:
            print("\n".join(_differences(a, b)), flush=True)
    total = sum(len(c) for c in all_groups.values())
    print(f"{len(all_groups)} groups, {total} calls: "
          f"{'all identical' if not differ else f'{differ} groups differ'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
