"""The benchmark's workloads: CLI calls, quality ratios and direct references.

A workload is a short list of `rnla` CLI calls.  The workload seed fixes the
problem instance (`--instance-seed`, or `gen --seed`); repetition `rep` of a
run draws its trial seeds from `trial_base(seed, rep)`, so repetitions do the
same amount of work on the same instance with fresh sketches.

Paths in the calls are relative to the working directory, so the traced and
untraced runs of one repetition echo identical configs.  `instance` rebuilds
the run's instance outside rnla's CLI; `direct_call` is the deterministic
numpy call the randomized path approximates on it, timed by `time_direct`
beside every repetition; `check` tests the reports against quantities it
recomputes independently of rnla's own oracles.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np

# Repeat each direct timing until it has taken this long (median of repeats).
DIRECT_MIN_S = 0.3
# Relative tolerance for report values checked against an independent oracle.
CHECK_RTOL = 1e-8


def trial_base(seed: int, rep: int, trials: int) -> int:
    return seed * 10_000 + rep * trials


def time_direct(fn) -> float:
    """Median time of fn() over repeats that take DIRECT_MIN_S in all."""
    times = []
    spent = 0.0
    while not times or spent < DIRECT_MIN_S:
        start = time.perf_counter()
        fn()
        dt = time.perf_counter() - start
        times.append(dt)
        spent += dt
    return statistics.median(times)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CHECK_RTOL * max(abs(a), abs(b), 1e-300)


@dataclass(frozen=True)
class LsqWorkload:
    """rnla lsq on a generated Gaussian instance (no file I/O)."""

    name: str
    why: str
    m: int
    n: int
    eps: float
    r: int
    trials: int
    kind = "lsq"
    direct = "np.linalg.lstsq"

    def calls(self, seed: int, rep: int) -> list[tuple[list[str], str]]:
        out = "lsq.json"
        return [(["lsq", "--m", str(self.m), "--n", str(self.n),
                  "--eps", repr(self.eps), "--r", str(self.r),
                  "--trials", str(self.trials),
                  "--seed", str(trial_base(seed, rep, self.trials)),
                  "--instance-seed", str(seed), "--out", out], out)]

    @staticmethod
    def quality(trial: dict) -> float:
        return trial["metrics"]["residual"] / trial["bounds"]["Z"]

    def instance(self, seed: int):
        from rnla.generators import gen_lsq_instance
        A, b, _ = gen_lsq_instance(self.m, self.n, seed)
        return A, b

    @staticmethod
    def direct_call(instance):
        A, b = instance
        return lambda: np.linalg.lstsq(A, b, rcond=None)

    def check(self, instance, reports: list[dict]) -> list[str]:
        A, b = instance
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        Z = float(np.linalg.norm(A @ x - b))
        errors = []
        for t in reports[0]["trials"]:
            if not _close(t["bounds"]["Z"], Z):
                errors.append(f"trial {t['seed']}: Z {t['bounds']['Z']!r} != lstsq {Z!r}")
            if t["ok"] and t["metrics"]["residual"] < Z * (1 - CHECK_RTOL):
                errors.append(f"trial {t['seed']}: residual below the optimum")
        return errors


@dataclass(frozen=True)
class LowrankWorkload:
    """rnla lowrank on a generated spiked-spectrum instance."""

    name: str
    why: str
    m: int
    n: int
    sigma: str
    eta: float
    k: int
    eps: float
    c: int
    trials: int
    kind = "lowrank"
    direct = "np.linalg.svd"

    def calls(self, seed: int, rep: int) -> list[tuple[list[str], str]]:
        out = "lowrank.json"
        return [(["lowrank", "--m", str(self.m), "--n", str(self.n),
                  "--sigma", self.sigma, "--eta", repr(self.eta),
                  "--k", str(self.k), "--eps", repr(self.eps), "--c", str(self.c),
                  "--trials", str(self.trials),
                  "--seed", str(trial_base(seed, rep, self.trials)),
                  "--instance-seed", str(seed), "--out", out], out)]

    @staticmethod
    def quality(trial: dict) -> float:
        return trial["metrics"]["error_fro"] / trial["metrics"]["baseline_fro"]

    def instance(self, seed: int):
        from rnla.generators import gen_matrix
        sigma = [float(s) for s in self.sigma.split(",")]
        return gen_matrix("lowrank_plus_noise", self.m, self.n, seed,
                          sigma=sigma, eta=self.eta)

    @staticmethod
    def direct_call(A):
        return lambda: np.linalg.svd(A, full_matrices=False)

    def check(self, A, reports: list[dict]) -> list[str]:
        s = np.linalg.svd(A, compute_uv=False)
        baseline = float(np.sqrt(np.sum(s[self.k:] ** 2)))
        errors = []
        for t in reports[0]["trials"]:
            if not t["ok"]:
                continue
            got = t["metrics"]["baseline_fro"]
            if not _close(got, baseline):
                errors.append(f"trial {t['seed']}: baseline {got!r} != svd {baseline!r}")
            if t["metrics"]["error_fro"] < baseline * (1 - CHECK_RTOL):
                errors.append(f"trial {t['seed']}: error below the best rank-k error")
        return errors


@dataclass(frozen=True)
class MatmulWorkload:
    """rnla gen to a MatrixMarket file, then rnla matmul on it with B = A^T."""

    name: str
    why: str
    m: int
    n: int
    c: int
    probs: str
    trials: int
    kind = "matmul"
    direct = "A @ A.T"

    def calls(self, seed: int, rep: int) -> list[tuple[list[str], str | None]]:
        path = "A.mtx"
        out = "matmul.json"
        return [
            (["gen", "gaussian", "--m", str(self.m), "--n", str(self.n),
              "--seed", str(seed), "--out", path], None),
            (["matmul", "--in", path, "--c", str(self.c), "--probs", self.probs,
              "--trials", str(self.trials),
              "--seed", str(trial_base(seed, rep, self.trials)), "--out", out], out),
        ]

    @staticmethod
    def quality(trial: dict) -> float:
        return trial["metrics"]["fro_error_sq"] / trial["bounds"]["expected_fro_err_sq"]

    def instance(self, seed: int):
        from rnla.generators import gen_matrix
        return gen_matrix("gaussian", self.m, self.n, seed)

    @staticmethod
    def direct_call(A):
        return lambda: A @ A.T

    def check(self, A, reports: list[dict]) -> list[str]:
        errors = []
        if self.probs == "optimal":
            # With B = A^T and p_j proportional to ||A_j||^2 the error bound
            # sum_j ||A_j||^2 ||B^j||^2 / (c p_j) collapses to ||A||_F^4 / c.
            bound = float(np.sum(A * A)) ** 2 / self.c
            for t in reports[0]["trials"]:
                got = t["bounds"].get("expected_fro_err_sq")
                if t["ok"] and not _close(got, bound):
                    errors.append(f"trial {t['seed']}: error bound {got!r} "
                                  f"!= closed form {bound!r}")
        return errors


KINDS = {cls.kind: cls for cls in (LsqWorkload, LowrankWorkload, MatmulWorkload)}

WORKLOADS = {w.name: w for w in (
    LsqWorkload(
        name="lsq_tall",
        why="SRHT sketch-and-solve on a tall-skinny Gaussian system: pruned "
            "left transform at n_pad=131072 plus rank-check and diagnostic SVDs",
        m=131072, n=16, eps=0.5, r=1024, trials=2),
    LowrankWorkload(
        name="lowrank_spiked",
        why="SRHT low-rank approximation of a spiked 2048x1024 matrix: the "
            "per-trial full-SVD oracle dominates; right transform at n_pad=1024",
        m=2048, n=1024, sigma="10,9,8,7,6,5,4,3,2,1", eta=0.01, k=10,
        eps=0.25, c=64, trials=2),
    MatmulWorkload(
        name="matmul_mtx",
        why="MatrixMarket write then read, sampled product A A^T with optimal "
            "probabilities; the only workload with file I/O and no SRHT",
        m=256, n=4096, c=256, probs="optimal", trials=50),
)}


def to_spec(w) -> dict:
    return {"kind": w.kind, **asdict(w)}


def from_spec(spec: dict):
    spec = dict(spec)
    return KINDS[spec.pop("kind")](**spec)
