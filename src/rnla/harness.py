"""Experiment runner: seeded trials, aggregation, JSON reports, check suites.

One experiment = one problem instance + `trials` independent algorithm seeds
base_seed, base_seed+1, ...  Exact oracles are computed once per run, by the
first trial that needs them: the exact product for matmul, and the records
of `lowrank._exact_low_rank` (A's singular values and U_k Sigma_k) and
`lsq._exact_solve` (x_opt, Z, A's sigma and V, and bperp), each from one
R-only QR, of A (or A^T) or of [A, b].  The solvers take the record.

A run's instance is checked once, where it is made: the generators and the
file readers return only finite arrays, so `_resolve_instance` validates
nothing again, and no matmul trial rescans A or B.  Lsq and lowrank trials
still enter through `rand_least_squares` and `rand_low_rank`, which scan A
on every call; those public calls are the spans the benchmark times their
solves by.  A lowrank trial copies the verdicts its solver's diagnostics
carry; the harness holds no threshold of its own.

A run has two endings.  Either every trial runs and the report is whole: a
trial whose realized sketch misses the subspace (`SketchRankError`, the
per-draw failure the guarantees bound by delta) is recorded as failed and
counts against the success rate.  Or the run raises, and no report exists:
any other error is a property of the run (its config, its instance, a
parameter the solver refuses), not of one draw, so it leaves `run_trials`.
A config whose report could not be written is refused when it is built, by
the report writer itself.  Aggregation is a deterministic fold in trial
order, so a rerun with the same config produces a byte-identical report
except for wall-time fields.

A check suite's parameters are its keyword-only defaults, which are also the
CLI's check flags; `run_check_suite` refuses any other.  An experiment's
params are `ALGORITHM_PARAMS`, which are also the CLI's algorithm flags;
`ExperimentConfig` refuses any other.  It also refuses an unknown lsq family
or matmul `probs`, a matmul c below 1, an instance key that its algorithm
does not read (`_INSTANCE_KEYS`), and a config without a key its run needs
(`_INSTANCE_NEEDS`, `_PARAM_NEEDS`), so no generator, reader or oracle runs
first; `gen_matrix` refuses a family keyword its family does not read.  The
CLI's lsq families and matmul probabilities are `LSQ_FAMILIES` and
`MATMUL_PROBS`.

`run_experiment` is the one way to run an experiment; the CLI renders the
dict it returns with `dumps_report` and writes the text itself.  The record
types are the report schema: the `config`, `trials` and `aggregate` blocks
hold exactly the fields of ExperimentConfig, TrialReport and
AggregateReport, and `meta` holds `_meta`'s keys.
`build_report` writes those and `load_report` checks against the same
definitions, so a new report field is one field added to one of them.

Reports are stdlib JSON: two-space indents, fields in record order, and each
float in its shortest exact form.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .generators import gen_lsq_instance, gen_matrix
from .linalg import _hstack_f, _qr_r_in_place, _spectral_norm
from .lowrank import (_exact_low_rank, lowrank_sample_size_explicit,
                      rand_low_rank, structural_inequality_check)
from .lsq import _exact_solve, rand_least_squares
from .matio import read_matrix, read_vector
from .matmul import (_frobenius_bound, enumerate_sketch_moments, entry_variance_bound,
                     expected_frobenius_error)
from .sampling import (_KEY_LIMIT, RNG_NAME, _columns, _optimal, _probs, _rows,
                       _sq_norms, draw_plan, make_rng, optimal_probs, uniform_probs)
from .srht import OpCounter, SketchRankError, next_pow2, subsampled_fwht

__all__ = [
    "VERSION",
    "ExperimentConfig",
    "TrialReport",
    "AggregateReport",
    "run_experiment",
    "run_trials",
    "aggregate",
    "build_report",
    "dumps_report",
    "load_report",
    "report_to_csv",
    "run_check_suite",
    "CHECK_SUITES",
    "ALGORITHM_PARAMS", "LSQ_FAMILIES", "MATMUL_PROBS",
]

VERSION = "0.2.0"


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    instance: dict
    params: dict
    trials: int
    base_seed: int
    diagnostics: bool = True

    def __post_init__(self):
        if self.algorithm not in _TRIAL_RUNNERS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        extra = sorted(set(self.params) - set(ALGORITHM_PARAMS[self.algorithm]))
        if extra:
            raise ValueError(f"{self.algorithm} takes no param {', '.join(extra)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.base_seed <= _KEY_LIMIT - self.trials:
            raise ValueError(f"trial seeds base_seed .. base_seed + trials - 1 must lie "
                             f"in [0, 2**128), got base_seed = {self.base_seed}")
        fam = self.instance.get("family")
        if self.algorithm == "lsq" and fam not in (None, "file", *LSQ_FAMILIES):
            raise ValueError(f"unknown lsq family {fam!r}")
        kind = self.params.get("probs", "optimal")
        if self.algorithm == "matmul" and kind not in MATMUL_PROBS:
            raise ValueError(f"unknown probability family {kind!r}")
        generated, from_file = _INSTANCE_KEYS[self.algorithm]
        extra = sorted(set(self.instance) - set(from_file if fam == "file" else generated))
        if extra:
            raise ValueError(f"a {fam or 'generated'} {self.algorithm} instance "
                             f"reads no {', '.join(extra)}")
        generated, from_file = _INSTANCE_NEEDS[self.algorithm]
        missing = [k for k in (from_file if fam == "file" else generated)
                   if k not in self.instance]
        if missing:
            raise ValueError(f"a {fam or 'generated'} {self.algorithm} instance "
                             f"needs {', '.join(missing)}")
        missing = [k for k in _PARAM_NEEDS[self.algorithm] if k not in self.params]
        if missing:
            raise ValueError(f"{self.algorithm} needs param {', '.join(missing)}")
        # The instance seed defaults to base_seed; a generated matmul B uses it + 1.
        iseed = int(self.instance.get("seed", self.base_seed))
        reach = int(self.algorithm == "matmul" and fam != "file")
        if not 0 <= iseed < _KEY_LIMIT - reach:
            bound = "2**128 - 1), since a generated B uses seed + 1" if reach else "2**128)"
            raise ValueError(f"instance seed must lie in [0, {bound}; got seed = {iseed}")
        dumps_report(asdict(self))  # the report's config block must be writable
        if self.algorithm == "matmul" and int(self.params["c"]) < 1:
            raise ValueError("c must be >= 1")


@dataclass
class TrialReport:
    seed: int
    ok: bool = True
    error: str | None = None
    metrics: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    ops: dict = field(default_factory=dict)
    wall_time: float = 0.0


@dataclass
class AggregateReport:
    success_rate: float
    trials_ok: int
    trials_total: int
    metrics: dict            # name -> {mean, se, min, max}


# ---------------------------------------------------------------- instances

LSQ_FAMILIES = {"gaussian": False, "consistent_lsq": True}  # family -> b in range(A)

# The instance keys each algorithm reads: (generated, from files).  gen_matrix
# refuses a sigma or eta that its family does not read.
_INSTANCE_KEYS = {
    "matmul": (("family", "m", "n", "seed", "p", "sigma", "eta"),
               ("family", "seed", "path", "path_b")),
    "lsq": (("family", "m", "n", "seed"), ("family", "seed", "path", "rhs")),
    "lowrank": (("family", "m", "n", "seed", "sigma", "eta"), ("family", "seed", "path")),
}
# The instance keys each algorithm cannot run without: (generated, from files).
_INSTANCE_NEEDS = {"matmul": (("m", "n"), ("path",)), "lsq": (("m", "n"), ("path", "rhs")),
                   "lowrank": (("m", "n"), ("path",))}

# Matmul probabilities from A's squared column norms a and B's squared row
# norms b, the kernels of optimal_probs, colnorm_probs and rownorm_probs.
MATMUL_PROBS = {"optimal": _optimal,
                "colnorm": lambda a, b: _probs(a),
                "rownorm": lambda a, b: _probs(b),
                "uniform": lambda a, b: uniform_probs(a.size)}


def _resolve_instance(config: ExperimentConfig) -> dict:
    """Build the problem data once; trials reuse it with fresh seeds.

    Its sources return finite float64 arrays, so it validates nothing.  It checks
    only a file B's rows against A's columns, which no one source sees; an lsq
    file b of the wrong length is the oracle's to refuse.
    A matmul run's norms, probabilities and bound are taken here, once, and
    weights or a bound that overflow float64 are refused before any trial."""
    inst = config.instance
    fam = inst.get("family")
    iseed = int(inst.get("seed", config.base_seed))
    if config.algorithm == "lsq":
        if fam == "file":
            return {"A": read_matrix(inst["path"]), "b": read_vector(inst["rhs"])}
        A, b, _ = gen_lsq_instance(int(inst["m"]), int(inst["n"]), iseed,
                                   consistent=LSQ_FAMILIES.get(fam, False))
        return {"A": A, "b": b}
    gram = config.algorithm == "matmul" and fam == "file" and "path_b" not in inst
    if fam != "file":
        A = gen_matrix(fam, int(inst["m"]), int(inst["n"]), iseed,
                       sigma=inst.get("sigma"), eta=float(inst.get("eta", 0.0)))
    elif gram:
        # The run holds the matrix once: B is the file's A^T, read row-major,
        # and A is its view.
        B = read_matrix(inst["path"], transpose=True)
        A = B.T
    else:
        A = read_matrix(inst["path"])
    if config.algorithm == "lowrank":
        return {"A": A}
    if fam != "file":
        B = gen_matrix("gaussian", A.shape[1], int(inst.get("p", A.shape[0])),
                       iseed + 1)
    elif not gram:
        B = read_matrix(inst["path_b"])
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"A is {A.shape[0]} x {A.shape[1]} but B is "
                         f"{B.shape[0]} x {B.shape[1]}: inner dimensions differ")
    a, b = _sq_norms(A, 0), _sq_norms(B, 1)
    probs = MATMUL_PROBS[config.params.get("probs", "optimal")](a, b)
    bound = _frobenius_bound(a, b, int(config.params["c"]), probs)
    if not math.isfinite(bound):
        raise ValueError("the expected error bound overflows float64: the "
                         "instance's squared norms are too large")
    return {"A": A, "B": B, "probs": probs, "bound": bound, "gram": gram}


# ------------------------------------------------------------------- trials

def _oracle(ctx: dict, compute):
    """compute() on the run's first call, inside that trial's wall_time; then saved."""
    if "oracle" not in ctx:
        ctx["oracle"] = compute()
    return ctx["oracle"]


def _low_rank_with_retry(A, k: int, eps: float, seed: int, c: int | None, exact):
    """(rand_low_rank result, retried): one retry at twice the first width.

    With c None the first width is lowrank_sample_size_explicit(n, k, eps).
    """
    try:
        return rand_low_rank(A, k, eps, seed, c_override=c, exact=exact), False
    except SketchRankError:
        if c is None:
            c = lowrank_sample_size_explicit(A.shape[1], k, eps).count
        return rand_low_rank(A, k, eps, seed, c_override=2 * c, exact=exact), True


def _spectral_error(A, B, C, R, E) -> float:
    """||E||_2 of E = A @ B - C @ R, from the smallest matrix that carries it.

    E = [A, C] @ [B; -R] has rank at most n + c.  When n + c < min(m, p), the
    triangular factors R1 of [A, C] and R2 of [B^T, -R^T] give an (n+c) x (n+c)
    core R1 @ R2^T with E's singular values.  Both stacks are built
    column-major, the layout LAPACK reads, and linalg's `_qr_r_in_place`
    factors each where it lies, with no further copy.  Otherwise E or its
    min(m, p)^2 Gram is the smallest, and `spectral_norm`'s kernel takes E.
    No m x p matrix is factored.
    """
    if A.shape[1] + C.shape[1] < min(E.shape):
        R1 = _qr_r_in_place(_hstack_f([A, C]))
        R2 = _qr_r_in_place(_hstack_f([B.T, -R.T]))
        return float(np.linalg.svd(R1 @ R2.T, compute_uv=False)[0])
    return _spectral_norm(E)


def _trial_matmul(ctx: dict, params: dict, seed: int, diagnostics: bool) -> TrialReport:
    A, B = ctx["A"], ctx["B"]
    plan = draw_plan(ctx["probs"], int(params["c"]), seed)
    R = _rows(B, plan)
    # The Gram B is the row-major A^T and A is its view: C = R.T gathers
    # nothing, and A @ B and C @ R, each a matrix times its own transpose,
    # are numpy's symmetric products.
    C = R.T if ctx["gram"] else _columns(A, plan)
    AB = _oracle(ctx, lambda: A @ B)
    bound = ctx["bound"]
    E = C @ R
    np.subtract(AB, E, out=E)
    fro_sq = float(np.sum(E * E))
    t = TrialReport(seed=seed)
    t.metrics = {"fro_error_sq": fro_sq}
    if diagnostics:
        t.metrics["spectral_error"] = _spectral_error(A, B, C, R, E)
    t.bounds = {"expected_fro_err_sq": bound}
    t.flags = {"success": fro_sq <= bound + 1e-12}
    return t


def _trial_lsq(ctx: dict, params: dict, seed: int, diagnostics: bool) -> TrialReport:
    A, b = ctx["A"], ctx["b"]
    exact = _oracle(ctx, lambda: _exact_solve(A, b))
    eps = float(params["eps"])
    r = params.get("r")
    sol = rand_least_squares(A, b, eps, seed,
                             r_override=None if r is None else int(r),
                             exact=exact if diagnostics else None)
    bound = (1.0 + eps) * exact.Z + 1e-8
    t = TrialReport(seed=seed)
    t.metrics = {
        "residual": sol.residual_norm,
        "forward_error": float(np.linalg.norm(sol.x_tilde - exact.x_opt)),
    }
    t.bounds = {"residual_bound": bound, "Z": exact.Z}
    t.flags = {"success": sol.residual_norm <= bound}
    if sol.diagnostics is not None:
        t.flags["cond22"] = sol.diagnostics.cond22_pass
        t.flags["cond23"] = sol.diagnostics.cond23_pass
        t.metrics["sigma_min_sq"] = sol.diagnostics.sigma_min_sq
        t.metrics["cross_term"] = sol.diagnostics.cross_term
    t.ops = {"adds_subs": sol.ops}
    return t


def _trial_lowrank(ctx: dict, params: dict, seed: int, diagnostics: bool) -> TrialReport:
    A = ctx["A"]
    k = int(params["k"])
    eps = float(params["eps"])
    c = params.get("c")
    c = int(c) if c is not None else None
    exact = _oracle(ctx, lambda: _exact_low_rank(A, k))
    baseline = float(np.sqrt(np.sum(exact.sigma[k:] ** 2)))
    res, retried = _low_rank_with_retry(A, k, eps, seed, c,
                                        exact if diagnostics else None)
    bound = (1.0 + eps) * baseline + 1e-8
    t = TrialReport(seed=seed)
    t.metrics = {"error_fro": res.error_fro, "baseline_fro": baseline}
    if baseline > 0.0:
        t.metrics["error_ratio"] = res.error_fro / baseline
    t.bounds = {"error_bound": bound}
    t.flags = {"success": res.error_fro <= bound, "retried": retried}
    if res.diagnostics is not None:
        t.flags.update(identity_ok=res.diagnostics.identity_ok,
                       split_ok=res.diagnostics.split_ok)
        t.metrics["identity_gap"] = res.diagnostics.identity_gap
    return t


_TRIAL_RUNNERS = {
    "matmul": _trial_matmul,
    "lsq": _trial_lsq,
    "lowrank": _trial_lowrank,
}
# The params each trial runner reads; a config with any other is refused, and
# so is one without those it cannot run without.
ALGORITHM_PARAMS = {"matmul": ("c", "probs"), "lsq": ("eps", "r"),
                    "lowrank": ("k", "eps", "c")}
_PARAM_NEEDS = {"matmul": ("c",), "lsq": ("eps",), "lowrank": ("k", "eps")}


def run_trials(config: ExperimentConfig) -> list[TrialReport]:
    """Execute all trials; a SketchRankError becomes a failed TrialReport.

    Any other exception propagates: it ends the run, not one trial.
    """
    ctx = _resolve_instance(config)
    out = []
    for i in range(config.trials):
        seed = config.base_seed + i
        start = time.perf_counter()
        try:
            t = _TRIAL_RUNNERS[config.algorithm](ctx, config.params, seed,
                                                 config.diagnostics)
        except SketchRankError as e:
            t = TrialReport(seed=seed, ok=False, error=f"SketchRankError: {e}",
                            flags={"success": False})
        t.wall_time = time.perf_counter() - start
        out.append(t)
    return out


def _mean_se(vals: list) -> tuple[float, float]:
    """Mean and standard error of finite values.

    Each is the plain formula unless its sum overflows; that one is then
    taken over the values scaled by their largest magnitude, so it is finite.
    """
    n = len(vals)
    scale = max(abs(v) for v in vals)
    mean = sum(vals) / n
    if not math.isfinite(mean):
        mean = sum(v / scale for v in vals) / n * scale
    if n < 2:
        return mean, 0.0
    try:
        var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    except OverflowError:
        var = math.inf
    if math.isfinite(var):
        return mean, math.sqrt(var / n)
    var = sum((v / scale - mean / scale) ** 2 for v in vals) / (n - 1)
    return mean, scale * math.sqrt(var / n)


def aggregate(trials: list[TrialReport]) -> AggregateReport:
    """Deterministic fold over trials in index order."""
    succ = sum(1 for t in trials if t.ok and t.flags.get("success", False))
    ok_trials = [t for t in trials if t.ok]
    names = sorted({k for t in ok_trials for k in t.metrics})
    stats = {}
    for name in names:
        vals = [t.metrics[name] for t in ok_trials if name in t.metrics]
        mean, se = _mean_se(vals)
        stats[name] = {"mean": mean, "se": se, "min": min(vals), "max": max(vals)}
    return AggregateReport(
        success_rate=succ / len(trials),
        trials_ok=len(ok_trials),
        trials_total=len(trials),
        metrics=stats,
    )


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every trial and return the report dict, timed in meta.wall_time."""
    start = time.perf_counter()
    trials = run_trials(config)
    agg = aggregate(trials)
    return build_report(config, trials, agg, time.perf_counter() - start)


# ------------------------------------------------------------- check suites

def _hadamard_row(i: int, n: int) -> np.ndarray:
    """Row i of the unnormalized Htilde_n from the closed form (-1)^popcount(i & j)."""
    v = i & np.arange(n)
    for s in (32, 16, 8, 4, 2, 1):  # fold the bits of v into its parity bit
        v ^= v >> s
    return 1.0 - 2.0 * (v & 1)


def _check_srht(seed: int, *, n: int = 1024, r: int = 8) -> TrialReport:
    """Subsampled transform respects op counts and matches Htilde rows built one at
    a time from the closed form: O(n) memory, no arithmetic shared with the kernel."""
    if r < 1:
        raise ValueError("r must be >= 1")
    n = next_pow2(n)
    x = make_rng(seed).standard_normal(n)
    plan = draw_plan(uniform_probs(n), r, seed)
    counter = OpCounter()
    sub = subsampled_fwht(x, plan, counter)
    want = [_hadamard_row(i, n) @ x / math.sqrt(n) * s
            for i, s in zip(plan.indices, plan.scales)]
    gap = float(np.max(np.abs(sub - want)))
    bound = 2.0 * n * math.log2(r + 1)
    t = TrialReport(seed=seed)
    t.metrics = {"max_gap": gap}
    t.ops = {"adds_subs": counter.adds_subs}
    t.bounds = {"ops_bound": bound, "gap_tol": 1e-12 * max(1.0, float(np.linalg.norm(x)))}
    t.flags = {"success": gap <= t.bounds["gap_tol"] and counter.adds_subs <= bound}
    return t


def _check_matmul(seed: int, *, n: int = 3, c: int = 2) -> TrialReport:
    """Exact enumeration: unbiased mean, variance and error below their bounds."""
    rng = make_rng(seed)
    A = rng.standard_normal((3, n))
    B = rng.standard_normal((n, 2))
    probs = optimal_probs(A, B)
    mom = enumerate_sketch_moments(A, B, c, probs)
    exact = A @ B
    mean_gap = float(np.max(np.abs(mom.mean - exact)))
    var_excess = max(
        float(mom.variance[i, j]) - entry_variance_bound(A, B, probs, c, i, j)
        for i in range(A.shape[0]) for j in range(B.shape[1]))
    err_excess = mom.expected_fro_err_sq - expected_frobenius_error(A, B, c, probs)
    t = TrialReport(seed=seed)
    t.metrics = {"mean_gap": mean_gap, "var_excess": var_excess,
                 "err_excess": err_excess}
    t.flags = {"success": mean_gap <= 1e-12 * max(1.0, float(np.max(np.abs(exact))))
               and var_excess <= 1e-12 and err_excess <= 1e-12}
    return t


def _check_lsq(seed: int, *, n: int = 1024, d: int = 5, eps: float = 0.5,
               r: int = 200) -> TrialReport:
    """One randomized solve obeys the one-sided and conditional guarantees."""
    A, b, _ = gen_lsq_instance(n, d, seed, consistent=False)
    exact = _exact_solve(A, b)
    Z = exact.Z
    sol = rand_least_squares(A, b, eps, seed + 1, r_override=r, exact=exact)
    rep = sol.diagnostics
    one_sided = sol.residual_norm >= Z - 1e-10
    conditional = (not (rep.cond22_pass and rep.cond23_pass)
                   or sol.residual_norm <= math.sqrt(1.0 + eps) * Z + 1e-8)
    t = TrialReport(seed=seed)
    t.metrics = {"residual": sol.residual_norm}
    t.bounds = {"Z": Z, "conditional_bound": math.sqrt(1.0 + eps) * Z + 1e-8}
    t.flags = {"success": one_sided and conditional,
               "cond22": rep.cond22_pass, "cond23": rep.cond23_pass}
    return t


def _check_lowrank(seed: int, *, m: int = 24, n: int = 16, k: int = 3,
                   c: int = 8) -> TrialReport:
    """Extraction identity, error split, and the structural inequality (at eps 0.4)."""
    sigma = [1.0] * k + [0.05] * (min(m, n) - k)
    A = gen_matrix("lowrank_plus_noise", m, n, seed, sigma=sigma)
    res, _ = _low_rank_with_retry(A, k, 0.4, seed, c, _exact_low_rank(A, k))
    d = res.diagnostics
    Zmat = make_rng(seed + 1).standard_normal((n, c))
    lhs, rhs = structural_inequality_check(A, Zmat, k)
    t = TrialReport(seed=seed)
    t.metrics = {"identity_gap": d.identity_gap, "error_fro": res.error_fro,
                 "structural_lhs": lhs, "structural_rhs": rhs}
    t.flags = {"success": d.identity_ok and d.split_ok and lhs <= rhs + 1e-9,
               "identity_ok": d.identity_ok, "split_ok": d.split_ok}
    return t


# suite -> (function, seed reach: lsq and lowrank also draw from seed + 1).
CHECK_SUITES = {
    "srht": (_check_srht, 0),
    "matmul": (_check_matmul, 0),
    "lsq": (_check_lsq, 1),
    "lowrank": (_check_lowrank, 1),
}


def run_check_suite(suite: str, params: dict, seed: int) -> TrialReport:
    """Run one check suite; params may set only the keywords its function takes."""
    if suite not in CHECK_SUITES:
        raise ValueError(f"unknown check suite {suite!r}; "
                         f"choose from {sorted(CHECK_SUITES)}")
    fn, reach = CHECK_SUITES[suite]
    extra = sorted(set(params) - set(fn.__kwdefaults__))
    if extra:
        raise ValueError(f"check suite {suite!r} takes no {', '.join(extra)}")
    if not 0 <= seed < _KEY_LIMIT - reach:
        uses = f"seeds seed .. seed + {reach}" if reach else "seed"
        raise ValueError(f"check {suite} {uses} must lie in [0, 2**128), "
                         f"got seed = {seed}")
    return fn(seed, **params)


# ------------------------------------------------------------------ reports

def _meta(wall_time: float) -> dict:
    return {"rng": RNG_NAME, "version": VERSION, "wall_time": wall_time}


def build_report(config: ExperimentConfig, trials: list[TrialReport],
                 agg: AggregateReport, total_wall_time: float = 0.0) -> dict:
    return {
        "config": asdict(config),
        "trials": [asdict(t) for t in trials],
        "aggregate": asdict(agg),
        "meta": _meta(total_wall_time),
    }


def _plain(obj):
    """The JSON value of a numpy array or scalar; anything else is refused."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report: dict) -> str:
    """Serialize with two-space indents, fields in record order and each float
    in its shortest exact form."""
    try:
        return json.dumps(report, indent=2, allow_nan=False, default=_plain) + "\n"
    except ValueError as e:
        raise ValueError("reports must contain finite numbers only") from e


_TOP_KEYS = {"config", "trials", "aggregate", "meta"}


def _field_names(record) -> set:
    return {f.name for f in fields(record)}


def load_report(path) -> dict:
    """Read a report back, rejecting fields the record types do not define.

    A 0.1.0 report, whose floats have 17 digits, loads as well."""
    with open(path, "r") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: report must be a JSON object")
    extra = set(data) - _TOP_KEYS
    if extra:
        raise ValueError(f"{path}: unknown report fields {sorted(extra)}")
    missing = _TOP_KEYS - set(data)
    if missing:
        raise ValueError(f"{path}: missing report fields {sorted(missing)}")
    extra = set(data["meta"]) - set(_meta(0.0))
    if extra:
        raise ValueError(f"{path}: unknown meta fields {sorted(extra)}")
    if "version" not in data["meta"]:
        raise ValueError(f"{path}: meta.version missing")
    for i, t in enumerate(data["trials"]):
        extra = set(t) - _field_names(TrialReport)
        if extra:
            raise ValueError(f"{path}: trial {i}: unknown fields {sorted(extra)}")
    want = _field_names(AggregateReport)
    if set(data["aggregate"]) != want:
        raise ValueError(f"{path}: aggregate fields {sorted(data['aggregate'])}, "
                         f"expected {sorted(want)}")
    return data


def report_to_csv(report: dict) -> str:
    """Flatten the aggregate block only: one row per metric plus the rate.

    Numbers print with 17 significant digits, which print a 0.1.0 report's
    integral float `5` and a 0.2.0 report's `5.0` alike, so a report gives
    the same CSV bytes in either format.
    """
    lines = ["metric,mean,se,min,max"]
    agg = report["aggregate"]
    for name, s in agg["metrics"].items():
        lines.append(f"{name},{s['mean']:.17g},{s['se']:.17g},"
                     f"{s['min']:.17g},{s['max']:.17g}")
    lines.append(f"success_rate,{agg['success_rate']:.17g},,,")
    return "\n".join(lines) + "\n"
