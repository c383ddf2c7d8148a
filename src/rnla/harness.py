"""Experiment runner: seeded trials, aggregation, JSON reports, check suites.

One experiment = one problem instance + `trials` independent algorithm seeds
base_seed, base_seed+1, ...  Exact oracles (the thin SVD of A, the exact
product) are computed once per run, by the first trial that needs them; the
solvers take the SVD as an argument.

A matmul instance is validated once, when it is resolved: A and B pass
`as_matrix` and the inner-dimension check there, and the trials run the
validated-input kernel `matmul._sketch`, so no trial rescans A or B.  Lsq and
lowrank trials still enter through `rand_least_squares` and `rand_low_rank`,
which scan A on every call: that scan is about 2% of their trial, and those
public calls are the spans the benchmark times their solves by.

A diagnostic matmul trial reports `spectral_error` = ||A B - C R||_2 without
an SVD of the m x p error E: from an (n+c) x (n+c) core of two thin QRs when
n + c < min(m, p) (E has rank at most n + c), else from the largest
eigenvalue of the smaller Gram of E.  The branch is chosen from the shapes
alone; see `_spectral_error`.  `fro_error_sq` and the success flag are read
from E itself.

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

`run_experiment` is the one way to run an experiment; the CLI writes the
dict it returns.  The record types are the report schema: the `config`,
`trials` and `aggregate` blocks hold exactly the fields of ExperimentConfig,
TrialReport and AggregateReport, and `meta` holds `_meta`'s keys.
`build_report` writes those and `load_report` checks against the same
definitions, so a new report field is one field added to one of them.

Reports are serialized by a local writer that prints every float with 17
significant digits and fixed key order; stdlib json cannot control float
formatting.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .generators import gen_lsq_instance, gen_matrix
from .linalg import as_matrix, frobenius_norm, thin_svd
from .lowrank import (lowrank_sample_size_explicit, rand_low_rank,
                      structural_inequality_check)
from .lsq import rand_least_squares
from .matio import read_matrix, read_vector
from .matmul import (_sketch, enumerate_sketch_moments, entry_variance_bound,
                     expected_frobenius_error)
from .sampling import (_KEY_LIMIT, RNG_NAME, colnorm_probs, draw_plan, make_rng,
                       optimal_probs, rownorm_probs, uniform_probs)
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
    "write_report",
    "report_to_csv",
    "run_check_suite",
    "CHECK_SUITES",
]

VERSION = "0.1.0"


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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.base_seed <= _KEY_LIMIT - self.trials:
            raise ValueError(f"trial seeds base_seed .. base_seed + trials - 1 must lie "
                             f"in [0, 2**128), got base_seed = {self.base_seed}")
        # The instance seed defaults to base_seed; a generated matmul B uses it + 1.
        iseed = int(self.instance.get("seed", self.base_seed))
        reach = int(self.algorithm == "matmul" and self.instance.get("family") != "file")
        if not 0 <= iseed < _KEY_LIMIT - reach:
            bound = "2**128 - 1), since a generated B uses seed + 1" if reach else "2**128)"
            raise ValueError(f"instance seed must lie in [0, {bound}; got seed = {iseed}")
        _write_json(asdict(self), [], 0)  # the report's config block must be writable


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

def _matrix(inst: dict, iseed: int) -> np.ndarray:
    """A read from the instance's file, or generated from its family."""
    if inst.get("family") == "file":
        return read_matrix(inst["path"])
    return gen_matrix(inst.get("family"), int(inst["m"]), int(inst["n"]), iseed,
                      sigma=inst.get("sigma"), eta=float(inst.get("eta", 0.0)))


def _resolve_instance(config: ExperimentConfig) -> dict:
    """Build the problem data once; trials reuse it with fresh seeds."""
    inst = config.instance
    fam = inst.get("family")
    iseed = int(inst.get("seed", config.base_seed))
    if config.algorithm == "lsq":
        if fam == "file":
            A = read_matrix(inst["path"])
            b = read_vector(inst["rhs"])
            if A.shape[0] != b.size:
                raise ValueError(f"A has {A.shape[0]} rows but b has length {b.size}")
        else:
            consistent = fam == "consistent_lsq"
            A, b, _ = gen_lsq_instance(int(inst["m"]), int(inst["n"]),
                                       iseed, consistent=consistent)
        return {"A": A, "b": b}
    A = _matrix(inst, iseed)
    if config.algorithm == "lowrank":
        return {"A": A}
    if fam == "file":
        B = read_matrix(inst["path_b"]) if "path_b" in inst else A.T.copy()
    else:
        B = gen_matrix("gaussian", A.shape[1], int(inst.get("p", A.shape[0])),
                       iseed + 1)
    # Validated here once: the trials run the matmul kernel on A and B as given.
    A, B = as_matrix(A), as_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"A is {A.shape[0]} x {A.shape[1]} but B is "
                         f"{B.shape[0]} x {B.shape[1]}: inner dimensions differ")
    kind = config.params.get("probs", "optimal")
    probs = {
        "optimal": lambda: optimal_probs(A, B),
        "colnorm": lambda: colnorm_probs(A),
        "rownorm": lambda: rownorm_probs(B),
        "uniform": lambda: uniform_probs(A.shape[1]),
    }.get(kind)
    if probs is None:
        raise ValueError(f"unknown probability family {kind!r}")
    return {"A": A, "B": B, "probs": probs()}


# ------------------------------------------------------------------- trials

def _oracle(ctx: dict, compute):
    """compute() on the run's first call, inside that trial's wall_time; then saved."""
    if "oracle" not in ctx:
        ctx["oracle"] = compute()
    return ctx["oracle"]


def _lsq_oracle(A, b):
    """(thin SVD of A, x_opt, Z) from the one factorization."""
    svd_A = thin_svd(A)
    x_opt = svd_A.pinv() @ b
    return svd_A, x_opt, float(np.linalg.norm(A @ x_opt - b))


def _low_rank_with_retry(A, k: int, eps: float, seed: int, c: int | None, svd_A):
    """(rand_low_rank result, retried): one retry at twice the first width.

    With c None the first width is lowrank_sample_size_explicit(n, k, eps).
    """
    try:
        return rand_low_rank(A, k, eps, seed, c_override=c, svd_A=svd_A), False
    except SketchRankError:
        if c is None:
            c = lowrank_sample_size_explicit(A.shape[1], k, eps).count
        return rand_low_rank(A, k, eps, seed, c_override=2 * c, svd_A=svd_A), True


def _spectral_error(A, B, C, R, E) -> float:
    """||E||_2 of E = A @ B - C @ R, from the smallest matrix that carries it.

    E = [A, C] @ [B; -R] has rank at most n + c.  When n + c < min(m, p), the
    triangular factors R1 of [A, C] and R2 of [B^T, -R^T] give an (n+c) x (n+c)
    core R1 @ R2^T with E's singular values.  Otherwise the smaller Gram of E
    has E's squared singular values as its eigenvalues; its largest one is
    accurate relative to ||E||_2^2, so its root keeps ||E||_2 to roundoff.
    Either way no m x p matrix is factored.  The branch depends on the shapes
    alone: a thin core (the README's 1024 x 8 instance at c = 64) is far
    cheaper than any m x p work, and a wide inner dimension (n + c >= min(m, p))
    leaves the min(m, p)^2 Gram as the smallest matrix.
    """
    m, p = E.shape
    if A.shape[1] + C.shape[1] < min(m, p):
        R1 = np.linalg.qr(np.hstack([A, C]), mode="r")
        R2 = np.linalg.qr(np.hstack([B.T, -R.T]), mode="r")
        return float(np.linalg.svd(R1 @ R2.T, compute_uv=False)[0])
    G = E @ E.T if m <= p else E.T @ E
    return math.sqrt(max(0.0, float(np.linalg.eigvalsh(G)[-1])))


def _trial_matmul(ctx: dict, params: dict, seed: int, diagnostics: bool) -> TrialReport:
    A, B, probs = ctx["A"], ctx["B"], ctx["probs"]
    c = int(params["c"])
    sk = _sketch(A, B, c, probs, seed)
    AB, bound = _oracle(ctx, lambda: (A @ B, expected_frobenius_error(A, B, c, probs)))
    E = sk.C @ sk.R
    np.subtract(AB, E, out=E)
    fro_sq = float(np.sum(E * E))
    t = TrialReport(seed=seed)
    t.metrics = {"fro_error_sq": fro_sq}
    if diagnostics:
        t.metrics["spectral_error"] = _spectral_error(A, B, sk.C, sk.R, E)
    t.bounds = {"expected_fro_err_sq": bound}
    t.flags = {"success": fro_sq <= bound + 1e-12}
    return t


def _trial_lsq(ctx: dict, params: dict, seed: int, diagnostics: bool) -> TrialReport:
    A, b = ctx["A"], ctx["b"]
    svd_A, x_opt, Z = _oracle(ctx, lambda: _lsq_oracle(A, b))
    eps = float(params["eps"])
    r = params.get("r")
    sol = rand_least_squares(A, b, eps, seed,
                             r_override=None if r is None else int(r),
                             svd_A=svd_A if diagnostics else None)
    bound = (1.0 + eps) * Z + 1e-8
    t = TrialReport(seed=seed)
    t.metrics = {
        "residual": sol.residual_norm,
        "forward_error": float(np.linalg.norm(sol.x_tilde - x_opt)),
    }
    t.bounds = {"residual_bound": bound, "Z": Z}
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
    svd_A, norm_A = _oracle(ctx, lambda: (thin_svd(A), frobenius_norm(A)))
    baseline = float(np.sqrt(np.sum(svd_A.sigma[k:] ** 2)))
    res, retried = _low_rank_with_retry(A, k, eps, seed, c,
                                        svd_A if diagnostics else None)
    bound = (1.0 + eps) * baseline + 1e-8
    t = TrialReport(seed=seed)
    t.metrics = {"error_fro": res.error_fro, "baseline_fro": baseline}
    if baseline > 0.0:
        t.metrics["error_ratio"] = res.error_fro / baseline
    t.bounds = {"error_bound": bound}
    t.flags = {"success": res.error_fro <= bound, "retried": retried}
    if res.diagnostics is not None:
        t.flags["identity_ok"], t.flags["split_ok"] = _lowrank_flags(res, norm_A)
        t.metrics["identity_gap"] = res.diagnostics.identity_gap
    return t


def _lowrank_flags(res, norm_A: float) -> tuple[bool, bool]:
    """(identity_ok, split_ok) of a low-rank result that carries diagnostics."""
    d = res.diagnostics
    return (d.identity_gap <= 1e-9 * max(1.0, norm_A),
            res.error_fro ** 2 <= d.projected_tail_sq + d.tail_sq + 1e-8)


_TRIAL_RUNNERS = {
    "matmul": _trial_matmul,
    "lsq": _trial_lsq,
    "lowrank": _trial_lowrank,
}


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


def aggregate(trials: list[TrialReport]) -> AggregateReport:
    """Deterministic fold over trials in index order."""
    succ = sum(1 for t in trials if t.ok and t.flags.get("success", False))
    ok_trials = [t for t in trials if t.ok]
    names = sorted({k for t in ok_trials for k in t.metrics})
    stats = {}
    for name in names:
        vals = [t.metrics[name] for t in ok_trials if name in t.metrics]
        n = len(vals)
        mean = sum(vals) / n
        if n >= 2:
            var = sum((v - mean) ** 2 for v in vals) / (n - 1)
            se = math.sqrt(var / n)
        else:
            se = 0.0
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


def _check_srht(params: dict, seed: int) -> TrialReport:
    """Subsampled transform respects op counts and matches Htilde rows built one at
    a time from the closed form: O(n) memory, no arithmetic shared with the kernel."""
    n = next_pow2(int(params.get("n", 1024)))
    r = int(params.get("r", 8))
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


def _check_matmul(params: dict, seed: int) -> TrialReport:
    """Exact enumeration: unbiased mean, variance and error below their bounds."""
    n = int(params.get("n", 3))
    c = int(params.get("c", 2))
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


def _check_lsq(params: dict, seed: int) -> TrialReport:
    """One randomized solve obeys the one-sided and conditional guarantees."""
    n = int(params.get("n", 1024))
    d = int(params.get("d", 5))
    eps = float(params.get("eps", 0.5))
    r = int(params.get("r", 200))
    A, b, _ = gen_lsq_instance(n, d, seed, consistent=False)
    svd_A, _, Z = _lsq_oracle(A, b)
    sol = rand_least_squares(A, b, eps, seed + 1, r_override=r, svd_A=svd_A)
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


def _check_lowrank(params: dict, seed: int) -> TrialReport:
    """Extraction identity, error split, and the structural inequality."""
    m = int(params.get("m", 24))
    n = int(params.get("n", 16))
    k = int(params.get("k", 3))
    c = int(params.get("c", 8))
    sigma = [1.0] * k + [0.05] * (min(m, n) - k)
    A = gen_matrix("lowrank_plus_noise", m, n, seed, sigma=sigma)
    res, _ = _low_rank_with_retry(A, k, 0.4, seed, c, thin_svd(A))
    d = res.diagnostics
    identity_ok, split_ok = _lowrank_flags(res, frobenius_norm(A))
    Zmat = make_rng(seed + 1).standard_normal((n, c))
    lhs, rhs = structural_inequality_check(A, Zmat, k)
    t = TrialReport(seed=seed)
    t.metrics = {"identity_gap": d.identity_gap, "error_fro": res.error_fro,
                 "structural_lhs": lhs, "structural_rhs": rhs}
    t.flags = {"success": identity_ok and split_ok and lhs <= rhs + 1e-9,
               "identity_ok": identity_ok, "split_ok": split_ok}
    return t


CHECK_SUITES = {
    "srht": _check_srht,
    "matmul": _check_matmul,
    "lsq": _check_lsq,
    "lowrank": _check_lowrank,
}


def run_check_suite(suite: str, params: dict, seed: int) -> TrialReport:
    fn = CHECK_SUITES.get(suite)
    if fn is None:
        raise ValueError(f"unknown check suite {suite!r}; "
                         f"choose from {sorted(CHECK_SUITES)}")
    return fn(params, seed)


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


def _write_json(obj, out: list, level: int) -> None:
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(k)) + ": ")
            _write_json(v, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _write_json(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("reports must contain finite numbers only")
        out.append(format(x, ".17g"))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), out, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report: dict) -> str:
    """Serialize with 17-significant-digit floats and stable key order."""
    out: list[str] = []
    _write_json(report, out, 0)
    out.append("\n")
    return "".join(out)


def write_report(path, report: dict) -> None:
    """Render, then open: a report that cannot be rendered leaves path as it was."""
    text = dumps_report(report)
    with open(path, "w") as fh:
        fh.write(text)


_TOP_KEYS = {"config", "trials", "aggregate", "meta"}


def _field_names(record) -> set:
    return {f.name for f in fields(record)}


def load_report(path) -> dict:
    """Read a report back, rejecting fields the record types do not define."""
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
    """Flatten the aggregate block only: one row per metric plus the rate."""
    lines = ["metric,mean,se,min,max"]
    agg = report["aggregate"]
    for name, s in agg["metrics"].items():
        lines.append(f"{name},{s['mean']:.17g},{s['se']:.17g},"
                     f"{s['min']:.17g},{s['max']:.17g}")
    lines.append(f"success_rate,{agg['success_rate']:.17g},,,")
    return "\n".join(lines) + "\n"
