import json
import math
import re
import struct
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import rnla
import rnla.harness
import rnla.lowrank
from rnla import (AggregateReport, ExperimentConfig, TrialReport, colnorm_probs,
                  expected_frobenius_error, gen_lsq_instance, gen_matrix,
                  load_report, lowrank_sample_size_explicit, optimal_probs,
                  rand_matrix_multiply, read_matrix, rownorm_probs,
                  run_check_suite, run_experiment, uniform_probs, write_matrix,
                  write_vector)
from rnla.cli import main as cli_main
from rnla.harness import (VERSION, _spectral_error, aggregate, build_report,
                          dumps_report, report_to_csv, run_trials)
from rnla.matio import BINARY_MAGIC
from rnla.sampling import RNG_NAME, SampleSize


def _matmul_config(trials=5, base_seed=3, probs="optimal"):
    return ExperimentConfig(
        algorithm="matmul",
        instance={"family": "gaussian", "m": 4, "n": 6, "p": 3, "seed": 0},
        params={"c": 4, "probs": probs},
        trials=trials,
        base_seed=base_seed,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("qr", {}, {}, trials=1, base_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig("matmul", {}, {}, trials=0, base_seed=0)
    with pytest.raises(ValueError, match="base_seed = -1"):
        ExperimentConfig("lsq", {}, {}, trials=2, base_seed=-1)
    with pytest.raises(ValueError, match="2\\*\\*128"):
        ExperimentConfig("lsq", {}, {}, trials=2, base_seed=2**128 - 1)
    ExperimentConfig("lsq", {"m": 64, "n": 3}, {"eps": 0.5}, trials=2,
                     base_seed=2**128 - 2)
    big = {"family": "gaussian", "m": 4, "n": 6, "seed": 2**128 - 1}
    with pytest.raises(ValueError, match="B uses seed \\+ 1"):
        ExperimentConfig("matmul", big, {"c": 3}, trials=1, base_seed=0)
    ExperimentConfig("lowrank", big, {"k": 1, "eps": 0.5}, trials=1, base_seed=0)
    with pytest.raises(ValueError, match="seed = -1"):
        ExperimentConfig("lsq", {"family": "gaussian", "m": 64, "n": 3, "seed": -1},
                         {"eps": 0.5, "r": 32}, trials=2, base_seed=1)
    # A config its report could not hold is refused before any trial.
    with pytest.raises(ValueError, match="finite numbers only"):
        ExperimentConfig("matmul", {"family": "gaussian", "m": 4, "n": 6,
                                    "eta": float("nan")}, {"c": 2},
                         trials=1, base_seed=0)
    with pytest.raises(ValueError, match="finite numbers only"):
        ExperimentConfig("lsq", {"family": "gaussian", "m": 64, "n": 3},
                         {"eps": float("inf"), "r": 32}, trials=1, base_seed=0)
    for c in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite numbers only"):
            ExperimentConfig("matmul", {"family": "gaussian", "m": 4, "n": 6},
                             {"c": c}, trials=1, base_seed=0)


def test_a_config_with_a_param_its_algorithm_does_not_read_is_refused():
    with pytest.raises(ValueError, match="lsq takes no param k"):
        ExperimentConfig("lsq", {"family": "gaussian", "m": 64, "n": 3},
                         {"eps": 0.5, "r": 32, "k": 3}, trials=1, base_seed=0)
    with pytest.raises(ValueError, match="matmul takes no param eps, k"):
        ExperimentConfig("matmul", {}, {"c": 2, "k": 1, "eps": 0.5}, 1, 0)
    for algorithm, params in rnla.harness.ALGORITHM_PARAMS.items():
        values = {k: "uniform" if k == "probs" else 1 for k in params}
        ExperimentConfig(algorithm, {"m": 8, "n": 6}, values, 1, 0)


@pytest.mark.parametrize("algorithm, instance, params, message", [
    ("matmul", {"family": "gaussian", "n": 8}, {"c": 2},
     "a gaussian matmul instance needs m$"),
    ("lsq", {"family": "gaussian", "m": 64, "n": 3}, {"r": 32}, "lsq needs param eps$"),
    ("lowrank", {"m": 8}, {"k": 1, "eps": 0.5}, "a generated lowrank instance needs n$"),
    ("matmul", {"family": "file", "path_b": "B.mtx"}, {"c": 2},
     "a file matmul instance needs path$"),
    ("lsq", {"family": "file", "path": "A.mtx"}, {"eps": 0.5},
     "a file lsq instance needs rhs$"),
    ("lsq", {"family": "file"}, {"eps": 0.5}, "a file lsq instance needs path, rhs$"),
    ("matmul", {"m": 8, "n": 6}, {"probs": "uniform"}, "matmul needs param c$"),
    ("lowrank", {"m": 8, "n": 6}, {"c": 4}, "lowrank needs param k, eps$"),
    ("matmul", {"m": 3000, "n": 3000}, {"c": 2, "probs": "leverage"},
     "^unknown probability family 'leverage'$"),
], ids=["matmul-m", "lsq-eps", "lowrank-n", "matmul-path", "lsq-rhs", "lsq-path-rhs",
        "matmul-c", "lowrank-k-eps", "matmul-probs"])
def test_a_config_without_a_key_its_run_reads_is_refused_before_any_work(
        monkeypatch, algorithm, instance, params, message):
    calls = []
    for name in ("gen_matrix", "gen_lsq_instance", "read_matrix", "read_vector",
                 "_exact_solve", "_exact_low_rank"):
        monkeypatch.setattr(rnla.harness, name, lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=message):
        run_experiment(ExperimentConfig(algorithm, instance, params, 1, 0))
    assert calls == []


def test_a_family_keyword_the_family_does_not_read_ends_the_run_before_a_trial(
        monkeypatch):
    calls = []
    monkeypatch.setitem(rnla.harness._TRIAL_RUNNERS, "matmul",
                        lambda *args: calls.append(args))
    cfg = ExperimentConfig("matmul", {"family": "gaussian", "m": 8, "n": 6,
                                      "sigma": [1.0, 2.0], "eta": 0.5},
                           {"c": 2}, 1, 0)
    with pytest.raises(ValueError, match="gaussian family reads no sigma or eta"):
        run_experiment(cfg)
    assert calls == []


NONFINITE = "^lowrank_plus_noise needs a finite sigma and eta$"


@pytest.mark.parametrize("call, message", [
    (lambda: gen_matrix("gaussian", 0, 3, 0), "dimensions must be positive"),
    (lambda: gen_matrix("gaussian", 4, 3, 0, sigma=(1.0,)),
     "gaussian family reads no sigma$"),
    (lambda: gen_matrix("coherent", 4, 3, 0, eta=0.5), "coherent family reads no eta$"),
    (lambda: gen_matrix("lowrank_plus_noise", 4, 3, 0, sigma=(1.0, -1.0)),
     "sigma must be nonnegative"),
    (lambda: gen_matrix("lowrank_plus_noise", 4, 3, 0, sigma=(3.0, 2.0, 1.0, 0.5)),
     "length <= min"),
    (lambda: gen_matrix("coherent", 3, 4, 0), "coherent family needs m >= n"),
    (lambda: gen_matrix("cauchy", 4, 3, 0), "unknown family 'cauchy'"),
    (lambda: gen_lsq_instance(3, 4, 0), "need n >= d >= 1"),
    (lambda: gen_lsq_instance(3, 0, 0), "need n >= d >= 1"),
    (lambda: gen_matrix("lowrank_plus_noise", 16, 8, 0, sigma=(1e308, 1e308),
                        eta=1e308),
     "^lowrank_plus_noise overflows float64 at this sigma and eta$"),
    (lambda: gen_matrix("lowrank_plus_noise", 4, 3, 0, sigma=(math.nan,)), NONFINITE),
    (lambda: gen_matrix("lowrank_plus_noise", 4, 3, 0, sigma=(2.0, math.inf)), NONFINITE),
    (lambda: gen_matrix("lowrank_plus_noise", 4, 3, 0, sigma=(1.0,), eta=math.nan), NONFINITE),
    (lambda: gen_matrix("lowrank_plus_noise", 4, 3, 0, sigma=(1.0,), eta=-math.inf),
     NONFINITE),
], ids=["dims", "gaussian-sigma", "coherent-eta", "sigma-negative", "sigma-long",
        "coherent-wide", "family", "lsq-wide", "lsq-d0", "overflow", "sigma-nan",
        "sigma-inf", "eta-nan", "eta-inf"])
def test_generators_refuse_shapes_they_cannot_build(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_matmul_trials_structure():
    trials = run_trials(_matmul_config())
    assert [t.seed for t in trials] == [3, 4, 5, 6, 7]
    for t in trials:
        assert t.ok and t.error is None
        assert set(t.metrics) == {"fro_error_sq", "spectral_error"}
        assert "success" in t.flags
        assert t.metrics["fro_error_sq"] <= t.bounds["expected_fro_err_sq"] * 50
        assert t.wall_time >= 0.0


def test_trials_deterministic():
    a = run_trials(_matmul_config())
    b = run_trials(_matmul_config())
    for ta, tb in zip(a, b):
        assert ta.metrics == tb.metrics
        assert ta.flags == tb.flags


def test_unknown_probs_family_is_fatal():
    with pytest.raises(ValueError, match="probability family"):
        run_trials(_matmul_config(probs="lev"))


def test_matmul_file_instance_defaults_to_gram(tmp_path):
    """With no B file a trial samples A A^T as C C^T: bit for bit the public
    product with B = A.T, whose R is exactly C.T.  (3, 4, 3) takes the
    symmetric rule of `_spectral_error`, (40, 3, 4) the factored core, and
    the benchmark's (256, 4096, 256) the symmetric rule with every product
    formed by numpy's blocked kernels."""
    for m, n, c in [(3, 4, 3), (40, 3, 4), (256, 4096, 256)]:
        path = tmp_path / f"a{m}.bin"
        write_matrix(path, gen_matrix("gaussian", m, n, m))
        A = read_matrix(path)
        cfg = ExperimentConfig("matmul", {"family": "file", "path": str(path)},
                               {"c": c, "probs": "optimal"}, trials=3, base_seed=1)
        probs = optimal_probs(A, A.T)
        bound = expected_frobenius_error(A, A.T, c, probs)
        for t in run_trials(cfg):
            sk = rand_matrix_multiply(A, A.T, c, probs, t.seed)
            assert np.array_equal(sk.R, sk.C.T)
            C = sk.C
            E = A @ A.T - C @ C.T
            assert np.array_equal(E, E.T)
            assert t.bounds == {"expected_fro_err_sq": bound}
            assert t.metrics == {"fro_error_sq": float(np.sum(E * E)),
                                 "spectral_error": _spectral_error(A, A.T, C, C.T, E)}


def test_gram_trials_gather_rows_of_a_row_major_a_transpose(tmp_path, monkeypatch):
    """The Gram B is the file's A^T read row-major, from either format, and A
    is a view of it, so the run holds the instance once; no trial gathers
    A's columns.  A file B takes `_columns` once per trial, so the counter
    does count."""
    calls = []
    columns = rnla.harness._columns
    monkeypatch.setattr(rnla.harness, "_columns",
                        lambda A, plan: calls.append(A.shape) or columns(A, plan))
    path_b = tmp_path / "b.mtx"
    write_matrix(path_b, gen_matrix("gaussian", 20, 12, 2))
    for path in (tmp_path / "a.mtx", tmp_path / "a.bin"):
        write_matrix(path, gen_matrix("gaussian", 12, 20, 1))
        gram = ExperimentConfig("matmul", {"family": "file", "path": str(path)},
                                {"c": 30, "probs": "optimal"}, trials=3, base_seed=0)
        ctx = rnla.harness._resolve_instance(gram)
        assert ctx["gram"] and ctx["B"].flags.c_contiguous
        assert np.shares_memory(ctx["A"], ctx["B"])
        assert np.array_equal(ctx["B"], read_matrix(path).T)
        assert all(t.ok for t in run_trials(gram))
    assert calls == []
    inst = {"family": "file", "path": str(path), "path_b": str(path_b)}
    run_trials(ExperimentConfig("matmul", inst, {"c": 30}, trials=3, base_seed=0))
    assert calls == [(12, 20)] * 3


def _gram_run_peak(path, m: int) -> float:
    """Traced peak of a Gram run on an m x 4096 Gaussian A written to path,
    as a multiple of A's bytes."""
    write_matrix(path, gen_matrix("gaussian", m, 4096, 1))
    cfg = ExperimentConfig("matmul", {"family": "file", "path": str(path)},
                           {"c": 256, "probs": "optimal"}, trials=3, base_seed=1)
    run_trials(cfg)  # the first run in a process also pays one-time lazy imports
    tracemalloc.start()
    try:
        run_trials(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (m * 4096 * 8)


def test_gram_run_peak_memory_is_bounded(tmp_path):
    """A run on the bench's Gram instance from a binary file holds at most
    2.1x A at its peak (2.0x measured): the read's A and its transposing
    copy, which the run keeps as B with A its view.  Two norm vectors and one
    trial's gathers and products stay below that.  No squared copy of A or
    B is made."""
    assert _gram_run_peak(tmp_path / "a.bin", 256) <= 2.1


def test_gram_run_peak_memory_from_a_text_file_is_bounded(tmp_path):
    """From a text file the run holds the parsed body as B, with no copy, so
    its peak is A^T, two norm vectors and one trial's gathers and products:
    1.17x A measured at 128 x 4096 (1.26x at the bench's 256 x 4096, where
    the traced text read takes twice as long)."""
    assert _gram_run_peak(tmp_path / "a.mtx", 128) <= 1.4


def _strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time": [0-9eE+.\-]+', '"wall_time": 0', text)


@pytest.mark.parametrize("diagnostics", [True, False], ids=["diagnostics", "no-diagnostics"])
@pytest.mark.parametrize("probs", ["optimal", "colnorm", "rownorm", "uniform"])
@pytest.mark.parametrize("m,n,c", [(40, 3, 4), (40, 12, 30)], ids=["core", "repeats"])
def test_gram_reports_from_text_and_binary_files_are_byte_identical(
        tmp_path, m, n, c, probs, diagnostics):
    """The text reader returns A^T as parsed and the binary one transposes A:
    the same run gives the same bytes.  40 x 3 with c = 4 takes the factored
    core of `_spectral_error`; c = 30 > n = 12 draws some column twice.  The
    reader sniffs the format, so both files sit at one path and the config
    echo matches too."""
    A = gen_matrix("gaussian", m, n, 5)
    path, binary = tmp_path / "a.mtx", tmp_path / "a.bin"
    cfg = ExperimentConfig("matmul", {"family": "file", "path": str(path)},
                           {"c": c, "probs": probs}, trials=3, base_seed=2,
                           diagnostics=diagnostics)
    write_matrix(path, A)
    text = _strip_wall_time(dumps_report(run_experiment(cfg)))
    write_matrix(binary, A)
    binary.replace(path)
    assert path.read_bytes()[:8] == BINARY_MAGIC
    assert _strip_wall_time(dumps_report(run_experiment(cfg))) == text


@pytest.mark.parametrize("probs", ["rownorm", "uniform"])
def test_an_overflowed_column_meeting_a_zero_row_still_runs(tmp_path, probs):
    """A's first column squares to inf, but B's first row is zero, so that
    term of the bound is zero and the run's bound is finite."""
    A = gen_matrix("gaussian", 5, 3, 0)
    A[:, 0] *= 1e160
    B = gen_matrix("gaussian", 3, 4, 1)
    B[0] = 0.0
    paths = [tmp_path / "a.mtx", tmp_path / "b.mtx"]
    write_matrix(paths[0], A)
    write_matrix(paths[1], B)
    cfg = ExperimentConfig("matmul", {"family": "file", "path": str(paths[0]),
                                      "path_b": str(paths[1])},
                           {"c": 4, "probs": probs}, trials=3, base_seed=1)
    dist = rownorm_probs(B) if probs == "rownorm" else uniform_probs(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trials = run_trials(cfg)
        bound = expected_frobenius_error(A, B, 4, dist)
    assert math.isfinite(bound)
    assert all(t.ok and t.bounds == {"expected_fro_err_sq": bound} for t in trials)


@pytest.mark.parametrize("probs", ["optimal", "colnorm", "rownorm", "uniform"])
def test_matmul_trials_equal_the_public_product_bit_for_bit(probs):
    """n = 5 < c = 12, so every plan draws some index more than once."""
    inst = {"family": "gaussian", "m": 4, "n": 5, "p": 3, "seed": 2}
    cfg = ExperimentConfig("matmul", inst, {"c": 12, "probs": probs},
                           trials=4, base_seed=9)
    A = gen_matrix("gaussian", 4, 5, 2)
    B = gen_matrix("gaussian", 5, 3, 3)
    dist = {"optimal": lambda: optimal_probs(A, B),
            "colnorm": lambda: colnorm_probs(A),
            "rownorm": lambda: rownorm_probs(B),
            "uniform": lambda: uniform_probs(5)}[probs]()
    for t in run_trials(cfg):
        sk = rand_matrix_multiply(A, B, 12, dist, t.seed)
        assert np.unique(sk.plan.indices).size < 12
        E = A @ B - sk.C @ sk.R
        assert t.metrics == {"fro_error_sq": float(np.sum(E * E)),
                             "spectral_error": _spectral_error(A, B, sk.C, sk.R, E)}


def _product_error_case(m, n, p, c, seed, repeat=False, zero=False, gram=False):
    """(A, B, C, R, E) of one sampled product; E = A @ B - C @ R.

    gram samples A A^T as the Gram instance does: B = A.T and R = C.T, so E
    is exactly symmetric.
    """
    A = gen_matrix("gaussian", m, n, seed)
    if repeat:
        A[:, 1] = A[:, 0]
    if zero:
        A[:] = 0.0
    B = A.T if gram else gen_matrix("gaussian", n, p, seed + 1)
    probs = uniform_probs(n) if zero else optimal_probs(A, B)
    sk = rand_matrix_multiply(A, B, c, probs, seed)
    C, R = sk.C, sk.R
    if gram:
        assert np.array_equal(R, C.T)
        R = C.T
    return A, B, C, R, A @ B - C @ R


# (m, n, p, c): n + c < min(m, p) takes the factored core, the rest the Gram.
# A name containing "sym" samples A A^T (B = A.T, R = C.T, p = m): its E is
# exactly symmetric, and the "sym-" cases take the symmetric-eigenvalue rule.
_SPECTRAL_CASES = {
    "gram-tall": (30, 20, 12, 6),
    "gram-wide": (12, 20, 30, 6),
    "gram-square": (16, 10, 16, 8),
    "core-tall": (60, 3, 40, 5),
    "core-wide": (40, 3, 60, 5),
    "core-square": (50, 4, 50, 6),
    "core-at-min-minus-1": (30, 7, 20, 12),
    "gram-at-min": (30, 8, 20, 12),
    "gram-at-min-plus-1": (30, 9, 20, 12),
    "gram-n1": (4, 1, 3, 4),
    "core-n1": (20, 1, 15, 4),
    "sym-gram": (16, 10, 16, 8),
    "sym-wide-inner": (12, 20, 12, 5),
    "core-sym": (40, 3, 40, 4),
}


@pytest.mark.parametrize("case, repeat", [
    *((case, False) for case in sorted(_SPECTRAL_CASES)),
    ("gram-square", True), ("core-square", True),
])
def test_spectral_error_matches_the_full_svd(monkeypatch, case, repeat):
    """Every rule agrees with np.linalg.norm(E, 2) to the roundoff of forming E.

    The absolute term is that roundoff: at n = 1, E is zero in exact
    arithmetic and both values are noise of that size.  `repeat` makes
    column 1 of A a copy of column 0, so A is rank-deficient.  Each case also
    checks the rule it takes from what eigvalsh is given: nothing (the core),
    E itself (a symmetric E), or E's smaller Gram (any other E, the square
    gram-square among them).  The sym-gram seeds hold an E whose most
    negative eigenvalue is the largest in magnitude, and one whose largest
    eigenvalue is.
    """
    m, n, p, c = _SPECTRAL_CASES[case]
    rule = case.split("-")[0]
    assert (n + c < min(m, p)) == (rule == "core")
    eigvalsh, args = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: args.append(M) or eigvalsh(M))
    dominant = set()
    for seed in range(3):
        A, B, C, R, E = _product_error_case(m, n, p, c, seed, repeat=repeat,
                                            gram="sym" in case)
        scale = (np.linalg.norm(A) * np.linalg.norm(B)
                 + np.linalg.norm(C) * np.linalg.norm(R))
        args.clear()
        got = _spectral_error(A, B, C, R, E)
        ref = np.linalg.norm(E, 2)
        assert abs(got - ref) <= 1e-12 * ref + 1e-13 * scale
        assert got <= math.sqrt(float(np.sum(E * E))) + 1e-13 * scale
        if rule == "core":
            assert args == []
        else:
            want = E if rule == "sym" else (E @ E.T if m <= p else E.T @ E)
            assert len(args) == 1 and np.array_equal(args[0], want)
        if rule == "sym":
            w = eigvalsh(E)
            dominant.add("negative" if -w[0] > w[-1] else "positive")
    if case == "sym-gram":
        assert dominant == {"negative", "positive"}


@pytest.mark.parametrize("case", sorted(c for c in _SPECTRAL_CASES if c.startswith("core")))
def test_spectral_error_core_gives_the_row_major_bits(case):
    """The column-major stacks give the bits of np.hstack's row-major ones."""
    m, n, p, c = _SPECTRAL_CASES[case]
    A, B, C, R, E = _product_error_case(m, n, p, c, 0)
    R1 = np.linalg.qr(np.hstack([A, C]), mode="r")
    R2 = np.linalg.qr(np.hstack([B.T, -R.T]), mode="r")
    assert _spectral_error(A, B, C, R, E) == float(
        np.linalg.svd(R1 @ R2.T, compute_uv=False)[0])


@pytest.mark.parametrize("case", ["gram-square", "core-square", "sym-gram"])
def test_spectral_error_of_a_zero_product_is_zero(case):
    m, n, p, c = _SPECTRAL_CASES[case]
    A, B, C, R, E = _product_error_case(m, n, p, c, 0, zero=True, gram="sym" in case)
    got = _spectral_error(A, B, C, R, E)
    assert got == 0.0 and math.copysign(1.0, got) == 1.0  # not -0.0


@pytest.mark.parametrize("diagnostics", [True, False])
@pytest.mark.parametrize("m, n, p, c, branch", [
    (12, 20, 9, 5, "gram"),
    (40, 3, 30, 4, "core"),
    (12, 20, 12, 5, "sym"),
], ids=["gram", "core", "sym"])
def test_matmul_trials_factor_no_m_by_p_matrix(monkeypatch, tmp_path, m, n, p, c,
                                               branch, diagnostics):
    """One small factorization per diagnostic trial, none without diagnostics.

    `sym` is the Gram instance, a file A with no B: its one call is eigvalsh
    of the trial's exactly symmetric E = A A^T - C C^T itself, no SVD.
    """
    calls = []
    for name in ("svd", "eigvalsh"):
        def recording(M, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append((_name, M))
            return _fn(M, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    if branch == "sym":
        path = tmp_path / "a.mtx"
        write_matrix(path, gen_matrix("gaussian", m, n, 1))
        inst = {"family": "file", "path": str(path)}
    else:
        inst = {"family": "gaussian", "m": m, "n": n, "p": p, "seed": 1}
    cfg = ExperimentConfig("matmul", inst, {"c": c, "probs": "optimal"},
                           trials=4, base_seed=0, diagnostics=diagnostics)
    trials = run_trials(cfg)
    assert all(t.ok for t in trials)
    assert ("spectral_error" in trials[0].metrics) == diagnostics
    shapes = [(name, np.shape(M)) for name, M in calls]
    if not diagnostics:
        assert calls == []
    elif branch == "gram":
        assert shapes == [("eigvalsh", (min(m, p), min(m, p)))] * 4
    elif branch == "core":
        assert shapes == [("svd", (n + c, n + c))] * 4
    else:
        assert shapes == [("eigvalsh", (m, m))] * 4
        A = read_matrix(inst["path"])
        probs = optimal_probs(A, A.T)
        for t, (_, M) in zip(trials, calls):
            C = rand_matrix_multiply(A, A.T, c, probs, t.seed).C
            assert np.array_equal(M, M.T)
            assert np.array_equal(M, A @ A.T - C @ C.T)


def test_lsq_trials_and_file_route_agree(tmp_path):
    A, b, _ = gen_lsq_instance(64, 3, 9)
    pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(pa, A)
    write_vector(pb, b)
    gen_cfg = ExperimentConfig("lsq", {"family": "gaussian", "m": 64, "n": 3,
                                       "seed": 9},
                               {"eps": 0.5, "r": 32}, trials=4, base_seed=0)
    file_cfg = ExperimentConfig("lsq", {"family": "file", "path": str(pa),
                                        "rhs": str(pb)},
                                {"eps": 0.5, "r": 32}, trials=4, base_seed=0)
    gt, ft = run_trials(gen_cfg), run_trials(file_cfg)
    for a_t, b_t in zip(gt, ft):
        assert a_t.metrics == b_t.metrics
        assert a_t.flags == b_t.flags
    for t in gt:
        assert {"cond22", "cond23"} <= set(t.flags)
        assert t.metrics["residual"] >= t.bounds["Z"] - 1e-10
        assert t.ops["adds_subs"] > 0


def test_a_rank_deficient_in_instance_keeps_its_min_norm_oracle(tmp_path, monkeypatch):
    """The QR oracle of a rank-2 A gives lstsq's min-norm x_opt, and every
    trial's sketch loses rank."""
    A, b, _ = gen_lsq_instance(8192, 3, 4)
    A = A[:, [0, 1, 0]]
    write_matrix(tmp_path / "a.mtx", A)
    write_vector(tmp_path / "b.mtx", b)
    oracles = []
    exact_solve = rnla.harness._exact_solve
    monkeypatch.setattr(rnla.harness, "_exact_solve",
                        lambda A, b: oracles.append(exact_solve(A, b)) or oracles[-1])
    monkeypatch.chdir(tmp_path)
    assert cli_main(["lsq", "--in", "a.mtx", "--rhs", "b.mtx", "--eps", "0.5",
                     "--r", "64", "--trials", "3", "--out", "r.json"]) == 0
    ex, = oracles
    A = read_matrix(tmp_path / "a.mtx")
    x_l = np.linalg.lstsq(A, b, rcond=None)[0]
    assert ex.sigma.size == 2
    assert np.linalg.norm(ex.x_opt - x_l) <= 1e-12 * np.linalg.norm(x_l)
    trials = load_report(tmp_path / "r.json")["trials"]
    assert len(trials) == 3
    assert all(not t["ok"] and t["error"].startswith("SketchRankError") for t in trials)


@pytest.mark.parametrize("algorithm, instance, params, message", [
    ("lsq", {"family": "bogus", "m": 64, "n": 3}, {"eps": 0.5, "r": 32},
     "unknown lsq family 'bogus'"),
    ("lsq", {"family": "gaussian", "m": 64, "n": 3, "sigma": [1.0], "eta": 0.5},
     {"eps": 0.5, "r": 32}, "a gaussian lsq instance reads no eta, sigma$"),
    ("matmul", {"family": "gaussian", "m": 8, "n": 6, "bogus": 1}, {"c": 2},
     "a gaussian matmul instance reads no bogus$"),
    ("lsq", {"family": "file", "path": "a.mtx", "rhs": "b.mtx", "m": 4},
     {"eps": 0.5}, "a file lsq instance reads no m$"),
    ("lowrank", {"family": "file", "path": "a.mtx", "path_b": "b.mtx"},
     {"k": 1, "eps": 0.5}, "a file lowrank instance reads no path_b$"),
], ids=["lsq-family", "lsq-sigma-eta", "matmul-bogus", "lsq-file-m", "lowrank-path_b"])
def test_a_config_with_an_instance_key_nothing_reads_is_refused(
        algorithm, instance, params, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(algorithm, instance, params, trials=1, base_seed=0)


def test_lsq_diagnostics_off_drops_condition_flags():
    cfg = ExperimentConfig("lsq", {"family": "gaussian", "m": 64, "n": 3,
                                   "seed": 9},
                           {"eps": 0.5, "r": 32}, trials=2, base_seed=0,
                           diagnostics=False)
    for t in run_trials(cfg):
        assert t.ok
        assert "cond22" not in t.flags and "cond23" not in t.flags
        assert "sigma_min_sq" not in t.metrics


def test_lowrank_trials_with_diagnostics():
    cfg = ExperimentConfig(
        "lowrank",
        {"family": "lowrank_plus_noise", "m": 32, "n": 24, "seed": 2,
         "sigma": (8.0, 6.0, 4.0), "eta": 0.01},
        {"k": 3, "eps": 0.25, "c": 10}, trials=5, base_seed=0)
    for t in run_trials(cfg):
        assert t.ok
        assert t.flags["identity_ok"] and t.flags["split_ok"]
        assert not t.flags["retried"]
        assert t.metrics["error_fro"] >= t.metrics["baseline_fro"] - 1e-10
        assert t.metrics["error_ratio"] >= 1.0 - 1e-10


def test_lowrank_unrecoverable_trial_becomes_data():
    """A rank-1 instance cannot support k=2 even after the doubled retry."""
    cfg = ExperimentConfig(
        "lowrank",
        {"family": "lowrank_plus_noise", "m": 12, "n": 10, "seed": 3,
         "sigma": (5.0,)},
        {"k": 2, "eps": 0.25, "c": 4}, trials=3, base_seed=0)
    trials = run_trials(cfg)
    assert all(not t.ok for t in trials)
    assert all(t.error.startswith("SketchRankError") for t in trials)
    agg = aggregate(trials)
    assert agg.success_rate == 0.0
    assert agg.trials_ok == 0
    assert agg.trials_total == 3
    assert agg.metrics == {}


def test_lowrank_retry_doubles_the_default_width(monkeypatch):
    """With no c, the one retry runs at twice the theoretical width, not 2k.

    The real theoretical width of a 3 x 3 instance is far above n_pad = 4, so
    the run is refused before any retry; a width of 3 (below n_pad, and
    2 * 3 differs from 2k = 4) shows the doubling.
    """
    cfg = ExperimentConfig(
        "lowrank",
        {"family": "lowrank_plus_noise", "m": 3, "n": 3, "seed": 3,
         "sigma": (5.0,)},
        {"k": 2, "eps": 0.49}, trials=1, base_seed=0)
    first = lowrank_sample_size_explicit(3, 2, 0.49).count
    with pytest.raises(ValueError, match=f"c = {first} is at least n_pad = 4"):
        run_trials(cfg)

    def width_three(n, k, eps):
        return SampleSize(3, 3.0)

    monkeypatch.setattr(rnla.lowrank, "lowrank_sample_size_explicit", width_three)
    monkeypatch.setattr(rnla.harness, "lowrank_sample_size_explicit", width_three)
    (t,) = run_trials(cfg)
    assert not t.ok
    assert t.error.startswith("SketchRankError")
    assert t.error.endswith("at c = 6")


@pytest.mark.parametrize("diagnostics", [True, False])
@pytest.mark.parametrize("algorithm, instance, params", [
    ("lsq", {"family": "gaussian", "m": 64, "n": 3, "seed": 9},
     {"eps": 0.5, "r": 32}),
    ("lowrank", {"family": "lowrank_plus_noise", "m": 32, "n": 24, "seed": 2,
                 "sigma": (8.0, 6.0, 4.0), "eta": 0.01},
     {"k": 3, "eps": 0.25, "c": 10}),
], ids=["lsq", "lowrank"])
def test_each_run_factors_its_instance_once(monkeypatch, algorithm, instance,
                                            params, diagnostics):
    """One exact oracle per run, whatever the trial count, and no SVD of an
    m x n (or n x m) array at all.

    Lsq: one `_exact_solve`; lowrank: one `_exact_low_rank`.  Both oracles
    factor the instance by a QR and take the SVD of its small triangular
    factor only; every thin_svd goes through np.linalg.svd, so counting there
    also catches a direct factorization.  Sketch sizes differ from the
    instance's.
    """
    shapes, calls = [], []
    svd = np.linalg.svd
    name = {"lsq": "_exact_solve", "lowrank": "_exact_low_rank"}[algorithm]
    oracle = getattr(rnla.harness, name)

    def counting_svd(M, *args, **kwargs):
        shapes.append(np.shape(M))
        return svd(M, *args, **kwargs)

    def counting_oracle(A, *args):
        calls.append(A.shape)
        return oracle(A, *args)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(rnla.harness, name, counting_oracle)
    cfg = ExperimentConfig(algorithm, instance, params, trials=5, base_seed=0,
                           diagnostics=diagnostics)
    trials = run_trials(cfg)
    assert all(t.ok for t in trials)
    m, n = instance["m"], instance["n"]
    assert calls == [(m, n)]
    assert shapes.count((m, n)) == shapes.count((n, m)) == 0


def test_aggregate_hand_values():
    cfg = _matmul_config(trials=4)
    trials = [
        TrialReport(seed=0, metrics={"m": 1.0}, flags={"success": True}),
        TrialReport(seed=1, metrics={"m": 2.0}, flags={"success": False}),
        TrialReport(seed=2, metrics={"m": 3.0}, flags={"success": True}),
        TrialReport(seed=3, metrics={"m": 4.0}, flags={"success": False}),
    ]
    agg = aggregate(trials)
    assert agg.success_rate == 0.5
    s = agg.metrics["m"]
    assert s["mean"] == pytest.approx(2.5, abs=1e-15)
    assert s["se"] == pytest.approx(math.sqrt(5.0 / 3.0 / 4.0), rel=1e-12)
    assert (s["min"], s["max"]) == (1.0, 4.0)
    meta = build_report(cfg, trials, agg)["meta"]
    assert meta["version"] == VERSION and meta["rng"] == RNG_NAME


def test_aggregate_edge_cases():
    trials = [
        TrialReport(seed=0, metrics={"m": 2.0, "extra": 7.0},
                    flags={"success": True}),
        TrialReport(seed=1, ok=False, error="ValueError: boom",
                    flags={"success": False}),
        TrialReport(seed=2, metrics={"m": 2.0}, flags={"success": True}),
    ]
    agg = aggregate(trials)
    # The failed trial is excluded from metric folds but not from the rate.
    assert agg.success_rate == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert agg.trials_ok == 2
    assert agg.metrics["m"]["se"] == 0.0
    assert agg.metrics["extra"]["se"] == 0.0  # single observation
    assert agg.metrics["extra"]["mean"] == 7.0


def test_aggregate_scales_the_sums_that_overflow():
    """Finite metrics whose squared deviations (or plain sum) overflow a float
    still give a finite mean and se, from the values over their largest one."""
    def stats(*vals):
        trials = [TrialReport(seed=i, metrics={"m": v}) for i, v in enumerate(vals)]
        return aggregate(trials).metrics["m"]

    # (v - mean)**2 = 1e400: se = |v1 - v2| / 2 for two values.
    assert stats(1e200, -1e200) == {"mean": 0.0, "se": 1e200, "min": -1e200,
                                    "max": 1e200}
    # The sum is 3e308: mean = 1.5e308 from (1 + 1) / 2 scaled back, se = 0.
    assert stats(1.5e308, 1.5e308) == {"mean": 1.5e308, "se": 0.0,
                                       "min": 1.5e308, "max": 1.5e308}
    # Both sums overflow: deviations +-0.75e308 give se = 0.75e308.
    s = stats(1.5e308, 0.0, 1.5e308, 0.0)
    assert s["mean"] == 0.75e308
    assert s["se"] == pytest.approx(0.75e308 / math.sqrt(3.0), rel=1e-15)


def test_report_round_trip_exact(tmp_path):
    cfg = _matmul_config()
    trials = run_trials(cfg)
    rep = build_report(cfg, trials, aggregate(trials),
                       total_wall_time=0.125)
    path = tmp_path / "r.json"
    path.write_text(dumps_report(rep))
    assert load_report(path) == rep


def test_reruns_identical_modulo_wall_time():
    def render():
        cfg = _matmul_config()
        trials = run_trials(cfg)
        rep = build_report(cfg, trials, aggregate(trials), 0.0)
        for t in rep["trials"]:
            t["wall_time"] = 0.0
        return dumps_report(rep)

    assert render() == render()


def test_dumps_report_formatting():
    rep = {"config": {}, "trials": [], "aggregate": {"x": 0.1},
           "meta": {"n": 3, "flag": True, "none": None, "arr": np.arange(2.0),
                    "npf": np.float64(0.5), "npi": np.int64(4),
                    "npb": np.bool_(False)}}
    text = dumps_report(rep)
    assert '"x": 0.1\n' in text
    assert '"npf": 0.5' in text
    assert '"flag": true' in text
    assert '"none": null' in text
    assert '"npi": 4' in text
    assert '"npb": false' in text
    assert text.endswith("\n")


def _leaves(obj, path="") -> list:
    """(key path, leaf) of every leaf in order: a float as its bits, any other
    leaf as (type, value)."""
    if isinstance(obj, dict):
        return [x for k, v in obj.items() for x in _leaves(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [x for v in obj for x in _leaves(v, path)]
    return [(path, struct.pack("<d", obj) if type(obj) is float else (type(obj), obj))]


def test_reports_read_back_with_every_float_bit_for_bit():
    """json.loads of dumps_report gives the report back: each float as a float
    with the same bits, each integer as an integer."""
    configs = [
        ExperimentConfig("lsq", {"family": "gaussian", "m": 512, "n": 4, "seed": 1},
                         {"eps": 0.5, "r": 64}, trials=3, base_seed=2),
        ExperimentConfig("lowrank", {"family": "lowrank_plus_noise", "m": 40, "n": 20,
                                     "sigma": [3.0, 2.0, 1.0], "eta": 0.01},
                         {"k": 2, "eps": 0.25, "c": 8}, trials=3, base_seed=5),
        _matmul_config(trials=3),
    ]
    reports = [run_experiment(cfg) for cfg in configs]
    reports.append({"config": {}, "trials": [], "meta": {}, "aggregate": {
        "tiny": 5e-324, "huge": 1.7976931348623157e308, "negzero": -0.0,
        "whole": 5.0, "tenth": 0.1, "count": 5}})
    for rep in reports:
        text = dumps_report(rep)
        back = json.loads(text)
        assert back == rep
        assert _leaves(back) == _leaves(rep)
    for want in ('"tiny": 5e-324', '"huge": 1.7976931348623157e+308',
                 '"negzero": -0.0', '"whole": 5.0', '"tenth": 0.1', '"count": 5\n'):
        assert want in text


# A 0.1.0 report: floats with 17 significant digits, and the integral floats
# (sigma 5.0, success_rate 1.0, mean 2.0, se 0.0) written as integers.
OLD_REPORT = """{
  "config": {
    "algorithm": "lowrank",
    "instance": {
      "family": "lowrank_plus_noise",
      "m": 12,
      "n": 10,
      "sigma": [
        5
      ],
      "seed": 0
    },
    "params": {
      "k": 2,
      "eps": 0.25,
      "c": 4
    },
    "trials": 1,
    "base_seed": 0,
    "diagnostics": true
  },
  "trials": [
    {
      "seed": 0,
      "ok": true,
      "error": null,
      "metrics": {
        "error_fro": 0.10000000000000001
      },
      "bounds": {},
      "flags": {
        "success": true
      },
      "ops": {},
      "wall_time": 0.0012345678901234567
    }
  ],
  "aggregate": {
    "success_rate": 1,
    "trials_ok": 1,
    "trials_total": 1,
    "metrics": {
      "error_fro": {
        "mean": 2,
        "se": 0,
        "min": 0.10000000000000001,
        "max": 65.136007304498804
      }
    }
  },
  "meta": {
    "rng": "philox4x32-10",
    "version": "0.1.0",
    "wall_time": 0.012345678901234568
  }
}
"""


def test_a_0_1_0_report_loads_and_gives_the_same_csv(tmp_path):
    old = tmp_path / "old.json"
    old.write_text(OLD_REPORT)
    rep = load_report(old)
    assert rep["config"]["instance"]["sigma"] == [5.0]
    assert rep["aggregate"]["metrics"]["error_fro"]["max"] == 65.136007304498804
    # The same values as a 0.2.0 report holds them: each float a float.
    values = json.loads(OLD_REPORT)
    values["config"]["instance"]["sigma"] = [5.0]
    values["aggregate"]["success_rate"] = 1.0
    values["aggregate"]["metrics"]["error_fro"].update(mean=2.0, se=0.0)
    new = tmp_path / "new.json"
    new.write_text(dumps_report(values))
    assert '"sigma": [\n        5.0\n' in new.read_text()
    assert '"max": 65.1360073044988\n' in new.read_text()
    assert load_report(new) == rep
    for path in (old, new):
        assert cli_main(["report", str(path), "--csv", str(path) + ".csv"]) == 0
    csv = (tmp_path / "old.json.csv").read_bytes()
    assert csv == (tmp_path / "new.json.csv").read_bytes()
    assert csv == (b"metric,mean,se,min,max\n"
                   b"error_fro,2,0,0.10000000000000001,65.136007304498804\n"
                   b"success_rate,1,,,\n")


def test_every_trial_flag_is_a_python_bool():
    """A report needs no numpy-aware encoder: stdlib json writes it as is."""
    configs = [
        ExperimentConfig("lsq", {"family": "gaussian", "m": 512, "n": 4, "seed": 1},
                         {"eps": 0.5, "r": 64}, trials=3, base_seed=0),
        ExperimentConfig("lsq", {"family": "consistent_lsq", "m": 512, "n": 4},
                         {"eps": 0.5, "r": 64}, trials=2, base_seed=0),
        ExperimentConfig("lowrank", {"family": "lowrank_plus_noise", "m": 40, "n": 20,
                                     "sigma": [3.0, 2.0]},
                         {"k": 2, "eps": 0.25, "c": 8}, trials=3, base_seed=0),
        _matmul_config(trials=3),
    ]
    for cfg in configs:
        rep = run_experiment(cfg)
        flags = [v for t in rep["trials"] for v in t["flags"].values()]
        assert flags and all(type(v) is bool for v in flags)
        json.dumps(rep, allow_nan=False)


def test_dumps_report_rejects_bad_values():
    base = {"config": {}, "trials": [], "aggregate": {}, "meta": {}}
    with pytest.raises(ValueError, match="finite"):
        dumps_report({**base, "aggregate": {"x": float("nan")}})
    with pytest.raises(ValueError, match="finite"):
        dumps_report({**base, "aggregate": {"x": float("inf")}})
    with pytest.raises(TypeError):
        dumps_report({**base, "aggregate": {"x": {1, 2}}})


def test_load_report_schema_rejections(tmp_path):
    cfg = _matmul_config(trials=1)
    trials = run_trials(cfg)
    rep = build_report(cfg, trials, aggregate(trials), 0.0)

    def dump(mutate):
        import copy
        r = copy.deepcopy(rep)
        mutate(r)
        p = tmp_path / "bad.json"
        p.write_text(dumps_report(r))
        return p

    with pytest.raises(ValueError, match="unknown report fields"):
        load_report(dump(lambda r: r.__setitem__("extra", 1)))
    with pytest.raises(ValueError, match="missing report fields"):
        load_report(dump(lambda r: r.pop("meta")))
    with pytest.raises(ValueError, match="unknown meta fields"):
        load_report(dump(lambda r: r["meta"].__setitem__("host", "x")))
    with pytest.raises(ValueError, match="unknown fields"):
        load_report(dump(lambda r: r["trials"][0].__setitem__("note", "x")))
    with pytest.raises(ValueError, match="meta.version missing"):
        load_report(dump(lambda r: r["meta"].pop("version")))
    arr = tmp_path / "arr.json"
    arr.write_text("[]\n")
    with pytest.raises(ValueError, match="JSON object"):
        load_report(arr)


def test_load_report_aggregate_keys_are_the_record_fields(tmp_path):
    rep = run_experiment(_matmul_config(trials=1))
    missing = {**rep, "aggregate": {k: v for k, v in rep["aggregate"].items()
                                    if k != "metrics"}}
    extra = {**rep, "aggregate": {**rep["aggregate"], "config": {}}}
    for i, bad in enumerate((missing, extra)):
        p = tmp_path / f"bad{i}.json"
        p.write_text(dumps_report(bad))
        with pytest.raises(ValueError, match="aggregate fields"):
            load_report(p)


def test_report_to_csv_exact():
    rep = {"aggregate": {"success_rate": 0.75,
                         "metrics": {"a": {"mean": 1.5, "se": 0.25,
                                           "min": 1.0, "max": 2.0}}}}
    assert report_to_csv(rep) == ("metric,mean,se,min,max\n"
                                  "a,1.5,0.25,1,2\n"
                                  "success_rate,0.75,,,\n")


def test_run_experiment_echoes_config():
    cfg = _matmul_config(trials=3)
    rep = run_experiment(cfg)
    assert rep["config"]["algorithm"] == "matmul"
    assert rep["config"]["trials"] == 3
    assert rep["config"]["base_seed"] == 3
    assert rep["aggregate"]["trials_total"] == 3


def test_report_blocks_are_the_record_fields():
    """Each report block holds exactly its record type's fields, in order."""
    rep = run_experiment(_matmul_config(trials=2))
    assert list(rep["config"]) == [f.name for f in fields(ExperimentConfig)]
    for t in rep["trials"]:
        assert list(t) == [f.name for f in fields(TrialReport)]
    assert list(rep["aggregate"]) == [f.name for f in fields(AggregateReport)]
    assert list(rep["aggregate"]) == ["success_rate", "trials_ok",
                                      "trials_total", "metrics"]
    assert rep["meta"]["version"] == VERSION and rep["meta"]["rng"] == RNG_NAME


def test_run_experiment_matches_cli_bytes(tmp_path):
    """The library and the CLI run one path: same report once wall_time is out."""
    cfg = ExperimentConfig(
        "lowrank",
        {"seed": 5, "family": "lowrank_plus_noise", "m": 32, "n": 24,
         "sigma": [8.0, 6.0, 4.0]},
        {"k": 3, "eps": 0.25, "c": 10}, trials=3, base_seed=5)
    out = tmp_path / "r.json"
    assert cli_main(["lowrank", "--m", "32", "--n", "24", "--sigma", "8,6,4",
                     "--k", "3", "--eps", "0.25", "--c", "10", "--trials", "3",
                     "--seed", "5", "--out", str(out)]) == 0
    assert (_strip_wall_time(dumps_report(run_experiment(cfg)))
            == _strip_wall_time(out.read_text()))


def test_check_suites_pass():
    assert run_check_suite("srht", {"n": 64, "r": 4}, 0).flags["success"]
    assert run_check_suite("matmul", {}, 1).flags["success"]
    t = run_check_suite("lsq", {"n": 256, "d": 3, "r": 64}, 2)
    assert t.flags["success"]
    t = run_check_suite("lowrank", {}, 3)
    assert t.flags["success"] and t.flags["identity_ok"] and t.flags["split_ok"]
    with pytest.raises(ValueError, match="unknown check suite"):
        run_check_suite("qr", {}, 0)


@pytest.mark.parametrize("suite", sorted(rnla.harness.CHECK_SUITES))
def test_check_suites_refuse_seeds_outside_the_key_range_before_running(
        monkeypatch, suite):
    """Every key a suite derives, seed .. seed + reach, must lie in [0, 2**128):
    a seed outside is refused before any instance or stream is made."""
    reach = rnla.harness.CHECK_SUITES[suite][1]
    uses = "seeds seed .. seed + 1" if reach else "seed"
    calls = []
    with monkeypatch.context() as patch:
        for name in ("gen_matrix", "gen_lsq_instance", "make_rng"):
            patch.setattr(rnla.harness, name, lambda *a, **k: calls.append(a))
        for seed in (-1, 2**128 - reach):
            with pytest.raises(ValueError) as info:
                run_check_suite(suite, {}, seed)
            assert str(info.value) == (f"check {suite} {uses} must lie in "
                                       f"[0, 2**128), got seed = {seed}")
    assert calls == []
    assert run_check_suite(suite, {}, 2**128 - reach - 1).seed == 2**128 - reach - 1


def test_check_suites_refuse_parameters_they_do_not_take():
    with pytest.raises(ValueError, match="check suite 'srht' takes no k"):
        run_check_suite("srht", {"k": 3}, 0)
    with pytest.raises(ValueError, match="takes no eps"):
        run_check_suite("lowrank", {"eps": 0.3}, 0)


def test_instance_seed_decouples_from_base_seed():
    a = ExperimentConfig("lsq", {"family": "gaussian", "m": 32, "n": 2,
                                 "seed": 4},
                         {"eps": 0.5, "r": 16}, trials=1, base_seed=0)
    b = ExperimentConfig("lsq", {"family": "gaussian", "m": 32, "n": 2,
                                 "seed": 4},
                         {"eps": 0.5, "r": 16}, trials=1, base_seed=50)
    za = run_trials(a)[0].bounds["Z"]
    zb = run_trials(b)[0].bounds["Z"]
    assert za == zb  # same instance, different algorithm seeds


def test_package_version_is_the_report_version():
    """meta.version is rnla.__version__, and pyproject reads its version there."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert (config["tool"]["setuptools"]["dynamic"]["version"]
            == {"attr": "rnla.harness.VERSION"})
    assert rnla.__version__ == VERSION
