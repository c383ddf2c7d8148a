import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rnla
import rnla.harness
from rnla import load_report, read_matrix, read_vector
from rnla.cli import main
from rnla.matio import BINARY_MAGIC


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("RNLA_SEED", raising=False)


def test_gen_text_and_binary(tmp_path):
    text = tmp_path / "a.mtx"
    assert main(["gen", "gaussian", "--m", "4", "--n", "3", "--seed", "1",
                 "--out", str(text)]) == 0
    assert read_matrix(text).shape == (4, 3)

    binary = tmp_path / "a.bin"
    assert main(["gen", "gaussian", "--m", "4", "--n", "3", "--seed", "1",
                 "--out", str(binary)]) == 0
    assert binary.read_bytes()[:8] == BINARY_MAGIC
    np.testing.assert_array_equal(read_matrix(binary), read_matrix(text))


def test_gen_consistent_system(tmp_path, capsys):
    a, b, x = (tmp_path / n for n in ("a.mtx", "b.mtx", "x.mtx"))
    assert main(["gen", "consistent_lsq", "--m", "16", "--n", "3",
                 "--seed", "2", "--out", str(a), "--rhs-out", str(b),
                 "--sol-out", str(x)]) == 0
    A, rhs, sol = read_matrix(a), read_vector(b), read_vector(x)
    np.testing.assert_array_equal(A @ sol, rhs)

    assert main(["gen", "consistent_lsq", "--m", "4", "--n", "2",
                 "--out", str(a)]) == 1
    assert "--rhs-out" in capsys.readouterr().err


def test_matmul_report_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["matmul", "--family", "gaussian", "--m", "4", "--n", "6",
               "--c", "3", "--trials", "3", "--seed", "1", "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "trials 3" in err and "success_rate" in err
    rep = load_report(out)
    assert rep["config"]["algorithm"] == "matmul"
    assert len(rep["trials"]) == 3
    assert rep["meta"]["wall_time"] >= 0.0


def test_matmul_no_diagnostics_drops_only_the_spectral_error(tmp_path):
    reports = {}
    for flags in ([], ["--no-diagnostics"]):
        out = tmp_path / f"r{len(flags)}.json"
        assert main(["matmul", "--m", "4", "--n", "8", "--c", "3", "--trials", "2",
                     "--seed", "0", "--out", str(out), *flags]) == 0
        reports[bool(flags)] = load_report(out)
    on, off = reports[False], reports[True]
    assert "spectral_error" in on["aggregate"]["metrics"]
    assert "spectral_error" not in off["aggregate"]["metrics"]
    for t_on, t_off in zip(on["trials"], off["trials"], strict=True):
        del t_on["metrics"]["spectral_error"], t_on["wall_time"], t_off["wall_time"]
        assert t_on == t_off


def test_report_goes_to_stdout_without_out_flag(capsys):
    rc = main(["matmul", "--m", "3", "--n", "4", "--c", "2", "--trials", "2",
               "--seed", "0"])
    assert rc == 0
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert set(rep) == {"config", "trials", "aggregate", "meta"}


def test_csv_export(tmp_path):
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    assert main(["lsq", "--m", "64", "--n", "3", "--eps", "0.5", "--r", "32",
                 "--trials", "4", "--seed", "0", "--out", str(out),
                 "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "metric,mean,se,min,max"
    assert lines[-1].startswith("success_rate,")
    assert any(line.startswith("residual,") for line in lines)


def test_lsq_file_route(tmp_path):
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    assert main(["gen", "consistent_lsq", "--m", "32", "--n", "3",
                 "--seed", "5", "--out", str(a), "--rhs-out", str(b)]) == 0
    out = tmp_path / "r.json"
    assert main(["lsq", "--in", str(a), "--rhs", str(b), "--eps", "0.5",
                 "--r", "16", "--trials", "2", "--seed", "0",
                 "--out", str(out)]) == 0
    rep = load_report(out)
    # Consistent system: the sketched solve is exact, residual ~ 0.
    assert all(t["metrics"]["residual"] <= 1e-8 for t in rep["trials"])


def test_consistent_system_passes_cond23(tmp_path):
    """An exact solve's cross term is roundoff; the floor must admit it."""
    out = tmp_path / "r.json"
    assert main(["lsq", "--family", "consistent_lsq", "--m", "1024",
                 "--n", "5", "--eps", "0.5", "--r", "200", "--trials", "20",
                 "--seed", "3", "--out", str(out)]) == 0
    trials = load_report(out)["trials"]
    assert len(trials) == 20
    assert all(t["flags"]["cond23"] for t in trials)


def test_lsq_in_without_rhs_is_usage_error(tmp_path, capsys):
    a = tmp_path / "a.mtx"
    main(["gen", "gaussian", "--m", "8", "--n", "2", "--out", str(a)])
    assert main(["lsq", "--in", str(a), "--eps", "0.5"]) == 1
    assert "--rhs" in capsys.readouterr().err


def test_missing_file_exit_and_message(capsys):
    rc = main(["lsq", "--in", "/nonexistent/a.mtx", "--rhs", "/nonexistent/b.mtx",
               "--eps", "0.5", "--trials", "1"])
    assert rc == 1
    assert "cannot open /nonexistent/a.mtx" in capsys.readouterr().err


def test_oversized_header_exits_one(tmp_path, capsys):
    """A dimension product past numpy's largest array is a malformed file (exit 1),
    not a numerical failure (exit 2)."""
    p = tmp_path / "huge.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n"
                 "100000000000 100000000000\n1.0\n2.0\n")
    assert main(["matmul", "--in", str(p), "--c", "2"]) == 1
    assert ("for a 100000000000 x 100000000000 matrix, found 2"
            in capsys.readouterr().err)


def test_undecodable_file_exits_one(tmp_path, capsys):
    """A body byte that is not UTF-8 is a malformed file (exit 1), not a
    numerical failure (exit 2)."""
    p = tmp_path / "bytes.mtx"
    p.write_bytes(b"%%MatrixMarket matrix array real general\n1 2\n1\n\xff\n")
    assert main(["matmul", "--in", str(p), "--c", "2"]) == 1
    assert "can't decode byte 0xff" in capsys.readouterr().err


@pytest.mark.parametrize("probs", ["optimal", "colnorm", "rownorm", "uniform"])
def test_mismatched_matmul_files_are_refused_before_any_trial(tmp_path, capsys,
                                                              probs):
    a, b, out = tmp_path / "a.mtx", tmp_path / "b.mtx", tmp_path / "r.json"
    assert main(["gen", "gaussian", "--m", "5", "--n", "7", "--out", str(a)]) == 0
    assert main(["gen", "gaussian", "--m", "6", "--n", "3", "--out", str(b)]) == 0
    rc = main(["matmul", "--in", str(a), "--in-b", str(b), "--c", "2",
               "--probs", probs, "--out", str(out)])
    assert rc == 2
    assert ("A is 5 x 7 but B is 6 x 3: inner dimensions differ"
            in capsys.readouterr().err)
    assert not out.exists()


def test_generator_route_requires_dims(capsys):
    assert main(["matmul", "--c", "2"]) == 1
    assert "--m and --n" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["matmul", "--m", "8", "--n", "6", "--c", "2", "--in-b", "/nonexistent/b.mtx"],
     "--in-b requires --in"),
    (["lsq", "--m", "64", "--n", "4", "--eps", "0.5", "--r", "16",
      "--rhs", "/nonexistent/b.mtx"], "--rhs requires --in"),
    (["matmul", "--in", "A", "--m", "8", "--c", "2"],
     "--m cannot be combined with --in"),
    (["lowrank", "--in", "A", "--n", "6", "--k", "1", "--eps", "0.5", "--c", "4"],
     "--n cannot be combined with --in"),
    (["matmul", "--in", "A", "--p", "3", "--c", "2"],
     "--p cannot be combined with --in"),
], ids=["in-b-without-in", "rhs-without-in", "m-with-in", "n-with-in", "p-with-in"])
def test_flags_the_instance_would_drop_are_usage_errors(tmp_path, capsys, argv,
                                                        message):
    """A flag the chosen instance route cannot use is refused before any trial."""
    a, out = tmp_path / "a.mtx", tmp_path / "r.json"
    assert main(["gen", "gaussian", "--m", "8", "--n", "6", "--out", str(a)]) == 0
    argv = [str(a) if arg == "A" else arg for arg in argv]
    assert main(argv + ["--trials", "2", "--out", str(out)]) == 1
    assert f"rnla: error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flags", [
    ("matmul --in A.mtx --family coherent --sigma 1,2 --eta 0.5 --c 2 --trials 1 "
     "--out r.json", "--family, --sigma, --eta cannot be combined with --in"),
    ("matmul --in A.mtx --instance-seed 99 --c 2 --trials 1 --out r.json",
     "--instance-seed cannot be combined with --in"),
    ("matmul --m 8 --n 6 --sigma 1,2 --eta 0.5 --c 2 --trials 1 --out r.json",
     "--sigma, --eta cannot be combined with the gaussian family"),
    ("lowrank --family gaussian --m 16 --n 8 --sigma 3,2 --eta 0.1 --k 2 "
     "--eps 0.25 --c 4 --trials 1 --out r.json",
     "--sigma, --eta cannot be combined with the gaussian family"),
    ("gen gaussian --m 4 --n 3 --sigma 1,2 --rhs-out b.mtx --sol-out x.mtx "
     "--out G.mtx",
     "--sigma, --rhs-out, --sol-out cannot be combined with the gaussian family"),
    ("gen consistent_lsq --m 4 --n 3 --eta 0.5 --rhs-out b.mtx --out G.mtx",
     "--eta cannot be combined with the consistent_lsq family"),
    ("check srht --n 64 --r 4 --k 9 --eps 0.3",
     "--eps, --k cannot be combined with check srht"),
    ("check lowrank --eps 0.3", "--eps cannot be combined with check lowrank"),
    ("check matmul --r 5 --d 2", "--r, --d cannot be combined with check matmul"),
], ids=["in-family-sigma-eta", "in-instance-seed", "gaussian-sigma-eta",
        "lowrank-gaussian-sigma-eta", "gen-gaussian", "gen-consistent-eta",
        "check-srht", "check-lowrank-eps", "check-matmul"])
def test_flags_the_run_would_drop_are_refused_before_anything_runs(
        tmp_path, monkeypatch, capsys, argv, flags):
    """A given flag that the file, the family or the check suite would not read
    exits 1 naming it, before any trial or write."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "gaussian", "--m", "8", "--n", "6", "--out", "A.mtx"]) == 0
    capsys.readouterr()
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rnla: error: {flags}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["A.mtx"]


@pytest.mark.parametrize("suite", sorted(rnla.harness.CHECK_SUITES))
def test_check_flags_are_the_suite_keywords(capsys, suite):
    """Each suite's keyword defaults, given as flags, reproduce its default run:
    the flags and their types come from the suite's signature."""
    fn, _ = rnla.harness.CHECK_SUITES[suite]
    assert main(["check", suite, "--seed", "1"]) == 0
    default = capsys.readouterr().out
    flags = [tok for k, v in fn.__kwdefaults__.items() for tok in (f"--{k}", str(v))]
    assert main(["check", suite, "--seed", "1", *flags]) == 0
    assert capsys.readouterr().out == default


def test_check_help_names_each_flags_suites_and_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
             if line.strip().startswith("--")}
    assert lines["--d"].split()[2:] == ["lsq", "5"]
    assert lines["--n"].split()[2:] == ["srht", "1024,", "matmul", "3,", "lsq",
                                        "1024,", "lowrank", "16"]


@pytest.mark.parametrize("argv", [[], ["gen"], ["matmul"], ["lsq"], ["lowrank"],
                                  ["check"], ["report"]],
                         ids=["rnla", "gen", "matmul", "lsq", "lowrank", "check",
                              "report"])
def test_help_renders(capsys, argv):
    """argparse formats a help string only when it prints it."""
    with pytest.raises(SystemExit) as ei:
        main([*argv, "--help"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rnla")


def test_a_bad_csv_path_leaves_no_report(tmp_path, capsys):
    """The CSV is written before the report, so a --csv path that cannot be
    opened exits 1 with no report, and an existing report keeps its bytes."""
    out = tmp_path / "r.json"
    argv = ["matmul", "--m", "4", "--n", "6", "--c", "2", "--trials", "2",
            "--out", str(out), "--csv", str(tmp_path / "missing" / "x.csv")]
    assert main(argv) == 1
    assert "cannot open" in capsys.readouterr().err
    assert not out.exists()
    out.write_bytes(b"an earlier report\n")
    assert main(argv) == 1
    assert out.read_bytes() == b"an earlier report\n"


def test_malformed_report_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"foo": 1}\n')
    assert main(["report", str(bad)]) == 1
    assert "unknown report fields" in capsys.readouterr().err

    notjson = tmp_path / "not.json"
    notjson.write_text("{{{\n")
    assert main(["report", str(notjson)]) == 1


def test_report_rerender(tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["matmul", "--m", "3", "--n", "4", "--c", "2", "--trials", "2",
          "--seed", "0", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("metric,mean,se,min,max")
    assert "trials 2" in captured.err
    csv = tmp_path / "again.csv"
    assert main(["report", str(out), "--csv", str(csv)]) == 0
    assert csv.read_text() == captured.out


def test_check_command_output(capsys):
    assert main(["check", "srht", "--n", "64", "--r", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("check srht seed 3: PASS")

    assert main(["check", "lowrank", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "identity_ok: pass" in out and "split_ok: pass" in out


def test_seed_env_fallback_and_override(monkeypatch, capsys):
    monkeypatch.setenv("RNLA_SEED", "7")
    main(["check", "srht", "--n", "64", "--r", "4"])
    assert "seed 7:" in capsys.readouterr().out
    main(["check", "srht", "--n", "64", "--r", "4", "--seed", "3"])
    assert "seed 3:" in capsys.readouterr().out
    monkeypatch.setenv("RNLA_SEED", "abc")
    assert main(["check", "srht", "--n", "64", "--r", "4"]) == 1
    assert "RNLA_SEED must be an integer" in capsys.readouterr().err


def test_numerical_failure_exits_two(capsys):
    rc = main(["matmul", "--family", "lowrank_plus_noise", "--m", "8",
               "--n", "6", "--c", "2", "--trials", "1", "--seed", "0"])
    assert rc == 2
    assert "sigma" in capsys.readouterr().err


def test_trial_failures_are_data_not_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["lowrank", "--family", "lowrank_plus_noise", "--sigma", "5",
               "--m", "12", "--n", "10", "--k", "2", "--eps", "0.25",
               "--c", "4", "--trials", "2", "--seed", "0", "--out", str(out)])
    assert rc == 0
    rep = load_report(out)
    assert rep["aggregate"]["trials_ok"] == 0
    assert all(t["error"].startswith("SketchRankError") for t in rep["trials"])


def test_sketch_rank_failures_and_successes_share_one_report(tmp_path):
    """r = d with n_pad = 64: duplicate row draws leave some sketches
    rank-deficient, and those trials are data beside the ones that solved."""
    out = tmp_path / "r.json"
    assert main(["lsq", "--m", "64", "--n", "8", "--eps", "0.5", "--r", "8",
                 "--trials", "10", "--seed", "0", "--out", str(out)]) == 0
    trials = load_report(out)["trials"]
    assert {t["ok"] for t in trials} == {True, False}
    assert all(t["error"].startswith("SketchRankError")
               for t in trials if not t["ok"])


LOWRANK = ["lowrank", "--m", "64", "--n", "32", "--sigma", "3,2,1",
           "--eps", "0.25"]


@pytest.mark.parametrize("argv, message", [
    (["lsq", "--m", "512", "--n", "4", "--eps", "0.5", "--r", "2"],
     "sketch size r=2 cannot preserve rank d=4"),
    (["lsq", "--m", "512", "--n", "4", "--eps", "1.5", "--r", "2"],
     "eps must lie in (0, 1)"),
    (["lsq", "--m", "512", "--n", "4", "--eps", "0.5"],
     "is at least n_pad = 512; pass r_override (--r)"),
    (["matmul", "--m", "8", "--n", "16", "--c", "0"], "c must be >= 1"),
    (LOWRANK + ["--k", "3", "--c", "2"],
     "sketch width c=2 is below the target rank k=3"),
    (LOWRANK + ["--k", "0", "--c", "8"], "k=0 out of range for shape (64, 32)"),
    (LOWRANK + ["--k", "3"], "is at least n_pad = 32; pass c_override (--c)"),
    (["matmul", "--m", "8", "--n", "6", "--c", "2", "--family",
      "lowrank_plus_noise", "--sigma", "1", "--eta", "nan"],
     "reports must contain finite numbers only"),
    (LOWRANK + ["--k", "3", "--c", "8", "--eta", "inf"],
     "reports must contain finite numbers only"),
], ids=["lsq-r-below-d", "lsq-eps", "lsq-default-r", "matmul-c0",
        "lowrank-c-below-k", "lowrank-k0", "lowrank-default-c", "matmul-eta-nan",
        "lowrank-eta-inf"])
def test_run_level_errors_exit_two_with_no_report(tmp_path, capsys, argv, message):
    """An error that is not a lost-rank sketch ends the run: exit 2, the
    solver's or the config's own message, and no report anywhere."""
    out = tmp_path / "r.json"
    assert main([*argv, "--trials", "3", "--seed", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rnla: error: ")
    assert message in captured.err
    assert not out.exists()


def test_a_report_that_cannot_be_written_leaves_the_old_one(tmp_path, capsys,
                                                            monkeypatch):
    out = tmp_path / "r.json"
    out.write_bytes(b"an earlier report\n")

    def non_finite(ctx, params, seed, diagnostics):
        return rnla.harness.TrialReport(seed=seed, metrics={"x": float("nan")})

    monkeypatch.setitem(rnla.harness._TRIAL_RUNNERS, "matmul", non_finite)
    assert main(["matmul", "--m", "4", "--n", "6", "--c", "2", "--trials", "1",
                 "--out", str(out)]) == 2
    assert "reports must contain finite numbers only" in capsys.readouterr().err
    assert out.read_bytes() == b"an earlier report\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError("cannot allocate 8 GiB")


@pytest.mark.parametrize("callee, argv", [
    ("gen_lsq_instance", ["lsq", "--m", "64", "--n", "3", "--eps", "0.5",
                          "--r", "32"]),
    ("rand_least_squares", ["lsq", "--m", "64", "--n", "3", "--eps", "0.5",
                            "--r", "32"]),
    ("_columns", ["matmul", "--m", "4", "--n", "6", "--c", "2"]),
], ids=["resolve", "lsq-trial", "matmul-trial"])
def test_out_of_memory_exits_two(tmp_path, capsys, monkeypatch, callee, argv):
    monkeypatch.setattr(rnla.harness, callee, _out_of_memory)
    out = tmp_path / "r.json"
    assert main([*argv, "--trials", "2", "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == "rnla: error: out of memory: cannot allocate 8 GiB\n")
    assert not out.exists()


def test_lsq_files_of_mismatched_lengths_exit_two(tmp_path, capsys):
    a, b, out = tmp_path / "a.mtx", tmp_path / "b.mtx", tmp_path / "r.json"
    assert main(["gen", "gaussian", "--m", "8", "--n", "2", "--out", str(a)]) == 0
    assert main(["gen", "gaussian", "--m", "7", "--n", "1", "--out", str(b)]) == 0
    assert main(["lsq", "--in", str(a), "--rhs", str(b), "--eps", "0.5",
                 "--r", "4", "--out", str(out)]) == 2
    assert "A has 8 rows but b has length 7" in capsys.readouterr().err
    assert not out.exists()


OVERFLOW = ["--m", "16", "--n", "8", "--sigma", "1e308,1e308", "--eta", "1e308"]


@pytest.mark.parametrize("argv", [
    ["lowrank", *OVERFLOW, "--k", "1", "--eps", "0.25", "--c", "4"],
    ["matmul", "--family", "lowrank_plus_noise", *OVERFLOW, "--c", "4"],
    ["gen", "lowrank_plus_noise", *OVERFLOW],
], ids=["lowrank", "matmul", "gen"])
def test_an_instance_that_overflows_is_refused_by_its_generator(
        tmp_path, capsys, monkeypatch, argv):
    """Exit 2 with the generator's message and no file; no oracle or trial runs."""
    calls = []
    monkeypatch.setattr(rnla.harness, "_exact_low_rank", lambda *a: calls.append(a))
    for name in rnla.harness._TRIAL_RUNNERS:
        monkeypatch.setitem(rnla.harness._TRIAL_RUNNERS, name,
                            lambda *a: calls.append(a))
    out = tmp_path / "out.mtx"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "rnla: error: lowrank_plus_noise overflows float64 at this sigma and eta\n")
    assert not out.exists()
    assert calls == []


def test_a_run_whose_metric_deviations_overflow_a_float_is_reported(tmp_path):
    """Every metric is finite, but (v - mean)**2 of fro_error_sq is not."""
    out = tmp_path / "r.json"
    assert main(["matmul", "--family", "lowrank_plus_noise", "--m", "12", "--n", "8",
                 "--sigma", "1e150,1e140", "--eta", "1e130", "--c", "4",
                 "--trials", "2", "--out", str(out)]) == 0
    fro = load_report(out)["aggregate"]["metrics"]["fro_error_sq"]
    assert fro["max"] > 1e300
    assert fro["se"] == pytest.approx((fro["max"] - fro["min"]) / 2, rel=1e-12)


def test_malformed_sigma_is_usage_error(capsys):
    assert main(["lowrank", "--m", "8", "--n", "6", "--sigma", "1,x", "--k", "1",
                 "--eps", "0.25", "--c", "4"]) == 1
    assert "--sigma expects comma-separated reals, got '1,x'" in capsys.readouterr().err


def test_matmul_p_sets_the_columns_of_b(tmp_path, monkeypatch):
    shapes = []
    rows = rnla.harness._rows

    def recording_rows(B, plan):
        shapes.append(B.shape)
        return rows(B, plan)

    monkeypatch.setattr(rnla.harness, "_rows", recording_rows)
    assert main(["matmul", "--m", "4", "--n", "6", "--p", "3", "--c", "2",
                 "--trials", "2", "--out", str(tmp_path / "r.json")]) == 0
    assert shapes == [(6, 3), (6, 3)]


def test_bad_flags_exit_one():
    with pytest.raises(SystemExit) as ei:
        main(["matmul", "--m", "4", "--n", "4", "--c", "2", "--bogus"])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["matmul", "--m", "4", "--n", "4"])  # --c is required
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["check", "qr"])
    assert ei.value.code == 1


def test_instance_seed_flag_fixes_problem_data(tmp_path):
    reports = []
    for base in ("0", "9"):
        out = tmp_path / f"r{base}.json"
        main(["matmul", "--m", "4", "--n", "6", "--c", "3", "--trials", "2",
              "--seed", base, "--instance-seed", "42", "--out", str(out)])
        reports.append(load_report(out))
    b0 = reports[0]["trials"][0]["bounds"]["expected_fro_err_sq"]
    b9 = reports[1]["trials"][0]["bounds"]["expected_fro_err_sq"]
    assert b0 == b9  # same instance, different algorithm seeds
    m0 = reports[0]["trials"][0]["metrics"]["fro_error_sq"]
    m9 = reports[1]["trials"][0]["metrics"]["fro_error_sq"]
    assert m0 != m9


def test_malformed_aggregate_is_usage_error(tmp_path, capsys):
    """A broken aggregate block is a file error (exit 1), not a traceback or 2."""
    out = tmp_path / "r.json"
    main(["matmul", "--m", "3", "--n", "4", "--c", "2", "--trials", "2",
          "--seed", "0", "--out", str(out)])
    rep = json.loads(out.read_text())
    capsys.readouterr()

    no_metrics = tmp_path / "no_metrics.json"
    del rep["aggregate"]["metrics"]
    no_metrics.write_text(json.dumps(rep))
    assert main(["report", str(no_metrics)]) == 1
    assert "aggregate fields" in capsys.readouterr().err

    bad_mean = tmp_path / "bad_mean.json"
    rep["aggregate"]["metrics"] = {"a": {"mean": "x", "se": 0.0, "min": 1.0,
                                         "max": 1.0}}
    bad_mean.write_text(json.dumps(rep))
    assert main(["report", str(bad_mean)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("rnla: error:")


def test_zero_trials_is_usage_error(capsys):
    assert main(["lsq", "--m", "64", "--n", "3", "--eps", "0.5",
                 "--trials", "0"]) == 1
    assert "--trials must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "gaussian", "--m", "4", "--n", "3", "--out", "a.mtx"],
    ["lsq", "--m", "64", "--n", "3", "--eps", "0.5", "--r", "32",
     "--trials", "1"],
    ["check", "srht", "--n", "64", "--r", "4"],
], ids=["gen", "lsq", "check"])
@pytest.mark.parametrize("how", ["flag", "env"])
def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys, argv, how):
    monkeypatch.chdir(tmp_path)
    if how == "flag":
        argv = argv + ["--seed", "-1"]
    else:
        monkeypatch.setenv("RNLA_SEED", "-1")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "must be >= 0, got -1" in err
    assert not (tmp_path / "a.mtx").exists()


def test_negative_instance_seed_is_usage_error(capsys):
    assert main(["matmul", "--m", "4", "--n", "6", "--c", "3", "--trials", "1",
                 "--instance-seed", "-3"]) == 1
    assert "--instance-seed must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, limit", [
    (["check", "srht", "--n", "64", "--r", "4", "--seed", str(2**128)], 1),
    (["check", "lsq", "--seed", str(2**128 - 1)], 2),
    (["lsq", "--m", "64", "--n", "3", "--eps", "0.5", "--r", "32",
      "--trials", "2", "--seed", str(2**128 - 1), "--instance-seed", "1"], 2),
    (["matmul", "--m", "4", "--n", "6", "--c", "3", "--trials", "1",
      "--seed", "0", "--instance-seed", str(2**128 - 1)], 2),
], ids=["check-srht", "check-lsq", "lsq-trials", "matmul-instance"])
def test_seed_past_philox_key_range_is_usage_error(capsys, argv, limit):
    """Every key derived from a seed must stay below 2**128, or nothing runs."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"must be <= 2**128 - {limit}, got " in captured.err


def test_reports_are_byte_identical_across_processes(tmp_path):
    """Fresh interpreters with different hash seeds write the same report
    bytes (wall_time aside) and CSV bytes at one BLAS thread."""
    commands = {
        "lowrank": ["lowrank", "--sigma", "8,6,4", "--m", "32", "--n", "24",
                    "--k", "3", "--eps", "0.25", "--c", "10", "--trials", "3",
                    "--seed", "5"],
        "matmul": ["matmul", "--m", "16", "--n", "12", "--c", "4",
                   "--trials", "3", "--seed", "5"],
    }
    src = str(Path(rnla.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for name, argv in commands.items():
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed,
                       OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       MKL_NUM_THREADS="1")
            out = tmp_path / f"{name}-{hash_seed}.json"
            csv = tmp_path / f"{name}-{hash_seed}.csv"
            subprocess.run([sys.executable, "-m", "rnla.cli", *argv,
                            "--out", str(out), "--csv", str(csv)],
                           env=env, check=True, capture_output=True)
            report = re.sub(r'"wall_time": [0-9eE+.\-]+', '"wall_time": 0',
                            out.read_text())
            outputs.append((report, csv.read_bytes()))
        assert outputs[0] == outputs[1], name
