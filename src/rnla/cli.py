"""Command line interface.

Exit codes: 0 success, 1 usage error (bad flags, unreadable or malformed
files), 2 numerical failure (degenerate inputs, parameters the solver
refuses, failed check suite, out of memory).  An experiment that exits 0 has
written its whole report, in which only trials whose sketch lost rank are
failed; one that exits non-zero writes no report and leaves an existing --out
file as it was.  The seed is taken from --seed, else the RNLA_SEED
environment variable, else 0.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .generators import MATRIX_FAMILIES, gen_lsq_instance, gen_matrix
from .harness import (CHECK_SUITES, ExperimentConfig, dumps_report,
                      load_report, report_to_csv, run_check_suite,
                      run_experiment, write_report)
from .matio import MatrixFileError, write_matrix, write_vector
from .sampling import _KEY_LIMIT

__all__ = ["main"]


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this interface reserves 2 for math."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(value: int, name: str, reach: int = 0) -> int:
    """value, refused unless every derived seed value .. value + reach is a Philox key."""
    if value < 0:
        raise UsageError(f"{name} must be >= 0, got {value}")
    if value + reach >= _KEY_LIMIT:
        raise UsageError(f"{name} must be <= 2**128 - {reach + 1}, got {value}")
    return value


def _resolve_seed(flag_value, reach: int = 0) -> int:
    if flag_value is not None:
        return _seed(flag_value, "--seed", reach)
    env = os.environ.get("RNLA_SEED", "0")
    try:
        value = int(env)
    except ValueError:
        raise UsageError(f"RNLA_SEED must be an integer, got {env!r}")
    return _seed(value, "RNLA_SEED", reach)


def _parse_sigma(text):
    if text is None:
        return None
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--sigma expects comma-separated reals, got {text!r}")


def _write_aggregate(report: dict, path, stdout: bool) -> None:
    """Aggregate CSV to path (else to stdout if asked), summary line to stderr.

    Both are rendered before anything is written, so a malformed aggregate
    block raises with no partial output.
    """
    text = report_to_csv(report)
    agg = report["aggregate"]
    summary = (f"trials {agg['trials_total']}  ok {agg['trials_ok']}  "
               f"success_rate {agg['success_rate']:.4f}")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    elif stdout:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


def _params(args) -> dict:
    """The flags named in args.params that were given."""
    return {name: getattr(args, name) for name in args.params
            if getattr(args, name) is not None}


def _instance_from_args(args, seed: int) -> dict:
    # The instance seed defaults to the base seed; a generated matmul B uses it + 1.
    iseed, name = ((seed, "the base seed") if args.instance_seed is None
                   else (args.instance_seed, "--instance-seed"))
    generated_b = args.command == "matmul" and not args.inp
    inst: dict = {"seed": _seed(iseed, name, int(generated_b))}
    if getattr(args, "inp", None):
        inst["family"] = "file"
        inst["path"] = args.inp
        if getattr(args, "in_b", None):
            inst["path_b"] = args.in_b
        if "rhs" in args:  # lsq: b comes from a file too
            if not args.rhs:
                raise UsageError("--in requires --rhs for the right-hand side")
            inst["rhs"] = args.rhs
        return inst
    if args.m is None or args.n is None:
        raise UsageError("either --in or both --m and --n are required")
    inst["family"] = args.family
    inst["m"] = args.m
    inst["n"] = args.n
    if getattr(args, "p", None) is not None:
        inst["p"] = args.p
    sigma = _parse_sigma(getattr(args, "sigma", None))
    if sigma is not None:
        inst["sigma"] = sigma
    if getattr(args, "eta", None):
        inst["eta"] = args.eta
    return inst


def cmd_gen(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.family == "consistent_lsq":
        if not args.rhs_out:
            raise UsageError("consistent_lsq requires --rhs-out for b")
        A, b, x_star = gen_lsq_instance(args.m, args.n, seed, consistent=True)
        write_matrix(args.out, A)
        write_vector(args.rhs_out, b)
        if args.sol_out:
            write_vector(args.sol_out, x_star)
    else:
        A = gen_matrix(args.family, args.m, args.n, seed,
                       sigma=_parse_sigma(args.sigma), eta=args.eta)
        write_matrix(args.out, A)
    return 0


def cmd_experiment(args) -> int:
    """Run the subcommand's algorithm; args.params names the flags it copies."""
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    seed = _resolve_seed(args.seed, reach=args.trials - 1)
    report = run_experiment(ExperimentConfig(
        algorithm=args.command,
        instance=_instance_from_args(args, seed),
        params=_params(args),
        trials=args.trials,
        base_seed=seed,
        diagnostics=not args.no_diagnostics,
    ))
    if args.out:
        write_report(args.out, report)
    else:
        sys.stdout.write(dumps_report(report))
    _write_aggregate(report, args.csv, stdout=False)
    return 0


def cmd_check(args) -> int:
    # The lsq and lowrank suites also draw from seed + 1.
    seed = _resolve_seed(args.seed, reach=int(args.suite in ("lsq", "lowrank")))
    t = run_check_suite(args.suite, _params(args), seed)
    status = "PASS" if t.flags.get("success") else "FAIL"
    detail = "  ".join(f"{k}={v:.6g}" for k, v in sorted(t.metrics.items()))
    print(f"check {args.suite} seed {seed}: {status}  {detail}")
    for name, value in sorted(t.flags.items()):
        if name != "success":
            print(f"  {name}: {'pass' if value else 'fail'}")
    return 0 if t.flags.get("success") else 2


def cmd_report(args) -> int:
    try:
        _write_aggregate(load_report(args.path), args.csv, stdout=True)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        # Malformed report files are input errors, not numerical failures.
        raise UsageError(str(e))
    return 0


def _add_common(p, with_out=True):
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (default: RNLA_SEED or 0)")
    if with_out:
        p.add_argument("--trials", type=int, default=10)
        p.add_argument("--instance-seed", type=int, default=None,
                       help="seed for the problem instance (default: base seed)")
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        p.add_argument("--csv", default=None, help="also export aggregate CSV")
        p.add_argument("--no-diagnostics", action="store_true")


def build_parser() -> Parser:
    parser = Parser(prog="rnla", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a test matrix or system")
    p.add_argument("family", choices=list(MATRIX_FAMILIES) + ["consistent_lsq"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", default=None, help="comma-separated singular values")
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--out", required=True,
                   help="output path; .bin/.rnla selects the binary format")
    p.add_argument("--rhs-out", default=None)
    p.add_argument("--sol-out", default=None)
    _add_common(p, with_out=False)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("matmul", help="sampled matrix product experiment")
    p.add_argument("--in", dest="inp", default=None, help="matrix A file")
    p.add_argument("--in-b", dest="in_b", default=None,
                   help="matrix B file (default: A^T)")
    p.add_argument("--family", choices=MATRIX_FAMILIES, default="gaussian")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None, help="columns of B")
    p.add_argument("--sigma", default=None)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--c", type=int, required=True, help="samples to draw")
    p.add_argument("--probs", default="optimal",
                   choices=["optimal", "colnorm", "rownorm", "uniform"])
    _add_common(p)
    p.set_defaults(func=cmd_experiment, params=("c", "probs"))

    p = sub.add_parser("lsq", help="sketched least-squares experiment")
    p.add_argument("--in", dest="inp", default=None, help="matrix A file")
    p.add_argument("--rhs", default=None, help="right-hand side file")
    p.add_argument("--family", choices=["gaussian", "consistent_lsq"],
                   default="gaussian")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--r", type=int, default=None,
                   help="sketch rows (default: theoretical size, refused "
                        "when at least n rounded up to a power of two)")
    _add_common(p)
    p.set_defaults(func=cmd_experiment, params=("eps", "r"))

    p = sub.add_parser("lowrank", help="sketched low-rank experiment")
    p.add_argument("--in", dest="inp", default=None, help="matrix A file")
    p.add_argument("--family", choices=MATRIX_FAMILIES,
                   default="lowrank_plus_noise")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--sigma", default=None)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c", type=int, default=None,
                   help="sketch columns (default: theoretical size, refused "
                        "when at least n rounded up to a power of two)")
    _add_common(p)
    p.set_defaults(func=cmd_experiment, params=("k", "eps", "c"))

    p = sub.add_parser("check", help="run a diagnostic suite once")
    p.add_argument("suite", choices=sorted(CHECK_SUITES))
    sizes = ("n", "r", "m", "d", "k", "c")
    for name in sizes:
        p.add_argument(f"--{name}", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    _add_common(p, with_out=False)
    p.set_defaults(func=cmd_check, params=sizes + ("eps",))

    p = sub.add_parser("report", help="re-render a saved report")
    p.add_argument("path")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"rnla: error: {e}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError, PermissionError) as e:
        name = getattr(e, "filename", None) or e
        print(f"rnla: error: cannot open {name}", file=sys.stderr)
        return 1
    except MatrixFileError as e:
        print(f"rnla: error: {e}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"rnla: error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"rnla: error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
