"""Command line front end: analyze | bound | verify | dim1.

Input files are JSON documents with a "generators" array of integer
arrays; unknown fields are ignored with a warning.  Output is JSON by
default (sorted keys, so byte-identical across runs) or, for analyze and
verify, a plain table via --format table.  A command refuses a flag it
does not read.

Exit codes: 0 success, 1 invalid input or flags, 2 input not pointed,
3 gamma search budget exhausted, 4 verify found bound violations, 141
the reader closed standard output (as after `| head`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import BudgetExhaustedError, EmptyInputError, NotPointedError
from .intlinalg import MILLER_RABIN_LIMIT, is_prime
from .semigroups import (
    MAX_WINDOW_DEGREES, AffineSemigroup, all_facet_data, build, check_window, find_gamma, n_q,
    theoretical_bound,
)

REPORT_PRIMES = (2, 3, 5, 7, 11, 13)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 means "not pointed" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class InputError(ValueError):
    pass


EXIT_CODES = {
    InputError: 1,
    EmptyInputError: 1,
    NotPointedError: 2,
    BudgetExhaustedError: 3,
}
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a closed pipe


def check_prime(p: int) -> None:
    """Reject a --prime that is not prime, or too large to be proven prime."""
    if p >= MILLER_RABIN_LIMIT:
        raise InputError(
            f"--prime {p} is at or above {MILLER_RABIN_LIMIT}, where the primality"
            " test is not proven deterministic"
        )
    if not is_prime(p):
        raise InputError(f"{p} is not prime")


def load_input(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"{path} nests arrays or objects too deeply") from None
    if not isinstance(doc, dict) or "generators" not in doc:
        raise InputError("input document needs a 'generators' array")
    gens = doc["generators"]
    if (
        not isinstance(gens, list)
        or not gens
        or not all(
            isinstance(v, list)
            and v
            # JSON true/false load as bool, a subclass of int
            and all(isinstance(e, int) and not isinstance(e, bool) for e in v)
            for v in gens
        )
    ):
        raise InputError("'generators' must be a nonempty array of integer arrays")
    if len({len(v) for v in gens}) != 1:
        raise InputError("generator vectors must share one dimension")
    for key in sorted(doc):
        if key not in ("generators", "labels"):
            print(f"warning: ignoring field {key!r}", file=sys.stderr)
    return [tuple(v) for v in gens]


def analysis_report(S: AffineSemigroup, cert, facets) -> dict:
    nq = n_q(S, facets)
    bounds = {
        str(p): theoretical_bound(cert, nq, p) for p in REPORT_PRIMES
    }
    return {
        "ambient_dim": len(S.raw_generators[0]),
        "rank": S.dim,
        "pointed": True,
        "lattice_basis": [list(b) for b in S.lattice_basis],
        "generators": [list(g) for g in S.generators],
        "support_forms": [list(u) for u in S.support_forms],
        "grading": list(S.grading),
        "extreme_rays": [list(r) for r in S.cone.extreme_rays],
        "gamma": list(cert.gamma),
        "facet_values": list(cert.facet_values),
        "m_q": cert.m_q,
        "min_facet_value_uncertified": cert.min_facet_value,
        "saturated": cert.m_q == 0,
        "facets": [
            {
                "index": fd.index,
                "support_form": list(fd.support_form),
                "generators": [list(g) for g in fd.facet_gens],
                "invariant_factors": list(fd.invariant_factors),
                "interior_element": list(fd.interior_element),
            }
            for fd in facets
        ],
        "n_q": nq,
        "bounds": bounds,
    }


def _render_table(doc: dict, out) -> None:
    def emit(key, value):
        print(f"{key:28} {value}", file=out)

    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{key}:", file=out)
            for item in value:
                inner = ", ".join(f"{k}={item[k]}" for k in sorted(item))
                print(f"    {inner}", file=out)
        elif isinstance(value, dict):
            print(f"{key}:", file=out)
            for k in sorted(value):
                print(f"    {k:24} {value[k]}", file=out)
        else:
            emit(key, value)


def emit_report(doc: dict, fmt: str) -> None:
    if fmt == "table":
        _render_table(doc, sys.stdout)
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))


def _pipeline(args):
    gens = load_input(args.input)
    S = build(gens)
    cert = find_gamma(S, budget=args.budget)
    facets = all_facet_data(S)
    return S, cert, facets


def cmd_analyze(args) -> int:
    S, cert, facets = _pipeline(args)
    emit_report(analysis_report(S, cert, facets), args.format)
    return 0


def cmd_bound(args) -> int:
    check_prime(args.prime)
    S, cert, facets = _pipeline(args)
    nq = n_q(S, facets)
    bound = theoretical_bound(cert, nq, args.prime)
    if bound is None:
        print(f"no guarantee: p <= N_Q = {nq}")
    else:
        print(bound)
    return 0


def cmd_verify(args) -> int:
    from .cohomology import empirical_hsl  # loaded only by the commands that sweep

    check_prime(args.prime)
    if args.window < 1:
        raise InputError("--window must be at least 1")
    for flag, value in (("--emax", args.emax), ("--cap", args.cap)):
        if value is not None and value < 0:
            raise InputError(f"{flag} must be nonnegative")
    S = build(load_input(args.input))
    try:
        check_window(args.window, S.dim)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    cert = find_gamma(S, budget=args.budget)
    report = empirical_hsl(S, cert, all_facet_data(S), args.prime, args.window, args.emax, args.cap)
    emit_report(report.as_dict(), args.format)
    return 4 if report.violations else 0


def cmd_dim1(args) -> int:
    from .cohomology import hsl_exact_dim1

    check_prime(args.prime)
    S = build(load_input(args.input))
    if S.dim != 1:
        raise InputError(f"input has rank {S.dim}, not 1")
    print(hsl_exact_dim1(S, args.prime))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each subcommand's
    handler is its `run` default."""
    parser = _Parser(prog="hslbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="geometry, gamma, m_Q, N_Q")
    bound = sub.add_parser("bound", help="nilpotence bound for one prime")
    verify = sub.add_parser("verify", help="window sweep against the bound")
    dim1 = sub.add_parser("dim1", help="exact answer for rank-1 input")
    for p, run in ((analyze, cmd_analyze), (bound, cmd_bound), (verify, cmd_verify), (dim1, cmd_dim1)):
        p.set_defaults(run=run)
        p.add_argument("--input", required=True, help="JSON input file")
    for p in (bound, verify, dim1):
        p.add_argument("--prime", type=int, required=True)
    for p in (analyze, bound, verify):
        p.add_argument("--budget", type=int, default=10000, help="gamma candidates to test (>= 1)")
    for p in (analyze, verify):
        p.add_argument("--format", choices=("json", "table"), default="json")
    verify.add_argument(
        "--window",
        type=int,
        default=10,
        help=f"degree box radius; (2*window+1)^rank may be at most {MAX_WINDOW_DEGREES}",
    )
    verify.add_argument("--emax", type=int, default=None, help="largest Frobenius power (>= 0)")
    verify.add_argument("--cap", type=int, default=None, help="witness search cap (>= 0)")
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            if "budget" in args and args.budget < 1:
                raise InputError("--budget must be at least 1")
            code = args.run(args)
        except SystemExit as exc:
            code = int(exc.code or 0)
        except tuple(EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = next(c for cls, c in EXIT_CODES.items() if isinstance(exc, cls))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit does not raise a second BrokenPipeError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
