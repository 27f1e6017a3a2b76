"""Command-line front end: point evaluations, verification suites, scans.

Exit codes: 0 success, 1 verification failure, 2 argument error (also a
report that cannot be written, as to an --out path in a missing directory),
3 numerical failure (non-convergence, or a non-finite value).  Output is
deterministic: fixed field order and shortest round-trip float formatting,
JSON or CSV, to stdout or --out.  Each report is a list of records (a point
command's is one record).  JSON has one record per line, a list ``[`` and
``]`` on lines of their own, written by json's C encoder.  CSV columns
follow the record's keys, a complex value as a ``_re``, ``_im`` pair, and
``verify`` CSV always has ``lhs`` and ``rhs`` as such pairs; csv writes the
cells, a float as its repr.
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from . import config
from .errors import ContractError, DomainError, EvaluationError, NonConvergenceError
from .kernel import kernel_K, kernel_K_mourou
from .operators import apply_V, apply_Vt, get_test_function, positivity_scan
from .params import Multiplicity
from .specfun import _opdam_G
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ARGS = 2
EXIT_NUMERIC = 3


def _complex_json(v):
    """The JSON encoder's hook: a complex value as {"re", "im"}; any other type raises."""
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


_json = json.JSONEncoder(default=_complex_json).encode     # json's C encoder: no indent


def _csv_cells(record):
    """A record's CSV cells: a complex value as its real and imaginary parts, a bool as
    true or false; csv writes the rest, a float as its repr."""
    cells = []
    for v in record.values():
        if isinstance(v, complex):      # numpy's complex parts would print as np.float64(..)
            cells += (float(v.real), float(v.imag))
        elif isinstance(v, bool):
            cells.append("true" if v else "false")
        else:
            cells.append(v)
    return cells


def _text(records, fmt) -> str:
    """One record (a dict) as one line of JSON, a list of them as a JSON array with one
    record a line; or as CSV under the first record's columns."""
    if fmt == "json":
        if isinstance(records, dict):
            return _json(records) + "\n"
        return "[\n" + ",\n".join(map(_json, records)) + "\n]\n"
    records = [records] if isinstance(records, dict) else records
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(f"{key}{part}" for key, v in records[0].items()
                    for part in (("_re", "_im") if isinstance(v, complex) else ("",)))
    writer.writerows(map(_csv_cells, records))
    return buf.getvalue()


def _emit(text: str, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"range must be lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"bad range {text!r}: {exc}") from None
    if count < 1:
        raise DomainError(f"range count must be >= 1, got {count}")
    if lo > hi:
        raise DomainError(f"range needs lo <= hi, got {text!r}")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _emit_point(args, **fields) -> int:
    """Emit one evaluation's record: k1, k2, then ``fields`` in order."""
    record = {"k1": args.k1, "k2": args.k2, **fields}
    _emit(_text(record, args.format), args.out)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    fn = kernel_K if args.method == "direct" else kernel_K_mourou
    res = fn(Multiplicity(args.k1, args.k2), args.x, args.y)
    return _emit_point(args, x=args.x, y=args.y, method=args.method,
                       value=res.value, est_error=res.est_error)


def _cmd_opdam(args) -> int:
    value, bar, method, terms = _opdam_G(Multiplicity(args.k1, args.k2), args.lam, args.x)
    return _emit_point(args, lam=args.lam, x=args.x, value=value, est_error=bar,
                       method=method, terms=terms)


def _cmd_apply(args) -> int:
    # apply-v at --x and apply-vt at --y
    f = get_test_function(args.function)
    at = getattr(args, args.at)
    res = args.op(Multiplicity(args.k1, args.k2), f, at)
    return _emit_point(args, function=f.id, **{args.at: at},
                       value=res.value, est_error=res.est_error)


def _cmd_verify(args) -> int:
    if args.tol is not None and not 0 < args.tol < math.inf:
        raise DomainError(f"tolerance override must be finite and > 0, got {args.tol}")
    rows = run_suite(args.suite, args.tol)
    if args.format == "csv":    # lhs, rhs as column pairs on every row, also the real ones
        rows = [{**row, "lhs": complex(row["lhs"]), "rhs": complex(row["rhs"])} for row in rows]
    _emit(_text(rows, args.format), args.out)
    failed = sum(1 for row in rows if not row["pass"])
    if failed:
        print(f"verify: {failed} of {len(rows)} checks failed", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_scan(args) -> int:
    k1s = _parse_range(args.k1_range) if args.k1_range else list(config.K_VALUES)
    k2s = _parse_range(args.k2_range) if args.k2_range else list(config.K_VALUES)
    xs = _parse_range(args.x_range) if args.x_range else list(config.POSITIVITY_X)
    fracs = (_parse_range(args.yfrac_range) if args.yfrac_range
             else list(config.POSITIVITY_FRACS))
    k_grid = [(k1, k2) for k1 in k1s for k2 in k2s]
    report = positivity_scan(k_grid, xs, fracs)
    point_keys = ("k1", "k2", "x", "y")
    rows = [dict(zip(point_keys + ("value",), cell)) for cell in report.cells]
    if args.format == "json":
        text = _text(rows + [{"min_value": report.min_value,
                              "argmin": dict(zip(point_keys, report.argmin)),
                              "all_positive": report.all_positive}], "json")
    else:
        low = [repr(float(v)) for v in (report.min_value, *report.argmin)]
        text = _text(rows, "csv") + ",".join(["min_value", low[0], "argmin", *low[1:]]) + "\n"
    _emit(text, args.out)
    return EXIT_OK if report.all_positive else EXIT_FAIL


def _add_common(parser, default_format="json"):
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--format", choices=("json", "csv"), default=default_format)


_REQUIRED_FLOAT = {"type": float, "required": True}
# argparse takes only plain negative decimals for numbers, so -1e-200 reads as an option
_POINT = {**_REQUIRED_FLOAT, "help": "a negative value in exponent notation needs the = form, "
                                     "as in --%(dest)s=-1e-200"}


def _add_point_command(sub, name, text, options, **defaults):
    """A point subcommand: --k1, --k2, ``options`` ({flag: keywords}), --out, --format."""
    p = sub.add_parser(name, help=text)
    for flag, keywords in {"--k1": _REQUIRED_FLOAT, "--k2": _REQUIRED_FLOAT, **options}.items():
        p.add_argument(flag, **keywords)
    _add_common(p)
    p.set_defaults(**defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigdunkl",
        description="Evaluate and verify the trigonometric intertwining kernel machinery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_point_command(sub, "kernel", "evaluate the kernel at one point",
                       {"--x": _POINT, "--y": _POINT,
                        "--method": {"choices": ("direct", "mourou"), "default": "direct"}},
                       func=_cmd_kernel)
    _add_point_command(sub, "opdam", "evaluate the deformed exponential eigenfunction",
                       {"--lam": _REQUIRED_FLOAT, "--x": _POINT}, func=_cmd_opdam)
    _add_point_command(sub, "apply-v", "apply the intertwining operator",
                       {"--function": {"required": True, "help": "registry id, e.g. "
                                       "plane_wave:1.5, monomial:2, gaussian, bump:2"},
                        "--x": _POINT}, func=_cmd_apply, op=apply_V, at="x")
    _add_point_command(sub, "apply-vt", "apply the dual operator (needs compact support)",
                       {"--function": {"required": True,
                                       "help": "registry id with support, e.g. bump:2"},
                        "--y": _POINT}, func=_cmd_apply, op=apply_Vt, at="y")

    p = sub.add_parser("verify", help="run a verification suite over the built-in grids")
    p.add_argument("--suite", choices=("all",) + tuple(sorted(SUITES)), default="all")
    p.add_argument("--tol", type=float, default=None,
                   help="replace the suite's default tolerance")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="positivity scan over a parameter grid")
    p.add_argument("--k1-range", default=None, help="lo:hi:count (default built-in grid)")
    p.add_argument("--k2-range", default=None, help="lo:hi:count")
    p.add_argument("--x-range", default=None, help="lo:hi:count")
    p.add_argument("--yfrac-range", default=None,
                   help="lo:hi:count with |fraction| < 1; write "
                        "--yfrac-range=-0.99:0.99:9 for negative lo")
    _add_common(p, default_format="csv")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except (NonConvergenceError, EvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:      # the only I/O is writing the report
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
