"""Command-line front end: point evaluations, verification suites, scans.

Exit codes: 0 success, 1 verification failure, 2 argument error, 3 numerical
failure (non-convergence, or a non-finite value).  Output is deterministic:
fixed field order and shortest round-trip float formatting, JSON or CSV, to
stdout or --out.
"""

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import config
from .errors import ContractError, DomainError, EvaluationError, NonConvergenceError
from .kernel import kernel_K, kernel_K_mourou
from .operators import apply_V, apply_Vt, get_test_function, positivity_scan
from .params import Multiplicity
from .specfun import opdam_G
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ARGS = 2
EXIT_NUMERIC = 3


def _jsonable(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, bool) or isinstance(v, (str, int)):
        return v
    return float(v)


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(text: str, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def _split_complex(v):
    v = complex(v)
    return v.real, v.imag


def _record_text(record, fmt) -> str:
    if fmt == "json":
        return _json_text({key: _jsonable(v) for key, v in record.items()})
    header, row = [], []
    for key, v in record.items():
        if isinstance(v, complex):
            header.extend([f"{key}_re", f"{key}_im"])
            row.extend(_split_complex(v))
        else:
            header.append(key)
            row.append(v)
    return _csv_text(header, [row])


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
    _emit(_record_text(record, args.format), args.out)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    fn = kernel_K if args.method == "direct" else kernel_K_mourou
    res = fn(Multiplicity(args.k1, args.k2), args.x, args.y)
    return _emit_point(args, x=args.x, y=args.y, method=args.method,
                       value=res.value, est_error=res.est_error)


def _cmd_opdam(args) -> int:
    value = opdam_G(Multiplicity(args.k1, args.k2), args.lam, args.x)
    return _emit_point(args, lam=args.lam, x=args.x, value=value)


def _cmd_apply(args) -> int:
    # apply-v at --x and apply-vt at --y
    f = get_test_function(args.function)
    at = getattr(args, args.at)
    res = args.op(Multiplicity(args.k1, args.k2), f, at)
    return _emit_point(args, function=f.id, **{args.at: at},
                       value=res.value, est_error=res.est_error)


def _verify_rows_text(rows, fmt) -> str:
    if fmt == "json":
        return _json_text([
            {key: _jsonable(v) for key, v in row.items()} for row in rows
        ])
    header = ["check", "point", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
              "gap", "tol", "pass"]
    table = []
    for row in rows:
        lre, lim = _split_complex(row["lhs"])
        rre, rim = _split_complex(row["rhs"])
        table.append([row["check"], row["point"], lre, lim, rre, rim,
                      row["gap"], row["tol"], row["pass"]])
    return _csv_text(header, table)


def _cmd_verify(args) -> int:
    if args.tol is not None and not args.tol > 0:
        raise DomainError(f"tolerance override must be > 0, got {args.tol}")
    rows = run_suite(args.suite, args.tol)
    _emit(_verify_rows_text(rows, args.format), args.out)
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
    if args.format == "json":
        rows = [dict(zip(point_keys + ("value",), cell)) for cell in report.cells]
        rows.append({
            "min_value": report.min_value,
            "argmin": dict(zip(point_keys, report.argmin)),
            "all_positive": report.all_positive,
        })
        text = _json_text(rows)
    else:
        text = _csv_text(point_keys + ("value",), list(report.cells))
        summary = ["min_value", repr(float(report.min_value)), "argmin"]
        summary += [repr(float(v)) for v in report.argmin]
        text += ",".join(summary) + "\n"
    _emit(text, args.out)
    return EXIT_OK if report.all_positive else EXIT_FAIL


def _add_common(parser, default_format="json"):
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--format", choices=("json", "csv"), default=default_format)


_REQUIRED_FLOAT = {"type": float, "required": True}


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
                       {"--x": _REQUIRED_FLOAT, "--y": _REQUIRED_FLOAT,
                        "--method": {"choices": ("direct", "mourou"), "default": "direct"}},
                       func=_cmd_kernel)
    _add_point_command(sub, "opdam", "evaluate the deformed exponential eigenfunction",
                       {"--lam": _REQUIRED_FLOAT, "--x": _REQUIRED_FLOAT}, func=_cmd_opdam)
    _add_point_command(sub, "apply-v", "apply the intertwining operator",
                       {"--function": {"required": True, "help": "registry id, e.g. "
                                       "plane_wave:1.5, monomial:2, gaussian, bump:2"},
                        "--x": _REQUIRED_FLOAT}, func=_cmd_apply, op=apply_V, at="x")
    _add_point_command(sub, "apply-vt", "apply the dual operator (needs compact support)",
                       {"--function": {"required": True,
                                       "help": "registry id with support, e.g. bump:2"},
                        "--y": _REQUIRED_FLOAT}, func=_cmd_apply, op=apply_Vt, at="y")

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


if __name__ == "__main__":
    sys.exit(main())
