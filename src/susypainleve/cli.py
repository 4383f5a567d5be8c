"""Command-line front end: sample, verify, chain, catalog, defaults.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 numeric
degeneracy.  Output is deterministic: floats are printed with 17 significant
digits in a fixed row order, so identical configurations produce
byte-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import Sequence

from . import config
from .backlund import bt_piv_chain, bt_pv_catalog, check_catalog_row
from .hyp1f1 import KummerError
from .jets import on_grid
from .oscillator import Parity, SeedSpec
from .painleve import (
    DegenerateClosedFormError,
    PIV_FAMILY_NAMES,
    PV_CLOSED_NAMES,
    PV_DERIVED_H1_NAMES,
    PV_DERIVED_H2_NAMES,
    PV_RATIONAL_NAMES,
    family_solution,
)
from .residual import GridDegenerateError, verify_on_grid

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
GRID_MAX_POINTS = 100_000  # a --grid of more points is refused when parsed

ALL_FAMILIES = (
    PIV_FAMILY_NAMES + PV_CLOSED_NAMES + PV_DERIVED_H1_NAMES + PV_DERIVED_H2_NAMES
    + PV_RATIONAL_NAMES
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:n, got {text!r}") from None
    if not (0 < lo < hi <= config.Z_MAX) or not 20 <= n <= GRID_MAX_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid needs 0 < lo < hi <= {config.Z_MAX:g} and 20 <= n <= {GRID_MAX_POINTS}"
        )
    return lo, hi, n


def _parse_number(name: str, positive: bool = False):
    """An argparse type: a finite float, and > 0 when `positive` (as --tol must be)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{name} must be finite, got {text!r}")
        if positive and value <= 0.0:
            raise argparse.ArgumentTypeError(f"{name} must be positive, got {text!r}")
        return value

    return parse


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:  # a missing directory, a directory, no permission
        raise UsageError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None


def _solution(args: argparse.Namespace):
    sol = family_solution(args.family, args.epsilon, args.parity)
    if args.corrupt_b:
        # Negative control for CI: a corrupted parameter must fail verification.
        sol = replace(sol, b=sol.b + 0.1, provenance=sol.provenance + " corrupt-b")
    return sol


def _grid_for(args: argparse.Namespace, sol) -> list[float]:
    return sol.default_grid() if args.grid is None else config.linear_grid(*args.grid)


def _config_json(args: argparse.Namespace) -> dict:
    return {
        "command": args.command,
        "family": args.family,
        "epsilon": args.epsilon,
        "parity": args.parity.value if args.parity else None,
        "grid": list(args.grid) if args.grid else None,
        "tol": args.tol,
        "format": args.fmt,
    }


def _emit_json(args: argparse.Namespace, **body) -> None:
    """Write the versioned JSON document of sample, verify, chain and catalog."""
    doc = {"schema_version": SCHEMA_VERSION, "config": _config_json(args), **body}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)


def cmd_sample(args: argparse.Namespace) -> int:
    sol = _solution(args)
    grid = _grid_for(args, sol)
    jet = on_grid(sol.state, grid, 1)
    rows = [
        (t, float("nan"), float("nan"), 1) if m else (t, v, dv, 0)
        for t, m, v, dv in zip(grid, jet.mask.tolist(), jet.d[0].tolist(), jet.d[1].tolist())
    ]
    if jet.mask.all():
        print("error: every grid point is pole-guarded", file=sys.stderr)
        return EXIT_DEGENERATE

    if args.fmt == "csv":
        header = "# family=%s %s provenance=%s\n" % (
            args.family,
            " ".join(f"{k}={_fmt(v)}" for k, v in sol.params.items()),
            sol.provenance,
        )
        lines = [header, f"{sol.variable},value,deriv1,pole_flag\n"]
        for t, v, dv, flag in rows:
            lines.append(f"{_fmt(t)},{_fmt(v)},{_fmt(dv)},{flag}\n")
        _emit("".join(lines), args.out)
    else:
        _emit_json(
            args,
            parameters=sol.params,
            provenance=sol.provenance,
            points=[
                {"t": t, "value": _json_num(v), "deriv1": _json_num(dv), "pole": bool(flag)}
                for t, v, dv, flag in rows
            ],
        )
    return EXIT_OK


def _json_num(v: float):
    """nan (a guarded point) serializes as null to keep the JSON strict."""
    return None if math.isnan(v) else v


def cmd_verify(args: argparse.Namespace) -> int:
    sol = _solution(args)
    try:
        report = verify_on_grid(sol.kind, sol, grid=_grid_for(args, sol), tol=args.tol)
    except GridDegenerateError as exc:
        _emit_json(args, parameters=sol.params,
                   report={"degenerate": True, "detail": str(exc)})
        return EXIT_DEGENERATE
    _emit_json(
        args,
        parameters=sol.params,
        points=[
            {"t": t, "rel_residual": _json_num(r)}
            for t, r in zip(report.grid, report.rel_residuals)
        ],
        report=report.to_dict(),
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_chain(args: argparse.Namespace) -> int:
    seed = SeedSpec(args.epsilon, args.parity)
    grid = config.linear_grid(*args.grid) if args.grid else None
    links = bt_piv_chain(seed, grid=grid, tol=args.tol)
    rows = []
    for link in links:
        rows.append({
            "source": link.source,
            "target": link.target,
            "branches": list(link.branches),
            "pass": link.passed,
            "degenerate": link.degenerate,
            "max_deviation": link.max_deviation,
            "predicted_params": list(link.predicted) if link.predicted else None,
            "target_params": list(link.target_params) if link.target_params else None,
            "inferred_params": list(link.inferred) if link.inferred else None,
            "notes": link.notes,
        })
    _emit_json(args, links=rows)
    return _exit_code(rows, any(not r["pass"] and not r["degenerate"] for r in rows))


def cmd_catalog(args: argparse.Namespace) -> int:
    entries = bt_pv_catalog(args.epsilon)
    grid = config.linear_grid(*args.grid) if args.grid else None
    rows = []
    hard_fail = False
    for entry in entries:
        row = {
            "source": entry.row.source,
            "target": entry.row.target,
            "k": list(entry.row.k),
            "window": entry.row.window.describe(),
            "applicable": entry.applicable,
            "boundary": entry.boundary,
        }
        if entry.applicable and args.parity is not None:
            res = check_catalog_row(entry.row, args.epsilon, args.parity, grid=grid,
                                    tol=max(args.tol, 1e-7))
            row["pass"] = res.passed
            row["degenerate"] = res.degenerate
            row["max_deviation"] = res.max_deviation
            row["tol"] = res.tol
            row["certificate_tol"] = res.certificate_tol
            row["notes"] = res.notes
            if not res.passed and not res.degenerate and not entry.boundary:
                hard_fail = True
        rows.append(row)
    _emit_json(args, rows=rows)
    return _exit_code([row for row in rows if "pass" in row], hard_fail)


def _exit_code(checked: list[dict], hard_fail: bool) -> int:
    """1 on a hard failure, else 3 when every checked link or row is degenerate, else 0."""
    if hard_fail:
        return EXIT_VERIFY_FAIL
    if checked and all(row["degenerate"] for row in checked):
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_defaults(args: argparse.Namespace) -> int:
    doc = {"schema_version": SCHEMA_VERSION, "defaults": config.defaults_dict()}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="susy-painleve",
        description="Generate and certify Painleve IV/V solutions built by SUSY "
        "transformations of the truncated oscillator.",
    )
    # Fields some command reads but not every subparser declares; the options a
    # subparser declares take their defaults from it.
    p.set_defaults(family=None, family_pos=None, parity=None, corrupt_b=False,
                   check=lambda args: None)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, family=False, formats=("json",)):
        sp.add_argument("--epsilon", "--epsilon1", dest="epsilon",
                        type=_parse_number("epsilon"),
                        help="factorization energy (eps or eps1, family-dependent)")
        sp.add_argument("--parity", choices=["odd", "even"])
        if family:
            sp.add_argument("--family", required=False, help=f"one of {', '.join(ALL_FAMILIES)}")
        sp.add_argument("--grid", type=_parse_grid,
                        help=f"lo:hi:n (20 <= n <= {GRID_MAX_POINTS}; "
                             f"hi <= {config.X_MAX:g} for x, <= {config.Z_MAX:g} for z)")
        sp.add_argument("--tol", type=_parse_number("tol", positive=True),
                        default=config.DEFAULT_TOLERANCE, help="pass threshold, finite and positive")
        sp.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("sample", help="tabulate a solution family member")
    sp.add_argument("family_pos", nargs="?", help="family selector (or use --family)")
    add_common(sp, family=True, formats=("csv", "json"))
    sp.set_defaults(run=cmd_sample, check=_require_family)

    sp = sub.add_parser("verify", help="residual-verify a family member")
    sp.add_argument("family_pos", nargs="?")
    add_common(sp, family=True)
    sp.add_argument("--corrupt-b", action="store_true",
                    help="negative control: corrupt b before verifying")
    sp.set_defaults(run=cmd_verify, check=_require_family)

    sp = sub.add_parser("chain", help="run the five-link PIV Backlund chain")
    add_common(sp)
    sp.set_defaults(run=cmd_chain, check=_require_seed)

    sp = sub.add_parser("catalog", help="evaluate the PV Backlund catalog at epsilon")
    add_common(sp)
    sp.set_defaults(run=cmd_catalog, check=_require_epsilon)

    sp = sub.add_parser("defaults", help="print the centralized numeric defaults")
    sp.add_argument("--out")
    sp.set_defaults(run=cmd_defaults)

    return p


def _join_epsilon(argv: Sequence[str]) -> list[str]:
    """Write `--epsilon X` as `--epsilon=X` when X reads as a float.

    argparse takes a separate token such as -2.5e0 for an option (its
    negative-number pattern has no exponent), so the joined form keeps every
    float spelling an argument.
    """
    out: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        out.append(tok)
        if tok in ("--epsilon", "--epsilon1"):
            value = next(tokens, None)
            if value is None:
                break
            try:
                float(value)
            except ValueError:
                out.append(value)
            else:
                out[-1] = f"{tok}={value}"
    return out


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(_join_epsilon(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args.family = args.family_pos or args.family
    args.parity = Parity(args.parity) if args.parity else None

    try:
        args.check(args)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KummerError as exc:
        # an eps outside the seed's domain, refused when a family or a seed is built
        print(f"error: --epsilon {args.epsilon!r} is out of range: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GridDegenerateError, DegenerateClosedFormError) as exc:
        print(f"error: degenerate configuration: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


class UsageError(ValueError):
    pass


def _require_family(args: argparse.Namespace) -> None:
    if not args.family:
        raise UsageError("a family selector is required")
    if args.family not in ALL_FAMILIES:
        raise UsageError(f"unknown family {args.family!r}")
    if args.family not in PV_RATIONAL_NAMES:
        if args.epsilon is None or args.parity is None:
            raise UsageError(f"family {args.family!r} needs --epsilon and --parity")
    if args.family in PIV_FAMILY_NAMES:
        _require_x_grid(args)


def _require_seed(args: argparse.Namespace) -> None:
    if args.epsilon is None or args.parity is None:
        raise UsageError("chain needs --epsilon and --parity")
    _require_x_grid(args)


def _require_epsilon(args: argparse.Namespace) -> None:
    if args.epsilon is None:
        raise UsageError("catalog needs --epsilon")


def _require_x_grid(args: argparse.Namespace) -> None:
    """PIV grids run over x <= X_MAX; every grid stops at z = Z_MAX when parsed."""
    if args.grid is not None and args.grid[1] > config.X_MAX:
        raise UsageError(f"grid reaches x = {args.grid[1]:g}, beyond the domain x <= {config.X_MAX:g}")


if __name__ == "__main__":
    raise SystemExit(main())
