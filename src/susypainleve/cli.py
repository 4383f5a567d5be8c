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
from dataclasses import dataclass
from typing import Sequence

from . import config
from .backlund import bt_piv_chain, bt_pv_catalog, check_catalog_row
from .hyp1f1 import KummerError
from .jets import JetError, on_grid
from .oscillator import Parity, SeedSpec
from .painleve import (
    DegenerateClosedFormError,
    PIV_FAMILY_NAMES,
    PV_CLOSED_NAMES,
    PV_DERIVED_H1_NAMES,
    PV_DERIVED_H2_NAMES,
    PV_RATIONAL_NAMES,
    PIVSolution,
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


@dataclass
class RunConfig:
    command: str
    family: str | None = None
    epsilon: float | None = None
    parity: Parity | None = None
    grid: tuple[float, float, int] | None = None
    tol: float = config.DEFAULT_TOLERANCE
    fmt: str = "csv"
    out: str | None = None
    corrupt_b: bool = False

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "family": self.family,
            "epsilon": self.epsilon,
            "parity": self.parity.value if self.parity else None,
            "grid": list(self.grid) if self.grid else None,
            "tol": self.tol,
            "format": self.fmt,
        }


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


def _solution(cfg: RunConfig):
    sol = family_solution(cfg.family, cfg.epsilon, cfg.parity)
    if cfg.corrupt_b:
        # Negative control for CI: a corrupted parameter must fail verification.
        if isinstance(sol, PIVSolution):
            sol = PIVSolution(sol.g, sol.a, sol.b + 0.1, sol.provenance + " corrupt-b")
        else:
            sol = type(sol)(sol.w, sol.a, sol.b + 0.1, sol.c, sol.d, sol.provenance + " corrupt-b")
    return sol


def _grid_for(cfg: RunConfig, sol) -> list[float]:
    if cfg.grid is not None:
        return config.linear_grid(*cfg.grid)
    if isinstance(sol, PIVSolution):
        return config.default_x_grid()
    return config.default_z_grid()


def _emit_json(cfg: RunConfig, **body) -> None:
    """Write the versioned JSON document of sample, verify, chain and catalog."""
    doc = {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(), **body}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.out)


def _params_dict(sol) -> dict:
    if isinstance(sol, PIVSolution):
        return {"a": sol.a, "b": sol.b}
    return {"a": sol.a, "b": sol.b, "c": sol.c, "d": sol.d}


def cmd_sample(cfg: RunConfig) -> int:
    sol = _solution(cfg)
    grid = _grid_for(cfg, sol)
    fn = sol.g if isinstance(sol, PIVSolution) else sol.w
    jet = on_grid(fn, grid, 1)
    rows = [
        (t, float("nan"), float("nan"), 1) if m else (t, v, dv, 0)
        for t, m, v, dv in zip(grid, jet.mask.tolist(), jet.d[0].tolist(), jet.d[1].tolist())
    ]
    if jet.mask.all():
        print("error: every grid point is pole-guarded", file=sys.stderr)
        return EXIT_DEGENERATE

    params = _params_dict(sol)
    if cfg.fmt == "csv":
        header = "# family=%s %s provenance=%s\n" % (
            cfg.family,
            " ".join(f"{k}={_fmt(v)}" for k, v in params.items()),
            sol.provenance,
        )
        var = "x" if isinstance(sol, PIVSolution) else "z"
        lines = [header, f"{var},value,deriv1,pole_flag\n"]
        for t, v, dv, flag in rows:
            lines.append(f"{_fmt(t)},{_fmt(v)},{_fmt(dv)},{flag}\n")
        _emit("".join(lines), cfg.out)
    else:
        _emit_json(
            cfg,
            parameters=params,
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


def cmd_verify(cfg: RunConfig) -> int:
    sol = _solution(cfg)
    kind = "piv" if isinstance(sol, PIVSolution) else "pv"
    grid = _grid_for(cfg, sol)
    try:
        report = verify_on_grid(kind, sol, grid=grid, tol=cfg.tol)
    except GridDegenerateError as exc:
        _emit_json(cfg, parameters=_params_dict(sol),
                   report={"degenerate": True, "detail": str(exc)})
        return EXIT_DEGENERATE
    _emit_json(
        cfg,
        parameters=_params_dict(sol),
        points=[
            {"t": t, "rel_residual": _json_num(r)}
            for t, r in zip(report.grid, report.rel_residuals)
        ],
        report=report.to_dict(),
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_chain(cfg: RunConfig) -> int:
    seed = SeedSpec(cfg.epsilon, cfg.parity)
    grid = config.linear_grid(*cfg.grid) if cfg.grid else None
    links = bt_piv_chain(seed, grid=grid, tol=cfg.tol)
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
    _emit_json(cfg, links=rows)
    hard_fail = any(not r["pass"] and not r["degenerate"] for r in rows)
    return EXIT_VERIFY_FAIL if hard_fail else EXIT_OK


def cmd_catalog(cfg: RunConfig) -> int:
    entries = bt_pv_catalog(cfg.epsilon)
    grid = config.linear_grid(*cfg.grid) if cfg.grid else None
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
        if entry.applicable and cfg.parity is not None:
            try:
                res = check_catalog_row(entry.row, cfg.epsilon, cfg.parity, grid=grid,
                                        tol=max(cfg.tol, 1e-7))
                row["pass"] = res.passed
                row["degenerate"] = res.degenerate
                row["max_deviation"] = res.max_deviation
                row["tol"] = res.tol
                row["certificate_tol"] = res.certificate_tol
                row["notes"] = res.notes
                if not res.passed and not res.degenerate and not entry.boundary:
                    hard_fail = True
            except (GridDegenerateError, JetError) as exc:
                row["pass"] = False
                row["degenerate"] = True
                row["detail"] = str(exc)
        rows.append(row)
    _emit_json(cfg, rows=rows)
    return EXIT_VERIFY_FAIL if hard_fail else EXIT_OK


def cmd_defaults(cfg: RunConfig) -> int:
    doc = {"schema_version": SCHEMA_VERSION, "defaults": config.defaults_dict()}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="susy-painleve",
        description="Generate and certify Painleve IV/V solutions built by SUSY "
        "transformations of the truncated oscillator.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, family=False):
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
        sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("sample", help="tabulate a solution family member")
    sp.add_argument("family_pos", nargs="?", help="family selector (or use --family)")
    add_common(sp, family=True)

    sp = sub.add_parser("verify", help="residual-verify a family member")
    sp.add_argument("family_pos", nargs="?")
    add_common(sp, family=True)
    sp.add_argument("--corrupt-b", action="store_true",
                    help="negative control: corrupt b before verifying")

    sp = sub.add_parser("chain", help="run the five-link PIV Backlund chain")
    add_common(sp)

    sp = sub.add_parser("catalog", help="evaluate the PV Backlund catalog at epsilon")
    add_common(sp)

    sp = sub.add_parser("defaults", help="print the centralized numeric defaults")
    sp.add_argument("--out")

    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    family = getattr(args, "family_pos", None) or getattr(args, "family", None)
    parity = Parity(args.parity) if getattr(args, "parity", None) else None
    return RunConfig(
        command=args.command,
        family=family,
        epsilon=getattr(args, "epsilon", None),
        parity=parity,
        grid=getattr(args, "grid", None),
        tol=getattr(args, "tol", config.DEFAULT_TOLERANCE),
        fmt=getattr(args, "fmt", "csv"),
        out=getattr(args, "out", None),
        corrupt_b=getattr(args, "corrupt_b", False),
    )


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
    parser = build_parser()
    try:
        args = parser.parse_args(_join_epsilon(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    cfg = _config_from_args(args)

    try:
        if cfg.command == "defaults":
            return cmd_defaults(cfg)
        if cfg.command == "sample":
            _require_family(cfg)
            return cmd_sample(cfg)
        if cfg.command == "verify":
            _require_family(cfg)
            return cmd_verify(cfg)
        if cfg.command == "chain":
            _require_seed(cfg)
            return cmd_chain(cfg)
        if cfg.command == "catalog":
            _require_epsilon(cfg)
            return cmd_catalog(cfg)
        print(f"error: unknown command {cfg.command!r}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KummerError as exc:
        # A finite but huge |epsilon| puts the Kummer series past its term budget.
        print(f"error: outside the Kummer series' working range: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GridDegenerateError, DegenerateClosedFormError) as exc:
        print(f"error: degenerate configuration: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


class UsageError(ValueError):
    pass


def _require_family(cfg: RunConfig) -> None:
    if not cfg.family:
        raise UsageError("a family selector is required")
    if cfg.family not in ALL_FAMILIES:
        raise UsageError(f"unknown family {cfg.family!r}")
    if cfg.family not in PV_RATIONAL_NAMES:
        if cfg.epsilon is None or cfg.parity is None:
            raise UsageError(f"family {cfg.family!r} needs --epsilon and --parity")
    if cfg.family in PIV_FAMILY_NAMES:
        _require_x_grid(cfg)


def _require_seed(cfg: RunConfig) -> None:
    if cfg.epsilon is None or cfg.parity is None:
        raise UsageError("chain needs --epsilon and --parity")
    _require_x_grid(cfg)


def _require_epsilon(cfg: RunConfig) -> None:
    if cfg.epsilon is None:
        raise UsageError("catalog needs --epsilon")


def _require_x_grid(cfg: RunConfig) -> None:
    """PIV grids run over x <= X_MAX; every grid stops at z = Z_MAX when parsed."""
    if cfg.grid is not None and cfg.grid[1] > config.X_MAX:
        raise UsageError(f"grid reaches x = {cfg.grid[1]:g}, beyond the domain x <= {config.X_MAX:g}")


if __name__ == "__main__":
    raise SystemExit(main())
