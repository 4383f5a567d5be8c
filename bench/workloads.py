"""Seeded inputs, operations and outcome classification for the benchmark.

An operation (op) is one user-visible certification: build a solution object
and certify it, check one catalog row, run one Backlund chain, or run one CLI
process.  Inputs come only from the workload seed; the grids and the catalog
windows are written out here rather than read from the package, so the same
seed gives the same inputs on every commit.

Each workload is an endless stream of blocks.  A block holds every op kind
of the workload once, in a seeded order, with a fresh seeded epsilon and
parity for each op, drawn stratified (see Draws).  A measured run uses the
first list_blocks(workload) blocks, in which every op kind meets every
(epsilon stratum, parity) cell equally often.  Balanced blocks and
stratified draws keep the mix of expensive and cheap inputs the same from
seed to seed, so runs with different seeds measure the same kind of work
on different inputs.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import count, islice, product
from pathlib import Path
from typing import Iterator

WORKLOADS = ("closed-dense", "extremal-pv", "backlund", "cli")

EPS_RANGE = (-2.5, 4.5)
# Warm-up ops use an epsilon outside EPS_RANGE, so they leave nothing in the
# package's seed cache that a measured op could reuse.
WARMUP_EPS = 4.75

# Default x / z ranges of the package, here with 400 points (closed-dense) or
# the default 40 points (every other workload).
X_RANGE = (0.2, 4.0)
Z_RANGE = (0.1, 8.0)
DENSE_POINTS = 400
DEFAULT_POINTS = 40

VERIFY_TOL = 1e-8  # the package's default certification tolerance
BT_TOL = 1e-7  # default tolerance of check_catalog_row and bt_piv_chain

PIV_CLOSED = ("g1", "g2", "g3", "G1", "G2", "G3")
PV_CLOSED = tuple(f"w1{c}" for c in "abcdef")
PV_DERIVED = tuple(f"pv1{c}" for c in "abcdef") + tuple(f"pv2{c}" for c in "abcdef")
PV_RATIONAL = ("w2a", "w2d", "w2f")
ALL_FAMILIES = PIV_CLOSED + PV_CLOSED + PV_DERIVED + PV_RATIONAL

# The PV Backlund catalog: (source, target, k, lo, hi, lo_closed, hi_closed);
# None is an open end.  A self-test checks it against the package's table.
CATALOG_ROWS = (
    ("w1b", "w2a", (-1, 1, 1), None, -1.5, False, False),
    ("w1b", "w2a", (-1, -1, 1), -1.5, 1.5, False, False),
    ("w1b", "w2e", (-1, -1, 1), None, -1.5, False, False),
    ("w1b", "w2e", (-1, 1, 1), -1.5, 1.5, False, False),
    ("w1c", "w2a", (1, -1, 1), 0.5, None, False, False),
    ("w1c", "w2d", (1, 1, 1), 0.5, None, False, False),
    ("w1c", "w2d", (-1, 1, 1), -0.5, 0.5, False, True),
    ("w1c", "w2d", (-1, -1, 1), None, -0.5, False, False),
    ("w1f", "w2d", (-1, -1, 1), None, None, False, False),
    ("w1f", "w2e", (-1, 1, 1), None, None, False, False),
    ("w2d", "w1c", (1, 1, -1), None, -1.5, False, False),
    ("w2d", "w1c", (-1, -1, -1), 3.5, None, False, False),
    ("w2d", "w1f", (-1, 1, -1), None, -1.5, False, False),
    ("w2d", "w1f", (1, 1, -1), -1.5, None, False, False),
    ("w2d", "w1f", (1, -1, -1), 3.5, None, False, False),
    ("w2e", "w1b", (1, 1, -1), None, -0.5, False, True),
    ("w2e", "w1b", (-1, 1, -1), -0.5, 2.5, True, False),
    ("w2e", "w1b", (-1, -1, -1), 2.5, None, False, False),
    ("w2e", "w1f", (-1, 1, -1), None, -0.5, False, True),
    ("w2e", "w1f", (1, 1, -1), -0.5, 2.5, True, False),
)
CHAINS_PER_BLOCK = 5
PARITIES = ("odd", "even")
# Epsilon sub-intervals per key; a measured op list holds 2 * STRATA blocks
# (or a multiple), so every op kind meets every (sub-interval, parity) cell.
# backlund ops are the slowest, so its list is kept short with 3 strata.
STRATA = {"closed-dense": 7, "extremal-pv": 7, "backlund": 3, "cli": 5}
CLI_COMMANDS = ("defaults", "sample", "verify", "chain", "catalog")

CERTIFIED, DEGENERATE, FAILED, ERROR = "certified", "degenerate", "failed", "error"
OUTCOMES = (CERTIFIED, DEGENERATE, FAILED, ERROR)


def linear_grid(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + step * i for i in range(n)]


@dataclass(frozen=True)
class Op:
    """One generated operation.

    kind is one of closed, derived, extremal, row, chain, cli.  index is the
    extremal slot (extremal) or the CATALOG_ROWS index (row).  argv holds the
    CLI arguments (cli).
    """

    kind: str
    name: str
    epsilon: float | None = None
    parity: str | None = None
    index: int | None = None
    argv: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.kind == "cli":
            return "susy-painleve " + " ".join(self.argv)
        parts = [self.kind, self.name]
        if self.index is not None:
            parts.append(f"#{self.index}")
        if self.epsilon is not None:
            parts.append(f"eps={self.epsilon!r}")
        if self.parity is not None:
            parts.append(self.parity)
        return " ".join(parts)


@dataclass
class Verdict:
    """Outcome of one op.

    error is the op's certified error figure: the max relative residual for
    verify ops, the max pointwise deviation for Backlund ops, None when the
    op has no such figure.  consistent is False when the output contradicts
    itself (a pass whose own numbers exceed its tolerance, unparseable CLI
    output, and so on).
    """

    outcome: str
    error: float | None = None
    points: int = 0
    consistent: bool = True
    detail: str = ""


# -- input generation -----------------------------------------------------------------


class Draws:
    """Seeded draws, stratified per key so that every seed gets the same spread.

    Over each run of 2 * strata draws for one key (an op kind and family,
    say), the pair (epsilon, parity) takes each of the cells (sub-interval,
    parity) once, in a seeded order, where the sub-intervals are `strata`
    equal parts of epsilon's range; epsilon is uniform inside its cell.  A
    choice takes each option once per cycle.  Every draw is still uniform
    over its range, but the inputs of two seeds differ in detail, not in how
    much of each kind of input they hold.
    """

    def __init__(self, seed_text: str, strata: int):
        self.rng = random.Random(seed_text)
        self.strata = strata
        self.queues: dict[tuple, list] = {}

    def _next(self, key: tuple, options: list):
        queue = self.queues.setdefault(key, [])
        if not queue:
            queue.extend(self.rng.sample(options, len(options)))
        return queue.pop()

    def draw(self, key: str, lo: float = EPS_RANGE[0], hi: float = EPS_RANGE[1],
             accept=None) -> tuple[float, str]:
        """(epsilon rounded to 3 decimals, parity) of the next cell of key."""
        stratum, parity = self._next(("cell", key, lo, hi),
                                     list(product(range(self.strata), PARITIES)))
        while True:  # redraws only a rounded endpoint that a window leaves open
            u = (stratum + self.rng.random()) / self.strata
            eps = round(lo + (hi - lo) * u, 3)
            if accept is None or accept(eps):
                return eps, parity

    def choice(self, key: str, options: tuple):
        return self._next(("choice", key), list(options))

    def shuffled(self, items: list) -> list:
        return self.rng.sample(items, len(items))


def _in_window(eps: float, row: tuple) -> bool:
    _, _, _, lo, hi, lo_closed, hi_closed = row
    if lo is not None and (eps < lo or (eps == lo and not lo_closed)):
        return False
    if hi is not None and (eps > hi or (eps == hi and not hi_closed)):
        return False
    return True


def _row_op(draws: Draws, index: int) -> Op:
    row = CATALOG_ROWS[index]
    name = f"{row[0]}->{row[1]} k={row[2]}"
    lo = EPS_RANGE[0] if row[3] is None else max(EPS_RANGE[0], row[3])
    hi = EPS_RANGE[1] if row[4] is None else min(EPS_RANGE[1], row[4])
    eps, parity = draws.draw(name, lo, hi, accept=lambda e: _in_window(e, row))
    return Op("row", name, eps, parity, index=index)


def _cli_op(draws: Draws, command: str) -> Op:
    if command == "defaults":
        return Op("cli", command, argv=("defaults",))
    eps, parity = draws.draw(command)
    seed_args = ("--epsilon", f"{eps:.3f}", "--parity", parity)
    if command in ("sample", "verify"):
        return Op("cli", command, argv=(command, draws.choice(command, ALL_FAMILIES)) + seed_args)
    return Op("cli", command, argv=(command,) + seed_args)


def _closed_op(draws: Draws, name: str) -> Op:
    eps, parity = draws.draw(name)
    return Op("closed", name, eps, parity)


def _pv_op(draws: Draws, name: str) -> Op:
    eps, parity = draws.draw(name)
    if name in ("H1", "H2"):
        return Op("extremal", name, eps, parity, index=draws.choice(name, (0, 1, 2)))
    return Op("derived", name, eps, parity)


def _chain_op(draws: Draws) -> Op:
    eps, parity = draws.draw("chain")
    return Op("chain", "chain", eps, parity)


def _block(workload: str, draws: Draws) -> list[Op]:
    if workload == "closed-dense":
        return [_closed_op(draws, n) for n in draws.shuffled(list(PIV_CLOSED + PV_CLOSED))]
    if workload == "extremal-pv":
        return [_pv_op(draws, n) for n in draws.shuffled(list(PV_DERIVED) + ["H1", "H2"])]
    if workload == "backlund":
        slots = draws.shuffled(list(range(len(CATALOG_ROWS))) + [-1] * CHAINS_PER_BLOCK)
        return [_chain_op(draws) if i < 0 else _row_op(draws, i) for i in slots]
    if workload == "cli":
        return [_cli_op(draws, c) for c in draws.shuffled(list(CLI_COMMANDS))]
    raise ValueError(f"unknown workload {workload!r}")


def op_stream(workload: str, seed: int) -> Iterator[Op]:
    """Endless, deterministic op sequence of a workload for a seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    draws = Draws(f"{workload}:{seed}", STRATA[workload])
    for _ in count():
        yield from _block(workload, draws)


def generate(workload: str, seed: int, n: int) -> list[Op]:
    return list(islice(op_stream(workload, seed), n))


def block_size(workload: str) -> int:
    return len(_block(workload, Draws("block size", STRATA[workload])))


def list_blocks(workload: str, min_ops: int) -> int:
    """Blocks of the measured op list: whole cycles of cells, at least min_ops ops.

    Every key is drawn a whole number of times per block (once, or
    CHAINS_PER_BLOCK times for chains), so a whole cycle of cells takes
    2 * strata blocks.
    """
    cycle = 2 * STRATA[workload]
    return cycle * math.ceil(min_ops / (cycle * block_size(workload)))


def op_list(workload: str, seed: int, min_ops: int) -> list[Op]:
    """The measured ops of a run: the first list_blocks blocks of the stream."""
    return generate(workload, seed, list_blocks(workload, min_ops) * block_size(workload))


def warmup_op(workload: str) -> Op:
    """One op of the workload at an epsilon the draws never produce."""
    if workload == "closed-dense":
        return Op("closed", "G2", WARMUP_EPS, "odd")
    if workload == "extremal-pv":
        return Op("derived", "pv2a", WARMUP_EPS, "odd")
    if workload == "backlund":
        return Op("row", "w1f->w2d k=(-1, -1, 1)", WARMUP_EPS, "odd", index=8)
    return Op("cli", "verify", argv=("verify", "pv1a", "--epsilon", f"{WARMUP_EPS}", "--parity", "odd"))


# -- running ops in process -----------------------------------------------------------


class _Never(Exception):
    """Stand-in for an exception class a future package version no longer has."""


class Runner:
    """Executes ops against one imported susypainleve package.

    Only public names are used, and exception classes are looked up by name,
    so that refactors which keep the public API keep the benchmark working.
    """

    def __init__(self):
        import susypainleve as sp
        from susypainleve import backlund, cli, painleve, residual

        self.sp, self.cli = sp, cli
        self.x_dense = linear_grid(*X_RANGE, DENSE_POINTS)
        self.z_dense = linear_grid(*Z_RANGE, DENSE_POINTS)
        self.grid_degenerate = getattr(residual, "GridDegenerateError", _Never)
        self.verification_error = getattr(residual, "VerificationError", _Never)
        self.degenerate_closed = getattr(painleve, "DegenerateClosedFormError", _Never)
        self.catalog = {(r.source, r.target, tuple(r.k)): r for r in backlund.CATALOG}

    def parity(self, value: str):
        return self.sp.Parity(value)

    def execute(self, op: Op):
        """Build and certify; returns the raw result (exceptions propagate)."""
        sp = self.sp
        if op.kind == "closed":
            par = self.parity(op.parity)
            if op.name in PIV_CLOSED:
                sol = sp.closed_piv_solution(op.name, op.epsilon, par)
                return sp.verify_on_grid("piv", sol, grid=self.x_dense, tol=VERIFY_TOL)
            sol = sp.closed_pv_solution(op.name[-1], op.epsilon, par)
            return sp.verify_on_grid("pv", sol, grid=self.z_dense, tol=VERIFY_TOL)
        if op.kind == "derived":
            family = "H1" if op.name.startswith("pv1") else "H2"
            sol = sp.derived_pv_solution(family, op.name[-1], op.epsilon, self.parity(op.parity))
            return sp.verify_on_grid("pv", sol, tol=VERIFY_TOL)
        if op.kind == "extremal":
            sol = sp.extremal_piv_solution(op.name, op.index, op.epsilon, self.parity(op.parity))
            return sp.verify_on_grid("piv", sol, tol=VERIFY_TOL)
        if op.kind == "row":
            src, tgt, k = CATALOG_ROWS[op.index][:3]
            row = self.catalog[(src, tgt, k)]
            return sp.check_catalog_row(row, op.epsilon, self.parity(op.parity), tol=BT_TOL)
        if op.kind == "chain":
            seed = sp.SeedSpec(op.epsilon, self.parity(op.parity))
            return sp.bt_piv_chain(seed, tol=BT_TOL)
        if op.kind == "cli":
            return self.cli_in_process(op.argv)
        raise ValueError(f"unknown op kind {op.kind!r}")

    def cli_in_process(self, argv: tuple[str, ...]) -> "CliResult":
        """cli.main with captured streams; an escaping exception is a traceback."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except Exception:  # the CLI contract says no input ends in a traceback
                traceback.print_exc()
                code = 1
        return CliResult(code, out.getvalue(), err.getvalue())

    def classify(self, op: Op, result=None, exc: BaseException | None = None) -> Verdict:
        if exc is not None:
            return classify_exception(exc, self.grid_degenerate, self.degenerate_closed,
                                      self.verification_error)
        if op.kind == "cli":
            return classify_cli(op.name, result.returncode, result.stdout, result.stderr)
        if op.kind in ("closed", "derived", "extremal"):
            return classify_report(result)
        if op.kind == "row":
            return classify_bt_row(result, BT_TOL)
        return classify_chain(result, BT_TOL)


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def package_env(root: Path) -> dict[str, str]:
    """Environment of a child process that imports the package from root/src."""
    return {**os.environ, "PYTHONPATH": str(root / "src")}


class CliRunner:
    """Executes CLI ops as `python -m susypainleve` processes from the checkout's sources.

    Same interface as Runner; this process never imports the package.
    """

    def __init__(self, root: Path, timeout: float = 120.0):
        self.env = package_env(root)
        self.root = root
        self.timeout = timeout

    def execute(self, op: Op) -> CliResult:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "susypainleve", *op.argv],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=self.timeout,
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            return CliResult(-9, "", f"timeout after {exc.timeout} s")
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def classify(self, op: Op, result=None, exc: BaseException | None = None) -> Verdict:
        if exc is not None:
            return Verdict(ERROR, detail=f"{type(exc).__name__}: {exc}")
        return classify_cli(op.name, result.returncode, result.stdout, result.stderr)


# -- classification -------------------------------------------------------------------


def classify_exception(exc, grid_degenerate, degenerate_closed, verification_error) -> Verdict:
    label = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, (grid_degenerate, degenerate_closed)):
        return Verdict(DEGENERATE, detail=label)
    if isinstance(exc, verification_error):
        return Verdict(FAILED, detail=label)
    return Verdict(ERROR, detail=label)


def classify_report(report) -> Verdict:
    """A verify_on_grid report, re-checked against its own tolerance."""
    finite = [r for r in report.rel_residuals if not math.isnan(r)]
    worst = max(finite) if finite else math.inf
    points = len(report.grid)
    meets = bool(finite) and worst <= report.tolerance and len(finite) >= report.min_valid
    consistent = meets == bool(report.passed) and worst == report.max_rel_residual
    detail = f"max_rel_residual={report.max_rel_residual:.3g} tol={report.tolerance:g}"
    if report.passed:
        return Verdict(CERTIFIED, report.max_rel_residual, points, consistent, detail)
    return Verdict(FAILED, None, points, consistent, detail)


def classify_bt_row(res, tol: float) -> Verdict:
    """A check_catalog_row result; a pass must carry a deviation within tol."""
    dev = res.max_deviation
    points = DEFAULT_POINTS
    if res.passed:
        consistent = dev is not None and dev <= tol and not res.degenerate
        return Verdict(CERTIFIED, dev, points, consistent, f"max_deviation={dev:.3g}")
    if res.degenerate:
        return Verdict(DEGENERATE, None, points, True, "degenerate")
    detail = f"max_deviation={dev:.3g}" if dev is not None else "no deviation"
    return Verdict(FAILED, None, points, True, detail + " " + "; ".join(res.notes))


def classify_chain(links, tol: float) -> Verdict:
    """bt_piv_chain: failed if a link fails outright, certified if one passes."""
    points = DEFAULT_POINTS * len(links)
    hard = [link for link in links if not link.passed and not link.degenerate]
    passed = [link for link in links if link.passed]
    consistent = all(
        link.max_deviation is not None and link.max_deviation <= tol for link in passed
    )
    if hard:
        detail = ", ".join(f"{l.source}->{l.target} dev={l.max_deviation}" for l in hard)
        return Verdict(FAILED, None, points, consistent, detail)
    if not passed:
        return Verdict(DEGENERATE, None, points, consistent, "every link degenerate")
    worst = max(link.max_deviation for link in passed)
    return Verdict(CERTIFIED, worst, points, consistent,
                   f"{len(passed)} links pass, max_deviation={worst:.3g}")


def classify_cli(command: str, returncode: int, stdout: str, stderr: str) -> Verdict:
    """Exit code contract: 0 pass, 1 verification failure, 2 usage, 3 degenerate.

    A traceback, an exit code outside {0, 1, 2, 3}, or a usage error on the
    generated (valid) arguments is an error.  Exit 0 and 1 outputs are parsed
    and must agree with the exit code.
    """
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return Verdict(ERROR, detail=f"traceback: {last}")
    if returncode not in (0, 1, 2, 3):
        return Verdict(ERROR, detail=f"exit {returncode}")
    if returncode == 2:
        return Verdict(ERROR, detail=f"usage error on valid arguments: {stderr.strip()}")
    if returncode == 3:
        return Verdict(DEGENERATE, detail="exit 3")
    try:
        if command == "sample":
            points = _parse_sample_csv(stdout)
            return Verdict(CERTIFIED if returncode == 0 else FAILED, None, points,
                           returncode == 0, f"{points} rows")
        doc = json.loads(stdout)
        return _classify_cli_doc(command, returncode, doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(ERROR, consistent=False,
                       detail=f"unparseable output (exit {returncode}): {exc}")


def _parse_sample_csv(text: str) -> int:
    lines = text.splitlines()
    if not lines[0].startswith("# family=") or lines[1].split(",")[1:] != [
        "value", "deriv1", "pole_flag"
    ]:
        raise ValueError("bad sample header")
    rows = 0
    for line in lines[2:]:
        t, v, dv, flag = line.split(",")
        values = (float(t), float(v), float(dv))
        if flag == "0" and not all(math.isfinite(x) for x in values):
            raise ValueError(f"non-finite unflagged row {line!r}")
        if flag not in ("0", "1"):
            raise ValueError(f"bad pole flag in {line!r}")
        rows += 1
    if rows == 0:
        raise ValueError("no sample rows")
    return rows


def _classify_cli_doc(command: str, returncode: int, doc: dict) -> Verdict:
    ok = returncode == 0
    if command == "defaults":
        tol = doc["defaults"]["tolerance"]
        return Verdict(CERTIFIED if ok else FAILED, None, 0, ok and tol > 0, "defaults")
    if command == "verify":
        rep = doc["report"]
        worst, tol = rep["max_rel_residual"], rep["tolerance"]
        meets = rep["pass"] and worst <= tol
        consistent = meets == ok and len(doc["points"]) > 0
        verdict = CERTIFIED if ok else FAILED
        return Verdict(verdict, worst if ok else None, len(doc["points"]), consistent,
                       f"max_rel_residual={worst:.3g}")
    if command == "chain":
        links = doc["links"]
        hard = [l for l in links if not l["pass"] and not l["degenerate"]]
        passed = [l for l in links if l["pass"]]
        tol = doc["config"]["tol"]
        consistent = (not hard) == ok and all(l["max_deviation"] <= BT_TOL for l in passed)
        points = DEFAULT_POINTS * len(links)
        if not ok:
            return Verdict(FAILED, None, points, consistent,
                           ", ".join(f"{l['source']}->{l['target']}" for l in hard))
        if not passed:
            return Verdict(DEGENERATE, None, points, consistent, "every link degenerate")
        worst = max(l["max_deviation"] for l in passed)
        return Verdict(CERTIFIED, worst, points, consistent and tol > 0,
                       f"max_deviation={worst:.3g}")
    if command == "catalog":
        checked = [r for r in doc["rows"] if "pass" in r]
        passed = [r for r in checked if r["pass"]]
        points = DEFAULT_POINTS * len(checked)
        consistent = all(r["max_deviation"] <= BT_TOL for r in passed)
        if not ok:
            bad = [f"{r['source']}->{r['target']} k={r['k']}" for r in checked
                   if not r["pass"] and not r.get("degenerate")]
            return Verdict(FAILED, None, points, consistent and bool(bad), ", ".join(bad))
        if not passed:
            return Verdict(DEGENERATE, None, points, consistent, "no row passes")
        worst = max(r["max_deviation"] for r in passed)
        return Verdict(CERTIFIED, worst, points, consistent, f"max_deviation={worst:.3g}")
    raise KeyError(f"unknown command {command!r}")
