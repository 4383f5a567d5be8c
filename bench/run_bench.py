"""Benchmark of susypainleve certification: throughput, latency, set-up and memory.

Run from the root of a checkout:

    python3 bench/run_bench.py --workload closed-dense --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py and README.md): closed-dense, extremal-pv,
backlund, cli.  Each runs as one single-threaded process with one client in a
closed loop: the next op starts when the previous one has finished.

--trace 0 measures the end-to-end metrics.  A run works through a fixed
list of ops drawn from the seed (workloads.op_list, at least MIN_OPS ops,
so that op_ms.p90 has ten samples beyond it), pass after pass, until
--seconds have passed; the first pass always completes.  Every functools
cache of the package is emptied at the start of each pass, so each pass
starts from the state the first one started from.  Every timed op is
preceded by a reference probe, a fixed piece of pure-Python work that
calls no package code, and its latency is scaled to the reference speed
(see host_factors), so that the minutes in which a shared host runs slow
do not show as a slower program.  An op's latency is its median over the
passes; attempted, failed and resid_digits come from the first pass, so
they repeat exactly for a seed.  --trace 1 runs a fixed prefix of the op
stream three times, untraced, traced (tracing.py) and untraced again, and
reports the per-layer metrics; the fixed prefix and a cleared seed cache
make its counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts ops whose outcome is failed
or error; `correct` is false when any op's output contradicts itself or its
own tolerance, or when a later pass gives an op another outcome or error
figure than the first pass did.  The lines above it list every metric with
its unit, the outcome counts, every failed or error op with its inputs, a
digest of the per-op verdicts and the src/ line count per module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MIN_OPS = 100  # ten samples beyond p90
HARD_LIMIT_S = 150.0  # the whole process ends well within 180 s
SETUP_PROBES = 10  # spread evenly over the run, so they meet the host's slow minutes too
# Host-speed reference: REF_PROBE_S is the reference probe's time at the
# speed all timings are scaled to (a 2-vCPU host running at its usual pace);
# each timed sample is scaled by REF_PROBE_S / the median probe time of the
# REF_WINDOW samples around it.
REF_PROBE_S = 0.004
REF_WINDOW = 15
REF_SETUP_PROBES = 3
IMPORT_PROBES = 5
TRACE_BLOCKS = {"closed-dense": 2, "extremal-pv": 4, "backlund": 1, "cli": 4}
# The reference families of the ROADMAP's per-point count table, at eps = 5/2 odd.
REFERENCE_FAMILIES = ("g1", "pv1a", "pv2a")
ROADMAP_COUNTS = {"g1": (6, 17), "pv1a": (19, 81), "pv2a": (38, 159)}


class BenchError(RuntimeError):
    """The benchmark cannot run (missing sources, a broken probe)."""


# -- statistics -----------------------------------------------------------------------


def percentile_with_tail(samples, q: float, min_tail: int = 10) -> float | None:
    """Nearest-rank q-quantile, or None when fewer than min_tail samples lie beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < min_tail:
        return None
    return ordered[rank - 1]


def resid_digits(verdicts) -> float | None:
    """-log10 of the median certified error figure; below 1e-17 counts as 1e-17."""
    errors = [v.error for v in verdicts if v.outcome == wl.CERTIFIED and v.error is not None]
    if not errors:
        return None
    return -math.log10(max(statistics.median(errors), 1e-17))


def verdict_digest(ops, verdicts) -> str:
    text = "\n".join(f"{op.describe()}|{v.outcome}" for op, v in zip(ops, verdicts))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def src_line_counts() -> dict[str, int]:
    counts = {}
    for path in sorted((SRC / "susypainleve").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    return counts


# -- host-speed reference --------------------------------------------------------------


def reference_probe() -> float:
    """Seconds taken by a fixed piece of integer and dict work; no package code runs."""
    start = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i
    table = {}
    for i in range(5000):
        table[i, i * 0.5] = [i, float(i)]
    return time.perf_counter() - start


def host_factors(probes: list[float], window: int = REF_WINDOW) -> list[float]:
    """Per sample, REF_PROBE_S over the median probe time of the window around it."""
    window = min(window, len(probes))
    factors = []
    for k in range(len(probes)):
        lo = max(0, min(k - window // 2, len(probes) - window))
        factors.append(REF_PROBE_S / statistics.median(probes[lo:lo + window]))
    return factors


def host_factor_around(action):
    """(action's return value, host factor from probes just before and after it)."""
    probes = [reference_probe() for _ in range(REF_SETUP_PROBES)]
    value = action()
    probes += [reference_probe() for _ in range(REF_SETUP_PROBES)]
    return value, REF_PROBE_S / statistics.median(probes)


# -- set-up -----------------------------------------------------------------------------


def check_checkout() -> None:
    if not (SRC / "susypainleve" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {SRC}; run from a full checkout")


def import_package():
    """Import susypainleve from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import susypainleve

    if Path(susypainleve.__file__).resolve().parent != (SRC / "susypainleve").resolve():
        raise BenchError(f"imported susypainleve from {susypainleve.__file__}, not {SRC}")
    return susypainleve


def prepare(workload: str, seed: int, in_process: bool):
    """Everything before the first timed op: import, inputs, one warm-up op.

    CLI ops run as processes unless in_process, when they go through cli.main.
    """
    if in_process:
        import_package()
        runner = wl.Runner()
    else:
        runner = wl.CliRunner(ROOT)
    ops = wl.op_list(workload, seed, MIN_OPS)
    run_op(runner, wl.warmup_op(workload))  # its outcome is not measured
    return runner, ops


def package_caches() -> list:
    """Every functools cache bound at module level in the imported package."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "susypainleve" or name.startswith("susypainleve."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """(seconds, host factor) of a fresh process: spawn until ready for the first timed op."""
    def spawn() -> float:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run_bench.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=wl.package_env(ROOT), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1]) - start

    return host_factor_around(spawn)


def probe_import() -> list[float]:
    """Seconds a fresh interpreter spends in `import susypainleve`."""
    code = ("import time; t = time.perf_counter(); import susypainleve; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=wl.package_env(ROOT),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()))
    return times


# -- the measured loop ------------------------------------------------------------------


def run_op(runner, op):
    """(latency seconds, verdict) of one op."""
    exc = result = None
    start = time.perf_counter()
    try:
        result = runner.execute(op)
    except Exception as err:  # classified as degenerate, failed or error
        exc = err
    latency = time.perf_counter() - start
    return latency, runner.classify(op, result, exc)


def same_verdict(a, b) -> bool:
    """Whether two runs of one op agree in outcome and certified error figure."""
    if a.outcome != b.outcome or (a.error is None) != (b.error is None):
        return False
    return a.error is None or math.isclose(a.error, b.error, rel_tol=1e-9, abs_tol=1e-300)


def measure(workload: str, seed: int, seconds: float, process_start: float) -> dict:
    runner, ops = prepare(workload, seed, in_process=workload != "cli")
    caches = package_caches()  # none in the cli workload, which never imports the package
    who = resource.RUSAGE_CHILDREN if isinstance(runner, wl.CliRunner) else resource.RUSAGE_SELF
    timed: list[tuple[int, float, float]] = []  # (op index, latency, probe)
    verdicts, unsteady, setup = [], [], []
    passes = 0
    begin = time.perf_counter()
    deadline = begin + seconds
    hard_deadline = process_start + HARD_LIMIT_S
    peak_rss_kb = None
    while True:
        for cache in caches:
            cache.cache_clear()
        for i, op in enumerate(ops):
            if time.perf_counter() >= begin + len(setup) * seconds / SETUP_PROBES:
                setup.append(setup_sample(workload, seed))  # between ops, never inside one
            probe = reference_probe()
            latency, verdict = run_op(runner, op)
            timed.append((i, latency, probe))
            if passes == 0:
                verdicts.append(verdict)
            elif not same_verdict(verdict, verdicts[i]):
                unsteady.append((i, verdict))
            if time.monotonic() >= hard_deadline:
                raise BenchError(f"no result within {HARD_LIMIT_S:g} s "
                                 f"({len(timed)} ops run, {len(ops)} in the list)")
            if passes and time.perf_counter() >= deadline:
                break
        if passes == 0:
            # after a fixed amount of work, so that a faster build, which runs
            # more passes in the same time, is not charged for the extra ones
            peak_rss_kb = resource.getrusage(who).ru_maxrss
        passes += 1
        if time.perf_counter() >= deadline:
            break
    while len(setup) < SETUP_PROBES:  # an op outlasted the spacing of the samples
        setup.append(setup_sample(workload, seed))
    factors = host_factors([probe for _, _, probe in timed])
    raw: list[list[float]] = [[] for _ in ops]
    scaled: list[list[float]] = [[] for _ in ops]
    for (i, latency, _), factor in zip(timed, factors):
        raw[i].append(latency)
        scaled[i].append(latency * factor)
    return {
        "ops": ops,
        "raw": [statistics.median(x) for x in raw],
        "scaled": [statistics.median(x) for x in scaled],
        "host": statistics.median(factors),
        "verdicts": verdicts,
        "unsteady": unsteady,
        "passes": passes,
        "samples": len(timed),
        "setup": setup,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def end_to_end(run: dict) -> tuple[dict, dict]:
    """(metrics by name, notes for the report)."""
    setup = run["setup"]
    lat_ms = [x * 1000.0 for x in run["scaled"]]
    raw_ms = [x * 1000.0 for x in run["raw"]]
    n = len(lat_ms)
    p90, raw_p90 = percentile_with_tail(lat_ms, 0.9), percentile_with_tail(raw_ms, 0.9)
    metrics = {
        "ops_per_s": n / sum(run["scaled"]),
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.p90": p90,
        "resid_digits": resid_digits(run["verdicts"]),
        "setup_s": statistics.median(t * f for t, f in setup),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    certified = sum(1 for v in run["verdicts"] if v.outcome == wl.CERTIFIED)
    runs = (f"median of {run['passes']} passes over {n} ops, {run['samples']} ops run; "
            f"host factor {run['host']:.3f}")
    notes = {
        "ops_per_s": f"{n} ops / sum of op latencies; unscaled {n / sum(run['raw']):.4g}",
        "op_ms.p50": f"{runs}; unscaled {statistics.median(raw_ms):.4g}",
        "op_ms.p90": (f"{n - math.ceil(0.9 * n)} of {n} beyond; unscaled {raw_p90:.4g}"
                      if p90 is not None else f"FLAGGED: fewer than 10 of {n} samples beyond p90"),
        "resid_digits": f"median over {certified} certified ops of the first pass",
        "setup_s": f"median of {len(setup)} fresh processes, unscaled: "
                   + " ".join(f"{t:.3f}" for t, _ in setup),
        "peak_rss_mb": ("largest CLI child" if run["ops"][0].kind == "cli" else "this process")
                       + ", over the first pass",
    }
    return metrics, notes


# -- the traced run ----------------------------------------------------------------------


class SeedCache:
    """The package's seed-jet LRU, when it has one, with statistics kept across clears."""

    def __init__(self):
        from susypainleve import oscillator

        cache = getattr(oscillator, "_seed_jet_cached", None)
        self.cache = cache if hasattr(cache, "cache_info") else None
        self.hits = self.misses = self.peak_entries = 0

    def clear(self) -> None:
        """Empty the cache; its hits and misses so far are added to the totals."""
        if self.cache is not None:
            info = self.cache.cache_info()
            self.hits += info.hits
            self.misses += info.misses
            self.peak_entries = max(self.peak_entries, info.currsize)
            self.cache.cache_clear()

    def reset(self) -> None:
        """Empty the cache and zero the totals."""
        self.clear()
        self.hits = self.misses = self.peak_entries = 0


def run_pass(runner, ops, cache: SeedCache, tracer: tracing.Tracer | None = None):
    """Run ops from a cold seed cache; (verdicts, wall seconds, grid points).

    CLI ops run in process here, so the cache is emptied before each of them,
    as it is in a fresh CLI process.
    """
    cache.reset()
    verdicts, points = [], 0
    begin = time.perf_counter()
    for i, op in enumerate(ops):
        if op.kind == "cli":
            cache.clear()
        if tracer is None:
            _, verdict = run_op(runner, op)
        else:
            tracer.op_id = i
            idx = tracer.begin(tracing.OP_SPAN)
            try:
                _, verdict = run_op(runner, op)
            finally:
                tracer.finish(idx)
        verdicts.append(verdict)
        points += verdict.points
    wall = time.perf_counter() - begin
    cache.clear()
    return verdicts, wall, points


def reference_counts(sp) -> dict[str, float]:
    """Cold-cache, order-2 verify_on_grid counts per point of the ROADMAP families."""
    out = {}
    odd = sp.Parity.ODD
    for fam in REFERENCE_FAMILIES:
        if fam == "g1":
            sol, kind = sp.closed_piv_solution("g1", 2.5, odd), "piv"
        else:
            sol = sp.derived_pv_solution("H1" if fam == "pv1a" else "H2", "a", 2.5, odd)
            kind = "pv"
        SeedCache().clear()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            report = sp.verify_on_grid(kind, sol, order=2)
        finally:
            tracer.uninstall()
        n = len(report.grid)
        kummer_id = tracer.spans.name_ids.get("hyp1f1.kummer", -2)
        kummer_calls = sum(1 for nid in tracer.spans.name if nid == kummer_id)
        out[f"ref.{fam}.kummer_calls_per_point"] = kummer_calls / n
        out[f"ref.{fam}.jets_built_per_point"] = tracer.jets_built / n
    return out


def trace_run(workload: str, seed: int) -> tuple[dict, dict, list, list]:
    sp = import_package()
    runner, _ = prepare(workload, seed, in_process=True)
    ops = wl.generate(workload, seed, TRACE_BLOCKS[workload] * wl.block_size(workload))

    cache = SeedCache()
    _, before, _ = run_pass(runner, ops, cache)
    tracer = tracing.Tracer()
    tracer.install(tracing.OBSERVERS)
    try:
        verdicts, wall, points = run_pass(runner, ops, cache, tracer)
    finally:
        tracer.uninstall()
    traced_ops_per_s = len(ops) / wall
    metrics = tracing.layer_metrics(tracer, len(ops), points)
    lookups = cache.hits + cache.misses
    metrics["oscillator.seed_cache.hit_ratio"] = cache.hits / lookups if lookups else 0.0
    metrics["oscillator.seed_cache.misses_per_point"] = cache.misses / points if points else 0.0
    metrics["oscillator.seed_cache.entries"] = cache.peak_entries

    # untraced passes on both sides of the traced one, so that a drift in the
    # host's speed during the three passes cancels to first order
    _, after, _ = run_pass(runner, ops, cache)
    untraced_ops_per_s = 2 * len(ops) / (before + after)
    metrics["cli.import_s"] = statistics.median(probe_import())
    metrics["trace.untraced_ops_per_s"] = untraced_ops_per_s
    metrics["trace.traced_ops_per_s"] = traced_ops_per_s
    metrics["trace.overhead_ops_per_s"] = traced_ops_per_s - untraced_ops_per_s
    metrics.update(reference_counts(sp))

    out = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.spans.write(out)
    info = {
        "ops": len(ops),
        "points": points,
        "spans": len(tracer.spans),
        "spans_file": str(out.relative_to(ROOT)),
    }
    return metrics, info, ops, verdicts


# -- reporting ---------------------------------------------------------------------------


def report_ops(ops, verdicts, digest_ops: int) -> tuple[dict, bool]:
    counts = {o: 0 for o in wl.OUTCOMES}
    for v in verdicts:
        counts[v.outcome] += 1
    attempted = len(verdicts)
    print(f"ops: attempted {attempted}  " + "  ".join(f"{o} {counts[o]}" for o in wl.OUTCOMES))
    bad = counts[wl.FAILED] + counts[wl.ERROR]
    print(f"fail_ratio     {bad / attempted:.6f} ratio  "
          f"({counts[wl.FAILED]} failed + {counts[wl.ERROR]} error of {attempted})")
    print(f"verdict digest (first {min(digest_ops, attempted)} ops): "
          f"{verdict_digest(ops[:digest_ops], verdicts[:digest_ops])}")
    inconsistent = 0
    for i, (op, v) in enumerate(zip(ops, verdicts)):
        if v.outcome in (wl.FAILED, wl.ERROR) or not v.consistent:
            flag = "" if v.consistent else "  INCONSISTENT"
            print(f"  op {i:4d} {v.outcome:9s} {op.describe()}  {v.detail}{flag}")
        inconsistent += not v.consistent
    return {"attempted": attempted, "failed": bad}, inconsistent == 0


def print_result(correct: bool, counts: dict, metrics: dict, units: dict) -> None:
    result = {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


def load_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one BENCHMARK.json section, in file order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main_trace(workload: str, seed: int) -> None:
    units = load_units("per_layer")
    metrics, info, ops, verdicts = trace_run(workload, seed)
    lines = src_line_counts()
    for name in units:  # a module that no longer exists has 0 lines
        if name.startswith("src_lines."):
            metrics[name] = lines.get(name.split(".", 1)[1], 0)
    print(f"traced prefix: {info['ops']} ops, {info['points']} grid points, "
          f"{info['spans']} spans written to {info['spans_file']}")
    counts, consistent = report_ops(ops, verdicts, len(ops))
    for name, unit in units.items():
        print(f"{name:42s} {metrics[name]!r} {unit}")
    for fam in REFERENCE_FAMILIES:
        got = (metrics[f"ref.{fam}.kummer_calls_per_point"],
               metrics[f"ref.{fam}.jets_built_per_point"])
        verdict = "matches" if got == ROADMAP_COUNTS[fam] else "DIFFERS from"
        print(f"reference {fam}: {got[0]:g} Kummer calls, {got[1]:g} jets built per point; "
              f"{verdict} the ROADMAP's {ROADMAP_COUNTS[fam][0]}/{ROADMAP_COUNTS[fam][1]}")
    print_result(consistent, counts, metrics, units)


def main_measure(workload: str, seed: int, seconds: float, process_start: float) -> None:
    run = measure(workload, seed, seconds, process_start)
    metrics, notes = end_to_end(run)
    counts, consistent = report_ops(run["ops"], run["verdicts"], len(run["ops"]))
    for i, verdict in run["unsteady"]:
        print(f"  op {i:4d} UNSTEADY {run['ops'][i].describe()}: first pass "
              f"{run['verdicts'][i].outcome} {run['verdicts'][i].error!r}, "
              f"later {verdict.outcome} {verdict.error!r}")
    consistent = consistent and not run["unsteady"]
    units = load_units("end_to_end")
    for name, unit in units.items():
        value = metrics[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:14s} {shown} {unit}  ({notes[name]})")
    print("src lines: " + " ".join(f"{k}={v}" for k, v in src_line_counts().items()))
    missing = [name for name in units if metrics[name] is None]
    if missing:
        raise BenchError(f"metrics could not be measured: {', '.join(missing)}")
    print_result(consistent, counts, metrics, units)


def main(argv=None) -> int:
    process_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.setup_probe:
            prepare(args.workload, args.seed, in_process=args.workload != "cli")
            print(repr(time.monotonic()))
        elif args.trace:
            print(f"workload {args.workload}  seed {args.seed}  traced")
            main_trace(args.workload, args.seed)
        else:
            print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s")
            main_measure(args.workload, args.seed, args.seconds, process_start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
