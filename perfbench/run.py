"""Benchmark zetaladder end to end, or layer by layer with tracing.

    python3 perfbench/run.py --workload build|verify|scan --seed N \\
        --seconds S --trace 0|1

Run it from the root of a zetaladder source tree; it imports the package
from ``src/`` and nothing else.  Metric lines go to standard output, then one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, timed
for S seconds on the paced clock of ``pace.py``.  With ``--trace 1`` a fixed
seeded op set runs once untraced and once traced, and the metrics are the
per-layer ones plus the tracing overhead.  The exit code is 1 when any
correctness check fails and 2 when the tree holds no zetaladder sources.
"""
import argparse
import atexit
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("build", "verify", "scan")
#: fresh-process set-ups per run, fewer where one builds a table; setup_s is their median
SETUPS = {"build": 7, "verify": 3, "scan": 7}
#: percentiles tried for the tail latency, highest first; each needs 10 ops beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: modules left untraced: their cost is negligible in every workload
UNMEASURED = ("zetaladder.gaps", "zetaladder.cli", "zetaladder.config")


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _contract() -> tuple[dict[str, str], dict[str, str]]:
    """Metric names and units, end-to-end and per-layer, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up time and exit")
    return ap.parse_args()


def _import_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "zetaladder", "__init__.py")):
        _die(f"no zetaladder sources under {SRC}; run from a source tree")
    sys.path.insert(0, SRC)
    import zetaladder

    if os.path.dirname(os.path.abspath(zetaladder.__file__)) != os.path.join(SRC, "zetaladder"):
        _die(f"imported zetaladder from {zetaladder.__file__}, not from {SRC}")


import numpy as np  # noqa: E402

import pace  # noqa: E402

#: paces the end-to-end run, and set-up time counts, from here on; a traced run stops it
CLOCK = pace.PacedClock().start()
atexit.register(CLOCK.stop)  # a SIGALRM left pending at exit would kill the process

_import_package()

import scipy  # noqa: E402
from zetaladder import _kernels, hybrid  # noqa: E402
from zetaladder.ladder import LadderModel  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402


# -- environment tags ----------------------------------------------------------------


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_digest() -> str:
    """sha256 over every file under src/, so a tree without git is still named."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _tags(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "kernel_path": "numba" if _kernels.HAS_NUMBA else "numpy",
        "config_hash": wl.CONFIG.config_hash(),
    }


# -- timing ----------------------------------------------------------------------------


def stamp() -> tuple[float, float]:
    """Wall and paced seconds now."""
    return time.perf_counter(), CLOCK.now()


class Timed:
    """Ops run against a wall-time budget: latencies, failures, timed seconds.

    ``elapsed`` is wall seconds, ``paced`` the same time on the paced clock;
    latencies are paced.
    """

    def __init__(self, seconds: float = math.inf, units: int | None = None):
        self.seconds = seconds
        self.max_units = units
        self.units = 0
        self.elapsed = 0.0
        self.paced = 0.0
        self.latencies: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []

    def more(self) -> bool:
        """Start another unit only while one more is expected to fit the budget."""
        if self.max_units is not None:
            return self.units < self.max_units
        if self.units == 0:
            return True
        return self.elapsed + self.elapsed / self.units <= self.seconds

    def add(self, since: tuple[float, float], latencies: list[float], attempted: int,
            errors: list[str]) -> None:
        """One unit that began at ``since``, a :func:`stamp`, and ends now."""
        wall, paced = stamp()
        self.add_span(wall - since[0], paced - since[1], latencies, attempted, errors)

    def add_span(self, wall: float, paced: float, latencies: list[float], attempted: int,
                 errors: list[str]) -> None:
        self.units += 1
        self.elapsed += wall
        self.paced += paced
        self.latencies += latencies
        self.attempted += attempted
        self.errors += errors


def _call(fn, *args):
    return fn(*args)


# -- workloads ----------------------------------------------------------------------------


def run_build(timed: Timed, tmp: str, call=_call) -> list[tuple[LadderModel, LadderModel]]:
    """Units are whole tables: knot by knot to ``T_TOP``, then saved and reloaded.

    Only whole tables are timed, so every run measures the same knot mix.
    Returns every (built, reloaded) table pair for the checks.
    """
    h = wl.CONFIG.knot_spacing
    tables = []
    while timed.more():
        model = LadderModel(wl.CONFIG)
        times: list[float] = []
        errors: list[str] = []
        start = stamp()
        for j in range(1, wl.KNOTS + 1):
            t0 = CLOCK.now()
            try:
                call(model.extend_to, j * h)
            except Exception as exc:  # a failed op is counted, not fatal
                errors.append(f"knot {j}: {exc!r}")
                break
            times.append(CLOCK.now() - t0)
        path = call(model.save_table, os.path.join(tmp, "table.csv"))
        loaded = call(LadderModel.load_table, path, wl.CONFIG)
        timed.add(start, times, len(times) + len(errors), errors)
        tables.append((model, loaded))
    return tables


def mix_rate(latencies: list[float]) -> float:
    """Reports per second on an even mix of the formulas.

    Ops cycle through ``FORMULAS`` in blocks, so op i runs formula i mod 8.
    A run ends partway through a block, and which formulas its last ops ran
    would otherwise move the rate; so each formula's mean latency counts once.
    """
    n = len(spans.FORMULAS)
    per = [latencies[i::n] for i in range(n)]
    if not all(per):
        return len(latencies) / sum(latencies)
    return n / sum(statistics.fmean(x) for x in per)


def check_builds(timed: Timed, seed: int, tables) -> None:
    rng = np.random.default_rng(seed)
    for model, loaded in tables:
        timed.errors += wl.check_build(model, loaded, rng)


def run_verify(timed: Timed, model: LadderModel, seed: int, call=_call) -> int:
    """Units are reports; returns knots the ops added to the warm table."""
    knots = len(model.table.values)
    ops = itertools.chain.from_iterable(wl.verify_blocks(seed))
    while timed.more():
        op = next(ops)
        start = stamp()
        try:
            err = wl.report_error(call(wl.run_formula, model, op))
        except Exception as exc:  # a failed op is counted, not fatal
            err = f"{op[:5]}: {exc!r}"
        timed.add(start, [CLOCK.now() - start[1]], 1, [err] if err else [])
    return len(model.table.values) - knots


class SampleOps:
    """Times each scan sample as one op inside the forked worker.

    ``hybrid.invariance_scan`` hands ``hybrid._scan_eval`` to its pool by
    name, so the wrapper goes there; forked workers inherit it and write a
    root span per sample into the current batch directory.  With ``paced``
    each sample also runs on a paced clock of its worker's own, and the
    worker counts its samples' wall and paced seconds.
    """

    def __init__(self, tracer: spans.Tracer, tmp: str, paced: bool = False):
        self.tmp = tmp
        self.dir = ""
        self.original = hybrid._scan_eval
        sink = self

        @functools.wraps(self.original)
        def sample(s):
            clock = pace.PacedClock().start() if paced else None
            t0 = time.perf_counter()
            try:
                return tracer.run_op(sink.original, s)
            finally:
                if clock is not None:
                    clock.stop()
                    tracer.counts["pace.wall_s"] += time.perf_counter() - t0
                    tracer.counts["pace.paced_s"] += clock.now()
                spans.worker_dump(tracer, sink.dir)

        hybrid._scan_eval = sample

    def new_batch(self, name: str) -> str:
        self.dir = os.path.join(self.tmp, name)
        os.makedirs(self.dir)
        return self.dir

    def remove(self) -> None:
        hybrid._scan_eval = self.original


def run_scan(timed: Timed, seed: int, ops: SampleOps, tag: str, call=_call) -> float:
    """Units are batches of samples; returns the reaped workers' CPU seconds."""
    cpu = 0.0
    while timed.more():
        batch = timed.units
        out = ops.new_batch(f"{tag}{batch}")
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            errors = wl.scan_errors(call(wl.run_scan, wl.scan_seed(seed, batch)))
        except Exception as exc:  # every sample of the batch failed
            errors = [f"batch {batch}: {exc!r}"] * wl.SCAN_SAMPLES
        dt = time.perf_counter() - t0
        c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu += (c1.ru_utime - c0.ru_utime) + (c1.ru_stime - c0.ru_stime)
        dumps = spans.load_worker_dumps(out)
        # the workers' pace over their samples paces the whole batch
        wall = sum(c.get("pace.wall_s", 0.0) for _, c in dumps)
        ratio = sum(c.get("pace.paced_s", 0.0) for _, c in dumps) / wall if wall else 0.0
        lat = [(s[2] - s[1]) * 1e-9 * ratio for worker, _ in dumps
               for s in worker if s[0] == spans.ROOT]
        if len(lat) != wl.SCAN_SAMPLES:
            errors.append(f"batch {batch}: {len(lat)} of {wl.SCAN_SAMPLES} samples "
                          "timed (workers must be forked)")
        timed.add_span(dt, dt * ratio, lat, wl.SCAN_SAMPLES, errors)
    return cpu


def setup(workload: str) -> LadderModel | None:
    """What a fresh process does before its first op."""
    return wl.warm_model() if workload == "verify" else None


def probe_setups(args: argparse.Namespace) -> list[float]:
    """Set-up times of fresh processes, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUPS[args.workload] - 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
        out.append(float(res.stdout.split()[-1]))
    return out


# -- metrics ------------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest listed percentile with at least 10 ops beyond it, else the max."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = max(0, math.ceil(p / 100.0 * n) - 1)
        if n - 1 - rank >= 10:
            return xs[rank], f"p{p:g}"
    return xs[-1], "max (fewer than 20 ops)"


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_s() -> float:
    """Paced set-up seconds so far: from numpy's import, which the clock needs."""
    return CLOCK.now()


def end_to_end(args: argparse.Namespace, tmp: str) -> tuple[dict, Timed]:
    model = setup(args.workload)
    setups = [setup_s()]
    timed = Timed(args.seconds)
    if args.workload == "build":
        tables = run_build(timed, tmp)
        CLOCK.stop()
        check_builds(timed, args.seed, tables)
        print(f"# {timed.units} whole tables")
    elif args.workload == "verify":
        built = run_verify(timed, model, args.seed)
        CLOCK.stop()
        print(f"# knots built during verify ops: {built}")
    else:
        CLOCK.stop()  # the workers pace themselves
        ops = SampleOps(spans.Tracer(), tmp, paced=True)
        cpu = run_scan(timed, args.seed, ops, "batch")
        ops.remove()
        print(f"# workers' cpu {cpu:.3f} s over {timed.elapsed:.3f} s wall")
    setups += probe_setups(args)
    tail_s, tail_p = tail(timed.latencies)
    print(f"# paced set-ups (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"# paced op latency (not bounded): p50 {statistics.median(timed.latencies):.6g} s, "
          f"tail {tail_s:.6g} s at {tail_p}, {len(timed.latencies)} ops")
    print(f"# wall ops/s (not bounded): {timed.attempted / timed.elapsed:.6g}; "
          f"pace {timed.paced / timed.elapsed:.4f} paced s per wall s")
    if args.workload == "verify":
        rate = mix_rate(timed.latencies)
    else:  # no paced time only when scan workers did not report: a failed run
        rate = timed.attempted / timed.paced if timed.paced else 0.0
    values = {
        "setup_s": statistics.median(setups),
        "paced_ops_per_s": rate,
        "peak_rss_mb": peak_rss_mb(),
    }
    units, _ = _contract()
    return {k: (values[k], u) for k, u in units.items()}, timed


def _layer_metrics(span_sets: list[list[list]], counts: dict[str, float],
                   errors: list[str]) -> dict[str, float]:
    """Totals per layer over every process's spans; checks their nesting."""
    totals: dict[str, float] = {}
    for sp in span_sets:
        try:
            selfs = spans.self_times(sp)
        except ValueError as exc:
            errors.append(str(exc))
            continue
        bad = spans.check_accounting(sp, selfs)
        if bad:
            errors.append(bad)
        for key, v in spans.layer_totals(sp, selfs).items():
            totals[key] = totals.get(key, 0.0) + v
        totals["trace.spans"] = totals.get("trace.spans", 0) + len(sp)
        totals["bench.op_wall_s"] = totals.get("bench.op_wall_s", 0.0) + sum(
            (s[2] - s[1]) * 1e-9 for s in sp if s[0] == spans.ROOT)
    totals.update(counts)
    for f in ("save_table", "load_table"):  # no traced callees: self time is all of it
        totals[f"ladder.{f}.s"] = totals.get(f"ladder.{f}.self_s", 0.0)
    totals["bench.ops"] = totals.pop(f"{spans.ROOT}.calls", 0)
    totals["bench.self_s"] = totals.pop(f"{spans.ROOT}.self_s", 0.0)
    totals["hybrid.formulas.self_s"] = sum(
        totals.get(f"hybrid.{f}.self_s", 0.0) for f in spans.FORMULAS)
    calls = totals.get("tower.ChainFactory.solve.calls", 0)
    totals["tower.ChainFactory.solve.hit_ratio"] = (
        totals.get("tower.ChainFactory.solve.hits", 0) / calls if calls else 0.0)
    chains = totals.get("tower.chain_weight.chains", 0)
    totals["tower.chain_weight.evals_per_chain"] = (
        totals.get("tower.chain_weight.evals", 0) / chains if chains else 0.0)
    return totals


def _kernel_cases() -> dict[str, float]:
    """The two cases of the old kernel benchmark, as medians of five calls."""
    ts = np.linspace(200.0, 5000.0, 1000)

    def best(fn) -> float:
        fn()
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return {
        "kernels.case.z_rs_many_n1000_s": best(lambda: _kernels.z_rs_many(ts, 4)),
        "kernels.case.zsq_integral_w5_s": best(
            lambda: _kernels.zsq_integral_rs(1000.0, 1005.0, 1e-10, 1.0, 4)),
    }


def traced(args: argparse.Namespace, tmp: str) -> tuple[dict, Timed]:
    """One fixed op set untraced, then the same set traced."""
    tracer = spans.Tracer()
    model = setup(args.workload)
    plain = Timed(units={"build": 1, "verify": len(spans.FORMULAS), "scan": 1}[args.workload])
    run = Timed(units=plain.max_units)
    worker_spans: list[list[list]] = []
    counts: dict[str, float] = {}
    if args.workload == "scan":
        ops = SampleOps(tracer, tmp)
        run_scan(plain, args.seed, ops, "plain")
        installed = spans.install(tracer)
        cpu = run_scan(run, args.seed, ops, "traced", call=tracer.run_op)
        ops.remove()
        for sp, c in spans.load_worker_dumps(os.path.join(tmp, "traced0")):
            worker_spans.append(sp)
            for k, v in c.items():
                counts[k] = counts.get(k, 0.0) + v
        wall = run.elapsed
        counts.update({
            "hybrid.invariance_scan.wall_s": wall,
            "hybrid.invariance_scan.workers": wl.SCAN_WORKERS,
            "hybrid.invariance_scan.children_cpu_s": cpu,
            "hybrid.invariance_scan.parallel_eff": cpu / (wall * wl.SCAN_WORKERS),
            "hybrid.invariance_scan.worker_knots_built": counts.get("ladder.extend_to.knots_built", 0),
        })
    elif args.workload == "verify":
        run_verify(plain, model, args.seed)
        installed = spans.install(tracer)
        run_verify(run, model, args.seed, call=tracer.run_op)
    else:
        run_build(plain, tmp)
        installed = spans.install(tracer)
        tables = run_build(run, tmp, call=tracer.run_op)
    installed.remove()
    if args.workload == "build":
        check_builds(run, args.seed, tables)
    for k, v in tracer.counts.items():
        counts[k] = counts.get(k, 0.0) + v
    totals = _layer_metrics([tracer.spans] + worker_spans, counts, run.errors)
    totals.update(_kernel_cases())
    cost = spans.wrapper_cost()
    # every span is one wrapped call, and so is every counted chain-weight evaluation
    added = (totals.get("trace.spans", 0) + totals.get("tower.chain_weight.evals", 0)) * cost
    totals["trace.span_cost_s"] = cost
    totals["trace.overhead_frac"] = added / (totals.get("bench.op_wall_s", 0.0) - added)
    print(f"# one untraced and one traced pass (noise, not overhead): "
          f"{plain.elapsed:.4f} s, {run.elapsed:.4f} s")
    missing = installed.missing
    print(f"# unmeasured modules: {', '.join(UNMEASURED)}; "
          f"missing call sites: {', '.join(missing) or 'none'}")
    run.attempted += plain.attempted
    run.errors += plain.errors
    _, units = _contract()
    return {k: (float(totals.get(k, 0.0)), u) for k, u in units.items()}, run


def main() -> int:
    args = _args()
    if args.setup_probe:
        setup(args.workload)
        print(setup_s())
        return 0
    if args.trace:
        CLOCK.stop()  # spans and the overhead estimate are in wall time
    tmp = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        metrics, timed = (traced if args.trace else end_to_end)(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    # tagged after the run: git and the src digest are not set-up work
    print("# env " + json.dumps(_tags(args), sort_keys=True))
    for err in timed.errors:
        print(f"# FAILED {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<45} {value:>16.6g} {unit}")
    failed = len(timed.errors)
    print(f"# failed_frac {failed}/{timed.attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": timed.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
