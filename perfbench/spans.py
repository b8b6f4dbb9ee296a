"""In-memory span tracing of zetaladder's layers, installed from outside.

Each wrapper is placed where its function is *looked up*, not where it is
defined: ``ladder`` imports ``integrate`` and ``invert_increasing`` by name and
``tower`` imports ``find_level_crossing`` and ``make_chain_weight`` by name, so
patching ``zetaladder.numerics`` alone would trace nothing.  Methods are
patched on their class, so every instance (and every bound method handed to a
solver) goes through the wrapper.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  Self time is a
span's duration minus its children's durations; children run one after
another inside their parent, so that difference is exact in integer
nanoseconds.

Forked pool workers inherit the installed wrappers.  They must write their
spans to disk after every sample, because pool workers exit without running
``atexit`` handlers; :func:`worker_dump` does that per pid.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
import weakref
from collections import defaultdict
from typing import Any, Callable

#: the benchmark's own span around each op; its self time is the benchmark's
ROOT = "bench.op"

FORMULAS = ("echf1", "echf2", "beta_product_elim", "secondary_v1",
            "mixed_product", "secondary_v2", "ternary", "asymptotic_secondary")


class Tracer:
    """Spans and counters of one process; reset on first use after a fork."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.op: Any = None
        self.ops = 0
        self.dumped = 0

    def _after_fork(self) -> None:
        if self.pid != os.getpid():
            self.__init__()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> int:
        end = time.perf_counter_ns()
        self.spans[idx][2] = end
        self.stack.pop()
        return end - self.spans[idx][1]

    def run_op(self, fn: Callable, *args: Any) -> Any:
        """Run fn(*args) as one op under a root span owned by the benchmark."""
        self._after_fork()
        self.op = (self.pid, self.ops)
        self.ops += 1
        idx = self.open(ROOT)
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self.op = None


# -- counters fed from each call's arguments and result --------------------------


def _count_zsq(c, args, result, dur, pre):
    c["kernels.zsq_integral_rs.evals"] += result[2]


def _count_points(c, args, result, dur, pre):
    c["kernels.z_rs_many.points"] += len(result)


def _count_route(c, args, result, dur, pre):
    c[f"zeta.hardy_z.calls_{result.route}"] += 1


def _count_quad(c, args, result, dur, pre):
    c["numerics.integrate.evals"] += result.evaluations


def _count_offknot(c, args, result, dur, pre):
    model, t = args[0], args[1]
    h = model.table.spacing
    if t > 0.0 and int(t / h) * h != t:
        c["ladder.cumulative_hl.offknot_calls"] += 1


def _count_save(c, args, result, dur, pre):
    c["ladder.cache_bytes"] = os.path.getsize(result)


def _knots_before(args):
    return len(args[0].table.values)


def _count_knots(c, args, result, dur, pre):
    c["ladder.extend_to.knots_built"] += len(args[0].table.values) - pre


def _count_report(c, args, result, dur, pre):
    c["hybrid.report.count"] += 1
    c["hybrid.report.chains_s"] += result.timings.get("chains_s", 0.0)
    c["hybrid.report.assemble_s"] += result.timings.get("assemble_s", 0.0)


class _SolveCounter:
    """Chain-cache hits seen from outside: keys each factory already solved."""

    def __init__(self) -> None:
        self.seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def __call__(self, c, args, result, dur, pre):
        factory, l, u, k, gf = args[:5]
        keys = self.seen.setdefault(factory, set())
        key = (int(l), u, k, gf.key)
        if key in keys:
            c["tower.ChainFactory.solve.hits"] += 1
        else:
            keys.add(key)
            c["tower.ChainFactory.solve.miss_s"] += dur * 1e-9


# -- installation ------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn: Callable,
          count: Callable | None, before: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pre = before(args) if before is not None else None
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx)
            raise
        dur = tracer.close(idx)
        if count is not None:
            count(tracer.counts, args, result, dur, pre)
        return result

    return wrapper


def _wrap_chain_weight(tracer: Tracer, fn: Callable) -> Callable:
    """Count chains built and weight evaluations (solver iterations)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        g = fn(*args, **kwargs)
        tracer.counts["tower.chain_weight.chains"] += 1

        def counted(xi):
            tracer.counts["tower.chain_weight.evals"] += 1
            return g(xi)

        return counted

    return wrapper


def _targets() -> list[tuple[Any, ...]]:
    """(owner, attribute, span name, counter[, before]) per traced call site."""
    t = [
        ("zetaladder._kernels", "zsq_integral_rs", "kernels.zsq_integral_rs", _count_zsq),
        # the batched Riemann-Siegel evaluator; on the numpy path every Z
        # evaluation goes through it, z_rs_one's one-point calls included
        ("zetaladder._kernels", "_z_rs_many_np", "kernels.z_rs_many", _count_points),
        ("zetaladder._kernels", "z_rs_one", "kernels.z_rs_one", None),
        ("zetaladder.zeta", "hardy_z", "zeta.hardy_z", _count_route),
        ("zetaladder.ladder", "integrate", "numerics.integrate", _count_quad),
        ("zetaladder.ladder", "invert_increasing", "numerics.invert_increasing", None),
        ("zetaladder.tower", "find_level_crossing", "numerics.find_level_crossing", None),
        ("zetaladder.ladder:LadderModel", "extend_to", "ladder.extend_to", _count_knots, _knots_before),
        ("zetaladder.ladder:LadderModel", "cumulative_hl", "ladder.cumulative_hl", _count_offknot),
        ("zetaladder.ladder:LadderModel", "phi1", "ladder.phi1", None),
        ("zetaladder.ladder:LadderModel", "ztilde_sq", "ladder.ztilde_sq", None),
        ("zetaladder.ladder:LadderModel", "reverse_step", "ladder.reverse_step", None),
        ("zetaladder.ladder:LadderModel", "save_table", "ladder.save_table", _count_save),
        ("zetaladder.ladder:LadderModel", "load_table", "ladder.load_table", None),
        ("zetaladder.tower:ChainFactory", "tower", "tower.ChainFactory.tower", None),
        ("zetaladder.tower:ChainFactory", "solve", "tower.ChainFactory.solve", _SolveCounter()),
        ("zetaladder.hybrid", "invariance_scan", "hybrid.invariance_scan", None),
    ]
    t += [("zetaladder.hybrid", f, f"hybrid.{f}", _count_report) for f in FORMULAS]
    return t


def _owner(path: str) -> Any:
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Installed:
    """Patches applied by :func:`install`; :meth:`remove` restores them."""

    def __init__(self) -> None:
        self.saved: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every layer's call sites; absent targets are listed, not fatal."""
    done = Installed()
    for path, attr, name, count, *rest in _targets():
        before = rest[0] if rest else None
        owner = _owner(path)
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            done.missing.append(f"{path.replace(':', '.')}.{attr}")
            continue
        if isinstance(raw, classmethod):
            new: Any = classmethod(_wrap(tracer, name, raw.__func__, count, before))
        else:
            new = _wrap(tracer, name, raw, count, before)
        done.saved.append((owner, attr, raw))
        setattr(owner, attr, new)
    tower = importlib.import_module("zetaladder.tower")
    if hasattr(tower, "make_chain_weight"):
        done.saved.append((tower, "make_chain_weight", tower.make_chain_weight))
        tower.make_chain_weight = _wrap_chain_weight(tracer, tower.make_chain_weight)
    else:
        done.missing.append("zetaladder.tower.make_chain_weight")
    return done


def wrapper_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds a span wrapper adds to one call: a wrapped no-op against a bare one,
    median of several alternating loops."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = _wrap(tracer, "noop", noop, None, None)

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        costs.append((loop(wrapped) - loop(noop)) / calls)
    return sorted(costs)[repeats // 2]


# -- worker hand-off -------------------------------------------------------------


def worker_dump(tracer: Tracer, out_dir: str) -> None:
    """Append this process's new spans and rewrite its counters, per pid."""
    pid = os.getpid()
    with open(os.path.join(out_dir, f"spans-{pid}.jsonl"), "a") as fh:
        for span in tracer.spans[tracer.dumped:]:
            fh.write(json.dumps(span) + "\n")
    tracer.dumped = len(tracer.spans)
    tmp = os.path.join(out_dir, f"counts-{pid}.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(tracer.counts, fh)
    os.replace(tmp, os.path.join(out_dir, f"counts-{pid}.json"))


def load_worker_dumps(out_dir: str) -> list[tuple[list[list[Any]], dict[str, float]]]:
    """Spans and counters of every worker that dumped into out_dir."""
    found = []
    for fname in sorted(os.listdir(out_dir)):
        if not fname.startswith("spans-"):
            continue
        pid = fname[len("spans-"):-len(".jsonl")]
        with open(os.path.join(out_dir, fname)) as fh:
            spans = [json.loads(line) for line in fh]
        with open(os.path.join(out_dir, f"counts-{pid}.json")) as fh:
            counts = json.load(fh)
        found.append((spans, counts))
    return found


# -- aggregation ---------------------------------------------------------------------


def self_times(spans: list[list[Any]]) -> list[int]:
    """Self time of every span (ns); raises if any span does not nest."""
    child = [0] * len(spans)
    for name, start, end, parent, op in spans:
        if end < start:
            raise ValueError(f"span {name} never closed")
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= start and end <= p[2]) or p[4] != op:
                raise ValueError(f"span {name} escapes its parent {p[0]}")
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def check_accounting(spans: list[list[Any]], selfs: list[int]) -> str | None:
    """Per op: no negative self time, and self times sum to the op's wall time."""
    if any(s < 0 for s in selfs):
        return "negative self time"
    wall: dict[Any, int] = {}
    total: dict[Any, int] = defaultdict(int)
    for span, s in zip(spans, selfs):
        key = json.dumps(span[4])
        total[key] += s
        if span[0] == ROOT:
            wall[key] = span[2] - span[1]
    for key, t in total.items():
        if key not in wall:
            return f"spans outside any op ({key})"
        if t != wall[key]:
            return f"op {key}: self times sum to {t} ns, wall is {wall[key]} ns"
    return None


def layer_totals(spans: list[list[Any]], selfs: list[int]) -> dict[str, float]:
    """Per span name: calls and summed self seconds."""
    out: dict[str, float] = defaultdict(float)
    for span, s in zip(spans, selfs):
        out[f"{span[0]}.calls"] += 1
        out[f"{span[0]}.self_s"] += s * 1e-9
    return out
