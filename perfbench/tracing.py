"""In-process span tracing of lamvar, wrapped from outside the package.

``install`` replaces public functions and methods of the lamvar modules with
wrappers that open a span on entry and close it on exit.  A name is rebound
at every module that imported it (``from .variation import lambda_variation``
in both ``experiments`` and ``cli``), and a method is rebound under every
class attribute that aliases it (``PiecewiseLinear.__call__ = eval``).  The
program's code is not changed.  Private kernels (``_dc_split``,
``_subset_search``, ``_restricted_search``) are not wrapped; their time is
self time of the public function that calls them.

Spans are kept in memory as an aggregated call tree, one node per
(invocation, parent node, name): a node holds the name, its parent, the
invocation id, the first start and last end, the call count, total time and
self time.  Self time is a span's duration minus the durations of its direct
child spans.  Aggregating per node keeps memory bounded when a kernel such as
``LambdaSequence.term`` is called millions of times; the per-node sums are
exactly the sums over the individual spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List


class Node:
    __slots__ = ("name", "parent", "invocation", "start", "end", "calls", "total", "self_time", "counts")

    def __init__(self, name: str, parent: int, invocation: int, start: float):
        self.name = name
        self.parent = parent
        self.invocation = invocation
        self.start = start
        self.end = start
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts: Dict[str, float] = defaultdict(float)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "parent": self.parent,
            "invocation": self.invocation,
            "start": self.start,
            "end": self.end,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "counts": dict(self.counts),
        }


class Tracer:
    """Span stack plus aggregated call tree.  `clock` is injectable so the
    self-time arithmetic can be tested with synthetic times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.nodes: List[Node] = []
        self._ids: Dict[tuple, int] = {}
        # open spans: [node id, start, time covered by direct children, note]
        self.stack: List[list] = []
        self.invocation = 0
        self.stalled: List[tuple] = []

    def begin(self, name: str) -> int:
        """Open a span; returns its depth, which `end` takes."""
        now = self.clock()
        parent = self.stack[-1][0] if self.stack else -1
        key = (self.invocation, parent, name)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.nodes)
            self.nodes.append(Node(name, parent, self.invocation, now))
        self.stack.append([nid, now, 0.0, None])
        return len(self.stack) - 1

    def end(self, depth: int) -> None:
        """Close the span opened at `depth`, and any left open above it."""
        now = self.clock()
        while len(self.stack) > depth:
            nid, start, children, _ = self.stack.pop()
            duration = now - start
            node = self.nodes[nid]
            node.calls += 1
            node.total += duration
            node.self_time += duration - children
            node.end = now
            if self.stack:
                self.stack[-1][2] += duration

    def record_stall(self) -> None:
        """Note which spans are open when an invocation hits its deadline;
        called from the alarm handler, before the stack unwinds."""
        self.stalled.append((self.invocation, [self.nodes[f[0]].name for f in self.stack]))

    def frame(self, depth: int) -> list:
        return self.stack[depth]

    def node(self, depth: int) -> Node:
        return self.nodes[self.stack[depth][0]]

    def by_name(self) -> Dict[str, dict]:
        """Calls, self time and counters summed over nodes of each name."""
        out: Dict[str, dict] = {}
        for node in self.nodes:
            agg = out.setdefault(node.name, {"calls": 0, "self_s": 0.0, "counts": defaultdict(float)})
            agg["calls"] += node.calls
            agg["self_s"] += node.self_time
            for key, value in node.counts.items():
                if key.endswith("_max"):
                    agg["counts"][key] = max(agg["counts"][key], value)
                else:
                    agg["counts"][key] += value
        return out


# -- hooks: counters recorded at the span boundary --------------------------


def _count_candidates(tracer: Tracer, depth: int, args, kwargs, result) -> None:
    # critical_points reports its size to the span that called it, so an
    # enclosing lambda_variation can count its candidate set.
    if depth > 0:
        tracer.frame(depth - 1)[3] = len(result.points)


def _candidates_from_note(tracer: Tracer, depth: int, args, kwargs, result) -> None:
    n = tracer.frame(depth)[3]
    if n is not None:
        counts = tracer.node(depth).counts
        counts["candidates_sum"] += n
        counts["candidates_n"] += 1
        counts["candidates_max"] = max(counts["candidates_max"], n)


def _candidates_from_points(tracer: Tracer, depth: int, args, kwargs, result) -> None:
    points = args[2] if len(args) > 2 else kwargs.get("points", ())
    if hasattr(points, "__len__"):
        counts = tracer.node(depth).counts
        counts["candidates_sum"] += len(points)
        counts["candidates_n"] += 1


def _restricted_result(tracer: Tracer, depth: int, args, kwargs, result) -> None:
    counts = tracer.node(depth).counts
    counts["completed"] += 1
    counts["exact"] += result.method == "exact"


def _isolate(tracer: Tracer, depth: int, args, kwargs, result) -> None:
    counts = tracer.node(depth).counts
    counts["degree_sum"] += args[0].degree
    counts["roots"] += sum(tag == "isolated-root" for tag in result.tags)


def _elevate(tracer: Tracer, depth: int, args, kwargs, result) -> None:
    tracer.node(depth).counts["degree_steps"] += args[1] if len(args) > 1 else kwargs.get("r", 1)


def _coeffs(tracer: Tracer, depth: int, args, kwargs, result) -> None:
    tracer.node(depth).counts["coeffs"] += len(result.coeffs)


def _bytes_out(tracer: Tracer, depth: int, args, kwargs, result) -> None:
    tracer.node(depth).counts["bytes_out"] += len(result.encode("utf-8"))


def _report(tracer: Tracer, depth: int, args, kwargs, result) -> None:
    counts = tracer.node(depth).counts
    counts["cases"] += len(result.cases)
    if result.campaign == "converge":
        counts["trend_violations"] += len(result.violations)


def _resource_error(tracer: Tracer, depth: int, exc: BaseException) -> None:
    if type(exc).__name__ == "ResourceError":
        tracer.node(depth).counts["resource_errors"] += 1


#: (module, attribute path, span name, hook after return)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("serialize", "dumps", "serialize.dumps", _bytes_out),
    ("serialize", "load_function_file", "serialize.load", None),
    ("serialize", "load_lambda_file", "serialize.load", None),
    ("experiments", "run_diminish_campaign", "experiments", _report),
    ("experiments", "run_oracle_crosscheck", "experiments", _report),
    ("experiments", "run_convergence_study", "experiments", _report),
    ("experiments", "run_counterexample", "experiments", _report),
    ("experiments", "random_plf", "experiments", None),
    ("operators", "bernstein_of", "operators.bernstein_of", _coeffs),
    ("operators", "kantorovich_of", "operators.kantorovich_of", _coeffs),
    ("functions", "isolate_extrema", "functions.isolate_extrema", _isolate),
    ("functions", "critical_points", "functions.critical_points", _count_candidates),
    ("functions", "subtract", "functions.subtract", None),
    ("functions", "BernsteinPoly.elevate", "functions.BernsteinPoly.elevate", _elevate),
    ("functions", "BernsteinPoly.restrict", "functions.BernsteinPoly.restrict", None),
    ("functions", "BernsteinPoly.eval", "functions.BernsteinPoly.eval", None),
    ("functions", "PiecewiseLinear.eval", "functions.PiecewiseLinear.eval", None),
    ("functions", "PiecewiseLinear.integrate", "functions.PiecewiseLinear.integrate", None),
    ("variation", "lambda_variation", "variation.lambda_variation", _candidates_from_note),
    ("variation", "lambda_variation_on_set", "variation.lambda_variation_on_set", _candidates_from_points),
    ("variation", "restricted_variation", "variation.restricted_variation", _restricted_result),
    ("variation", "grid_oracle", "variation.grid_oracle", None),
    ("lambda_seq", "LambdaSequence.term", "lambda_seq.term", None),
]


def _wrap(fn, name: str, tracer: Tracer, after) -> Callable:
    begin, end = tracer.begin, tracer.end

    if after is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = begin(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                _resource_error(tracer, depth, exc)
                raise
            finally:
                end(depth)
        return traced

    @functools.wraps(fn)
    def traced_with_hook(*args, **kwargs):
        depth = begin(name)
        try:
            result = fn(*args, **kwargs)
            after(tracer, depth, args, kwargs, result)
            return result
        except Exception as exc:
            _resource_error(tracer, depth, exc)
            raise
        finally:
            end(depth)
    return traced_with_hook


def install(tracer: Tracer, package: str = "lamvar") -> Callable[[], None]:
    """Wrap every target at every site that refers to it; returns a function
    that restores the originals."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
    undo: List[tuple] = []
    for module_name, path, span, after in TARGETS:
        module = sys.modules[f"{package}.{module_name}"]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            sites = [(owner, key) for key, value in vars(owner).items() if value is original]
        else:
            original = getattr(module, attr)
            sites = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
        wrapper = _wrap(original, span, tracer, after)
        for obj, key in sites:
            setattr(obj, key, wrapper)
            undo.append((obj, key, original))

    def uninstall() -> None:
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)

    return uninstall


# -- per-layer metrics --------------------------------------------------------

#: metric -> (unit, better, end-to-end metric it should move, where it does most work -> where flat)
LAYER_METRICS = {
    "cli.import_s": ("s", "lower", "setup_s, op_p50_s", "wiener (all runs pay it) -> diminish insensitive"),
    "serialize.load.self_s": ("s", "lower", "setup_s, op_p50_s", "wiener -> diminish"),
    "serialize.dumps.calls": ("count", "lower", "items_per_s", "diminish, oracle -> converge (CSV)"),
    "serialize.dumps.self_s": ("s", "lower", "items_per_s", "diminish, oracle -> converge (CSV)"),
    "serialize.dumps.bytes_out": ("bytes", "lower", "items_per_s", "diminish, oracle -> converge (CSV)"),
    "experiments.self_s": ("s", "lower", "items_per_s", "diminish, oracle -> wiener"),
    "experiments.cases": ("count", "higher", "items_per_s", "diminish, oracle -> wiener"),
    "experiments.trend_violations": ("count", "lower", "items_per_s", "converge -> wiener"),
    "operators.bernstein_of.calls": ("count", "lower", "items_per_s", "converge -> oracle"),
    "operators.bernstein_of.self_s": ("s", "lower", "items_per_s", "converge -> oracle"),
    "operators.kantorovich_of.calls": ("count", "lower", "items_per_s", "converge -> oracle"),
    "operators.kantorovich_of.self_s": ("s", "lower", "items_per_s", "converge -> oracle"),
    "operators.coeffs_built": ("count", "lower", "items_per_s", "converge -> oracle"),
    "functions.isolate_extrema.calls": ("count", "lower", "items_per_s, op_p50_s", "diminish, converge -> oracle, wiener"),
    "functions.isolate_extrema.self_s": ("s", "lower", "items_per_s, op_p50_s", "diminish, converge -> oracle, wiener"),
    "functions.isolate_extrema.degree_sum": ("count", "lower", "items_per_s, op_p50_s", "diminish, converge -> oracle, wiener"),
    "functions.isolate_extrema.roots": ("count", "lower", "items_per_s, op_p50_s", "diminish, converge -> oracle, wiener"),
    "functions.critical_points.calls": ("count", "lower", "items_per_s", "diminish -> wiener"),
    "functions.critical_points.self_s": ("s", "lower", "items_per_s", "diminish -> wiener"),
    "functions.subtract.calls": ("count", "lower", "items_per_s, op_p50_s", "converge -> diminish, oracle, wiener"),
    "functions.subtract.self_s": ("s", "lower", "items_per_s, op_p50_s", "converge -> diminish, oracle, wiener"),
    "functions.BernsteinPoly.elevate.calls": ("count", "lower", "items_per_s, op_p50_s", "converge -> diminish, oracle, wiener"),
    "functions.BernsteinPoly.elevate.self_s": ("s", "lower", "items_per_s, op_p50_s", "converge -> diminish, oracle, wiener"),
    "functions.BernsteinPoly.elevate.degree_steps": ("count", "lower", "items_per_s, op_p50_s", "converge -> diminish, oracle, wiener"),
    "functions.BernsteinPoly.restrict.calls": ("count", "lower", "items_per_s, op_p50_s", "converge -> diminish, oracle, wiener"),
    "functions.BernsteinPoly.restrict.self_s": ("s", "lower", "items_per_s, op_p50_s", "converge -> diminish, oracle, wiener"),
    "functions.BernsteinPoly.eval.calls": ("count", "lower", "items_per_s", "diminish, converge -> oracle"),
    "functions.BernsteinPoly.eval.self_s": ("s", "lower", "items_per_s", "diminish, converge -> oracle"),
    "functions.PiecewiseLinear.eval.calls": ("count", "lower", "items_per_s", "diminish, converge -> oracle"),
    "functions.PiecewiseLinear.eval.self_s": ("s", "lower", "items_per_s", "diminish, converge -> oracle"),
    "functions.PiecewiseLinear.integrate.calls": ("count", "lower", "items_per_s", "diminish, converge -> oracle"),
    "functions.PiecewiseLinear.integrate.self_s": ("s", "lower", "items_per_s", "diminish, converge -> oracle"),
    "variation.lambda_variation.calls": ("count", "lower", "items_per_s", "oracle, converge -> wiener"),
    "variation.lambda_variation.self_s": ("s", "lower", "items_per_s", "oracle, converge -> wiener"),
    "variation.lambda_variation.candidates_mean": ("count", "lower", "items_per_s", "oracle, converge -> wiener"),
    "variation.lambda_variation.candidates_max": ("count", "lower", "items_per_s", "oracle, converge -> wiener"),
    "variation.lambda_variation_on_set.calls": ("count", "lower", "items_per_s", "diminish -> oracle, wiener"),
    "variation.lambda_variation_on_set.self_s": ("s", "lower", "items_per_s", "diminish -> oracle, wiener"),
    "variation.lambda_variation_on_set.candidates_mean": ("count", "lower", "items_per_s", "diminish -> oracle, wiener"),
    "variation.restricted_variation.calls": ("count", "lower", "items_per_s, fail_ratio, op_tail_s", "wiener -> diminish, converge, oracle"),
    "variation.restricted_variation.self_s": ("s", "lower", "items_per_s, fail_ratio, op_tail_s", "wiener -> diminish, converge, oracle"),
    "variation.restricted_variation.exact_share": ("ratio", "higher", "items_per_s, fail_ratio, op_tail_s", "wiener -> diminish, converge, oracle"),
    "variation.restricted_variation.resource_errors": ("count", "lower", "items_per_s, fail_ratio, op_tail_s", "wiener -> diminish, converge, oracle"),
    "variation.stalled_ops": ("count", "lower", "items_per_s, fail_ratio, op_tail_s", "wiener -> diminish, converge, oracle"),
    "variation.grid_oracle.calls": ("count", "lower", "items_per_s", "oracle -> all others"),
    "variation.grid_oracle.self_s": ("s", "lower", "items_per_s", "oracle -> all others"),
    "lambda_seq.term.calls": ("count", "lower", "items_per_s", "oracle -> converge"),
    "lambda_seq.term.self_s": ("s", "lower", "items_per_s", "oracle -> converge"),
    "trace.overhead_ratio": ("ratio", "lower", "none; qualifies the layer numbers", "all"),
}


def layer_metrics(tracer: Tracer, import_s: float, overhead_ratio: float) -> Dict[str, float]:
    """Every metric of LAYER_METRICS, from the spans a traced pass recorded."""
    spans = tracer.by_name()
    empty = {"calls": 0, "self_s": 0.0, "counts": defaultdict(float)}

    def agg(name: str) -> dict:
        return spans.get(name, empty)

    def mean(name: str) -> float:
        c = agg(name)["counts"]
        return c["candidates_sum"] / c["candidates_n"] if c["candidates_n"] else 0.0

    out: Dict[str, float] = {"cli.import_s": import_s}
    out["serialize.load.self_s"] = agg("serialize.load")["self_s"]
    for name, counters in (
        ("serialize.dumps", ("bytes_out",)),
        ("operators.bernstein_of", ()),
        ("operators.kantorovich_of", ()),
        ("functions.isolate_extrema", ("degree_sum", "roots")),
        ("functions.critical_points", ()),
        ("functions.subtract", ()),
        ("functions.BernsteinPoly.elevate", ("degree_steps",)),
        ("functions.BernsteinPoly.restrict", ()),
        ("functions.BernsteinPoly.eval", ()),
        ("functions.PiecewiseLinear.eval", ()),
        ("functions.PiecewiseLinear.integrate", ()),
        ("variation.lambda_variation", ()),
        ("variation.lambda_variation_on_set", ()),
        ("variation.restricted_variation", ("resource_errors",)),
        ("variation.grid_oracle", ()),
        ("lambda_seq.term", ()),
    ):
        a = agg(name)
        out[f"{name}.calls"] = a["calls"]
        out[f"{name}.self_s"] = a["self_s"]
        for counter in counters:
            out[f"{name}.{counter}"] = int(a["counts"][counter])
    exp = agg("experiments")
    out["experiments.self_s"] = exp["self_s"]
    out["experiments.cases"] = int(exp["counts"]["cases"])
    out["experiments.trend_violations"] = int(exp["counts"]["trend_violations"])
    out["operators.coeffs_built"] = int(
        agg("operators.bernstein_of")["counts"]["coeffs"] + agg("operators.kantorovich_of")["counts"]["coeffs"]
    )
    lv = agg("variation.lambda_variation")
    out["variation.lambda_variation.candidates_mean"] = mean("variation.lambda_variation")
    out["variation.lambda_variation.candidates_max"] = int(lv["counts"]["candidates_max"])
    out["variation.lambda_variation_on_set.candidates_mean"] = mean("variation.lambda_variation_on_set")
    rv = agg("variation.restricted_variation")
    completed = rv["counts"]["completed"]
    out["variation.restricted_variation.exact_share"] = rv["counts"]["exact"] / completed if completed else 0.0
    out["variation.stalled_ops"] = sum(
        any(name.startswith("variation.") for name in open_names) for _, open_names in tracer.stalled
    )
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name in LAYER_METRICS}


def hot_spots(tracer: Tracer, top: int = 5) -> List[tuple]:
    """Span names ranked by self time, excluding the per-invocation root."""
    ranked = sorted(
        ((a["self_s"], name) for name, a in tracer.by_name().items() if name != "cli.main"),
        reverse=True,
    )
    return [(name, s) for s, name in ranked[:top]]
