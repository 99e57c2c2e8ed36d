"""Which cmpdp functions the benchmark wraps: every layer for the traced
run, which derives the per-layer metrics from their spans and counts, and
the learned MIS recursions for the untraced run's solve timings.

Each function is wrapped at every module attribute through which the
library calls it: ``from .net import score_graph`` in dpsolve makes
``cmpdp.dpsolve.score_graph`` a name of its own, separate from
``cmpdp.net.score_graph``.
"""

from __future__ import annotations

import functools
import time
import weakref

from spans import Patches, Recorder

# (call name, layer). A layer's self time excludes its children, so the
# forward passes inside pair_loss_and_grad leave net.pair_grad with the
# backward pass alone.
CALL_NAMES = (
    ("cmpdp.net.score_graph", "net.forward"),
    ("cmpdp.dpsolve.score_graph", "net.forward"),
    ("cmpdp.selftrain.score_graph", "net.forward"),
    ("cmpdp.selftrain.pair_loss_and_grad", "net.pair_grad"),
    ("cmpdp.selftrain.adam_step", "net.adam"),
    ("cmpdp.graph.remove_vertices", "graph.remove_vertices"),
    ("cmpdp.dpsolve.build_graph", "graph.build_graph"),
    ("cmpdp.dpsolve.build_mvc_gadgets", "dpsolve.mvc_gadgets"),
    ("cmpdp.dpsolve.solve_mis", "dpsolve.solve_mis"),
    ("cmpdp.selftrain.solve_mis", "dpsolve.solve_mis"),
    ("cmpdp.evaluate.solve_mis", "dpsolve.solve_mis"),
    ("cmpdp.evaluate.solve_mvc", "dpsolve.solve_mvc"),
    ("cmpdp.dpsolve.rollout_estimate", "dpsolve.rollout"),
    ("cmpdp.selftrain.rollout_estimate", "dpsolve.rollout"),
    ("cmpdp.selftrain.train", "selftrain.train"),
    ("cmpdp.selftrain.refresh_buffer", "selftrain.refresh"),
    ("cmpdp.selftrain.measure_consistency", "selftrain.consistency"),
    ("cmpdp.selftrain._validate", "selftrain.validate"),
    ("cmpdp.classic.exact_mis", "classic.exact"),
    ("cmpdp.evaluate.exact_mis", "classic.exact"),
    ("cmpdp.classic.greedy_mis", "classic.greedy"),
    ("cmpdp.dpsolve.greedy_mis", "classic.greedy"),
    ("cmpdp.evaluate.greedy_mis", "classic.greedy"),
    ("cmpdp.evaluate.greedy_mvc", "classic.greedy"),
    ("cmpdp.evaluate.local_search_mis", "classic.local_search"),
)

# Factories whose comparators are wrapped as "dpsolve.compare" spans. Each
# decision looks up two scores in the factory's cache; the forward passes
# made through cmpdp.dpsolve.score_graph are the cache's misses.
COMPARATOR_FACTORIES = (
    "cmpdp.selftrain.learned_mis_comparator",
    "cmpdp.evaluate.learned_mis_comparator",
    "cmpdp.evaluate.learned_mvc_comparator",
)

PROBLEMS = ("mis", "mvc")
METHODS = ("cmp", "cmp-mixed", "greedy", "random-cmp", "local-search", "exact")

# (name, unit, better) for every per-layer metric, in output order.
PER_LAYER = (
    [
        ("net.forward.calls", "count", "lower"),
        ("net.forward.vertices", "count", "lower"),
        ("net.forward.self_s", "s", "lower"),
        ("net.pair_grad.calls", "count", "lower"),
        ("net.pair_grad.self_s", "s", "lower"),
        ("net.adam.calls", "count", "lower"),
        ("net.adam.self_s", "s", "lower"),
        ("graph.remove_vertices.calls", "count", "lower"),
        ("graph.remove_vertices.self_s", "s", "lower"),
        ("graph.build_graph.calls", "count", "lower"),
        ("graph.build_graph.self_s", "s", "lower"),
        ("dpsolve.mvc_gadgets.calls", "count", "lower"),
        ("dpsolve.mvc_gadgets.self_s", "s", "lower"),
        ("dpsolve.solve_mis.calls", "count", "lower"),
        ("dpsolve.solve_mis.self_s", "s", "lower"),
        ("dpsolve.solve_mvc.calls", "count", "lower"),
        ("dpsolve.solve_mvc.self_s", "s", "lower"),
        ("dpsolve.steps", "count", "lower"),
        ("dpsolve.rollout.calls", "count", "lower"),
        ("dpsolve.rollout.s", "s", "lower"),
        ("dpsolve.compare.calls", "count", "lower"),
        ("dpsolve.compare.self_s", "s", "lower"),
        ("dpsolve.score_cache.hits", "count", "higher"),
        ("dpsolve.score_cache.misses", "count", "lower"),
        ("dpsolve.score_cache.hit_rate", "frac", "higher"),
        ("selftrain.train.s", "s", "lower"),
        ("selftrain.refresh.s", "s", "lower"),
        ("selftrain.consistency.s", "s", "lower"),
        ("selftrain.sgd.s", "s", "lower"),
        ("selftrain.validate.s", "s", "lower"),
        ("selftrain.pairs", "count", "higher"),
        ("selftrain.buffer_fill", "frac", "higher"),
        ("selftrain.tie_frac", "frac", "lower"),
        ("selftrain.label1_frac", "frac", "higher"),
        ("classic.exact.calls", "count", "lower"),
        ("classic.exact.self_s", "s", "lower"),
        ("classic.exact.expanded", "count", "lower"),
        ("classic.greedy.calls", "count", "lower"),
        ("classic.greedy.self_s", "s", "lower"),
        ("classic.local_search.calls", "count", "lower"),
        ("classic.local_search.self_s", "s", "lower"),
    ]
    + [(f"evaluate.{p}.{m}.s", "s", "lower") for p in PROBLEMS for m in METHODS]
    + [
        ("evaluate.mis.cmp-mixed.ratio", "ratio", "higher"),
        ("evaluate.mvc.cmp.ratio", "ratio", "lower"),
        ("evaluate.mvc.cmp-mixed.ratio", "ratio", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)

LAYERS = sorted({layer for _, layer in CALL_NAMES} | {"dpsolve.compare"})


def install(rec: Recorder, patches: Patches) -> None:
    """Wrap every call name; raises LookupError if one no longer exists."""
    counts = rec.counts

    def forward(args):
        counts["net.forward.vertices"] += args[1].n

    def cache_miss(args):
        counts["dpsolve.score_cache.misses"] += 1
        forward(args)

    def steps(result):
        counts["dpsolve.steps"] += len(result[1].steps)

    def expanded(result):
        counts["classic.exact.expanded"] += result.expanded

    def buffer(result):
        pairs = result.train + result.val
        counts["selftrain.pairs"] += len(pairs)
        counts["selftrain.capacity"] += result.capacity
        counts["selftrain.ties"] += sum(s.est_g == s.est_gp for s in pairs)
        counts["selftrain.label1"] += sum(s.label for s in pairs)

    def lookup(args):
        counts["dpsolve.score_cache.lookups"] += 2

    on_call = {
        "cmpdp.dpsolve.score_graph": cache_miss,
        "cmpdp.net.score_graph": forward,
        "cmpdp.selftrain.score_graph": forward,
    }
    on_result = {"selftrain.refresh": buffer, "classic.exact": expanded,
                 "dpsolve.solve_mis": steps, "dpsolve.solve_mvc": steps}
    for name, layer in CALL_NAMES:
        patches.replace(name, lambda fn, layer=layer, name=name: rec.wrap(
            fn, layer, on_call.get(name), on_result.get(layer)))

    def factory(make):
        @functools.wraps(make)
        def wrapped(*args, **kwargs):
            return rec.wrap(make(*args, **kwargs), "dpsolve.compare", on_call=lookup)
        return wrapped

    for name in COMPARATOR_FACTORIES:
        patches.replace(name, factory)


def layer_metrics(rec: Recorder, eval_seconds: dict, eval_ratios: dict,
                  overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced unit. ``eval_seconds`` and
    ``eval_ratios`` are keyed by (problem, method)."""
    spans = rec.per_layer()
    counts = rec.counts
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    values: dict[str, float] = {}
    for layer in LAYERS:
        row = spans.get(layer, zero)
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.s"] = row["s"]
    lookups = counts["dpsolve.score_cache.lookups"]
    misses = counts["dpsolve.score_cache.misses"]
    pairs = counts["selftrain.pairs"]
    values.update({
        "net.forward.vertices": counts["net.forward.vertices"],
        "dpsolve.steps": counts["dpsolve.steps"],
        "dpsolve.score_cache.hits": lookups - misses,
        "dpsolve.score_cache.misses": misses,
        "dpsolve.score_cache.hit_rate": 1.0 - misses / lookups if lookups else 0.0,
        "selftrain.sgd.s": values["selftrain.train.s"] - sum(
            values[f"selftrain.{phase}.s"] for phase in ("refresh", "consistency", "validate")),
        "selftrain.pairs": pairs,
        "selftrain.buffer_fill": pairs / counts["selftrain.capacity"] if pairs else 0.0,
        "selftrain.tie_frac": counts["selftrain.ties"] / pairs if pairs else 0.0,
        "selftrain.label1_frac": counts["selftrain.label1"] / pairs if pairs else 0.0,
        "classic.exact.expanded": counts["classic.exact.expanded"],
        "trace.overhead_frac": overhead_frac,
    })
    for p in PROBLEMS:
        for m in METHODS:
            values[f"evaluate.{p}.{m}.s"] = eval_seconds.get((p, m), 0.0)
    for p, m in (("mis", "cmp-mixed"), ("mvc", "cmp"), ("mvc", "cmp-mixed")):
        values[f"evaluate.{p}.{m}.ratio"] = eval_ratios.get((p, m), 0.0)
    return {name: values[name] for name, _, _ in PER_LAYER}


class SolveTimer:
    """Times every solve_mis recursion that a learned comparator drives,
    wherever the library calls it: harvests and roll-outs inside train(),
    and the roll-outs of learned run_method calls. It samples all of a unit,
    not one stretch of it, so the samples average over the machine's speed
    as it drifts. Lighter than a Recorder: the untraced run uses it."""

    def __init__(self, patches: Patches) -> None:
        self.seconds: list[float] = []
        learned: weakref.WeakSet = weakref.WeakSet()

        def factory(make):
            @functools.wraps(make)
            def wrapped(*args, **kwargs):
                comparator = make(*args, **kwargs)
                learned.add(comparator)
                return comparator
            return wrapped

        def solver(solve):
            @functools.wraps(solve)
            def timed(g, comparator, *args, **kwargs):
                if comparator not in learned:
                    return solve(g, comparator, *args, **kwargs)
                t0 = time.perf_counter()
                result = solve(g, comparator, *args, **kwargs)
                self.seconds.append(time.perf_counter() - t0)
                return result
            return timed

        for name in COMPARATOR_FACTORIES:
            patches.replace(name, factory)
        for name, layer in CALL_NAMES:
            if layer == "dpsolve.solve_mis":
                patches.replace(name, solver)

    def take(self) -> list[float]:
        taken, self.seconds = self.seconds, []
        return taken
