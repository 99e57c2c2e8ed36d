"""The three benchmark workloads: their inputs, their unit of work, and the
checks on every output.

Every workload runs in one process with one caller, closed loop: a unit
starts when the previous one has returned. The graphs that ``train-er`` and
``eval-mixed`` work on are the acceptance suite's own, at every seed: their
cost follows their shape, so a fresh draw of 50 small graphs per seed would
add its own spread to the timings. ``--seed`` moves the seeds of their
solves and roll-outs, and draws the ``solve-large`` graphs.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from cmpdp import evaluate, net, selftrain
from cmpdp.classic import exact_mis
from cmpdp.config import RunConfig
from cmpdp.dpsolve import derive_seed
from cmpdp.generators import GenSpec, generate
from cmpdp.graph import build_graph
# A binding of the benchmark's own, so that the traced run does not count
# the checks' forward passes as the workload's.
from cmpdp.net import score_graph

from spans import Patches

HERE = Path(__file__).resolve().parent
WEIGHTS_FILE = HERE / "weights" / "er-acceptance.cmp"
# Printed by make_weights.py; the fixed weights must not drift with the code.
WEIGHTS_SHA256 = "8d3645400e927262855759dd7c02339820ac71a0a0306173921634e82466e338"
ACCEPTANCE_TRAIN_SEED = 81
HELD_OUT_SEED = 82
SEED_STRIDE = 100


class WeightsDigestError(net.WeightFileError):
    """The fixed weights file is not the one make_weights.py produced."""


def er_graphs(count: int, p: float, seed: int):
    """The acceptance suite's ER sets: n in 15..35 drawn from ``seed``,
    graph i generated with seed ``seed + 1000 + i``."""
    rng = random.Random(seed)
    return [
        generate(GenSpec("er", n=rng.randint(15, 35), p=p, seed=seed + 1000 + i))
        for i in range(count)
    ]


def sparse_graph(n: int, m: int, rng: random.Random):
    """Uniform random graph with exactly n vertices and m edges."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return build_graph(n, sorted(edges))


def load_weights(path: Path = WEIGHTS_FILE) -> net.CmpParams:
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != WEIGHTS_SHA256:
        raise WeightsDigestError(f"{path.name}: sha256 {digest}, expected {WEIGHTS_SHA256}")
    return net.params_from_bytes(data)


@dataclass
class Outcome:
    """What one unit did: its timed seconds, the seconds of each learned MIS
    recursion, per (problem, method) seconds and ratios, and checks."""

    seconds: float = 0.0
    solve_seconds: list[float] = field(default_factory=list)
    method_seconds: dict = field(default_factory=lambda: defaultdict(float))
    ratios: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _capture(patches: Patches, seen: dict) -> None:
    """Record every vertex set eval_dataset produces, keyed by (graph id,
    method), so that each row can be checked against its graph."""

    def run_method(fn):
        def wrapped(g, method, *args, **kwargs):
            vs, status = fn(g, method, *args, **kwargs)
            seen[id(g), method] = vs
            return vs, status
        return wrapped

    def exact(fn):
        def wrapped(g, *args, **kwargs):
            r = fn(g, *args, **kwargs)
            seen[id(g), evaluate.METHOD_EXACT] = r.vertex_set
            return r
        return wrapped

    patches.replace("cmpdp.evaluate.run_method", run_method)
    patches.replace("cmpdp.evaluate.exact_mis", exact)
    patches.replace("cmpdp.evaluate.exact_mvc", exact)


def _is_valid(vs, g) -> bool:
    return vs is not None and vs.valid_for(g)


def _ratio_ok(ratio: float, problem: str) -> bool:
    if not math.isfinite(ratio):
        return False
    return ratio <= 1.0 if problem == evaluate.MIS else ratio >= 1.0


def evaluate_checked(out: Outcome, graphs, methods, problem, cfg, seed, params,
                     only: int | None = None) -> float:
    """eval_dataset with every row checked: a valid set of the reported
    size, an exact optimum (no "bound" row), a finite ratio on the right
    side of 1. ``only`` restricts the call to one graph under its id in the full set.
    Returns the seconds eval_dataset took."""
    picked = range(len(graphs)) if only is None else [only]
    seen: dict = {}
    with Patches() as patches:
        _capture(patches, seen)
        t0 = time.perf_counter()
        report = evaluate.eval_dataset([graphs[i] for i in picked], methods, problem, cfg, seed,
                                       params, graph_ids=[f"g{i:04d}" for i in picked])
        seconds = time.perf_counter() - t0
    for row in report.rows:
        g = graphs[int(row.graph_id[1:])]
        vs = seen.get((id(g), row.method))
        ok = (_is_valid(vs, g) and len(vs) == row.size and row.status == evaluate.STATUS_OK
              and _ratio_ok(row.ratio, problem))
        out.check(ok, f"{problem} {row.method} {row.graph_id}: size {row.size}, "
                      f"optimum {row.optimum}, status {row.status}")
        out.method_seconds[problem, row.method] += row.seconds
        out.ratios[problem, row.method].append(row.ratio)
    out.check(len(report.rows) == len(picked) * len(methods), f"{problem}: row count")
    return seconds


def check_logits(out: Outcome, params, graphs) -> None:
    for i, g in enumerate(graphs):
        out.check(math.isfinite(score_graph(params, g)[0]), f"logit of graph {i}")


class TrainER:
    """train() on the acceptance ER setup cut to 20 epochs (two buffer
    refreshes), then the fresh model on the held-out acceptance-08 set. The
    unit's seconds cover both."""

    name = "train-er"
    min_units = 1
    trace_units = 1

    def setup(self, seed: int):
        shift = SEED_STRIDE * seed
        cfg = RunConfig(total_epochs=20, mixed=True, seed=7, num_rollouts=3)
        return {
            "train": er_graphs(50, 0.15, ACCEPTANCE_TRAIN_SEED),
            "held": er_graphs(50, 0.15, HELD_OUT_SEED),
            "cfg": cfg,
            "eval_seed": 83 + shift,
        }

    def unit(self, inputs, k: int) -> Outcome:
        out = Outcome()
        t0 = time.perf_counter()
        params, rows = selftrain.train(inputs["train"], inputs["cfg"])
        out.seconds = time.perf_counter() - t0
        out.check(len(rows) == inputs["cfg"].total_epochs, "one metrics row per epoch")
        out.check(all(math.isfinite(r.train_loss) and math.isfinite(r.val_loss) for r in rows),
                  "finite training losses")
        try:
            params.check_shapes()
            out.check(True, "trained weights")
        except (net.NonFiniteError, net.WeightDimensionError) as exc:
            out.check(False, f"trained weights: {exc}")
            return out
        out.seconds += evaluate_checked(out, inputs["held"], [evaluate.METHOD_CMP], evaluate.MIS,
                                        inputs["cfg"], inputs["eval_seed"], params)
        check_logits(out, params, inputs["held"])
        return out


class SolveLarge:
    """run_method(g, "cmp", "mis") on sparse random graphs well above the
    training sizes (n = 110, average degree exactly 3), with the fixed
    weights. The unit is one solve: its default three roll-outs share one
    comparator and its score cache. Set-up draws the graphs and finds their
    exact optima, so that the checks add neither time nor spans to a unit.
    A run makes at least one solve per graph."""

    name = "solve-large"
    n = 110
    pool = 48
    min_units = pool
    trace_units = 8

    def setup(self, seed: int):
        rng = random.Random(20_000 + SEED_STRIDE * seed)
        cfg = RunConfig()
        graphs = [sparse_graph(self.n, 3 * self.n // 2, rng) for _ in range(self.pool)]
        return {"params": load_weights(), "cfg": cfg, "seed": seed, "graphs": graphs,
                "optima": [exact_mis(g, cfg.exact_budget) for g in graphs]}

    def unit(self, inputs, k: int) -> Outcome:
        out = Outcome()
        params, cfg = inputs["params"], inputs["cfg"]
        g = inputs["graphs"][k % self.pool]
        t0 = time.perf_counter()
        vs, status = evaluate.run_method(g, evaluate.METHOD_CMP, evaluate.MIS, cfg,
                                         derive_seed(inputs["seed"], "solve", k), params)
        out.seconds = time.perf_counter() - t0
        r = inputs["optima"][k % self.pool]
        ratio = len(vs) / r.size if r.optimal and r.size else math.nan
        out.check(_is_valid(vs, g) and status == evaluate.STATUS_OK
                  and _ratio_ok(ratio, evaluate.MIS),
                  f"graph {k}: size {len(vs)}, optimum {r.size}, optimal {r.optimal}")
        key = evaluate.MIS, evaluate.METHOD_CMP
        out.method_seconds[key] += out.seconds
        # Solution quality over the first solve of each graph only, so that
        # it does not depend on how many units the machine's speed allowed.
        if k < self.pool:
            out.ratios[key].append(ratio)
        check_logits(out, params, [g])
        return out


class EvalMixed:
    """eval_dataset with all six methods on MIS and on MVC over the held-out
    acceptance-08 ER set, with the fixed weights. It is called graph by
    graph, MIS then MVC, so that the learned MIS solves spread over the
    whole unit instead of its first fifth; the rows are the ones a single
    call over the set would give."""

    name = "eval-mixed"
    min_units = 1
    trace_units = 1

    def setup(self, seed: int):
        shift = SEED_STRIDE * seed
        return {"params": load_weights(), "held": er_graphs(50, 0.15, HELD_OUT_SEED),
                "cfg": RunConfig(), "eval_seed": 83 + shift}

    def unit(self, inputs, k: int) -> Outcome:
        out = Outcome()
        for i in range(len(inputs["held"])):
            for problem in (evaluate.MIS, evaluate.MVC):
                out.seconds += evaluate_checked(out, inputs["held"], evaluate.METHODS, problem,
                                                inputs["cfg"], inputs["eval_seed"],
                                                inputs["params"], only=i)
        check_logits(out, inputs["params"], inputs["held"])
        return out


WORKLOADS = {w.name: w for w in (TrainER(), SolveLarge(), EvalMixed())}
