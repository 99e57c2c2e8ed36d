"""Self-supervised training of the comparator.

The loop alternates two phases: (1) refresh a buffer of labeled graph pairs
by running the current comparator-guided solver on sampled training graphs,
taking sibling branch pairs from the recursion steps, and annotating each pair
with roll-out (or greedy-floored) size estimates; (2) several epochs of
mini-batch Adam on the pair classification loss. Labels always come from the
model's own roll-outs, never from an exact solver. Before each decision,
those roll-outs, like the ones behind the consistency measure, delete the
neighbour of every degree-1 vertex and every vertex u with a neighbour v such
that N[v] ⊆ N[u]. Swapping u for v in a maximum independent set gives
another, so some maximum independent set excludes each such vertex and both
reductions are exact (see ``dpsolve.solve_mis``). The harvest's own solve does
not reduce, so every recorded step is a decision of the comparator. Training returns the
parameters of its last epoch: each refresh labels pairs under the latest
model, and each refresh's validation split is new, so validation losses from
different refreshes are not comparable and pick no checkpoint.

A pair whose two estimates are equal is never stored. Its label would say
"keep g", a preference the estimates do not support, and about half of all
harvested pairs tie; training on those labels lowered held-out solution
quality on average and spent time on pairs that carry no ordering.
"""

from __future__ import annotations

import functools
import logging
import random
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import RunConfig
from .dpsolve import (
    Comparator,
    derive_seed,
    learned_mis_comparator,
    mixed_estimate,
    rollout_estimate,
    solve_mis,
)
from .graph import Graph, graph_fingerprint
from .net import (
    CmpParams,
    adam_step,
    class_table,
    init_adam,
    init_params,
    logit_pair_loss,
    pair_loss_and_grad,
    score_graph,
)

log = logging.getLogger(__name__)

# share of each refresh's pairs held out as its validation split
VAL_FRACTION = 0.2


@dataclass(frozen=True)
class PairSample:
    """One buffer record: a sibling branch pair, its size estimates, and the
    label (1 iff g_prime got the larger estimate). The estimates always
    differ: harvest drops tied pairs, whose label would carry no ordering."""

    g: Graph
    g_prime: Graph
    label: int
    est_g: int
    est_gp: int


@dataclass
class Buffer:
    train: list[PairSample] = field(default_factory=list)
    val: list[PairSample] = field(default_factory=list)
    capacity: int = 0  # configured ceiling for one refresh, for observability
    sampled: int = 0  # steps harvest sampled; sampled - len(self) were estimate ties

    def __len__(self) -> int:
        return len(self.train) + len(self.val)


@dataclass
class MetricsRow:
    epoch: int
    refresh_index: int
    train_loss: float
    val_loss: float
    val_pair_accuracy: float
    consistency: float
    wall_seconds: float


def metrics_to_csv(rows: Iterable[MetricsRow]) -> str:
    lines = [",".join(f.name for f in fields(MetricsRow))]
    for r in rows:
        lines.append(
            f"{r.epoch},{r.refresh_index},{r.train_loss:.6f},{r.val_loss:.6f},"
            f"{r.val_pair_accuracy:.6f},{r.consistency:.6f},{r.wall_seconds:.3f}"
        )
    return "\n".join(lines) + "\n"


def harvest_pairs(
    g_init: Graph, params: CmpParams, cfg: RunConfig, seed: int
) -> list[PairSample]:
    """Run the solver once on ``g_init``, sample up to ``pairs_per_graph`` of
    its recursion steps, and turn those whose estimates differ into labeled
    samples."""
    return _harvest(g_init, params, cfg, seed)[0]


def _harvest(
    g_init: Graph, params: CmpParams, cfg: RunConfig, seed: int
) -> tuple[list[PairSample], int]:
    """``harvest_pairs``, plus the number of steps it sampled."""
    comparator = learned_mis_comparator(params)
    _, traj = solve_mis(g_init, comparator, derive_seed(seed, "solve"))
    if not traj.steps:
        return [], 0
    rng = random.Random(derive_seed(seed, "pick"))
    count = min(cfg.pairs_per_graph, len(traj.steps))
    indices = sorted(rng.sample(range(len(traj.steps)), count))
    estimate = mixed_estimate if cfg.mixed else rollout_estimate
    samples = []
    for idx in indices:
        step = traj.steps[idx]
        est0 = estimate(step.g0, comparator, cfg.num_rollouts, derive_seed(seed, "est", idx, 0))
        est1 = estimate(step.g1, comparator, cfg.num_rollouts, derive_seed(seed, "est", idx, 1))
        if est0 == est1:
            continue
        samples.append(PairSample(step.g0, step.g1, int(est0 < est1), est0, est1))
    return samples, count


def refresh_buffer(
    dataset: Sequence[Graph], params: CmpParams, cfg: RunConfig, seed: int
) -> Buffer:
    """Rebuild the buffer from scratch with the current parameters and split
    it into train/validation parts."""
    if not dataset:
        raise ValueError("empty dataset")
    rng = random.Random(derive_seed(seed, "select"))
    if len(dataset) >= cfg.graphs_per_refresh:
        picks = rng.sample(range(len(dataset)), cfg.graphs_per_refresh)
    else:
        picks = [rng.randrange(len(dataset)) for _ in range(cfg.graphs_per_refresh)]
    samples: list[PairSample] = []
    sampled = 0
    for j, gi in enumerate(picks):
        stored, count = _harvest(dataset[gi], params, cfg, derive_seed(seed, "harvest", j))
        samples.extend(stored)
        sampled += count
    rng.shuffle(samples)
    n_val = int(len(samples) * VAL_FRACTION)
    capacity = cfg.graphs_per_refresh * cfg.pairs_per_graph
    return Buffer(train=samples[n_val:], val=samples[:n_val], capacity=capacity, sampled=sampled)


def measure_consistency(
    params: CmpParams,
    pairs: Iterable[tuple[Graph, Graph]],
    num_rollouts: int,
    seed: int,
) -> float:
    """Fraction of pairs where the comparator's verdict agrees with the
    ordering of fresh roll-out estimates under the same parameters.

    Roll-out seeds derive from each graph's fingerprint, so the two sides of
    an identical pair always get identical estimates. ``pairs`` holds
    (g, g_prime) tuples.
    """
    comparator = learned_mis_comparator(params)

    @functools.lru_cache(maxsize=None)
    def estimate(g: Graph) -> int:
        return rollout_estimate(g, comparator, num_rollouts, derive_seed(seed, graph_fingerprint(g)))

    return consistency_fraction(pairs, comparator, estimate)


def consistency_fraction(
    pairs: Iterable[tuple[Graph, Graph]], comparator: Comparator, estimate: Callable[[Graph], int]
) -> float:
    """Agreement between comparator verdicts and estimate ordering over
    (g, g_prime) pairs; 1.0 for an empty pair collection."""
    total = 0
    agree = 0
    for g, gp in pairs:
        total += 1
        if (comparator(g, gp) == 0) == (estimate(g) >= estimate(gp)):
            agree += 1
    return agree / total if total else 1.0


def train(dataset: Sequence[Graph], cfg: RunConfig) -> tuple[CmpParams, list[MetricsRow]]:
    """Full self-training run; returns the parameters of the last Adam step
    (the initial parameters when no step was taken, as with ``total_epochs``
    0) and one metrics row per epoch.

    Consistency is measured at every buffer refresh (the first measurement,
    before any update, is the random-initialization value) and carried into
    the rows of that refresh. When the buffer has no validation split, the
    validation columns fall back to the train split.
    """
    cfg.validate()
    if not dataset:
        raise ValueError("empty dataset")
    params = init_params(cfg.rounds, cfg.width, cfg.head_layers, cfg.seed)
    state = init_adam(params)
    rows: list[MetricsRow] = []
    started = time.monotonic()
    epoch = 0
    refresh_index = 0
    rng = random.Random(derive_seed(cfg.seed, "epochs"))
    while epoch < cfg.total_epochs:
        buffer = refresh_buffer(dataset, params, cfg, derive_seed(cfg.seed, "refresh", refresh_index))
        log.info(
            "refresh %d: sampled %d steps, dropped %d estimate ties, stored %d of capacity %d",
            refresh_index, buffer.sampled, buffer.sampled - len(buffer), len(buffer), buffer.capacity,
        )
        if len(buffer) == 0:
            log.warning(
                "refresh %d produced an empty buffer: every harvested pair tied, or no graph had an edge",
                refresh_index,
            )
        probe = [(s.g, s.g_prime) for s in (buffer.val or buffer.train)[: cfg.consistency_pairs]]
        consistency = measure_consistency(
            params, probe, cfg.num_rollouts, derive_seed(cfg.seed, "consistency", refresh_index)
        )
        val_split = buffer.val or buffer.train
        for _ in range(cfg.epochs_per_refresh):
            if epoch >= cfg.total_epochs:
                break
            order = list(buffer.train)
            rng.shuffle(order)
            losses: list[float] = []
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                batch_losses, total = pair_loss_and_grad(params, [(s.g, s.g_prime, s.label) for s in batch])
                losses.extend(batch_losses)
                total.flat /= len(batch)
                params, state = adam_step(params, grads=total, state=state, lr=cfg.lr)
            train_loss = sum(losses) / len(losses) if losses else 0.0
            val_loss, val_acc = _validate(params, val_split)
            rows.append(
                MetricsRow(
                    epoch=epoch,
                    refresh_index=refresh_index,
                    train_loss=train_loss,
                    val_loss=val_loss,
                    val_pair_accuracy=val_acc,
                    consistency=consistency,
                    wall_seconds=time.monotonic() - started,
                )
            )
            epoch += 1
        refresh_index += 1
    return params, rows


def _validate(params: CmpParams, split: list[PairSample]) -> tuple[float, float]:
    """Mean pair loss and pair accuracy over the split. Each graph gets its
    own ``score_graph`` call, which the benchmark's forward hook counts, and
    the calls share the parameters' class table."""
    if not split:
        return 0.0, 0.0
    table = class_table(params)
    z0, z1 = np.array([(score_graph(params, s.g, table)[0], score_graph(params, s.g_prime, table)[0])
                       for s in split]).T
    labels = np.array([s.label for s in split], dtype=np.float64)
    loss = sum(logit_pair_loss(z0, z1, labels).tolist()) / len(split)
    return loss, int(np.count_nonzero((z0 < z1) == labels)) / len(split)
