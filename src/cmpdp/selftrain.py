"""Self-supervised training of the comparator.

The loop alternates two phases: (1) refresh a buffer of labeled graph pairs
by running the current comparator-guided solver on sampled training graphs,
taking sibling branch pairs from the recursion steps, and annotating each pair
with roll-out (or greedy-floored) size estimates; (2) several epochs of
mini-batch Adam on the pair classification loss. Labels always come from the
model's own roll-outs, never from an exact solver. Training returns the
parameters of its last epoch: each refresh labels pairs under the latest
model, and each refresh's validation split is new, so validation losses from
different refreshes are not comparable and pick no checkpoint.

A pair whose two estimates are equal is never stored. Its label would say
"keep g", a preference the estimates do not support, and about half of all
harvested pairs tie; training on those labels lowered held-out solution
quality on average and spent time on pairs that carry no ordering.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence

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
    init_adam,
    init_params,
    logit_pair_loss,
    pair_loss_and_grad,
    score_graph,
    zeros_like_params,
)

log = logging.getLogger(__name__)


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
    comparator = learned_mis_comparator(params)
    _, traj = solve_mis(g_init, comparator, derive_seed(seed, "solve"))
    if not traj.steps:
        return []
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
    return samples


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
    for j, gi in enumerate(picks):
        samples.extend(harvest_pairs(dataset[gi], params, cfg, derive_seed(seed, "harvest", j)))
    rng.shuffle(samples)
    n_val = int(len(samples) * cfg.val_fraction)
    capacity = cfg.graphs_per_refresh * cfg.pairs_per_graph
    return Buffer(train=samples[n_val:], val=samples[:n_val], capacity=capacity)


def measure_consistency(
    params: CmpParams,
    pairs: Iterable,
    num_rollouts: int,
    seed: int,
) -> float:
    """Fraction of pairs where the comparator's verdict agrees with the
    ordering of fresh roll-out estimates under the same parameters.

    Roll-out seeds derive from each graph's fingerprint, so the two sides of
    an identical pair always get identical estimates. ``pairs`` may hold
    PairSample objects or plain (g, g_prime) tuples.
    """
    comparator = learned_mis_comparator(params)
    cache: dict[Graph, int] = {}

    def estimate(g: Graph) -> int:
        if g not in cache:
            cache[g] = rollout_estimate(
                g, comparator, num_rollouts, derive_seed(seed, graph_fingerprint(g))
            )
        return cache[g]

    return consistency_fraction(pairs, comparator, estimate)


def consistency_fraction(
    pairs: Iterable, comparator: Comparator, estimate: Callable[[Graph], int]
) -> float:
    """Agreement between comparator verdicts and estimate ordering; 1.0 for an
    empty pair collection."""
    total = 0
    agree = 0
    for pair in pairs:
        if hasattr(pair, "g"):
            g, gp = pair.g, pair.g_prime
        else:
            g, gp = pair
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
        if len(buffer) == 0:
            log.warning(
                "refresh %d produced an empty buffer: every harvested pair tied, or no graph had an edge",
                refresh_index,
            )
        probe = (buffer.val or buffer.train)[: cfg.consistency_pairs]
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
                total = zeros_like_params(params)
                for sample in batch:
                    loss, _ = pair_loss_and_grad(params, sample.g, sample.g_prime, sample.label, total)
                    losses.append(loss)
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
    if not split:
        return 0.0, 0.0
    losses = []
    correct = 0
    for s in split:
        z0 = score_graph(params, s.g)[0]
        z1 = score_graph(params, s.g_prime)[0]
        losses.append(logit_pair_loss(z0, z1, s.label))
        if int(z0 < z1) == s.label:
            correct += 1
    return sum(losses) / len(losses), correct / len(split)
