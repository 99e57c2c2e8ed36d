"""The learnable graph scorer behind the comparator.

Architecture: a stack of blocks, each of which takes a matrix of
pre-activations and applies exact GELU (``x * Phi(x)``, in both passes), a
layer norm per row and a learned scale and shift. The first ``rounds``
blocks are message rounds over zero-initialized node embeddings: a vertex's
pre-activation concatenates linear maps of its own embedding, of the sum
over its neighbours and of the sum over its strict non-neighbours. The last
round is mean-pooled into one row of 3w per graph, and the
``head_layers - 1`` hidden head layers are blocks on those rows. A final
linear layer reads the last hidden output concatenated with the first (a
skip connection) and gives one logit per graph. Every block runs through
:func:`_block` forward and :func:`_block_grad` backward.

Everything is float64 numpy with hand-derived gradients; there is no
autodiff, and nothing of size n x n is built. The forward pass
(:func:`score_graphs`) and the backward pass run on a batch of graphs as one
disjoint union, as graph libraries batch message passing (PyTorch Geometric,
Fey & Lenssen 2019): a training mini-batch is one forward and one backward,
and a single graph scored without a table (:func:`score_graph`) is a batch
of one.

Each round runs on the rows it really has (the 1-WL colour argument for
message-passing networks). Round 0's inputs are the zero embeddings, so it
sees only its biases and gives every vertex the same row: it runs on one
row, its weight gradients are exact zeros, and the backward pass stops after
its bias and norm gradients (the zero row still goes through round 0's
weight products, so a non-finite round-0 weight is still reported). That
row is shared by every graph of a batch. Round 1's inputs are then that
shared row, so a vertex's output depends on its degree and its graph's size
alone: it runs on one row per (graph, degree) class. Round 2 runs per
vertex; its neighbour sums are ``H @ T1``, where ``T1`` holds round 1's
class rows of the vertex's graph and ``H[u, c]`` counts u's neighbours in
class c. Later rounds sum neighbours through the sparse block-diagonal
adjacency of the batch. The non-neighbour sum is (sum over all vertices of
the graph - neighbour sum - self), and pooling is each graph's
count-weighted mean of the last round's rows. A round multiplies its
weights into the previous round's rows before it sums them, so one from r'
rows to r rows costs O(r' w^2) for the products, O(n c w) for round 2's c
classes per graph or O(m w) for a later round's edge sums, and O(r w) for
its block. The backward pass carries the same rows, each holding the total
gradient of the vertices it stands for.

Inference needs no backward pass. A single graph scored with its
parameters' :class:`ClassTable` (:func:`class_table`, kept for every
comparator made from them) runs the folded pass, :func:`_folded_logit`. It
records no trace, reads round 2's weight products per (n, degree) class
from the table's class store, and takes each layer norm's scale and shift
into the next linear layer, the standard inference-time fold. Its logits
are the traced pass's to within about 1e-14, not bit for bit, so a learned
decision may differ from the traced pass's only where the two logits are
within 1e-12 of each other.

A round's rows are stored packed, graph after graph, and its maps act on a
padded copy with one block per graph and as many slots as the batch's
largest graph needs (:class:`_Slots`), so each map is one stacked matrix
product. Spare cells count zero vertices, so they never reach a real row.
The backward pass consumes the forward trace, computing in its storage, so
that training on a batch holds about as many rows as its forward pass.

Parameters, gradients and Adam moments are each one float64 vector in
:func:`param_layout` order (``CmpParams.flat``), which is also the order of
the weight file's body, so copying, zeroing, summing, Adam and
(de)serialization are single vector operations. The named tensors of
``CmpParams`` are reshaped views into that vector: code writes into them and
never rebinds a list entry.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import platform
import zlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from scipy.special import expit, ndtr

from .graph import Graph

NORM_EPS = 1e-5

_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

MAGIC = b"CMPNET1"

# Largest model a geometry may describe, in float64 values. The default
# geometry (3, 32, 4) has 33,985; training holds four vectors of the count
# (parameters, gradient, two Adam moments), 320 MB at this cap.
MAX_PARAMS = 10_000_000

# glibc mallopt parameters, and the values its own dynamic rule reaches for
# large blocks (32 MiB mmap threshold, twice that for trimming)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


def _keep_freed_heap() -> bool:
    """Stop glibc from handing the freed top of the heap back to the kernel.

    A forward pass at n = 110 allocates, then frees, about 1 MB of arrays of
    50-100 KB each. Under glibc's default 128 KB trim threshold, whether those
    pages go back to the kernel after a pass, to be faulted in again by the
    next, depends on where long-lived objects such as cached graphs happen to
    sit in the heap. Measured on a 2-vCPU x86-64 VM, identical solves took
    from a few hundred to 50,000 minor faults each, with up to a fifth of
    their time in the kernel, varying from one process to the next. Pinning
    the thresholds keeps the pages for the next pass. Malloc settings from the
    environment win. Returns whether the thresholds were set."""
    if platform.libc_ver()[0] != "glibc":
        return False
    if ("MALLOC_TRIM_THRESHOLD_" in os.environ or "MALLOC_MMAP_THRESHOLD_" in os.environ
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES))


_keep_freed_heap()


class NonFiniteError(FloatingPointError):
    """A forward or backward tensor went non-finite; names the layer."""


class WeightFileError(ValueError):
    """Base class for weight-file problems."""


class WeightFormatError(WeightFileError):
    pass


class WeightDimensionError(WeightFileError):
    pass


class WeightTruncatedError(WeightFileError):
    pass


class WeightChecksumError(WeightFileError):
    pass


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU, ``x * Phi(x)``, with the normal CDF Phi from scipy's
    ``ndtr``. The untraced passes use it; a traced block takes the same
    product from the Phi it keeps for the backward pass (:func:`_block`)."""
    out = ndtr(x)
    out *= x
    return out


def head_dims(width: int, head_layers: int) -> list[tuple[int, int]]:
    """(in, out) sizes of the head layers: 3w -> w, then w -> w hidden layers,
    and a final 2w -> 1 layer fed by [last hidden || first hidden]."""
    dims = [(3 * width, width)]
    dims.extend((width, width) for _ in range(head_layers - 2))
    dims.append((2 * width, 1))
    return dims


class TensorSpec(NamedTuple):
    """One learnable tensor: its serialized name, the CmpParams list holding
    it and its index there, its shape, and the fan-in that scales its uniform
    initialization (0 for layer-norm tensors, which start at scale 1, shift 0)."""

    name: str
    field: str
    index: int
    shape: tuple[int, ...]
    fan_in: int


@functools.lru_cache(maxsize=32)
def param_layout(rounds: int, width: int, head_layers: int) -> tuple[TensorSpec, ...]:
    """Every tensor of a geometry, in the canonical serialization order."""
    if rounds < 1 or width < 1:
        raise WeightDimensionError("rounds and width must be at least 1")
    if head_layers < 2:
        raise WeightDimensionError("head_layers must be at least 2")
    count = param_count(rounds, width, head_layers)
    if count > MAX_PARAMS:
        raise WeightDimensionError(
            f"geometry ({rounds}, {width}, {head_layers}) has {count:,} parameters, above {MAX_PARAMS:,}")
    w3 = 3 * width
    out = []
    for k in range(rounds):
        for branch in ("self", "neigh", "anti"):
            out.append(TensorSpec(f"round{k}.{branch}_w", f"{branch}_w", k, (width, w3), w3))
            out.append(TensorSpec(f"round{k}.{branch}_b", f"{branch}_b", k, (width,), w3))
        out.append(TensorSpec(f"round{k}.norm_scale", "norm_scale", k, (w3,), 0))
        out.append(TensorSpec(f"round{k}.norm_shift", "norm_shift", k, (w3,), 0))
    for i, (din, dout) in enumerate(head_dims(width, head_layers)):
        out.append(TensorSpec(f"head{i}.w", "head_w", i, (dout, din), din))
        out.append(TensorSpec(f"head{i}.b", "head_b", i, (dout,), din))
        if i < head_layers - 1:
            out.append(TensorSpec(f"head{i}.norm_scale", "head_norm_scale", i, (width,), 0))
            out.append(TensorSpec(f"head{i}.norm_shift", "head_norm_shift", i, (width,), 0))
    return tuple(out)


def param_count(rounds: int, width: int, head_layers: int) -> int:
    """Scalar count of :func:`param_layout` in closed form, so a geometry read
    from an untrusted header can be sized without building anything."""
    per_round = 9 * width * width + 9 * width  # three (w x 3w) maps + biases, 3w scale/shift
    head = (3 * width + 1) * width + (head_layers - 2) * (width + 1) * width + 2 * width + 1
    head_norms = 2 * width * (head_layers - 1)
    return rounds * per_round + head + head_norms


@dataclass
class CmpParams:
    """All learnable tensors, geometry (rounds, width, head_layers) included.

    Per round: self/neighbor/non-neighbor weight matrices (width x 3*width)
    with bias vectors (width), plus layer-norm scale/shift (3*width). The head
    holds ``head_layers`` linear layers sized by :func:`head_dims`, each hidden
    layer with its own layer-norm scale/shift. :func:`param_layout` lists them.

    ``flat`` is the storage: one float64 vector holding every tensor in
    :func:`param_layout` order, which is also the serialization order. The
    named lists (``self_w[k]`` ... ``head_norm_shift[i]``) are reshaped views
    into ``flat``, built once at construction. Code writes into them
    (``p.head_b[0][0] = x``, ``t += d``) and never rebinds a list entry, which
    would detach it from ``flat``.
    """

    rounds: int
    width: int
    head_layers: int
    flat: np.ndarray
    self_w: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    self_b: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    neigh_w: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    neigh_b: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    anti_w: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    anti_b: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    norm_scale: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    norm_shift: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    head_w: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    head_b: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    head_norm_scale: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    head_norm_shift: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    _table: ClassTable | None = field(default=None, init=False, repr=False, compare=False)  # see class_table

    def __post_init__(self) -> None:
        layout = param_layout(self.rounds, self.width, self.head_layers)
        want = param_count(self.rounds, self.width, self.head_layers)
        if self.flat.shape != (want,) or self.flat.dtype != np.float64:
            raise WeightDimensionError(
                f"flat: expected {want} float64 values, got shape {self.flat.shape} of {self.flat.dtype}"
            )
        off = 0
        for spec in layout:
            size = math.prod(spec.shape)
            getattr(self, spec.field).append(self.flat[off : off + size].reshape(spec.shape))
            off += size

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        """Yield (name, live array) in the canonical serialization order."""
        for spec in param_layout(self.rounds, self.width, self.head_layers):
            yield spec.name, getattr(self, spec.field)[spec.index]

    def copy(self) -> "CmpParams":
        return CmpParams(self.rounds, self.width, self.head_layers, self.flat.copy())

    def check_shapes(self) -> None:
        """The constructor fixes every shape; what is left to check is that
        every value is finite."""
        if not np.isfinite(self.flat).all():
            raise NonFiniteError("parameter tensor contains non-finite values")


def zeros_like_params(p: CmpParams) -> CmpParams:
    return CmpParams(p.rounds, p.width, p.head_layers, np.zeros_like(p.flat))


def init_params(rounds: int, width: int, head_layers: int, seed: int) -> CmpParams:
    """Fan-in-scaled uniform weights and biases; norm scale 1, shift 0.
    Deterministic per seed: the draws fill the weights and biases in layout
    order."""
    layout = param_layout(rounds, width, head_layers)
    sizes = [math.prod(spec.shape) for spec in layout]
    fan_in = np.repeat([spec.fan_in for spec in layout], sizes)
    is_scale = np.repeat([spec.field.endswith("scale") for spec in layout], sizes)
    p = CmpParams(rounds, width, head_layers, is_scale.astype(np.float64))
    drawn = fan_in > 0
    bound = 1.0 / np.sqrt(fan_in[drawn])
    p.flat[drawn] = np.random.default_rng(seed).uniform(-bound, bound)
    return p


class _Slots(NamedTuple):
    """Where one round's packed rows sit in its padded layout: an array of
    (graph, slot) cells, with as many slots per graph as the batch's largest
    graph has rows. Round 0 has no slots: its one row is shared by every
    graph."""

    pad: np.ndarray   # (graphs, slots): the packed row each cell reads; spare cells repeat a real row
    pack: np.ndarray  # (rows,): the flat cell of each packed row


def _slots(group: np.ndarray, per_group: np.ndarray) -> _Slots:
    """Slots of the packed rows that ``group`` (non-decreasing) assigns to
    graphs owning ``per_group`` rows each, at least one per graph."""
    first = np.cumsum(per_group) - per_group
    width = int(per_group.max())
    pad = first[:, None] + np.minimum(np.arange(width), per_group[:, None] - 1)
    return _Slots(pad, group * width + (np.arange(group.size) - first[group]))


def _from_slots(cells: np.ndarray, slots: _Slots | None) -> np.ndarray:
    """Padded (graphs, slots, d) back to packed (rows, d), dropping the
    spare cells. Without slots, the cells are summed over the graph axis:
    the gradient every graph sends round 0's shared row."""
    if slots is None:
        return cells.sum(axis=0)
    return cells.reshape(-1, cells.shape[-1])[slots.pack]


def _to_slots(rows: np.ndarray, slots: _Slots) -> np.ndarray:
    """Packed (rows, ...) to padded (graphs, slots, ...) with zeros in the
    spare cells: the transpose of :func:`_from_slots`."""
    cells = np.zeros((slots.pad.size,) + rows.shape[1:])
    cells[slots.pack] = rows
    return cells.reshape(slots.pad.shape + rows.shape[1:])


class _BlockAdjacency(NamedTuple):
    """The batch's adjacency over its padded vertex cells: a block-diagonal
    sparse matrix, one block per graph, applied to (graphs, slots, w)
    stacks. It is symmetric, so it is its own transpose."""

    matrix: object  # a scipy.sparse csr_array

    def __matmul__(self, cells: np.ndarray) -> np.ndarray:
        return (self.matrix @ cells.reshape(-1, cells.shape[-1])).reshape(cells.shape)

    @property
    def mT(self) -> "_BlockAdjacency":
        return self


def _batch_maps(graphs: Sequence[Graph], rounds: int) -> tuple[list, list, list, list]:
    """For each message round of a batch of non-empty graphs: the slots of
    its rows, how many vertices each of its cells stands for, and the maps
    from the previous round's cells to its own input and its neighbour sum
    (see :class:`ForwardTrace`)."""
    count = len(graphs)
    sizes = [g.n for g in graphs]
    degrees = np.fromiter(chain.from_iterable([map(len, g.adjacency) for g in graphs]), np.intp, sum(sizes))
    # a class is a (graph, degree) pair, numbered graph by graph
    span = int(degrees.max()) + 1
    key = np.repeat(np.arange(count), sizes) * span + degrees
    per_key = np.bincount(key)
    class_key = per_key.nonzero()[0]
    class_graph, class_degree = np.divmod(class_key, span)
    class_slots = _slots(class_graph, np.bincount(class_graph, minlength=count))
    classes = class_slots.pad.shape[1]
    vertex_class = class_slots.pack[class_key.searchsorted(key)] % classes  # the class's slot in its graph
    slots = [None, class_slots]
    row_count = [np.array(sizes, np.float64).reshape(count, 1, 1),
                 _to_slots(per_key[class_key].astype(np.float64), class_slots)[..., None, :]]
    neigh_map = [None, _to_slots(class_degree.astype(np.float64), class_slots)[..., None]]
    own_map = [None, np.ones(neigh_map[1].shape)]
    if rounds > 2:
        vertex_slots, ones, adjacency, cols = _vertex_maps(graphs, degrees, rounds)
        # entry (u, c): how many of u's neighbours are in class slot c of u's graph
        entry = np.repeat(vertex_slots.pack * classes, degrees) + vertex_class[cols]
        own = _to_slots(np.eye(classes)[vertex_class], vertex_slots)
        slots += [vertex_slots] * (rounds - 2)
        row_count += [ones] * (rounds - 2)
        own_map += [own] + [None] * (rounds - 3)
        neigh_map += [np.bincount(entry, minlength=own.size).reshape(own.shape).astype(np.float64)]
        neigh_map += [adjacency] * (rounds - 3)
    return slots[:rounds], row_count[:rounds], own_map[:rounds], neigh_map[:rounds]


def _vertex_maps(graphs: Sequence[Graph], degrees: np.ndarray, rounds: int) -> tuple:
    """The vertex-level maps of a batch of non-empty graphs with packed
    ``degrees``, which rounds 2 on read: the vertex slots, their vertex
    counts (0 in spare cells), the block adjacency of rounds 3 on (None
    below 4 rounds) and the packed row of each adjacency entry."""
    sizes = np.array([g.n for g in graphs])
    vertex_graph = np.repeat(np.arange(len(graphs)), sizes)
    vertex_slots = _slots(vertex_graph, sizes)
    cols = np.fromiter(chain.from_iterable(chain.from_iterable([g.adjacency for g in graphs])), np.intp,
                       int(degrees.sum()))
    cols += np.repeat(vertex_slots.pad[vertex_graph, 0], degrees)
    ones = _to_slots(np.ones(degrees.size), vertex_slots)[..., None, :]
    if rounds < 4:
        return vertex_slots, ones, None, cols
    # imported here: loading scipy.sparse adds about 2 MB (3%) to the peak
    # memory of a solve or training run, and only 4 or more rounds need it
    from scipy.sparse import csr_array

    indptr = np.zeros(ones.size + 1, np.intp)  # each cell's degree, then summed
    indptr[vertex_slots.pack + 1] = degrees
    adjacency = csr_array((np.ones(cols.size), vertex_slots.pack[cols], indptr.cumsum()), shape=(ones.size,) * 2)
    return vertex_slots, ones, _BlockAdjacency(adjacency), cols


@dataclass
class ForwardTrace:
    """Intermediates of one forward pass over a batch, enough to run the
    backward pass.

    The batch is the disjoint union of its non-empty graphs, listed in
    ``live``. The block lists (``pre_act``, ``cdf``, ``normed``, ``inv_std``,
    ``out``) hold one entry per block: the message rounds first, then the
    hidden head layers; ``cdf`` is GELU's Phi(pre_act), kept for the backward
    pass. Each entry holds the block's packed rows, graph by graph. A round
    computes one row per set of vertices that must share its output: round 0
    one row for every vertex of every graph, round 1 one row per (graph,
    degree) class, later rounds one row per vertex. A head layer has one row
    per graph.

    Round k >= 1 reads round k-1's rows, after its weights, in a padded
    layout of (graph, slot) cells (``slots[k - 1]``; see :class:`_Slots`),
    and writes its own cells (``slots[k]``), through maps applied per graph
    as ``map @ cells``: ``own_map[k]`` gives each cell its own input (None
    for the identity) and ``neigh_map[k]`` its neighbour sum. Its
    non-neighbour sum is its graph's sum over all vertices,
    ``row_count[k - 1] @ cells``, less those two. ``row_count[k]`` holds how
    many vertices each cell of round k stands for, zero in spare cells, so
    no spare cell reaches a real one. The backward pass consumes the block
    lists."""

    live: list[int]                     # batch positions of the non-empty graphs
    slots: list = field(default_factory=list)       # per round; None at round 0
    row_count: list[np.ndarray] = field(default_factory=list)  # per round, (graphs, 1, slots); round 0's: sizes
    own_map: list = field(default_factory=list)      # per round; None at round 0
    neigh_map: list = field(default_factory=list)    # per round; None at round 0
    pre_act: list[np.ndarray] = field(default_factory=list)    # per block, before GELU
    cdf: list[np.ndarray] = field(default_factory=list)        # per block, GELU's Phi(pre_act)
    normed: list[np.ndarray] = field(default_factory=list)     # per block, layer-norm x-hat
    inv_std: list[np.ndarray] = field(default_factory=list)    # per block, (rows, 1)
    out: list = field(default_factory=list)        # per block, after scale and shift; None for the last round
    pooled: np.ndarray | None = None       # (graphs, 3w), the head's input
    final_input: np.ndarray | None = None  # (graphs, 2w)


def score_graphs(params: CmpParams, graphs: Sequence[Graph]) -> tuple[np.ndarray, ForwardTrace]:
    """Logits of a batch of graphs from one forward pass over their disjoint
    union, and the trace that the backward pass reads. An empty graph scores
    0 by convention (the recursive solvers never compare empty graphs)."""
    live = [i for i, g in enumerate(graphs) if g.n]
    trace = ForwardTrace(live)
    if not live:
        return np.zeros(len(graphs)), trace
    trace.slots, trace.row_count, trace.own_map, trace.neigh_map = _batch_maps(
        graphs if len(live) == len(graphs) else [graphs[i] for i in live], params.rounds)
    rows = np.zeros((1, 3 * params.width))  # round 0's input: the shared zero row of every vertex
    for k in range(params.rounds):
        rows = _block(trace, _round_input(params, trace, k, rows), params.norm_scale[k], params.norm_shift[k])
    last, count = trace.slots[-1], trace.row_count[-1]
    if last is None:
        pooled = (count @ rows).reshape(len(live), -1)
    else:  # the backward pass never reads the last round's rows, so they take their weights in place
        rows *= _from_slots(count.mT, last)
        pooled = np.add.reduceat(rows, last.pad[:, 0])
    rows = trace.pooled = pooled / trace.row_count[0][:, 0]
    for i in range(params.head_layers - 1):
        pre = rows @ params.head_w[i].T + params.head_b[i]
        rows = _block(trace, pre, params.head_norm_scale[i], params.head_norm_shift[i])
        if i == 0:
            first = rows  # the skip connection's half
    trace.final_input = np.concatenate((rows, first), axis=1)
    live_logits = (trace.final_input @ params.head_w[-1].T + params.head_b[-1]).reshape(-1)
    if not np.isfinite(live_logits).all():
        raise NonFiniteError(_non_finite_layer(trace))
    trace.out[params.rounds - 1] = None  # only the pooling reads the last round's rows
    if len(live) == len(graphs):
        return live_logits, trace
    logits = np.zeros(len(graphs))
    logits[live] = live_logits
    return logits, trace


def _round_input(params: CmpParams, trace: ForwardTrace, k: int, rows: np.ndarray) -> np.ndarray:
    """Round k's packed pre-activations from round k-1's packed rows."""
    # the weights act on the previous round's rows; the maps then sum the
    # products, which is the product of the sums
    a = rows @ params.self_w[k].T
    b = rows @ params.neigh_w[k].T
    c = rows @ params.anti_w[k].T
    if k > 0:  # round 0's zero row is its own neighbour and non-neighbour sum
        prev, slots = trace.slots[k - 1], trace.slots[k]
        if prev is not None:
            a, b, c = a[prev.pad], b[prev.pad], c[prev.pad]
        own_map, neigh_map = trace.own_map[k], trace.neigh_map[k]
        c = _from_slots(trace.row_count[k - 1] @ c - neigh_map @ c - (c if own_map is None else own_map @ c), slots)
        a = _from_slots(a if own_map is None else own_map @ a, slots)
        b = _from_slots(neigh_map @ b, slots)
    a += params.self_b[k]
    b += params.neigh_b[k]
    c += params.anti_b[k]
    return np.concatenate((a, b, c), axis=1)


def score_graph(params: CmpParams, g: Graph, table: ClassTable | None = None) -> tuple[float, ForwardTrace | None]:
    """Logit for one graph. Without a table it is :func:`score_graphs` on a
    batch of one, with its trace. With the class table of ``params`` it is
    the folded inference pass (:func:`_folded_logit`), which keeps no trace
    and gives the traced logit to within about 1e-14."""
    if table is None:
        logits, trace = score_graphs(params, (g,))
        return float(logits[0]), trace
    return _folded_logit(params, table, g), None


# Largest ClassTable store, in float64 values (4 MB): 5,461 classes at width
# 32, where a solve at n = 110 meets a few hundred.
TABLE_VALUES = 1 << 19


class ClassTable:
    """The constants of the folded inference pass for one parameter set.

    Round 0's row depends on the parameters alone, and round 1's row for a
    vertex only on its (n, d) class: its graph's size and its degree. The
    class store (``rows``) maps a class key n(n - 1)/2 + d to what round 2
    reads: the self, neighbour and negated non-neighbour weight products of
    the class's round-1 row (with two rounds, that row itself). A missing
    class goes through :func:`_round_input` and :func:`_block`, and its
    products are taken on their own, as a vector product, so no row's bits
    depend on which graphs came first. The store holds at most ``cap``
    classes: a graph with more leaves it as it is, and one whose new classes
    would pass the cap empties it and fills it with its own. The
    folds: a layer norm's scale s and shift t become W diag(s) and W t + b
    of the linear layer that reads it (head layer 0 for the last round). The
    pass and the traced pass take GELU from one ``ndtr``, bit for bit."""

    def __init__(self, params: CmpParams) -> None:
        self.flat = params.flat.copy()  # the values it was built for
        w, last = params.width, params.rounds - 1
        self.cap = max(1, TABLE_VALUES // (3 * w))
        self.first = self.block(params, 0, _round_input(params, None, 0, np.zeros((1, 3 * w))))
        self.rows: dict[int, np.ndarray] = {}
        if params.rounds > 2:
            self.products = np.concatenate((params.self_w[2], params.neigh_w[2], -params.anti_w[2]))
            self.bias = np.concatenate((params.self_b[2], params.neigh_b[2], params.anti_b[2]))
        scale = [params.norm_scale[last], *params.head_norm_scale]
        shift = [params.norm_shift[last], *params.head_norm_shift]
        hidden = params.head_layers - 1
        self.head_w = [params.head_w[i] * scale[i] for i in range(hidden)]
        self.head_b = [params.head_w[i] @ shift[i] + params.head_b[i] for i in range(hidden)]
        final_w = params.head_w[-1][0]
        self.last_w, self.first_w = final_w[:w] * scale[hidden], final_w[w:] * scale[1]
        self.final_b = float(final_w[:w] @ shift[hidden] + final_w[w:] @ shift[1] + params.head_b[-1][0])

    @staticmethod
    def block(params: CmpParams, k: int, pre: np.ndarray) -> np.ndarray:
        """Round k's block, without the last round's scale and shift."""
        if k == params.rounds - 1:
            return _block(None, pre, 1.0, 0.0)
        return _block(None, pre, params.norm_scale[k], params.norm_shift[k])

    def class_rows(self, params: CmpParams, n: int, degrees: np.ndarray) -> np.ndarray:
        """The store rows of the classes (n, d) for d in ``degrees``, adding
        the ones it misses."""
        keys = (degrees + n * (n - 1) // 2).tolist()
        new = [i for i, key in enumerate(keys) if key not in self.rows]
        if new:
            if len(keys) > self.cap:
                return self._new_rows(params, n, degrees)
            if len(self.rows) + len(new) > self.cap:
                self.rows.clear()
                new = range(len(keys))
            self.rows.update(zip([keys[i] for i in new], self._new_rows(params, n, degrees[new])))
        return np.array([self.rows[key] for key in keys])

    def _new_rows(self, params: CmpParams, n: int, degrees: np.ndarray) -> np.ndarray:
        """Store rows of the classes (n, d) for d in ``degrees``: round 1's
        rows, with maps as for a batch of one-class graphs of n vertices,
        then round 2's products of each row."""
        count = degrees.size
        rank = np.arange(count)
        maps = ForwardTrace([], slots=[None, _Slots(rank[:, None], rank)],
                            row_count=[np.full((count, 1, 1), float(n))], own_map=[None, np.ones((count, 1, 1))],
                            neigh_map=[None, degrees[:, None, None].astype(np.float64)])
        rows = self.block(params, 1, _round_input(params, maps, 1, self.first))
        if params.rounds == 2:
            return rows
        return np.array([self.products @ row for row in rows])


def class_table(params: CmpParams) -> ClassTable:
    """The class table kept with ``params``, built anew when their values
    have changed since it was: the short-lived comparators of an evaluation
    share one table."""
    if params._table is None or not np.array_equal(params._table.flat, params.flat):
        params._table = ClassTable(params)
    return params._table


def _folded_logit(params: CmpParams, table: ClassTable, g: Graph) -> float:
    """One graph's logit through the folds of ``params``' class table, with
    maps read straight from the adjacency rows and no trace. Round 2's
    input, one slab per third, is one product of per-vertex class counts
    with the class store; rounds 3 to R - 2 run as in the traced pass. The
    last round's rows pool as ``inv @ centred / n``, their normalised mean,
    and the head runs on vectors. A non-finite logit re-runs the traced
    pass, which names the layer."""
    n = g.n
    if not n:
        return 0.0
    w = params.width
    if params.rounds == 1:
        # every vertex holds round 0's row. Pooled as n copies of it, as the
        # traced pass pools it, so that logits keep that pass's rounding.
        pooled = n * table.first[0] / n
    else:
        adjacency = g.adjacency
        degrees = np.fromiter(map(len, adjacency), np.intp, n)
        per_degree = np.bincount(degrees)
        present = per_degree.nonzero()[0]  # the graph's classes, by degree
        rows = table.class_rows(params, n, present)
        count = per_degree[present]
        if params.rounds == 2:
            pooled = count @ rows / n
        else:
            classes = present.size
            vertex_class = present.searchsorted(degrees)
            cell = np.arange(0, n * classes, classes)
            own = cell + vertex_class
            neigh = cell.repeat(degrees)
            neigh += vertex_class[np.fromiter(chain.from_iterable(adjacency), np.intp, 2 * g.m)]
            # (third, vertex, class): how many times a vertex's sum takes a
            # class's product. Self: its own class. Neighbour: its
            # neighbours' classes. Non-neighbour (its products negated):
            # both, less the class sizes.
            span = n * classes
            maps = np.bincount(np.concatenate((own, neigh + span, own + 2 * span, neigh + 2 * span)),
                               minlength=3 * span).reshape(3, n, classes)
            maps[2] -= count
            pre = np.empty((n, 3, w))  # written slab by slab, read row by row
            np.matmul(maps, rows.reshape(classes, 3, w).transpose(1, 0, 2), out=pre.transpose(1, 0, 2))
            pre = pre.reshape(n, -1)
            pre += table.bias
            if params.rounds > 3:  # the middle rounds run on vertex rows
                cells, ones, adjacency, _ = _vertex_maps((g,), degrees, params.rounds)
                trace = ForwardTrace([0], *[[m] * params.rounds for m in (cells, ones, None, adjacency)])
                rows = table.block(params, 2, pre)
                for k in range(3, params.rounds - 1):
                    rows = table.block(params, k, _round_input(params, trace, k, rows))
                pre = _round_input(params, trace, params.rounds - 1, rows)
            act = gelu(pre)
            act -= np.add.reduce(act, axis=1, keepdims=True) / (3 * w)
            inv = (np.add.reduce(act * act, axis=1) / (3 * w) + NORM_EPS) ** -0.5
            pooled = inv @ act / n
    pre = table.head_w[0] @ pooled + table.head_b[0]
    hidden = params.head_layers - 1
    for i in range(hidden):
        act = gelu(pre)
        act -= np.add.reduce(act) / w
        inv = 1.0 / math.sqrt(act @ act / w + NORM_EPS)
        if i == 0:
            first, first_inv = act, inv  # the skip connection's half
        if i + 1 < hidden:
            pre = table.head_w[i + 1] @ act
            pre *= inv
            pre += table.head_b[i + 1]
    logit = float(inv * (table.last_w @ act) + first_inv * (table.first_w @ first) + table.final_b)
    if not math.isfinite(logit):
        score_graphs(params, (g,))  # a traced pass names the layer
        raise NonFiniteError("non-finite logit in final head layer")
    return logit


def _non_finite_layer(trace: ForwardTrace) -> str:
    """Names the first block whose output went non-finite. Such a value
    reaches its graph's logit: the next layer's sums carry it into the rows
    of that graph, and a layer norm turns a row holding it into NaN. So
    checking the logits alone catches it."""
    rounds = len(trace.row_count)
    for j, out in enumerate(trace.out):
        if not np.isfinite(out).all():
            layer = f"message round {j}" if j < rounds else f"head layer {j - rounds}"
            return f"non-finite activation after {layer}"
    return "non-finite logit in final head layer"


def _block(trace: ForwardTrace | None, pre: np.ndarray, scale: np.ndarray | float,
           shift: np.ndarray | float) -> np.ndarray:
    """GELU, a layer norm of each row, then ``scale`` and ``shift``; records
    the block's intermediates in ``trace``, if given, and returns its output
    rows. Each row's output depends on that row alone. The norm's sums and
    divisions are those of ``act.mean`` and ``act.var``, in the same order,
    without the second mean pass. A trace keeps GELU's Phi(pre) as ``cdf``."""
    cdf = None if trace is None else ndtr(pre)
    act = gelu(pre) if cdf is None else cdf * pre
    size = act.shape[1]
    act -= np.add.reduce(act, axis=1, keepdims=True) / size
    inv = 1.0 / np.sqrt(np.add.reduce(act * act, axis=1, keepdims=True) / size + NORM_EPS)
    act *= inv
    out = act * scale
    out += shift
    if trace is not None:
        trace.pre_act.append(pre)
        trace.cdf.append(cdf)
        trace.normed.append(act)
        trace.inv_std.append(inv)
        trace.out.append(out)
    return out


def _block_grad(
    dout: np.ndarray, trace: ForwardTrace, j: int, scale: np.ndarray, dscale: np.ndarray, dshift: np.ndarray
) -> np.ndarray:
    """Back through block ``j`` from d(out), which it overwrites: adds the
    scale and shift gradients into ``dscale`` and ``dshift`` and returns
    d(pre-activation). It consumes the block's entries of ``trace``,
    computing in their storage. The layer norm's part is, per row,
    ``inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))``, and GELU's
    derivative is ``Phi(x) + x phi(x)``, with Phi(x) the forward's ``cdf``."""
    xhat, trace.normed[j] = trace.normed[j], None
    dscale += np.einsum("ij,ij->j", dout, xhat)
    dshift += dout.sum(axis=0)
    size = dout.shape[1]
    proj = np.einsum("ij,j,ij->i", dout, scale, xhat)[:, None] / size
    dpre = dout  # d(xhat) first, then d(pre) in the same rows
    dpre *= scale
    dpre -= np.add.reduce(dpre, axis=1, keepdims=True) / size
    xhat *= proj
    dpre -= xhat
    del xhat
    dpre *= trace.inv_std[j]
    x, trace.pre_act[j] = trace.pre_act[j], None
    cdf, trace.cdf[j] = trace.cdf[j], None
    cdf *= dpre
    dpre *= x
    x *= x
    x *= -0.5
    np.exp(x, out=x)
    x *= _INV_SQRT_2PI
    dpre *= x
    dpre += cdf
    return dpre


def logit_pair_loss(z0: np.ndarray, z1: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Cross-entropy of the two-way softmax over each pair's logits,
    elementwise. Label 1 means the second graph is annotated as the one with
    the larger optimum; callers check that every label is 0 or 1."""
    d = z1 - z0
    return np.logaddexp(0.0, d) - labels * d


def pair_loss_and_grad(
    params: CmpParams, batch: Sequence[tuple[Graph, Graph, int]]
) -> tuple[list[float], CmpParams]:
    """Per-pair losses of a mini-batch of ``(g, g_prime, label)`` triples,
    and the exact analytic gradient of their sum for every parameter tensor.

    label 1 means g_prime is annotated as the graph with the larger optimum.
    Every label is checked before any forward pass. The batch's graphs go
    through one forward and one backward pass (:func:`score_graphs`), and the
    gradient comes back in a new ``CmpParams``.
    """
    for i, (_, _, label) in enumerate(batch):
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label!r} at index {i}")
    pairs = len(batch)
    logits, trace = score_graphs(params, [g for g, _, _ in batch] + [gp for _, gp, _ in batch])
    z0, z1 = logits[:pairs], logits[pairs:]
    labels = np.array([label for _, _, label in batch], dtype=np.float64)
    losses = logit_pair_loss(z0, z1, labels).tolist()
    dz1 = expit(z1 - z0) - labels
    grads = zeros_like_params(params)
    _backprop(params, trace, np.concatenate((-dz1, dz1))[trace.live], grads)
    return losses, grads


def _backprop(params: CmpParams, trace: ForwardTrace, dlogit: np.ndarray, grads: CmpParams) -> None:
    """Add d(loss)/d(params) into ``grads``, given d(loss)/d(logit) of each
    non-empty graph of a batch's forward trace.

    Each round's gradient is carried as one row per row of the forward: the
    total over the vertices that row stands for. That is exact, because the
    gradients through GELU and the layer norm are linear in the upstream
    gradient, with coefficients that are the same for every vertex of a row."""
    if not trace.live:
        return  # constant logits, nothing to propagate
    w = params.width
    rounds = params.rounds
    last = params.head_layers - 1

    grads.head_w[last] += dlogit @ trace.final_input
    grads.head_b[last] += dlogit.sum()
    dfinal = dlogit[:, None] * params.head_w[last]
    dout = dfinal[:, :w]
    for i in range(last - 1, -1, -1):
        if i == 0:  # the skip connection's half joins at the first hidden layer
            dout = dout + dfinal[:, w:]
        dpre = _block_grad(dout, trace, rounds + i, params.head_norm_scale[i],
                           grads.head_norm_scale[i], grads.head_norm_shift[i])
        grads.head_w[i] += dpre.T @ (trace.out[rounds + i - 1] if i else trace.pooled)
        grads.head_b[i] += dpre.sum(axis=0)
        dout = dpre @ params.head_w[i]
    if not np.isfinite(dout).all():
        raise NonFiniteError("non-finite gradient entering the pooling layer")

    last, count = trace.slots[-1], trace.row_count[-1]
    dout = dout / trace.row_count[0][:, 0]
    if last is None:
        dout = _from_slots(count.mT * dout.reshape(count.shape[:-1] + (-1,)), None)
    else:  # each row's share of its graph's mean, without a padded copy
        dout = dout[last.pack // last.pad.shape[1]]
        dout *= _from_slots(count.mT, last)
    for k in range(rounds - 1, -1, -1):
        dout = _round_grad(params, trace, k, dout, grads)


def _round_grad(
    params: CmpParams, trace: ForwardTrace, k: int, dout: np.ndarray, grads: CmpParams
) -> np.ndarray | None:
    """Back through round k's block and :func:`_round_input` from d(out) of
    its rows, which it overwrites: adds the round's gradients into ``grads``
    and returns d(out) of round k-1's rows (None at round 0)."""
    w = params.width
    dpre = _block_grad(dout, trace, k, params.norm_scale[k], grads.norm_scale[k], grads.norm_shift[k])
    grads.self_b[k] += dpre[:, :w].sum(axis=0)
    grads.neigh_b[k] += dpre[:, w : 2 * w].sum(axis=0)
    grads.anti_b[k] += dpre[:, 2 * w :].sum(axis=0)
    if k == 0:
        # zero inputs: the weight gradients are exact zeros, and nothing
        # reads the gradient of the initial embeddings
        if not np.isfinite(dpre).all():
            raise NonFiniteError("non-finite gradient in message round 0")
        return None
    # back through the maps to the previous round's cells, one branch at a
    # time, then to its rows and the weights
    slots, own_map, neigh_map = trace.slots[k], trace.own_map[k], trace.neigh_map[k]
    da = _to_slots(dpre[:, :w], slots)
    if own_map is not None:
        da = own_map.mT @ da
    db = neigh_map.mT @ _to_slots(dpre[:, w : 2 * w], slots)
    dc = _to_slots(dpre[:, 2 * w :], slots)
    dc = (trace.row_count[k - 1].mT * dc.sum(axis=-2, keepdims=True) - neigh_map.mT @ dc
          - (dc if own_map is None else own_map.mT @ dc))
    prev_slots = trace.slots[k - 1]
    da, db, dc = _from_slots(da, prev_slots), _from_slots(db, prev_slots), _from_slots(dc, prev_slots)
    prev = trace.out[k - 1]
    grads.self_w[k] += da.T @ prev
    grads.neigh_w[k] += db.T @ prev
    grads.anti_w[k] += dc.T @ prev
    dout = da @ params.self_w[k] + db @ params.neigh_w[k] + dc @ params.anti_w[k]
    if not np.isfinite(dout).all():
        raise NonFiniteError(f"non-finite gradient in message round {k}")
    return dout


@dataclass
class AdamState:
    """First/second moments, each a float64 vector in the ``CmpParams.flat``
    layout, plus the shared step counter."""

    step: int
    m: np.ndarray
    v: np.ndarray


def init_adam(params: CmpParams) -> AdamState:
    return AdamState(0, np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(
    params: CmpParams,
    grads: CmpParams,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[CmpParams, AdamState]:
    """One bias-corrected Adam update; inputs are not mutated."""
    t = state.step + 1
    gr = grads.flat
    m = state.m * beta1
    m += (1.0 - beta1) * gr
    v = state.v * beta2
    v += (1.0 - beta2) * gr * gr
    new_params = params.copy()
    new_params.flat -= lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    return new_params, AdamState(t, m, v)


def params_to_bytes(params: CmpParams) -> bytes:
    """MAGIC, then rounds/width/head_layers as little-endian int64, then
    ``params.flat`` (every tensor in canonical order) as little-endian
    float64, then a CRC32."""
    header = np.array([params.rounds, params.width, params.head_layers], dtype="<i8")
    body = MAGIC + header.tobytes() + params.flat.astype("<f8", copy=False).tobytes()
    return body + np.array([zlib.crc32(body)], dtype="<u4").tobytes()


def params_from_bytes(data: bytes) -> CmpParams:
    if data[: len(MAGIC)] != MAGIC:
        raise WeightFormatError("bad magic: not a comparator weight file")
    off = len(MAGIC)
    if len(data) < off + 24 + 4:
        raise WeightTruncatedError("file too short for header")
    rounds, width, head_layers = (int(x) for x in np.frombuffer(data, dtype="<i8", count=3, offset=off))
    off += 24
    if rounds < 1 or width < 1 or head_layers < 2:
        raise WeightFormatError(f"implausible geometry ({rounds}, {width}, {head_layers})")
    count = param_count(rounds, width, head_layers)
    total = off + 8 * count + 4
    if len(data) < total:
        raise WeightTruncatedError(f"expected {total} bytes, got {len(data)}")
    if len(data) > total:
        raise WeightFormatError(f"{len(data) - total} trailing bytes")
    stored = int(np.frombuffer(data, dtype="<u4", count=1, offset=total - 4)[0])
    if zlib.crc32(data[: total - 4]) != stored:
        raise WeightChecksumError("checksum mismatch")
    flat = np.frombuffer(data, dtype="<f8", count=count, offset=off).astype(np.float64)
    if not np.isfinite(flat).all():
        raise WeightFormatError("weight file holds a non-finite value")
    return CmpParams(rounds, width, head_layers, flat)


def save_params(params: CmpParams, path: str | Path) -> None:
    Path(path).write_bytes(params_to_bytes(params))


def load_params(path: str | Path) -> CmpParams:
    return params_from_bytes(Path(path).read_bytes())
