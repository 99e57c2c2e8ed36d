"""The learnable graph scorer behind the comparator.

Architecture: ``rounds`` iterations of three-branch message passing over
zero-initialized node embeddings, where each vertex combines a linear map of
its own embedding, of the sum over neighbors, and of the sum over strict
non-neighbors (self excluded), concatenated and passed through exact GELU and
a learnable layer norm. The final embeddings are mean-pooled and fed to a
dense head whose last layer sees the last hidden output concatenated with the
first hidden output (a skip connection), producing one logit.

Everything is float64 numpy with hand-derived gradients; there is no autodiff
and no batching across graphs, and nothing of size n x n is built.

Each round runs on the rows it really has (the 1-WL colour argument for
message-passing networks). Round 0's inputs are the zero embeddings, so it
sees only its biases and gives every vertex the same row: it runs on one
row, its weight gradients are exact zeros, and the backward pass stops after
its bias and norm gradients (the zero row still goes through round 0's
weight products, so a non-finite round-0 weight is still reported). Round
1's inputs are then that shared row, so a vertex's output depends on its
degree alone: it runs on one row per distinct degree. Round 2 runs per
vertex; its neighbour sums are ``H @ T1``, where ``T1`` holds round 1's
class rows and ``H[u, c]`` counts u's neighbours in degree class c. Later
rounds sum neighbours straight from the edge list. The non-neighbour sum is
(sum over all vertices - neighbour sum - self), and pooling is the
count-weighted mean of the last round's rows. A round multiplies its weights
into the previous round's rows before it sums them, so one from r' rows to
r rows costs O(r' w^2) for the products, O(n c w) for round 2's c classes or
O(m w) for a later round's edge sums, and O(r w) for GELU and the layer
norm. The backward pass carries the same rows, each holding the total
gradient of the vertices it stands for.

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
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np
from scipy.special import erf, expit

from .graph import Graph

NORM_EPS = 1e-5

_SQRT1_2 = float(np.sqrt(0.5))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

MAGIC = b"CMPNET1"

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
    """Exact (erf-based) GELU, ``(0.5 * x) * (1 + erf(x / sqrt 2))``."""
    out = erf(x * _SQRT1_2)
    out += 1.0
    out *= 0.5 * x
    return out


def gelu_grad(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x * _SQRT1_2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


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


class _EdgeList:
    """A graph's adjacency held as its edge list and applied like the matrix:
    ``a @ x`` sums the rows of ``x`` over each vertex's neighbours. The
    adjacency is symmetric, so ``a.T`` is ``a``."""

    def __init__(self, degrees: np.ndarray, cols: np.ndarray):
        self.cols = cols  # neighbours, vertex by vertex
        self.starts = np.cumsum(degrees) - degrees
        self.isolated = degrees == 0

    @property
    def T(self) -> "_EdgeList":
        return self

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # a trailing zero row gives every vertex's run, empty or last, a
        # valid start; reduceat returns a lone row for an empty run
        gathered = np.zeros((self.cols.size + 1, x.shape[1]))
        np.take(x, self.cols, axis=0, out=gathered[:-1])
        out = np.add.reduceat(gathered, self.starts, axis=0)
        out[self.isolated] = 0.0
        return out


def _round_maps(g: Graph, rounds: int) -> tuple[list, list, list]:
    """For each message round: how many vertices each of its rows stands for,
    and the maps from the previous round's rows to its own input and its
    neighbour sum (see :class:`ForwardTrace`)."""
    n = g.n
    degrees = np.fromiter(map(len, g.adjacency), np.intp, n)
    per_degree = np.bincount(degrees)
    class_degree = per_degree.nonzero()[0]
    classes = class_degree.size
    vertex_class = class_degree.searchsorted(degrees)
    row_count = [np.array([float(n)]), per_degree[class_degree].astype(np.float64)]
    own_map = [None, np.ones((classes, 1))]
    neigh_map = [None, class_degree[:, None].astype(np.float64)]
    if rounds > 2:
        cols = np.fromiter(chain.from_iterable(g.adjacency), np.intp, 2 * g.m)
        # entry (u, c): how many of u's neighbours are in degree class c
        cell = np.repeat(np.arange(0, n * classes, classes), degrees)
        cell += vertex_class[cols]
        row_count.append(np.ones(n))
        own_map.append(np.eye(classes)[vertex_class])
        neigh_map.append(np.bincount(cell, minlength=n * classes).reshape(n, classes).astype(np.float64))
    if rounds > 3:
        row_count += [row_count[2]] * (rounds - 3)
        own_map += [None] * (rounds - 3)
        neigh_map += [_EdgeList(degrees, cols)] * (rounds - 3)
    return row_count[:rounds], own_map[:rounds], neigh_map[:rounds]


@dataclass
class ForwardTrace:
    """Intermediates of one forward pass, enough to run the backward pass.

    Each round computes one row per set of vertices that must share its
    output: round 0 one row for all n vertices, round 1 one row per distinct
    degree, later rounds one row per vertex. Round k >= 1 reads round k-1's
    rows, after its weights, through two maps applied as ``map @ rows``:
    ``own_map[k]`` gives each row its own input (None for the identity) and
    ``neigh_map[k]`` its neighbour sum. Its non-neighbour sum is the sum over
    all vertices, ``row_count[k - 1] @ rows``, less those two."""

    n: int
    row_count: list[np.ndarray] = field(default_factory=list)  # per round, vertices per row
    own_map: list = field(default_factory=list)      # per round; None at round 0
    neigh_map: list = field(default_factory=list)    # per round; None at round 0
    # [0] the (n, 3w) zero initial embeddings; [k + 1] the output rows of round k
    node_emb: list[np.ndarray] = field(default_factory=list)
    # per round, one entry per row of that round
    pre_act: list[np.ndarray] = field(default_factory=list)    # concat before GELU
    normed: list[np.ndarray] = field(default_factory=list)     # layer-norm x-hat
    inv_std: list[np.ndarray] = field(default_factory=list)    # (rows, 1)
    graph_emb: np.ndarray | None = None    # (3w,) mean-pooled
    head_pre: list[np.ndarray] = field(default_factory=list)
    head_normed: list[np.ndarray] = field(default_factory=list)
    head_inv_std: list[float] = field(default_factory=list)
    head_out: list[np.ndarray] = field(default_factory=list)   # hidden outputs
    final_input: np.ndarray | None = None  # (2w,)
    logit: float = 0.0


def score_graph(params: CmpParams, g: Graph) -> tuple[float, ForwardTrace]:
    """Logit for one graph. An empty graph scores 0 by convention (the
    recursive solvers never compare empty graphs)."""
    n = g.n
    if n == 0:
        return 0.0, ForwardTrace(n=0)
    w3 = 3 * params.width
    trace = ForwardTrace(n, *_round_maps(g, params.rounds))
    trace.node_emb.append(np.zeros((n, w3)))
    emb = np.zeros((1, w3))  # round 0's input: the shared zero row of every vertex
    for k in range(params.rounds):
        # the weights act on the previous round's rows; the maps then sum the
        # products, which is the product of the sums
        a = emb @ params.self_w[k].T
        b = emb @ params.neigh_w[k].T
        c = emb @ params.anti_w[k].T
        if k > 0:  # round 0's zero row is its own neighbour and non-neighbour sum
            own_map, neigh_map = trace.own_map[k], trace.neigh_map[k]
            own_c = c
            if own_map is not None:
                a, own_c = own_map @ a, own_map @ c
            b = neigh_map @ b
            c = trace.row_count[k - 1] @ c - neigh_map @ c - own_c
        pre = np.concatenate((a + params.self_b[k], b + params.neigh_b[k], c + params.anti_b[k]), axis=1)
        xhat, inv = _layer_norm(gelu(pre), axis=1)
        emb = xhat * params.norm_scale[k] + params.norm_shift[k]
        if not np.isfinite(emb).all():
            raise NonFiniteError(f"non-finite embedding after message round {k}")
        trace.pre_act.append(pre)
        trace.normed.append(xhat)
        trace.inv_std.append(inv)
        trace.node_emb.append(emb)
    pooled = trace.row_count[-1] @ emb / n
    trace.graph_emb = pooled
    x = pooled
    for i in range(params.head_layers - 1):
        z = params.head_w[i] @ x + params.head_b[i]
        xhat, inv = _layer_norm(gelu(z), axis=None)
        h = xhat * params.head_norm_scale[i] + params.head_norm_shift[i]
        if not np.isfinite(h).all():
            raise NonFiniteError(f"non-finite activation in head layer {i}")
        trace.head_pre.append(z)
        trace.head_normed.append(xhat)
        trace.head_inv_std.append(float(inv))
        trace.head_out.append(h)
        x = h
    final_input = np.concatenate((x, trace.head_out[0]))
    logit = float((params.head_w[-1] @ final_input + params.head_b[-1])[0])
    if not np.isfinite(logit):
        raise NonFiniteError("non-finite logit in final head layer")
    trace.final_input = final_input
    trace.logit = logit
    return logit, trace


def _layer_norm(act: np.ndarray, axis: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Normalize ``act`` in place per row (axis 1) or as a whole (None);
    returns it with the inverse standard deviation. The sums and divisions are those
    of ``act.mean`` and ``act.var``, in the same order, without the second
    mean pass."""
    size = act.shape[-1] if axis is not None else act.size
    keep = axis is not None
    act -= np.add.reduce(act, axis=axis, keepdims=keep) / size
    var = np.add.reduce(act * act, axis=axis, keepdims=keep) / size
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    act *= inv
    return act, inv


def _layer_norm_grad(dxhat: np.ndarray, xhat: np.ndarray, inv, axis: int | None) -> np.ndarray:
    """Gradient through :func:`_layer_norm`, from d(xhat) to d(act):
    ``inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))``."""
    size = dxhat.shape[-1] if axis is not None else dxhat.size
    keep = axis is not None
    dact = dxhat - np.add.reduce(dxhat, axis=axis, keepdims=keep) / size
    dact -= xhat * (np.add.reduce(dxhat * xhat, axis=axis, keepdims=keep) / size)
    dact *= inv
    return dact


def logit_pair_loss(z0: float, z1: float, label: int) -> float:
    """Cross-entropy of the two-way softmax over a pair's logits. label 1
    means the second graph is annotated as the one with the larger optimum."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    d = z1 - z0
    return float(np.logaddexp(0.0, d) - label * d)


def pair_loss_and_grad(
    params: CmpParams, g: Graph, g_prime: Graph, label: int, grads: CmpParams | None = None
) -> tuple[float, CmpParams]:
    """Loss plus exact analytic gradients for every parameter tensor.

    label 1 means g_prime is annotated as the graph with the larger optimum.
    The gradient reuses the CmpParams layout. It is added into ``grads`` when
    one is given, such as a batch total, and into a new zero gradient
    otherwise; either is returned.
    """
    z0, t0 = score_graph(params, g)
    z1, t1 = score_graph(params, g_prime)
    loss = logit_pair_loss(z0, z1, label)
    dz1 = float(expit(z1 - z0)) - label
    if grads is None:
        grads = zeros_like_params(params)
    _backprop(params, t1, dz1, grads)
    _backprop(params, t0, -dz1, grads)
    return loss, grads


def _backprop(params: CmpParams, trace: ForwardTrace, dlogit: float, grads: CmpParams) -> None:
    """Accumulate d(loss)/d(params) for one graph's forward trace.

    Each round's gradient is carried as one row per row of the forward: the
    total over the vertices that row stands for. That is exact, because the
    gradients through GELU and the layer norm are linear in the upstream
    gradient, with coefficients that are the same for every vertex of a row."""
    if trace.n == 0:
        return  # constant logit, nothing to propagate
    n = trace.n
    w = params.width
    last = params.head_layers - 1

    u = trace.final_input
    grads.head_w[last] += dlogit * u[None, :]
    grads.head_b[last] += dlogit
    du = dlogit * params.head_w[last][0]
    dh = [np.zeros(w) for _ in range(last)]
    dh[last - 1] += du[:w]
    dh[0] += du[w:]

    dpooled = None
    for i in range(last - 1, -1, -1):
        dy = dh[i]
        xhat = trace.head_normed[i]
        grads.head_norm_scale[i] += dy * xhat
        grads.head_norm_shift[i] += dy
        dxhat = dy * params.head_norm_scale[i]
        dz = _layer_norm_grad(dxhat, xhat, trace.head_inv_std[i], axis=None)
        dz *= gelu_grad(trace.head_pre[i])
        xin = trace.graph_emb if i == 0 else trace.head_out[i - 1]
        grads.head_w[i] += np.outer(dz, xin)
        grads.head_b[i] += dz
        dx = params.head_w[i].T @ dz
        if i == 0:
            dpooled = dx
        else:
            dh[i - 1] += dx
    if not np.isfinite(dpooled).all():
        raise NonFiniteError("non-finite gradient entering the pooling layer")

    demb = np.outer(trace.row_count[-1], dpooled / n)
    for k in range(params.rounds - 1, -1, -1):
        xhat = trace.normed[k]
        inv = trace.inv_std[k]
        grads.norm_scale[k] += (demb * xhat).sum(axis=0)
        grads.norm_shift[k] += demb.sum(axis=0)
        dxhat = demb * params.norm_scale[k]
        dpre = _layer_norm_grad(dxhat, xhat, inv, axis=1)
        dpre *= gelu_grad(trace.pre_act[k])
        da = dpre[:, :w]
        db = dpre[:, w : 2 * w]
        dc = dpre[:, 2 * w :]
        grads.self_b[k] += da.sum(axis=0)
        grads.neigh_b[k] += db.sum(axis=0)
        grads.anti_b[k] += dc.sum(axis=0)
        if k == 0:
            # zero inputs: the weight gradients are exact zeros, and nothing
            # reads the gradient of the initial embeddings
            if not np.isfinite(dpre).all():
                raise NonFiniteError("non-finite gradient in message round 0")
            break
        # back through the maps to the previous round's rows, then the weights
        own_map, neigh_map = trace.own_map[k], trace.neigh_map[k]
        dc_own = dc
        if own_map is not None:
            da, dc_own = own_map.T @ da, own_map.T @ dc
        db = neigh_map.T @ db
        dc = np.outer(trace.row_count[k - 1], dc.sum(axis=0)) - neigh_map.T @ dc - dc_own
        prev = trace.node_emb[k]
        grads.self_w[k] += da.T @ prev
        grads.neigh_w[k] += db.T @ prev
        grads.anti_w[k] += dc.T @ prev
        demb_k = da @ params.self_w[k] + db @ params.neigh_w[k] + dc @ params.anti_w[k]
        if not np.isfinite(demb_k).all():
            raise NonFiniteError(f"non-finite gradient in message round {k}")
        demb = demb_k


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


def params_from_bytes(data: bytes, expect: tuple[int, int, int] | None = None) -> CmpParams:
    if data[: len(MAGIC)] != MAGIC:
        raise WeightFormatError("bad magic: not a comparator weight file")
    off = len(MAGIC)
    if len(data) < off + 24 + 4:
        raise WeightTruncatedError("file too short for header")
    rounds, width, head_layers = (int(x) for x in np.frombuffer(data, dtype="<i8", count=3, offset=off))
    off += 24
    if rounds < 1 or width < 1 or head_layers < 2:
        raise WeightFormatError(f"implausible geometry ({rounds}, {width}, {head_layers})")
    if expect is not None:
        for name, got, want in zip(("rounds", "width", "head_layers"), (rounds, width, head_layers), expect):
            if got != want:
                raise WeightDimensionError(f"{name}: file has {got}, expected {want}")
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


def save_params(params: CmpParams, dest: str | Path | BinaryIO) -> None:
    data = params_to_bytes(params)
    if hasattr(dest, "write"):
        dest.write(data)
    else:
        Path(dest).write_bytes(data)


def load_params(src: str | Path | BinaryIO, expect: tuple[int, int, int] | None = None) -> CmpParams:
    if hasattr(src, "read"):
        data = src.read()
    else:
        data = Path(src).read_bytes()
    return params_from_bytes(data, expect)
