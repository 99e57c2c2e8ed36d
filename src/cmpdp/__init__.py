"""Comparator-guided dynamic-programming solvers for maximum independent set
and minimum vertex cover, with a self-trained graph-scoring network."""

from .classic import (
    ExactResult,
    exact_mis,
    exact_mvc,
    greedy_mis,
    greedy_mvc,
    local_search_mis,
)
from .config import RunConfig, load_config
from .dpsolve import (
    Comparator,
    Trajectory,
    build_mvc_gadgets,
    learned_mis_comparator,
    mixed_estimate,
    oracle_mis_comparator,
    oracle_mvc_comparator,
    random_comparator,
    rollout_estimate,
    solve_mis,
    solve_mvc,
)
from .generators import GenSpec, generate
from .graph import (
    Graph,
    GraphError,
    VertexSet,
    build_graph,
    is_independent_set,
    is_vertex_cover,
    remove_neighbors,
    remove_vertex,
)
from .graphio import parse_graph, write_graph
from .lpformat import emit_lp
from .net import CmpParams, init_params, load_params, save_params, score_graph
from .selftrain import (
    Buffer,
    PairSample,
    harvest_pairs,
    measure_consistency,
    refresh_buffer,
    train,
)

__all__ = [
    "Buffer",
    "CmpParams",
    "Comparator",
    "ExactResult",
    "GenSpec",
    "Graph",
    "GraphError",
    "PairSample",
    "RunConfig",
    "Trajectory",
    "VertexSet",
    "build_graph",
    "build_mvc_gadgets",
    "emit_lp",
    "exact_mis",
    "exact_mvc",
    "generate",
    "greedy_mis",
    "greedy_mvc",
    "harvest_pairs",
    "init_params",
    "is_independent_set",
    "is_vertex_cover",
    "learned_mis_comparator",
    "load_config",
    "load_params",
    "local_search_mis",
    "measure_consistency",
    "mixed_estimate",
    "oracle_mis_comparator",
    "oracle_mvc_comparator",
    "parse_graph",
    "random_comparator",
    "refresh_buffer",
    "remove_neighbors",
    "remove_vertex",
    "rollout_estimate",
    "save_params",
    "score_graph",
    "solve_mis",
    "solve_mvc",
    "train",
    "write_graph",
]
