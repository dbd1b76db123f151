"""Maximal clique enumeration on uncertain graphs."""

from .algorithms import (
    InvariantViolation,
    dfs_noip,
    large_mule,
    mule,
    shared_neighborhood_filter,
)
from .generators import (
    DeterministicGraph,
    GenSpec,
    assign_uniform_probabilities,
    coauthor_probability,
    gen_barabasi_albert,
    gen_erdos_renyi,
)
from .graph import (
    Clique,
    GraphFormatError,
    NotACliqueError,
    UncertainGraph,
    clique_probability,
    dump_graph,
    is_alpha_maximal,
    load_graph,
    prune_by_alpha,
)
from .oracle import (
    OracleResult,
    brute_force_enumerate,
    build_extremal_graph,
    estimate_clique_probability,
    max_clique_count_bound,
)

__all__ = [
    "Clique",
    "DeterministicGraph",
    "GenSpec",
    "GraphFormatError",
    "InvariantViolation",
    "NotACliqueError",
    "OracleResult",
    "UncertainGraph",
    "assign_uniform_probabilities",
    "brute_force_enumerate",
    "build_extremal_graph",
    "clique_probability",
    "coauthor_probability",
    "dfs_noip",
    "dump_graph",
    "estimate_clique_probability",
    "gen_barabasi_albert",
    "gen_erdos_renyi",
    "is_alpha_maximal",
    "large_mule",
    "load_graph",
    "max_clique_count_bound",
    "mule",
    "prune_by_alpha",
    "shared_neighborhood_filter",
]
