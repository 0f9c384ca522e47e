"""Strong structural controllability of directed networks.

Decide controllability of a controlled network from its zero/nonzero
structure alone via zero forcing, synthesize and recognize the maximal
("perfect") graphs a chain partition admits, compute critical
additive/subtractive edge-sets with exact counts, combine controlled
networks into controlled networks-of-networks, and cross-validate every
combinatorial verdict numerically (the dimension of the reachable
subspace, for fixed weights and for piecewise-varying ones).
"""
from .graphs import (
    ChainSet,
    ConsistencyError,
    CyclicError,
    DiGraph,
    control_set,
    topological_order,
)
from .forcing import (
    LOWEST_FORCED,
    LOWEST_FORCER,
    ExplicitForces,
    ForcingRecord,
    NotZfsError,
    derived_set,
    enumerate_forcing_schedules,
    forcing_schedule,
    is_zfs,
    schedule_gamma,
    schedule_leaves,
    stalled_white_set,
)
from .synthesis import (
    TimeFunction,
    is_ct_constructed,
    is_perfect,
    optional_edges,
    perfect_edge_count,
    perfect_graph,
    random_chain_set,
    random_time_function,
    sample_member,
)
from .robustness import (
    EdgeSetReport,
    VerificationOutcome,
    critical_additive_number,
    critical_additive_set,
    critical_subtractive_number,
    critical_subtractive_set,
    verify_edge_set,
)
from .combine import (
    CombinedNetwork,
    DagCombination,
    InfeasibleSequenceError,
    RejectedEdgeError,
    combine_dags,
    combine_networks,
    enumerate_sequences,
    max_inter_edges,
    remap_time,
)
from .oracle import (
    LtvSchedule,
    OracleReport,
    input_matrix,
    ltv_gramian_rank,
    sample_matrix,
    schedule_from_edges,
    verify_ssc_numeric,
)
from .documents import (
    DocumentError,
    NetworkDocument,
    emit_document,
    parse_document,
)

__version__ = "0.1.0"
