"""tanglekit: separations, tangles, and tangle-preserving graph reduction."""

from .graphs import (
    Graph,
    GraphError,
    complete_graph,
    components,
    cycle_graph,
    delete_edge,
    graph6_decode,
    graph6_encode,
    parse_edgelist,
    path_graph,
    subdivide_edge,
    suppress_vertex,
)
from .separations import (
    OrientedSeparation,
    enumerate_separations,
    is_nested,
    is_separation,
    sep,
)
from .tangles import (
    Tangle,
    TangleError,
    check_axioms,
    enumerate_tangles,
    extends,
    is_tangle,
    lift_subgraph,
    lift_suppression,
)
from .survival import (
    brute_force_extensions,
    restrict_to_component,
    survive_delete_edge_k1,
    survive_delete_edge_k2,
    survive_delete_pendant_edge,
    survive_suppress_vertex,
    survive_with_divergent_supertangle,
    survive_with_extending_supertangle,
)
from .decomposition import (
    BoundLedger,
    LinearDecomposition,
    SymbolicBound,
    compute_bounds,
    foundational_linkage,
    is_linear_decomposition,
    is_rainbow_decomposition,
    validate_linear,
    vertex_disjoint_paths,
)
from .rainbow_cloud import (
    CrossingInfo,
    RCDecomposition,
    choose_edge,
    classify_cross_or_slice,
    classify_crossing,
    clique_tangle,
    extend_after_deletion,
    lives_in_rainbow,
    rainbow_separation,
    shorten_to_not_living,
    slice_rc,
    slices_rainbow,
    split_crossing,
    synth_rc,
    validate_rc,
)
from .inducing import (
    WeightFunction,
    find_inducing_set,
    find_inducing_weights,
    induces_set,
    induces_weight,
    verify_p11_batch,
)
from .pipeline import (
    ReductionStep,
    ReductionTrace,
    reduce,
    transfer_terminal_weights,
    witness_subgraph,
)

__version__ = "0.1.0"
