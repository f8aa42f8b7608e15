"""Efficient open/closed domination (EOCD) graph algorithms."""

from .graph import (
    Graph,
    GraphError,
    VertexSet,
    connected_components,
    contract_edges,
    dump_edge_list,
    is_tree,
    parse_edge_list,
)
from .solver import (
    EocdCertificate,
    InvalidCertificateError,
    IsolatedVertexError,
    SearchMode,
    StructureReport,
    check_empty_dp_characterization,
    check_empty_pd_characterization,
    classify_partition,
    find_ecd,
    find_eocd,
    find_eod,
    gamma,
    gamma_t,
    is_ecd_set,
    is_eod_set,
    recognize_empty_pd,
)
from .transforms import SplitPlan, TransformError, ecd_to_eod, eod_to_ecd
from .trees import (
    DecomposeError,
    OpPreconditionError,
    TreeOpSequence,
    TreeOpStep,
    apply_step,
    decompose,
    is_eocd_tree,
    random_eocd_tree,
    replay,
)
from .families import complete_bipartite, cycle, hypercube, path, predicted_eocd
from .families import (
    sierpinski,
    sierpinski_eod_set,
    sierpinski_gamma_t,
    sierpinski_is_eocd,
)
from .reduction import (
    CnfFormula,
    FormulaError,
    assignment_from_witness,
    brute_force_one_in_three,
    build_reduction,
    parse_dimacs,
    witness_from_assignment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
