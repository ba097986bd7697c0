"""kappalab: alternating group graphs and split-stars, their l-component
connectivity, and machine verification of the structural facts behind it."""

from .perms import (
    Parity,
    Perm,
    even_rank,
    even_unrank,
    exchange,
    parity,
    rank,
    rot_minus,
    rot_plus,
    swap,
    unrank,
)
from .graphs import (
    FAMILY_AG,
    FAMILY_SPLIT_STAR,
    BitGraph,
    CayleyGraph,
    LeftTranslations,
    build_ag,
    build_family,
    build_splitstar,
    external_edge_count,
    left_translations,
    out_neighbors,
    to_dimacs,
    to_json_dict,
)
from .connectivity import (
    ComponentReport,
    Shape,
    common_neighbors,
    components,
    is_independent,
    neighborhood,
    vertex_connectivity,
)
from .kappa import (
    DEFAULT_BUDGET,
    CutRefusal,
    CutWitness,
    HyperScanReport,
    KappaResult,
    Tier,
    construct_paper_cut,
    hyper_connectivity_scan,
    kappa_ell_exhaustive,
    kappa_ell_witness_search,
    kappa_formula,
    remark_independent_set,
    verify_cut,
)
from .lemmas import (
    CUT_RULES,
    BudgetExceeded,
    CutStructureRule,
    VerificationReport,
    rule_for,
    verify_basic_ag,
    verify_claims_123,
    verify_cut_structure,
    verify_neighbor_bounds,
    verify_remark_constructions,
)

__version__ = "0.1.0"
