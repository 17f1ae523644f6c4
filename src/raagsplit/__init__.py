"""Splittings and JSJ decompositions of right-angled Artin groups.

Everything is driven by the defining graph: A(g) splits freely iff g is
disconnected, splits over Z iff g is not biconnected (three or more vertices),
and the reduced JSJ decomposition of a one-ended A(g) is read off the block
tree of g.  All values are immutable and all functions are pure.
"""

from .blocks import BlockTree, block_tree, cut_vertices, is_biconnected
from .graphs import (
    GraphError,
    ParseError,
    SimplicialGraph,
    clique_counts,
    connected_components,
    euler_characteristic,
    parse_graph,
    two_edge_segments,
)
from .jsj import (
    CyclicGroup,
    GoGEdge,
    GoGVertex,
    GraphOfGroups,
    RaagGroup,
    build_j0,
    collapse_to_j,
    is_reduced,
    jsj,
)
from .presentations import (
    Presentation,
    abelianization,
    check_coverage,
    check_euler,
    emit_presentation,
    raag_presentation,
    smith_normal_form,
)
from .splitting import (
    NonSplitCover,
    SmallCaseWitness,
    SplitReport,
    ZSplitWitness,
    amalgam_defects,
    cover_defects,
    nonsplit_cover,
    splits_over_z,
    verify_cover,
    z_split_witness,
)

__all__ = [
    "BlockTree",
    "CyclicGroup",
    "GoGEdge",
    "GoGVertex",
    "GraphError",
    "GraphOfGroups",
    "NonSplitCover",
    "ParseError",
    "Presentation",
    "RaagGroup",
    "SimplicialGraph",
    "SmallCaseWitness",
    "SplitReport",
    "ZSplitWitness",
    "abelianization",
    "amalgam_defects",
    "block_tree",
    "build_j0",
    "check_coverage",
    "check_euler",
    "clique_counts",
    "collapse_to_j",
    "connected_components",
    "cover_defects",
    "cut_vertices",
    "emit_presentation",
    "euler_characteristic",
    "is_biconnected",
    "is_reduced",
    "jsj",
    "nonsplit_cover",
    "parse_graph",
    "raag_presentation",
    "smith_normal_form",
    "splits_over_z",
    "two_edge_segments",
    "verify_cover",
    "z_split_witness",
]
