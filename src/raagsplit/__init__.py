"""Splittings and JSJ decompositions of right-angled Artin groups.

Everything is driven by the defining graph: A(g) splits freely iff g is
disconnected, splits over Z iff g is not biconnected (three or more vertices),
and the reduced JSJ decomposition of a one-ended A(g) is read off the block
tree of g.  All values are immutable and all functions are pure.

Submodules load on first use (PEP 562): ``raagsplit.splits_over_z`` imports
``raagsplit.splitting`` when it is first read, and ``raag --help`` imports
none of them.
"""

from importlib import import_module

# each submodule and the public names it defines
_PUBLIC = {
    "blocks": ("BlockTree", "block_tree", "cut_vertices", "is_biconnected"),
    "graphs": (
        "GraphError", "ParseError", "SimplicialGraph", "clique_counts", "connected_components",
        "euler_characteristic", "parse_graph", "two_edge_segments",
    ),
    "decompositions": (
        "CyclicGroup", "GoGEdge", "GoGVertex", "GraphOfGroups", "RaagGroup", "build_j0",
        "collapse_to_j", "jsj",
    ),
    "presentations": (
        "Presentation", "abelianization", "check_coverage", "check_euler", "emit_presentation",
        "raag_presentation", "smith_normal_form",
    ),
    "splitting": (
        "NonSplitCover", "SmallCaseWitness", "SplitReport", "ZSplitWitness", "nonsplit_cover",
        "splits_over_z", "z_split_witness",
    ),
    "certify": ("amalgam_defects", "cover_defects", "is_reduced", "verify_cover"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = (*_PUBLIC, "cli", "serialize")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, else a submodule, imported on first access and then bound here."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

