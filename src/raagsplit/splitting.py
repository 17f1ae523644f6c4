"""Free and infinite-cyclic splittings of right-angled Artin groups.

A(g) splits freely iff g is disconnected (two or more vertices), and for three
or more vertices A(g) splits over Z iff g fails to be biconnected.  Both
verdicts come with machine-checkable witnesses: an amalgam decomposition of the
defining graph over a single shared vertex when a splitting exists, and a cover
of the two-edge segments by induced subgraphs with Hamiltonian cycles when none
does.
"""

from __future__ import annotations

from typing import Collection, NamedTuple, Optional, Union

from .blocks import _lowpoint_scan, cut_vertices, is_biconnected
from .graphs import (
    GraphError,
    SimplicialGraph,
    _component_avoiding,
    _is_hamiltonian_cycle,
    _least_paths,
    connected_components,
    two_edge_segments,
)

Z_SPLIT_YES = "yes"
Z_SPLIT_NO = "no"
Z_SPLIT_HNN_SMALL_CASE = "hnn_small_case"


class FreeSplitWitness(NamedTuple):
    """A two-part vertex partition exhibiting a free product decomposition."""

    parts: tuple[tuple[str, ...], tuple[str, ...]]


class ZSplitWitness(NamedTuple):
    """Two proper induced subgraphs covering g and meeting in one vertex.

    Certifies A(g) = A(side1) * A(side2) amalgamated over the cyclic group on
    ``vertex``.
    """

    side1: tuple[str, ...]
    side2: tuple[str, ...]
    vertex: str


class NonSplitCover(NamedTuple):
    """Per two-edge segment: an induced subgraph and its Hamiltonian cycle.

    Keys are normalized segments (u, v, w) with u < w; values are the sorted
    span and the cycle witness starting at the segment's middle vertex.
    """

    entries: dict[tuple[str, str, str], tuple[tuple[str, ...], tuple[str, ...]]]


class SmallCaseWitness(NamedTuple):
    """Verdict tag for one- and two-vertex graphs: "Z", "F2" or "Z^2"."""

    tag: str


Witness = Union[ZSplitWitness, NonSplitCover, SmallCaseWitness]


class SplitReport(NamedTuple):
    free_split: bool
    z_split: str  # one of Z_SPLIT_YES / Z_SPLIT_NO / Z_SPLIT_HNN_SMALL_CASE
    witness: Witness


def splits_freely(g: SimplicialGraph) -> tuple[bool, Optional[FreeSplitWitness]]:
    """Whether A(g) is a nontrivial free product, with a partition witness."""
    if len(g.vertices) < 2:
        raise GraphError("free splitting is characterized for two or more vertices")
    comps = connected_components(g)
    if len(comps) == 1:
        return False, None
    first = comps[0]
    members = set(first)
    rest = tuple(sorted(v for v in g.vertices if v not in members))
    return True, FreeSplitWitness(parts=(first, rest))


def z_split_witness(g: SimplicialGraph) -> ZSplitWitness:
    """Amalgam witness for a non-biconnected graph on three or more vertices.

    Cut-vertex case: split off the least component of g minus the least cut
    vertex.  Disconnected case without cut vertices: pair the least component
    with the least outside vertex; if the outside is that single vertex the
    roles swap so both sides stay proper.
    """
    if len(g.vertices) < 3:
        raise GraphError("amalgam witnesses need at least three vertices")
    return _z_split_witness(g, cut_vertices(g))


def _z_split_witness(g: SimplicialGraph, cuts: Collection[str]) -> ZSplitWitness:
    """``z_split_witness`` from the graph's cut vertices."""
    allv = set(g.vertices)
    if cuts:
        v = min(cuts)
        # the component of the least vertex of g - v is the least component of g - v
        comp = _component_avoiding(g, min(allv - {v}), v)
        side1 = tuple(sorted(comp | {v}))
        side2 = tuple(sorted(allv - comp))
        return ZSplitWitness(side1=side1, side2=side2, vertex=v)
    comps = connected_components(g)
    if len(comps) == 1:
        raise GraphError("graph is biconnected; no Z-splitting exists")
    first = comps[0]
    outside = sorted(allv - set(first))
    if len(outside) == 1:
        # complement is a single vertex; swap sides to keep both proper
        v = first[0]
        side1 = tuple(sorted(set(outside) | {v}))
        side2 = first
        return ZSplitWitness(side1=side1, side2=side2, vertex=v)
    v = outside[0]
    side1 = tuple(sorted(set(first) | {v}))
    side2 = tuple(outside)
    return ZSplitWitness(side1=side1, side2=side2, vertex=v)


def nonsplit_cover(g: SimplicialGraph) -> NonSplitCover:
    """Hamiltonian cover certifying that A(g) does not split over Z.

    For each two-edge segment u-v-w the shortest u-w path avoiding v closes up
    with the segment into a Hamiltonian cycle of the induced subgraph it spans;
    biconnectivity guarantees the path exists.  Each path is searched from
    both ends in g - v: the search from u keeps its ball for every later
    neighbour w of v, and a w outside it searches back until the two balls
    meet, so the cost is the balls searched plus the size of the cover.
    """
    if len(g.vertices) < 3 or not is_biconnected(g):
        raise GraphError("Hamiltonian covers exist for biconnected graphs on >= 3 vertices")
    return _nonsplit_cover(g)


def _nonsplit_cover(g: SimplicialGraph) -> NonSplitCover:
    """``nonsplit_cover`` for a graph already known to be biconnected on >= 3 vertices."""
    whole = tuple(sorted(g.vertices))
    entries: dict[tuple[str, str, str], tuple[tuple[str, ...], tuple[str, ...]]] = {}
    for v in whole:
        nv = g.neighbors(v)
        for i, u in enumerate(nv):
            if i + 1 == len(nv):
                break
            later = nv[i + 1 :]
            for w, path in zip(later, _least_paths(g, u, v, later)):
                # biconnected, so every path exists; it is simple and avoids v, so the
                # sorted cycle is its span: the shared `whole` when it has every vertex
                cycle = (v, *path)  # type: ignore
                delta = whole if len(cycle) == len(whole) else tuple(sorted(cycle))
                entries[(u, v, w)] = (delta, cycle)
    return NonSplitCover(entries=dict(sorted(entries.items())))


def amalgam_defects(g: SimplicialGraph, w: ZSplitWitness) -> list[str]:
    """All reasons ``w`` fails to certify g as an amalgam; empty means the witness is valid.

    Valid means: the sides are proper, cover g, meet exactly in ``w.vertex``,
    and no edge joins the two sides away from that vertex, so g is the union
    of the two induced subgraphs.
    """
    s1, s2, allv = set(w.side1), set(w.side2), set(g.vertices)
    defects = []
    if s1 | s2 != allv:
        defects.append("sides do not cover exactly the graph's vertices")
    if s1 & s2 != {w.vertex}:
        defects.append(f"sides do not meet in exactly {w.vertex!r}")
    if s1 == allv or s2 == allv:
        defects.append("a side is the whole graph")
    only1, only2 = s1 - {w.vertex}, s2 - {w.vertex}
    for a, b in g.edges:
        if (a in only1 and b in only2) or (a in only2 and b in only1):
            defects.append(f"edge {(a, b)} joins the sides away from {w.vertex!r}")
    return defects


def cover_defects(g: SimplicialGraph, cover: NonSplitCover) -> list[str]:
    """All reasons ``cover`` fails to certify g; empty means the cover is valid.

    A cover certifies "no Z-splitting" only on a connected graph with at
    least three vertices, so any other graph is a defect by itself.  Each
    cycle is checked against g's adjacency, built once per call, so the cost
    is O(n + m) plus the size of the cover; no subgraph is built per entry.
    """
    if len(g.vertices) < 3 or len(connected_components(g)) != 1:
        return ["graph is not connected with at least three vertices"]
    adjacent = {x: set(g.neighbors(x)) for x in g.vertices}
    defects = []
    segments = set(two_edge_segments(g))
    for seg in sorted(segments):
        if seg not in cover.entries:
            defects.append(f"missing segment {seg}")
    for seg, (delta, cycle) in sorted(cover.entries.items()):
        u, v, w = seg
        label = f"entry {seg}"
        if seg not in segments:
            defects.append(f"{label}: not a two-edge segment of the graph")
            continue
        span = set(delta)
        if not span <= adjacent.keys():
            defects.append(f"{label}: span leaves the graph")
            continue
        if len(delta) < 3:
            defects.append(f"{label}: span has fewer than three vertices")
            continue
        if not {u, v, w} <= span:
            defects.append(f"{label}: span does not contain the segment")
            continue
        if not _is_hamiltonian_cycle(adjacent, span, cycle):
            defects.append(f"{label}: cycle is not Hamiltonian in the span")
    return defects


def verify_cover(g: SimplicialGraph, cover: NonSplitCover) -> bool:
    """True iff ``cover_defects`` finds nothing wrong with ``cover``."""
    return not cover_defects(g, cover)


def splits_over_z(g: SimplicialGraph) -> SplitReport:
    """Full verdict on splittings of A(g) over the infinite cyclic group.

    One- and two-vertex graphs are handled directly (Z does not split; F2 and
    Z^2 split as HNN extensions over Z).  For three or more vertices the
    verdict is the failure of biconnectivity, witnessed by an amalgam or a
    Hamiltonian cover.
    """
    n = len(g.vertices)
    if n == 0:
        raise GraphError("splitting verdicts need a nonempty graph")
    if n == 1:
        return SplitReport(free_split=False, z_split=Z_SPLIT_NO, witness=SmallCaseWitness("Z"))
    # one lowpoint scan counts the components and finds the cut vertices the amalgam
    # witness reuses; the graph is biconnected iff it is connected without cut vertices
    _, cuts, components = _lowpoint_scan(g)
    disconnected = components > 1
    if n == 2:
        tag = "F2" if disconnected else "Z^2"
        return SplitReport(
            free_split=disconnected, z_split=Z_SPLIT_HNN_SMALL_CASE, witness=SmallCaseWitness(tag)
        )
    if not disconnected and not cuts:
        return SplitReport(free_split=False, z_split=Z_SPLIT_NO, witness=_nonsplit_cover(g))
    return SplitReport(
        free_split=disconnected, z_split=Z_SPLIT_YES, witness=_z_split_witness(g, cuts)
    )
