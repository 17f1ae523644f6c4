"""Checkers of the splitting witnesses and of J's reducedness: each reads only the graph
and the records, and shares no code with the producer whose output it checks."""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from typing import TYPE_CHECKING, AbstractSet, Sequence

from .graphs import SimplicialGraph, two_edge_segments

if TYPE_CHECKING:
    from .decompositions import CyclicGroup, GraphOfGroups, GroupDescriptor
    from .splitting import NonSplitCover, ZSplitWitness


def amalgam_defects(g: SimplicialGraph, w: ZSplitWitness) -> list[str]:
    """All reasons ``w`` fails to certify g as an amalgam; empty means the witness is valid.

    Valid means: the sides are proper, cover g, meet exactly in ``w.vertex``,
    and no edge joins the two sides away from that vertex, so g is the union
    of the two induced subgraphs.  A malformed witness is a defect of its own.
    """
    try:
        s1, s2, allv = set(w.side1), set(w.side2), set(g.vertices)
        only1, only2 = s1 - {w.vertex}, s2 - {w.vertex}
    except TypeError:
        return ["witness is not two sides and a vertex of vertex names"]
    defects = []
    if s1 | s2 != allv:
        defects.append("sides do not cover exactly the graph's vertices")
    if s1 & s2 != {w.vertex}:
        defects.append(f"sides do not meet in exactly {w.vertex!r}")
    if s1 == allv or s2 == allv:
        defects.append("a side is the whole graph")
    for a, b in g.edges:
        if (a in only1 and b in only2) or (a in only2 and b in only1):
            defects.append(f"edge {(a, b)} joins the sides away from {w.vertex!r}")
    return defects


def cover_defects(g: SimplicialGraph, cover: NonSplitCover) -> list[str]:
    """All reasons ``cover`` fails to certify g; empty means the cover is valid.

    A cover certifies "no Z-splitting" only on a connected graph with at
    least three vertices, so any other graph is a defect by itself; one
    search over neighbour sets built from ``g.edges`` tells.  Each of g's
    two-edge segments is looked up through ``entries.get`` and its entry
    checked, so no order, ``keys()`` or ``items()`` can hide a segment.
    Only when ``len(entries)`` differs from the number found are the keys
    of ``items()`` sorted and searched for foreign ones.  Only the entry
    before is remembered: an entry whose span is that entry's span, the
    very tuple or an equal one, reuses its set and verdict, and any other
    span is made a set and judged afresh.  A cycle has each step looked up
    in the neighbour sets, unless it is the last checked cycle of the run
    of entries with its span, read from another start or direction: a
    position dict, made when that cycle is first met again, finds the
    start, and the entry costs one comparison.  A three-vertex span is the
    segment u-v-w itself, whose steps u-v and v-w are edges, so a cycle
    spelling it needs only u ~ w; one that fails that test is checked in
    full.  The cost is O(n + m) plus the size of the cover, the memory
    beyond the cover is the segment list and O(n + m), and no subgraph is
    built per entry.
    Missing segments are listed first, then the other defects in key order.
    A malformed entry is a defect of its own, and so are entries that are
    not a mapping.
    """
    nbrs: dict[str, set[str]] = {x: set() for x in g.vertices}
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    reached = set(g.vertices[:1])  # one search from the first vertex, if there is one
    stack = list(reached)
    for x in stack:  # the list grows as it is read
        for y in nbrs[x]:
            if y not in reached:
                reached.add(y)
                stack.append(y)
    if len(nbrs) < 3 or len(reached) != len(nbrs):
        return ["graph is not connected with at least three vertices"]
    entries = cover.entries
    if not isinstance(entries, Mapping):
        return ["cover entries are not a mapping of segments"]
    vertices = set(nbrs)
    ordered = two_edge_segments(g)  # sorted, with no repeats
    missing = []
    flawed = []  # (key, flaw) in key order
    absent = object()
    get = entries.get
    # the entry before's span tuple, that span's set and flaw or None, its last checked cycle
    # written twice, and each name's position in that ring once it is reused; a span unequal
    # to the one before replaces all five, so no verdict outlives its run of entries
    key = span = span_flaw = ring = position = None
    for seg in ordered:
        entry = get(seg, absent)
        if entry is absent:
            missing.append(f"missing segment {seg}")
            continue
        try:
            try:
                delta, cycle = entry
            except ValueError:  # not two items: tuple(None) below reports it
                delta = None
            new = tuple(delta)  # type: ignore
            if not (new is key or new == key):  # set() may raise before anything is assigned
                key, span, ring, position = new, set(new), (), None
                span_flaw = (
                    "span leaves the graph" if not span <= vertices
                    else "span has fewer than three vertices" if len(key) < 3
                    else None
                )
            flaw = span_flaw
            u, v, w = seg
            if flaw is None and not (u in span and v in span and w in span):
                flaw = "span does not contain the segment"
            if flaw is None:
                seq = tuple(cycle)
                n = len(seq)
                if n == 3 == len(span):  # the span is the segment, whose steps u-v and v-w are edges
                    if set(seq) == span and u in nbrs[w]:
                        continue
                elif ring and len(ring) == 2 * n:
                    if position is None:  # made at the ring's first reuse
                        position = dict(zip(ring, range(n)))
                    i = position.get(seq[0])
                    if i is not None and (seq == ring[i : i + n] or seq == ring[i + n : i : -1]):
                        continue
                if not _is_hamiltonian_cycle(nbrs, span, seq):
                    flaw = "cycle is not Hamiltonian in the span"
                else:
                    ring, position = seq * 2, None  # a new ring, with no position dict yet
        except TypeError:
            flaw = "not a span and a cycle of vertex names"
        if flaw is not None:
            flawed.append((seg, flaw))
    if len(entries) != len(ordered) - len(missing):  # some key is not a segment
        segments = set(ordered)
        try:
            keys = sorted(key for key, _ in entries.items())
            flawed += [(key, "not a two-edge segment of the graph") for key in keys if key not in segments]
            flawed.sort()  # merged in key order
        except TypeError:  # keys of several types do not sort, or a key does not hash
            return [*missing, "entries are not all keyed by segments of vertex names"]
    return [*missing, *(f"entry {seg}: {flaw}" for seg, flaw in flawed)]


def _is_hamiltonian_cycle(
    nbrs: dict[str, set[str]], members: AbstractSet[str], cycle: Sequence[str]
) -> bool:
    """True iff ``cycle`` visits each of ``members`` exactly once along edges of the host graph.

    ``nbrs`` maps each host vertex to the set of its neighbours, and
    ``members`` holds host vertices only, so the cycle is checked against
    the subgraph the host induces on ``members`` without building it: each
    step, the closing one included, is one set lookup.
    """
    seq = tuple(cycle)
    if len(seq) < 3 or len(seq) != len(members) or set(seq) != members:
        return False
    prev = seq[-1]
    for x in seq:
        if x not in nbrs[prev]:
            return False
        prev = x
    return True


def verify_cover(g: SimplicialGraph, cover: NonSplitCover) -> bool:
    """True iff ``cover_defects`` finds nothing wrong with ``cover``."""
    return not cover_defects(g, cover)


def _proper_in(edge_group: CyclicGroup, vertex_group: GroupDescriptor) -> bool:
    if vertex_group._kind == "raag":
        return edge_group.generator in vertex_group.vertices and len(vertex_group.vertices) >= 2
    return False  # cyclic in cyclic is never proper


def is_reduced(gog: GraphOfGroups) -> bool:
    """Every vertex of valence below three has all incident edge groups proper in it."""
    valence = Counter(end for e in gog.edges for end in e.ends)
    group = {v.id: v.group for v in gog.vertices}
    return all(
        valence[end] >= 3 or _proper_in(e.group, group[end]) for e in gog.edges for end in e.ends
    )
