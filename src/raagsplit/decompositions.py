"""Graph-of-groups decompositions of one-ended right-angled Artin groups.

The initial decomposition hangs off the block tree: white nodes carry the
group of their block, black nodes the cyclic group on their cut vertex, and a
loop with a stable letter is attached wherever a two-vertex block dangles off
the tree with a valence-one vertex of the original graph.  Collapsing one edge
at every valence-two black vertex then yields the reduced decomposition whose
edge groups are maximal cyclic.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Collection, NamedTuple, Optional, Union

from .blocks import block_tree
from .graphs import GraphError, SimplicialGraph

_new = tuple.__new__  # builds a record positionally, as namedtuple's _make does, minus its length check


class RaagGroup(NamedTuple):
    """The right-angled Artin group on an induced subgraph of the source graph."""

    vertices: tuple[str, ...]
    _kind = "raag"  # what the writers call it, so that they need not import this module

    def generators(self) -> tuple[str, ...]:
        return self.vertices


class CyclicGroup(NamedTuple):
    """The infinite cyclic group on a single source-graph vertex."""

    generator: str
    _kind = "cyclic"

    def generators(self) -> tuple[str, ...]:
        return (self.generator,)


GroupDescriptor = Union[RaagGroup, CyclicGroup]

BLACK = "black"
WHITE = "white"
MERGED = "merged"


class GoGVertex(NamedTuple):
    id: str
    color: str  # BLACK, WHITE or MERGED
    group: GroupDescriptor
    toral: bool = False
    hanging: bool = False
    block: Optional[tuple[str, ...]] = None  # defining block for white-line vertices
    absorbed: tuple[str, ...] = ()  # cut vertices swallowed during collapse


class GoGEdge(NamedTuple):
    id: str
    ends: tuple[str, str]  # equal ids for loops
    group: CyclicGroup
    inclusions: tuple[str, str]  # image generator at each end
    stable_letter: Optional[str] = None  # loops only

    @property
    def is_loop(self) -> bool:
        return self.ends[0] == self.ends[1]


class _GraphOfGroups(NamedTuple):
    vertices: tuple[GoGVertex, ...]
    edges: tuple[GoGEdge, ...]
    source: SimplicialGraph


# a NamedTuple body cannot define __new__, so this subclass checks the edge ends
class GraphOfGroups(_GraphOfGroups):
    """A graph of groups over ``source``.  The constructor, ``_make`` and ``_replace`` reject an edge
    end that is no vertex id; the builders here, whose ends are vertex ids, skip that through ``_trusted``."""

    __slots__ = ()

    def __new__(cls, vertices, edges, source) -> GraphOfGroups:  # field types are on the base
        ids = {v.id for v in vertices}
        for e in edges:
            for end in e.ends:
                if end not in ids:
                    raise GraphError(f"edge {e.id} ends at {end!r}, which is not a vertex id")
        return super().__new__(cls, vertices, edges, source)

    @classmethod
    def _make(cls, iterable) -> GraphOfGroups:  # _replace builds through _make: check there too
        return cls(*iterable)

    @classmethod
    def _trusted(cls, vertices, edges, source) -> GraphOfGroups:
        """The decomposition on these records with nothing checked: every edge end must be a vertex id."""
        return _new(cls, (vertices, edges, source))


def _decompose(g: SimplicialGraph, absorb: bool) -> GraphOfGroups:
    """J0 in one walk over the blocks in white order; with ``absorb``, J, as ``collapse_to_j`` gives it.

    A cut vertex in exactly two blocks then goes into the first, least, one: its edge there
    is numbered but not made, and its edge to the second block ends at the first.
    """
    if len(g.vertices) < 3:
        raise GraphError("decomposition needs a connected graph with at least three vertices")
    try:
        bt = block_tree(g)
    except GraphError:  # on three or more vertices only a disconnected graph fails
        raise GraphError("decomposition needs a connected graph with at least three vertices") from None
    # a cut vertex's group and inclusions are one object each, shared by its black vertex,
    # its edges and its loops
    cut = {v: (bid, _new(CyclicGroup, (v,)), (v, v)) for bid, v in bt.black}
    twice: Collection[str] = ()  # the vertices in exactly two blocks, all cut vertices
    if absorb and cut:
        blocks_of = Counter(chain.from_iterable(blk for _, blk in bt.white))
        twice = {v for v, n in blocks_of.items() if n == 2}
    home: dict[str, str] = {}  # each cut vertex in ``twice`` to the first white reached

    vertices: list[GoGVertex] = []
    edges: list[GoGEdge] = []
    loops: list[tuple[str, str, str]] = []  # (white id, cut vertex, stable letter)
    k = 0  # the next edge number; an absorbed edge takes one too
    for wid, blk in bt.white:
        cuts = [v for v in blk if v in cut] if cut else ()
        absorbed = []
        for v in cuts:
            bid, group, inclusions = cut[v]
            if v in twice:  # the second edge of v ends at its first white, in place of bid
                bid = home.setdefault(v, wid)
            if bid == wid:  # the first edge of v is the one collapsed
                absorbed.append(v)  # blocks are sorted, so these are too
            else:
                edges.append(_new(GoGEdge, (f"e{k}", (bid, wid), group, inclusions, None)))
            k += 1
        color = MERGED if absorbed else WHITE
        if len(blk) != 2:
            group, toral, hanging = _new(RaagGroup, (blk,)), False, False
        elif len(cuts) == 1:  # hanging
            v = cuts[0]
            loops.append((wid, v, blk[1] if v == blk[0] else blk[0]))
            group, toral, hanging = cut[v][1], True, True
        else:
            group, toral, hanging = _new(RaagGroup, (blk,)), True, False
        vertices.append(_new(GoGVertex, (wid, color, group, toral, hanging, blk, tuple(absorbed))))
    for bid, v in bt.black:
        if v not in home:
            vertices.append(_new(GoGVertex, (bid, BLACK, cut[v][1], False, False, None, ())))
    for i, (wid, v, w) in enumerate(loops, k):
        _, group, inclusions = cut[v]
        edges.append(_new(GoGEdge, (f"e{i}", (wid, wid), group, inclusions, w)))
    return GraphOfGroups._trusted(tuple(vertices), tuple(edges), g)


def build_j0(g: SimplicialGraph) -> GraphOfGroups:
    """Initial decomposition over the block tree, with loops at hanging blocks."""
    return _decompose(g, False)


def collapse_to_j(j0: GraphOfGroups) -> GraphOfGroups:
    """Collapse one incident edge at each valence-two black vertex.

    The black vertex is absorbed into the white neighbor whose block is
    lexicographically least; its other edge re-attaches there with group and
    inclusions unchanged.  Already-reduced inputs come back structurally equal,
    so the operation is idempotent.
    """
    # the other end of each non-loop edge at a black vertex, in edge order: one pass
    others: dict[str, list[str]] = {v.id: [] for v in j0.vertices if v.color == BLACK}
    for e in j0.edges:
        a, b = e.ends
        if a != b:
            if a in others:
                others[a].append(b)
            if b in others:
                others[b].append(a)

    by_id = {v.id: v for v in j0.vertices}
    target: dict[str, str] = {}
    absorbed: dict[str, list[str]] = {}
    for bid, ends in others.items():
        if len(ends) != 2:
            continue
        w, x = ends
        if (by_id[x].block or ()) < (by_id[w].block or ()):  # the first least block wins a tie
            w = x
        target[bid] = w
        absorbed.setdefault(w, []).append(by_id[bid].group.generator)  # type: ignore[union-attr]

    vertices = []
    for v in j0.vertices:
        if v.id in target:
            continue
        gens = absorbed.get(v.id)
        if gens is not None:
            merged = tuple(sorted({*v.absorbed, *gens}))
            v = _new(GoGVertex, (v.id, MERGED, v.group, v.toral, v.hanging, v.block, merged))
        vertices.append(v)

    edges = []
    stray = False  # a moved edge still at a collapsed vertex: only a hand-built input has one
    for e in j0.edges:
        a, b = e.ends
        if a in target:
            if target[a] == b:
                continue  # the collapsed edge
            a = target[a]
        elif b in target:
            if target[b] == a:
                continue
            b = target[b]
        else:
            edges.append(e)
            continue
        stray = stray or a in target or b in target
        edges.append(_new(GoGEdge, (e.id, (a, b), e.group, e.inclusions, e.stable_letter)))
    build = GraphOfGroups if stray else GraphOfGroups._trusted  # the public one rejects the stray end
    return build(tuple(vertices), tuple(edges), j0.source)


def jsj(g: SimplicialGraph) -> GraphOfGroups:
    """The reduced decomposition, ``collapse_to_j(build_j0(g))``, built without J0."""
    return _decompose(g, True)
