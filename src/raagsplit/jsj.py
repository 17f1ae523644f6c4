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
from typing import NamedTuple, Optional, Union

from .blocks import block_tree
from .graphs import GraphError, SimplicialGraph


class RaagGroup(NamedTuple):
    """The right-angled Artin group on an induced subgraph of the source graph."""

    vertices: tuple[str, ...]

    def generators(self) -> tuple[str, ...]:
        return self.vertices


class CyclicGroup(NamedTuple):
    """The infinite cyclic group on a single source-graph vertex."""

    generator: str

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


def build_j0(g: SimplicialGraph) -> GraphOfGroups:
    """Initial decomposition over the block tree, with loops at hanging blocks."""
    if len(g.vertices) < 3:
        raise GraphError("decomposition needs a connected graph with at least three vertices")
    try:
        bt = block_tree(g)
    except GraphError:  # on three or more vertices only a disconnected graph fails
        raise GraphError("decomposition needs a connected graph with at least three vertices") from None
    cut_id = {v: bid for bid, v in bt.black}

    vertices: list[GoGVertex] = []
    tree_edges: list[tuple[str, str, str]] = []  # (black id, white id, cut vertex)
    loops: list[tuple[str, str, str]] = []  # (white id, cut vertex, stable letter)
    for wid, blk in bt.white:
        cuts = [v for v in blk if v in cut_id]
        tree_edges.extend((cut_id[v], wid, v) for v in cuts)
        toral = len(blk) == 2
        hanging = toral and len(cuts) == 1
        if hanging:
            v = cuts[0]
            loops.append((wid, v, blk[1] if v == blk[0] else blk[0]))
            group: GroupDescriptor = CyclicGroup(v)
        else:
            group = RaagGroup(blk)
        vertices.append(
            GoGVertex(id=wid, color=WHITE, group=group, toral=toral, hanging=hanging, block=blk)
        )
    for bid, v in bt.black:
        vertices.append(GoGVertex(id=bid, color=BLACK, group=CyclicGroup(v)))

    edges = [
        GoGEdge(id=f"e{i}", ends=(bid, wid), group=CyclicGroup(v), inclusions=(v, v))
        for i, (bid, wid, v) in enumerate(tree_edges)
    ]
    for wid, v, w in loops:
        edges.append(
            GoGEdge(
                id=f"e{len(edges)}",
                ends=(wid, wid),
                group=CyclicGroup(v),
                inclusions=(v, v),
                stable_letter=w,
            )
        )
    return GraphOfGroups(vertices=tuple(vertices), edges=tuple(edges), source=g)


def collapse_to_j(j0: GraphOfGroups) -> GraphOfGroups:
    """Collapse one incident edge at each valence-two black vertex.

    The black vertex is absorbed into the white neighbor whose block is
    lexicographically least; its other edge re-attaches there with group and
    inclusions unchanged.  Already-reduced inputs come back structurally equal,
    so the operation is idempotent.
    """
    by_id = {v.id: v for v in j0.vertices}
    incident: dict[str, list[GoGEdge]] = {v.id: [] for v in j0.vertices}
    for e in j0.edges:
        if not e.is_loop:
            incident[e.ends[0]].append(e)
            incident[e.ends[1]].append(e)

    target: dict[str, str] = {}
    for v in j0.vertices:
        if v.color != BLACK or len(incident[v.id]) != 2:
            continue
        whites = [eid for e in incident[v.id] for eid in e.ends if eid != v.id]
        target[v.id] = min(whites, key=lambda wid: by_id[wid].block or ())

    absorbed: dict[str, list[str]] = {}
    for bid, wid in target.items():
        gen = by_id[bid].group.generator  # type: ignore[union-attr]
        absorbed.setdefault(wid, []).append(gen)

    vertices = []
    for v in j0.vertices:
        if v.id in target:
            continue
        if v.id in absorbed:
            merged = tuple(sorted(set(v.absorbed) | set(absorbed[v.id])))
            vertices.append(v._replace(color=MERGED, absorbed=merged))
        else:
            vertices.append(v)

    edges = []
    for e in j0.edges:
        a, b = e.ends
        if a in target or b in target:
            black, other = (a, b) if a in target else (b, a)
            if target[black] == other:
                continue  # the collapsed edge
            new_ends = (target[black], other) if a in target else (other, target[black])
            edges.append(e._replace(ends=new_ends))
        else:
            edges.append(e)
    return GraphOfGroups(vertices=tuple(vertices), edges=tuple(edges), source=j0.source)


def _proper_in(edge_group: CyclicGroup, vertex_group: GroupDescriptor) -> bool:
    if isinstance(vertex_group, RaagGroup):
        return edge_group.generator in vertex_group.vertices and len(vertex_group.vertices) >= 2
    return False  # cyclic in cyclic is never proper


def is_reduced(gog: GraphOfGroups) -> bool:
    """Every vertex of valence below three has all incident edge groups proper in it."""
    valence = Counter(end for e in gog.edges for end in e.ends)
    group = {v.id: v.group for v in gog.vertices}
    return all(
        valence[end] >= 3 or _proper_in(e.group, group[end]) for e in gog.edges for end in e.ends
    )


def jsj(g: SimplicialGraph) -> GraphOfGroups:
    """The reduced decomposition: collapse the block-tree decomposition."""
    return collapse_to_j(build_j0(g))
