"""Cut vertices, biconnected components and the block tree of a graph."""

from __future__ import annotations

from typing import NamedTuple

from .graphs import GraphError, SimplicialGraph


class BlockTree(NamedTuple):
    """Bipartite tree of cut vertices (black) and bicomponents (white).

    Node ids are deterministic: ``cut:<name>`` for black nodes, ``blk<i>`` for
    white nodes with blocks enumerated in sorted vertex-tuple order.  An edge
    joins a black and a white node exactly when the cut vertex lies in the
    block.
    """

    black: tuple[tuple[str, str], ...]              # (node id, cut vertex)
    white: tuple[tuple[str, tuple[str, ...]], ...]  # (node id, block vertices)


def _lowpoint_scan(g: SimplicialGraph) -> tuple[list[tuple[str, ...]], set[str], int]:
    """One iterative depth-first pass collecting blocks, cut vertices and the component count.

    Each vertex is pushed on a vertex stack when it is found.  When a child v
    of u finishes with ``low[v] >= disc[u]``, the stack is popped down to v,
    and the popped vertices with u are one block (Hopcroft and Tarjan,
    Algorithm 447, CACM 16(6), 1973).  Such a u is a cut vertex, except a
    root, which is one exactly when it has two or more children.  An isolated
    vertex forms no block.  Blocks are sorted tuples.
    """
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    blocks: list[tuple[str, ...]] = []
    cuts: set[str] = set()
    components = 0
    for root in g.vertices:
        if root in disc:
            continue
        components += 1  # each depth-first root starts a new connected component
        disc[root] = low[root] = len(disc)
        root_children = 0
        found = [root]
        # each frame: a vertex, its parent, its unscanned neighbours and its place in found
        stack = [(root, None, iter(g.neighbors(root)), 0)]
        while stack:
            v, parent, it, at = stack[-1]
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    stack.append((w, v, iter(g.neighbors(w)), len(found)))
                    found.append(w)
                    break
                # a descendant's disc is never below low[v], so only a back edge lowers it
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent is None:
                    continue
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    blocks.append(tuple(sorted([parent, *found[at:]])))
                    del found[at:]
                    if parent != root:
                        cuts.add(parent)
                    else:
                        root_children += 1
        if root_children > 1:
            cuts.add(root)
    return blocks, cuts, components


def cut_vertices(g: SimplicialGraph) -> tuple[str, ...]:
    """Vertices whose removal increases the number of connected components."""
    _, cuts, _ = _lowpoint_scan(g)
    return tuple(sorted(cuts))


def is_biconnected(g: SimplicialGraph) -> bool:
    """Connected with no cut vertex and at least two vertices (K2 qualifies)."""
    if not g.vertices:
        raise GraphError("biconnectivity is undefined for the empty graph")
    if len(g.vertices) < 2:
        return False
    _, cuts, components = _lowpoint_scan(g)
    return components == 1 and not cuts


def block_tree(g: SimplicialGraph) -> BlockTree:
    """The block tree: black cut-vertex nodes joined to the white blocks containing them."""
    if len(g.vertices) < 2:
        raise GraphError("bicomponents need at least two vertices")
    blocks, cuts, components = _lowpoint_scan(g)
    if components != 1:
        raise GraphError("bicomponents are defined for connected graphs only")
    blocks.sort()
    white = tuple([(f"blk{i}", blk) for i, blk in enumerate(blocks)])
    black = tuple([(f"cut:{v}", v) for v in sorted(cuts)])
    return tuple.__new__(BlockTree, (black, white))  # positionally, as namedtuple's _make does
