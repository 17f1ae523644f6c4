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
    """One iterative depth-first pass collecting blocks, cut vertices and the component count."""
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    blocks: list[tuple[str, ...]] = []
    cuts: set[str] = set()
    counter = 0
    components = 0
    for root in g.vertices:
        if root in disc:
            continue
        components += 1  # each depth-first root starts a new connected component
        disc[root] = low[root] = counter
        counter += 1
        root_children = 0
        edge_stack: list[tuple[str, str]] = []
        stack = [(root, None, iter(g.neighbors(root)))]
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = counter
                    counter += 1
                    if v == root:
                        root_children += 1
                    edge_stack.append((v, w))
                    stack.append((w, v, iter(g.neighbors(w))))
                    advanced = True
                    break
                if w != parent and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if advanced:
                continue
            stack.pop()
            if not stack:
                break
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                members: set[str] = set()
                while edge_stack:
                    a, b = edge_stack.pop()
                    members.add(a)
                    members.add(b)
                    if (a, b) == (u, v):
                        break
                blocks.append(tuple(sorted(members)))
                if u != root:
                    cuts.add(u)
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
    white = tuple((f"blk{i}", blk) for i, blk in enumerate(sorted(blocks)))
    black = tuple((f"cut:{v}", v) for v in sorted(cuts))
    return BlockTree(black=black, white=white)
