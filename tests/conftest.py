"""Shared fixtures, hypothesis strategies and brute-force oracles.

The oracles here deliberately avoid the library's algorithms: connectivity by
set closure over the raw edge list, biconnectivity by the removal definition,
cliques by subset enumeration.  Tests compare the fast code paths against
these.
"""

from __future__ import annotations

import random
import string
from collections import deque
from itertools import combinations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from raagsplit import (
    CyclicGroup,
    GoGEdge,
    GoGVertex,
    GraphError,
    GraphOfGroups,
    Presentation,
    RaagGroup,
    SimplicialGraph,
    ZSplitWitness,
    block_tree,
    connected_components,
    parse_graph,
)
from raagsplit.decompositions import BLACK, MERGED, WHITE
from raagsplit.presentations import _commutator
from raagsplit.splitting import NonSplitCover, _component_avoiding, _cycle_entries, _least_paths, _walk

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


@pytest.fixture
def star():
    """Three-leaved star: the F3 x Z fixture."""
    return parse_graph("c l1\nc l2\nc l3")


@pytest.fixture
def two_triangles():
    """Two triangles abc and def joined by the bridge cd."""
    return parse_graph("a b\na c\nb c\nc d\nd e\nd f\ne f")


@pytest.fixture
def triangle():
    return parse_graph("a b\nb c\na c")


@pytest.fixture
def square():
    return parse_graph("a b\nb c\nc d\na d")


@pytest.fixture
def path3():
    return parse_graph("a b\nb c")


def windmill(k: int, hub: str = "h") -> SimplicialGraph:
    """k triangles sharing ``hub``: "h" sorts after every other name, "A" before them."""
    return parse_graph("".join(f"{hub} a{i}\n{hub} b{i}\na{i} b{i}\n" for i in range(k)))


# one vertex in many blocks, or of high degree, named first or last
HUB_GRAPHS = {
    "windmill-hub-first": windmill(10, "A"),
    "windmill-hub-last": windmill(10),
    "star": parse_graph("".join(f"c l{i:02d}\n" for i in range(20))),
    "k2-40": parse_graph("".join(f"{u} m{i:02d}\n" for u in "xy" for i in range(40))),
}


# ---------------------------------------------------------------- strategies


@st.composite
def graphs(draw, min_vertices=1, max_vertices=7, connected=False):
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    names = list(string.ascii_lowercase[:n])
    pairs = list(combinations(names, 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, picks) if keep]
    if connected and n > 1:
        # thread a random spanning tree through so connectivity is guaranteed
        order = draw(st.permutations(names))
        attach = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
        edges = edges + [(order[i], order[j]) for i, j in zip(range(1, n), attach)]
    return SimplicialGraph(names, edges)


# ------------------------------------------------------------------- helpers


def induced_subgraph(g: SimplicialGraph, members) -> SimplicialGraph:
    """Subgraph on ``members`` with every edge of ``g`` between them."""
    keep = set(members)
    for v in keep:
        if v not in g:
            raise GraphError(f"vertex {v!r} not in host graph")
    if len(keep) == len(g.vertices):
        return g
    verts = [v for v in g.vertices if v in keep]
    edges = [e for e in g.edges if e[0] in keep and e[1] in keep]
    return SimplicialGraph(verts, edges)


# ------------------------------------------------------------------- oracles


def oracle_components(vertices, edges):
    """Connected pieces by naive closure over the edge list."""
    remaining = set(vertices)
    comps = []
    while remaining:
        comp = {min(remaining)}
        while True:
            grown = set(comp)
            for u, v in edges:
                if u in comp:
                    grown.add(v)
                if v in comp:
                    grown.add(u)
            if grown == comp:
                break
            comp = grown
        comps.append(tuple(sorted(comp)))
        remaining -= comp
    return sorted(comps)


def oracle_is_connected(g: SimplicialGraph) -> bool:
    return len(oracle_components(g.vertices, g.edges)) == 1


def oracle_cut_vertices(g: SimplicialGraph):
    """Removal definition: deleting the vertex increases the component count."""
    base = len(oracle_components(g.vertices, g.edges))
    cuts = []
    for v in g.vertices:
        rest = [x for x in g.vertices if x != v]
        rest_edges = [e for e in g.edges if v not in e]
        if rest and len(oracle_components(rest, rest_edges)) > base:
            cuts.append(v)
    return tuple(sorted(cuts))


def oracle_is_biconnected(g: SimplicialGraph) -> bool:
    if len(g.vertices) < 2:
        return False
    return oracle_is_connected(g) and not oracle_cut_vertices(g)


def oracle_clique_counts(g: SimplicialGraph):
    edge_set = {frozenset(e) for e in g.edges}
    counts = []
    for k in range(len(g.vertices) + 1):
        c = sum(
            1
            for sub in combinations(g.vertices, k)
            if all(frozenset(p) in edge_set for p in combinations(sub, 2))
        )
        if not c:
            break  # every k-subset of a larger clique is a clique, so there is none
        counts.append(c)
    return counts


def oracle_bfs_distance(g: SimplicialGraph, start, goal, avoid=None):
    """Plain level-by-level distance, or None when unreachable."""
    if start == goal:
        return 0
    frontier = {start}
    seen = {start, avoid} if avoid else {start}
    dist = 0
    while frontier:
        dist += 1
        nxt = set()
        for x in frontier:
            for y in g.neighbors(x):
                if y in seen:
                    continue
                if y == goal:
                    return dist
                seen.add(y)
                nxt.add(y)
        frontier = nxt
    return None


def exhaustive_bfs_parents(g: SimplicialGraph, start, avoid):
    """Lexicographic breadth-first parents of g minus ``avoid``, never stopped early."""
    parents = {start: None}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in sorted(g.neighbors(x)):
            if y != avoid and y not in parents:
                parents[y] = x
                queue.append(y)
    return parents


def parent_chain(parents, w):
    chain = [w]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])
    return chain[::-1]


def oracle_hamiltonian_accepts(g: SimplicialGraph, seq) -> bool:
    """Direct adjacency reading of the embedded-cycle definition."""
    seq = list(seq)
    if sorted(seq) != sorted(g.vertices) or len(seq) < 3:
        return False
    edge_set = {frozenset(e) for e in g.edges}
    return all(frozenset((seq[i], seq[(i + 1) % len(seq)])) in edge_set for i in range(len(seq)))


# ------------------------------------------------- frozen decomposition builders


def frozen_build_j0(g: SimplicialGraph) -> GraphOfGroups:
    """``jsj.build_j0`` as it was before its records were built positionally.

    Kept verbatim so the lean builder can be compared record for record.
    """
    if len(g.vertices) < 3:
        raise GraphError("decomposition needs a connected graph with at least three vertices")
    try:
        bt = block_tree(g)
    except GraphError:
        raise GraphError("decomposition needs a connected graph with at least three vertices") from None
    cut_id = {v: bid for bid, v in bt.black}

    vertices = []
    tree_edges = []
    loops = []
    for wid, blk in bt.white:
        cuts = [v for v in blk if v in cut_id]
        tree_edges.extend((cut_id[v], wid, v) for v in cuts)
        toral = len(blk) == 2
        hanging = toral and len(cuts) == 1
        if hanging:
            v = cuts[0]
            loops.append((wid, v, blk[1] if v == blk[0] else blk[0]))
            group = CyclicGroup(v)
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


def frozen_collapse_to_j(j0: GraphOfGroups) -> GraphOfGroups:
    """``jsj.collapse_to_j`` as it was before it rebuilt only the moved records."""
    by_id = {v.id: v for v in j0.vertices}
    incident = {v.id: [] for v in j0.vertices}
    for e in j0.edges:
        if not e.is_loop:
            incident[e.ends[0]].append(e)
            incident[e.ends[1]].append(e)

    target = {}
    for v in j0.vertices:
        if v.color != BLACK or len(incident[v.id]) != 2:
            continue
        whites = [eid for e in incident[v.id] for eid in e.ends if eid != v.id]
        target[v.id] = min(whites, key=lambda wid: by_id[wid].block or ())

    absorbed = {}
    for bid, wid in target.items():
        gen = by_id[bid].group.generator
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
                continue
            new_ends = (target[black], other) if a in target else (other, target[black])
            edges.append(e._replace(ends=new_ends))
        else:
            edges.append(e)
    return GraphOfGroups(vertices=tuple(vertices), edges=tuple(edges), source=j0.source)


class _FrozenUnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        """Join the classes of ``a`` and ``b``; False if they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _frozen_span_edges(g: SimplicialGraph, members) -> list[tuple[str, str]]:
    """The edges g induces on ``members``, sorted, read off the sorted neighbour lists."""
    span = set(members)
    return [(a, b) for a in sorted(span) for b in g.neighbors(a) if b > a and b in span]


def frozen_emit_presentation(gog: GraphOfGroups) -> Presentation:
    """``presentations.emit_presentation`` as it was when a second union-find merged copies.

    Kept verbatim, span and loop relators included, so the one-union-find
    presentation can be compared with it on any graph of groups.
    """
    pieces = _FrozenUnionFind()
    uf = _FrozenUnionFind()
    non_tree = []
    for e in gog.edges:
        a, b = e.ends
        if pieces.union(a, b):
            uf.union((a, e.inclusions[0]), (b, e.inclusions[1]))
        else:
            non_tree.append(e)
    if len({pieces.find(v.id) for v in gog.vertices}) != 1:
        raise GraphError("graph of groups has a disconnected base graph")
    copies = dict.fromkeys((v.id, x) for v in gog.vertices for x in v.group.generators())
    for e in gog.edges:
        for vid, x in zip(e.ends, e.inclusions):
            if (vid, x) not in copies:
                raise GraphError(f"edge {e.id} includes {x!r}, not a generator at {vid!r}")

    class_name: dict = {}  # classes of copies in first-copy order
    for copy in copies:
        x = copy[1]
        prior = class_name.setdefault(uf.find(copy), x)
        if prior != x:
            raise GraphError(f"merged generators disagree on a name: {prior!r} vs {x!r}")
    index: dict[str, int] = {}
    for x in class_name.values():
        if x in index:
            raise GraphError(f"generator name {x!r} is carried by two distinct symbols")
        index[x] = len(index)

    relators = [
        _commutator(index[a], index[b])
        for v in gog.vertices
        if isinstance(v.group, RaagGroup)
        for a, b in _frozen_span_edges(gog.source, v.group.vertices)
    ]
    for e in non_tree:
        letter = e.stable_letter
        if letter is None:
            raise GraphError(f"non-tree edge {e.id} has no stable letter")
        if letter in index:
            raise GraphError(f"stable letter {letter!r} collides with a generator")
        t = index[letter] = len(index)  # fresh, so nothing in the relator cancels
        a, b = e.inclusions
        relators.append(((t, 1), (index[a], 1), (t, -1), (index[b], -1)))
    return Presentation(generators=tuple(index), relators=tuple(relators))


def frozen_z_split_witness(g: SimplicialGraph, cuts) -> ZSplitWitness:
    """``splitting._z_split_witness`` as it was before its three branches became one rule.

    Kept verbatim, with its second traversal for graphs without cut vertices,
    so the one-search rule can be compared witness for witness.
    """
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


def frozen_nonsplit_cover(g: SimplicialGraph) -> NonSplitCover:
    """``splitting._nonsplit_cover`` as it was before it built its entries in segment order.

    Kept verbatim, with its per-vertex loop, its ``_near_paths`` lists, its
    chain entries keyed by segment and its closing sort, so the fused loop
    can be compared entry for entry and in order.
    """
    adj = g._adj
    whole = tuple(sorted(adj))
    entries = {}
    if len(g.edges) == len(whole):  # biconnected with as many edges as vertices: one cycle
        v = whole[0]
        _cycle_entries((v, *_walk(adj, v, adj[v][1])[:-1]), whole, entries)
        return NonSplitCover(entries=dict(sorted(entries.items())))
    nbrs = {x: set(nx) for x, nx in adj.items()}
    chained = set()
    for v in whole:
        if v in chained:
            continue
        nv = adj[v]
        if len(nv) == 2:
            chain = (*_walk(adj, v, nv[0])[::-1], v, *_walk(adj, v, nv[1]))
            _frozen_chain_entries(g, nbrs, chain, whole, entries)
            chained.update(chain[1:-1])
            continue
        for i, u in enumerate(nv[:-1]):
            later = nv[i + 1 :]
            paths = _frozen_near_paths(nbrs, u, v, later)
            if None in paths:  # one search from u, kept for all of its far targets
                far = _least_paths(g, u, v, [w for w, path in zip(later, paths) if path is None])
                paths = [path or next(far) for path in paths]
            for w, path in zip(later, paths):
                cycle = (v, *path)
                delta = whole if len(cycle) == len(whole) else tuple(sorted(cycle))
                entries[(u, v, w)] = (delta, cycle)
    return NonSplitCover(entries=dict(sorted(entries.items())))


def _frozen_near_paths(nbrs, start, avoid, targets):
    near = nbrs[start]
    out = []
    for w in targets:
        if w in near:
            out.append((start, w))
            continue
        common = near & nbrs[w]
        common.discard(avoid)
        out.append((start, min(common), w) if common else None)
    return out


def _frozen_chain_entries(g, nbrs, chain, whole, entries):
    a, b = chain[0], chain[-1]
    middles = {}  # start end -> inner, span
    for i in range(1, len(chain) - 1):
        p, v, q = chain[i - 1], chain[i], chain[i + 1]
        start, end = (a, b) if p < q else (b, a)
        if start not in middles:
            path = _frozen_near_paths(nbrs, start, v, (end,))[0] or next(_least_paths(g, start, v, (end,)))
            inner = tuple(path[1:-1])
            span = chain + inner
            middles[start] = (inner, whole if len(span) == len(whole) else tuple(sorted(span)))
        inner, span = middles[start]
        if p < q:  # down to a, across to b, up to q
            entries[(p, v, q)] = (span, chain[i::-1] + inner + chain[:i:-1])
        else:  # down to b, across to a, up to p
            entries[(q, v, p)] = (span, chain[i:] + inner + chain[:i])


def hand_built_gogs() -> dict[str, GraphOfGroups]:
    """Decompositions written out by hand, beside anything ``build_j0`` makes.

    They hold loops with and without stable letters, merged vertices that
    already absorbed a cut vertex, cyclic vertex groups, tied and missing
    blocks, a black vertex met twice by one white, blacks of valence one and
    three, a black listed at the second end of its edges and a white-white
    edge.
    """
    source = parse_graph("a b\nb c\nc d\nd e\nc f")

    def white(vid, blk, color=WHITE, group=None, absorbed=(), hanging=False):
        group = group or RaagGroup(blk)
        return GoGVertex(vid, color, group, len(blk) == 2, hanging, blk, absorbed)

    def black(vid, v):
        return GoGVertex(id=vid, color=BLACK, group=CyclicGroup(v))

    def edge(eid, a, b, v, letter=None):
        return GoGEdge(eid, (a, b), CyclicGroup(v), (v, v), letter)

    return {
        # a path a-b-c-d with both end blocks hanging: loops carry the stable letters
        "path": GraphOfGroups(
            (
                white("blk0", ("a", "b"), group=CyclicGroup("b"), hanging=True),
                white("blk1", ("b", "c")),
                white("blk2", ("c", "d"), group=CyclicGroup("c"), hanging=True),
                black("cut:b", "b"),
                black("cut:c", "c"),
            ),
            (
                edge("e0", "cut:b", "blk0", "b"),
                edge("e1", "cut:b", "blk1", "b"),
                edge("e2", "cut:c", "blk1", "c"),
                edge("e3", "cut:c", "blk2", "c"),
                edge("e4", "blk0", "blk0", "b", "a"),
                edge("e5", "blk2", "blk2", "c", "d"),
            ),
            source,
        ),
        # a merged white that absorbed d already, a black listed second, a tie between
        # equal blocks, and a white without a block
        "merged": GraphOfGroups(
            (
                white("w0", ("c", "d", "e"), color=MERGED, absorbed=("d",)),
                white("w1", ("c", "d", "e")),
                GoGVertex("w2", WHITE, RaagGroup(("a", "b"))),
                black("cut:c", "c"),
                black("cut:e", "e"),
            ),
            (
                edge("e0", "w1", "cut:c", "c"),
                edge("e1", "w0", "cut:c", "c"),
                edge("e2", "cut:e", "w2", "e"),
                edge("e3", "cut:e", "w1", "e"),
                edge("e4", "w2", "w2", "e", "f"),
                edge("e5", "w1", "w1", "c"),
            ),
            source,
        ),
        # a black met twice by one white, a black of valence one and one of valence three
        "valences": GraphOfGroups(
            (
                white("w0", ("a", "b")),
                white("w1", ("b", "c", "d")),
                white("w2", ("c", "f"), group=CyclicGroup("c"), hanging=True),
                black("cut:b", "b"),
                black("cut:c", "c"),
                black("cut:d", "d"),
            ),
            (
                edge("e0", "cut:b", "w0", "b"),
                edge("e1", "cut:b", "w0", "b"),
                edge("e2", "cut:c", "w0", "c"),
                edge("e3", "cut:c", "w1", "c"),
                edge("e4", "cut:c", "w2", "c"),
                edge("e5", "cut:d", "w1", "d"),
                edge("e6", "w2", "w2", "c", "f"),
                edge("e7", "w0", "w1", "b"),
            ),
            source,
        ),
        "single": GraphOfGroups((white("blk0", ("a", "b", "c", "d", "e", "f")),), (), source),
        "empty": GraphOfGroups((), (), source),
    }


# ------------------------------------------------------------ large graphs


def _scale_edges(family: str, n: int, rng):
    """Edges on 0..n-1 of one cut-heavy or biconnected family."""
    if family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "random-tree":
        return [(rng.randrange(i), i) for i in range(1, n)]
    if family == "k4-chain":
        # K4 blocks, consecutive blocks sharing one cut vertex; n = 3k + 1
        return [e for base in range(0, n - 3, 3) for e in combinations(range(base, base + 4), 2)]
    if family == "cactus":
        # cycles and cliques of 3-5 vertices, each glued at a random earlier vertex
        edges, size = [], 1
        while size < n:
            k = min(rng.randint(3, 5), n - size + 1)
            members = [rng.randrange(size), *range(size, size + k - 1)]
            size += k - 1
            if k == 2:
                edges.append(tuple(members))
            elif rng.random() < 0.5:
                edges.extend(zip(members, members[1:] + members[:1]))
            else:
                edges.extend(combinations(members, 2))
        return edges
    if family == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if family == "grid":
        cols = 20
        rows = n // cols
        right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
        return right + down
    if family == "ear":
        # a seed cycle grown by open ears of fresh vertices between old vertices of degree < 4
        start = rng.randint(5, 20)
        edges, degree = [(i, (i + 1) % start) for i in range(start)], [2] * start
        while len(degree) < n:
            a, b = rng.sample([v for v, d in enumerate(degree) if d < 4], 2)
            inner = min(rng.randint(1, 20), n - len(degree))
            chain = [a, *range(len(degree), len(degree) + inner), b]
            edges.extend(zip(chain, chain[1:]))
            degree[a] += 1
            degree[b] += 1
            degree.extend([2] * inner)
        return edges
    raise ValueError(family)


def scale_graph(family: str, n: int, seed: int) -> SimplicialGraph:
    """A seeded graph of one family whose vertex names are a random permutation.

    Shuffled names make lexicographic tie-breaks unrelated to the structure.
    """
    rng = random.Random(f"{family}/{n}/{seed}")
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(f"v{perm[u]:04d}", f"v{perm[v]:04d}") for u, v in _scale_edges(family, n, rng)]
    rng.shuffle(edges)
    return SimplicialGraph.from_edges(edges)


# ------------------------------------------------------------ frozen argparse parser


def frozen_build_parser():
    """The argparse parser ``raag`` used before ``cli.parse_args`` read its table.

    The differential oracle for ``parse_args``: both read a valid command line
    to the same fields, and both exit 2 on an invalid one.
    """
    import argparse

    from raagsplit.cli import cmd_census, cmd_check, cmd_export_dot, cmd_jsj, cmd_split, cmd_witness

    parser = argparse.ArgumentParser(
        prog="raag",
        description="Splittings and JSJ decompositions of right-angled Artin groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", nargs="?", default="-", help="edge-list file, or - for stdin")
        p.add_argument("--g6", action="store_true", help="input is a single graph6 line")

    p_split = sub.add_parser("split", help="free and Z-splitting verdicts with witness")
    add_input(p_split)
    p_split.set_defaults(func=cmd_split)

    p_jsj = sub.add_parser("jsj", help="graph-of-groups decomposition")
    add_input(p_jsj)
    p_jsj.add_argument("--stage", choices=("j0", "j"), default="j")
    p_jsj.add_argument("--format", choices=("json", "dot"), default="json")
    p_jsj.set_defaults(func=cmd_jsj)

    p_witness = sub.add_parser("witness", help="emit and re-verify the splitting witness")
    add_input(p_witness)
    p_witness.set_defaults(func=cmd_witness)

    p_check = sub.add_parser("check", help="consistency checks of the decomposition")
    add_input(p_check)
    p_check.set_defaults(func=cmd_check)

    p_census = sub.add_parser("census", help="sweep labeled graphs and tabulate verdicts")
    # one source of graphs; argparse passes an option given its default value as if absent,
    # so --max-n has none of its own and cannot slip past the conflict check as "--max-n 6"
    source = p_census.add_mutually_exclusive_group()
    source.add_argument("--n", type=int, default=None, help="single vertex count")
    source.add_argument("--max-n", type=int, default=None, dest="max_n")
    source.add_argument(
        "file", nargs="?", default=None, help="graph6 stream (or -) instead of internal enumeration"
    )
    p_census.set_defaults(func=cmd_census)

    p_dot = sub.add_parser("export-dot", help="DOT of the graph or its decomposition")
    add_input(p_dot)
    p_dot.add_argument("--stage", choices=("graph", "j0", "j"), default="graph")
    p_dot.set_defaults(func=cmd_export_dot, format="dot")

    return parser
