"""Free and infinite-cyclic splittings of right-angled Artin groups.

A(g) splits freely iff g is disconnected (two or more vertices), and for three
or more vertices A(g) splits over Z iff g fails to be biconnected.  Both
verdicts come with machine-checkable witnesses: an amalgam decomposition of the
defining graph over a single shared vertex when a splitting exists, and a cover
of the two-edge segments by induced subgraphs with Hamiltonian cycles when none
does.  The searches behind both witnesses live here too.
"""

from __future__ import annotations

from typing import Collection, Iterator, NamedTuple, Optional, Sequence, Union

from .blocks import _lowpoint_scan, cut_vertices, is_biconnected
from .graphs import GraphError, SimplicialGraph, _component_avoiding

Z_SPLIT_YES = "yes"
Z_SPLIT_NO = "no"
Z_SPLIT_HNN_SMALL_CASE = "hnn_small_case"


class ZSplitWitness(NamedTuple):
    """Two proper induced subgraphs covering g and meeting in one vertex.

    Certifies A(g) = A(side1) * A(side2) amalgamated over the cyclic group on
    ``vertex``.
    """

    side1: tuple[str, ...]
    side2: tuple[str, ...]
    vertex: str
    _kind = "amalgam"  # what the writers call it, so that they need not import this module


class NonSplitCover(NamedTuple):
    """Per two-edge segment: an induced subgraph and its Hamiltonian cycle.

    Keys are normalized segments (u, v, w) with u < w, sorted as the library
    builds them and written in the mapping's own order; values are the
    sorted span and the cycle witness starting at the segment's middle vertex.
    """

    entries: dict[tuple[str, str, str], tuple[tuple[str, ...], tuple[str, ...]]]
    _kind = "cover"


class SmallCaseWitness(NamedTuple):
    """Verdict tag for one- and two-vertex graphs: "Z", "F2" or "Z^2"."""

    tag: str
    _kind = "small_case"


Witness = Union[ZSplitWitness, NonSplitCover, SmallCaseWitness]


class SplitReport(NamedTuple):
    free_split: bool
    z_split: str  # one of Z_SPLIT_YES / Z_SPLIT_NO / Z_SPLIT_HNN_SMALL_CASE
    witness: Witness


def z_split_witness(g: SimplicialGraph) -> ZSplitWitness:
    """Amalgam witness for a non-biconnected graph on three or more vertices.

    One rule, from one search: a vertex v and a component C of g minus v,
    with sides C + v and the rest.  With cut vertices, v is the least of
    them and C is the component of the least other vertex.  Without, C is
    the component of the least vertex and v the least vertex outside it; if
    that is the only vertex outside, C is it alone and v the least vertex,
    so both sides stay proper.
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
    else:
        comp = _component_avoiding(g, min(allv), None)
        outside = allv - comp
        if not outside:
            raise GraphError("graph is biconnected; no Z-splitting exists")
        if len(outside) == 1:  # the lone outside vertex is the component, so both sides stay proper
            comp, v = outside, min(allv)
        else:
            v = min(outside)
    return ZSplitWitness(side1=tuple(sorted(comp | {v})), side2=tuple(sorted(allv - comp)), vertex=v)


def nonsplit_cover(g: SimplicialGraph) -> NonSplitCover:
    """Hamiltonian cover certifying that A(g) does not split over Z.

    For each two-edge segment u-v-w the least shortest u-w path avoiding v
    closes up with the segment into a Hamiltonian cycle of the induced
    subgraph it spans; biconnectivity guarantees the path exists.  A path of
    at most four edges is read off g's neighbour sets: (u, w) when u ~ w,
    else the least (u, x, w), (u, x, y, w) or (u, x, y, z, w) avoiding v.
    On small, dense or grid-like graphs that is almost every path.  Every
    vertex of degree 2 lies inside a chain: a run of one or more degree-2
    vertices between two ends of other degree.  Its path is forced: down the
    chain to one end, along the least shortest path between the ends, and up
    the chain to its other neighbour.  That middle path is found once per
    chain and direction, each cycle is built from slices, and a graph that
    is one cycle needs no search and no neighbour set.  Only a target five
    or more steps away is searched, with the later targets of its u and v
    that are three or more away, from both ends in g - v: each step grows
    the smaller frontier by one whole level, and the ball from u is kept
    for every later far neighbour w of v, so the cost is the balls searched
    plus the size of the cover.  Entries are built in segment
    order, u over the sorted vertices, v over u's sorted neighbours and w
    over v's neighbours after u, so no closing sort is needed.
    """
    if len(g.vertices) < 3 or not is_biconnected(g):
        raise GraphError("Hamiltonian covers exist for biconnected graphs on >= 3 vertices")
    return _nonsplit_cover(g)


def _nonsplit_cover(g: SimplicialGraph) -> NonSplitCover:
    """``nonsplit_cover`` for a graph already known to be biconnected on >= 3 vertices."""
    adj = g._adj
    whole = tuple(sorted(adj))
    n = len(whole)
    entries: dict = {}
    if len(g.edges) == n:  # biconnected with as many edges as vertices: one cycle
        v = whole[0]
        _cycle_entries((v, *_walk(adj, v, adj[v][1])[:-1]), whole, entries)
        return NonSplitCover(entries=dict(sorted(entries.items())))
    nbrs = {x: set(nx) for x, nx in adj.items()}
    mids: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}  # degree-2 vertex -> its entry
    for u in whole:
        near = nbrs[u]
        for v in adj[u]:
            nv = adj[v]
            if len(nv) == 2:
                if nv[0] == u:  # v's one segment (u, v, nv[1]); its whole chain is built at once
                    entry = mids.pop(v, None)
                    if entry is None:
                        chain = (*_walk(adj, v, nv[0])[::-1], v, *_walk(adj, v, nv[1]))
                        _chain_entries(g, nbrs, chain, whole, mids)
                        entry = mids.pop(v)
                    entries[(u, v, nv[1])] = entry
                continue
            far = []
            for w in nv[nv.index(u) + 1 :]:
                # _short_path's first two rules, inline: a call each made small-sweep's
                # biconnected 7-vertex covers about 30% slower, and K_{2,150}'s too
                if w in near:  # the path is the edge u-w, and u < w
                    span = (v, u, w) if v < u else (u, v, w) if v < w else (u, w, v)
                    entries[(u, v, w)] = (span if n > 3 else whole, (v, u, w))
                    continue
                common = near & nbrs[w]
                common.discard(v)
                if common:  # u-x-w for the least such x: the search's first level is adj[u]
                    cycle = (v, u, min(common), w)
                    entries[(u, v, w)] = (tuple(sorted(cycle)) if n > 4 else whole, cycle)
                    continue
                # up to four edges until one target misses; it and the rest share one search
                path = None if far else _short_path(adj, nbrs, u, v, w)
                if path is None:
                    far.append(w)
                    entries[(u, v, w)] = None  # holds the key's place until the search
                else:
                    cycle = (v, *path)
                    entries[(u, v, w)] = (tuple(sorted(cycle)) if len(cycle) < n else whole, cycle)
            if far:  # one search from u, kept for all of its far targets
                for w, path in zip(far, _least_paths(g, u, v, far)):
                    # biconnected, so every path exists; it is simple and avoids v, so the
                    # sorted cycle is its span: the shared `whole` when it has every vertex
                    cycle = (v, *path)  # type: ignore
                    entries[(u, v, w)] = (tuple(sorted(cycle)) if len(cycle) < n else whole, cycle)
    return NonSplitCover(entries=entries)


def _short_path(adj: dict, nbrs: dict, u: str, v: str, w: str) -> Optional[tuple[str, ...]]:
    """The least shortest u-w path in g minus v, w != v, if it has at most four edges, else None.

    It is the path ``_least_paths`` returns, read off the neighbour sets: the
    edge u-w, else u-x-w, u-x-y-w or u-x-y-z-w, for the least x over
    ``adj[u]``, then the least y over ``adj[x]``, then the least z.
    """
    nw = nbrs[w]
    if u in nw:
        return (u, w)
    nw = nw - {v}
    common = nbrs[u] & nw
    if common:
        return (u, min(common), w)
    ring = [x for x in adj[u] if x != v]
    for x in ring:
        common = nbrs[x] & nw
        if common:
            return (u, x, min(common), w)
    for x in ring:
        for y in adj[x]:
            if y != v:
                common = nbrs[y] & nw
                if common:
                    return (u, x, y, min(common), w)
    return None


def _least_paths(
    g: SimplicialGraph, start: str, avoid: str, targets: Sequence[str]
) -> Iterator[Optional[list[str]]]:
    """Per target in order: its least shortest path from ``start`` in g minus ``avoid``, or None.

    The forward search expands neighbours in lexicographic order and sets a
    parent only when its vertex is first found, so a parent chain spells the
    lexicographically least shortest path and each level, in queue order, is
    sorted by those paths.  Its ball is kept for every later target.  A
    target outside it grows a backward search, and each step grows whichever
    frontier is smaller by one whole level.  Each backward level is sorted
    before it expands, so a backward link is the least neighbour one step
    nearer the target.  The path runs through the first forward-level
    vertex, in queue order, that the backward side reached.  No target may
    be ``avoid``.
    """
    adj = g._adj
    # avoid counts as found on both sides, so neither search enters it
    parents: dict[str, Optional[str]] = {start: None, avoid: None}
    level = [start]
    for w in targets:
        links: dict[str, Optional[str]] = {w: None, avoid: None}
        back = [w]
        meet = w if w in parents else None
        while meet is None and level and back:
            forward = len(level) <= len(back)  # grow the smaller frontier by one whole level
            side, other = (parents, links) if forward else (links, parents)
            new = []
            for x in level if forward else sorted(back):
                for y in adj[x]:
                    if y not in side:
                        side[y] = x
                        new.append(y)
                        if meet is None and y in other:
                            meet = y
            if forward:
                level = new
            else:
                back = new
                if meet is not None:  # the first meeting in the forward level's queue order
                    meet = next(x for x in level if x in links)
        if meet is None:
            yield None
            continue
        path = []
        x = meet
        while x is not None:
            path.append(x)
            x = parents[x]
        path.reverse()
        x = links[meet]
        while x is not None:
            path.append(x)
            x = links[x]
        yield path


def _walk(adj: dict[str, tuple[str, ...]], v: str, x: str) -> list[str]:
    """From v's neighbour ``x`` away from v to the first vertex not of degree 2, or back to v."""
    run = [x]
    prev = v
    while x != v and len(adj[x]) == 2:
        nx = adj[x]
        prev, x = x, (nx[1] if nx[0] == prev else nx[0])
        run.append(x)
    return run


def _cycle_entries(order: tuple[str, ...], whole: tuple[str, ...], entries: dict) -> None:
    """The cover entries of the cycle ``order``, which is all of g: each path is the rest of it."""
    n = len(order)
    doubled = order * 2
    for i, v in enumerate(order):
        left, right = doubled[i + n - 1], doubled[i + 1]
        if right < left:
            entries[(right, v, left)] = (whole, doubled[i : i + n])
        else:
            entries[(left, v, right)] = (whole, doubled[i + n : i : -1])


def _chain_entries(
    g: SimplicialGraph,
    nbrs: dict[str, set[str]],
    chain: tuple[str, ...],
    whole: tuple[str, ...],
    mids: dict,
) -> None:
    """The cover entries of the inner vertices of ``chain`` = (a, c1, ..., ck, b), keyed by ci.

    In g - ci the segment's path runs down the chain to one end, along the
    least shortest path between the ends, and up the chain to the other
    neighbour.  The rest of the chain hangs off a and b as dead ends, so that
    middle path is the same for every ci: it is read off the neighbour sets
    or searched once per direction, and each cycle is three slices.
    """
    a, b = chain[0], chain[-1]
    middles: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}  # start end -> inner, span
    for i in range(1, len(chain) - 1):
        p, v, q = chain[i - 1], chain[i], chain[i + 1]
        start, end = (a, b) if p < q else (b, a)
        if start not in middles:
            path = _short_path(g._adj, nbrs, start, v, end) or next(_least_paths(g, start, v, (end,)))
            inner = tuple(path[1:-1])  # type: ignore  # biconnected, so the path exists
            span = chain + inner
            middles[start] = (inner, whole if len(span) == len(whole) else tuple(sorted(span)))
        inner, span = middles[start]
        if p < q:  # down to a, across to b, up to q
            mids[v] = (span, chain[i::-1] + inner + chain[:i:-1])
        else:  # down to b, across to a, up to p
            mids[v] = (span, chain[i:] + inner + chain[:i])


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
