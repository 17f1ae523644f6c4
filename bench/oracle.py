"""Output oracle: re-derives every answer without importing ``raagsplit``.

Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not.  Large graphs get their blocks and cut
vertices from networkx; the seven-vertex sweep uses the removal definition on
bitmasks.  Witness checks are written from the definitions: an amalgam must
cover the graph by two proper sides that meet in one vertex with no edge
between the sides away from it, and a cover needs a connected graph on at
least three vertices, every two-edge segment, and a Hamiltonian cycle of each
span.  The program's own ``"verified"`` flag is never trusted.
"""

from __future__ import annotations

import json
from itertools import combinations


class Graph:
    """The generator's graph: vertex set and adjacency sets."""

    def __init__(self, edges, isolated=()):
        self.adj: dict[str, set[str]] = {v: set() for v in isolated}
        for u, v in edges:
            self.adj.setdefault(u, set()).add(v)
            self.adj.setdefault(v, set()).add(u)

    @property
    def vertices(self) -> set[str]:
        return set(self.adj)

    def is_connected(self) -> bool:
        if not self.adj:
            return False
        start = next(iter(self.adj))
        seen = {start}
        stack = [start]
        while stack:
            for y in self.adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(self.adj)

    def segments(self) -> set[tuple[str, str, str]]:
        """Two-edge segments (u, v, w) with u < w."""
        return {
            (u, v, w) if u < w else (w, v, u)
            for v, ns in self.adj.items()
            for u, w in combinations(ns, 2)
        }


def check_amalgam(g: Graph, witness: dict) -> str | None:
    side1, side2, v = set(witness["side1"]), set(witness["side2"]), witness["vertex"]
    allv = g.vertices
    if len(allv) < 3:
        return "amalgam on fewer than three vertices"
    if side1 | side2 != allv:
        return "amalgam sides do not cover the graph"
    if side1 & side2 != {v}:
        return "amalgam sides do not meet in exactly the shared vertex"
    if side1 == allv or side2 == allv:
        return "amalgam side is not proper"
    for a in side1 - {v}:
        if g.adj[a] & (side2 - {v}):
            return f"edge joins the sides away from {v}"
    return None


def check_cover(g: Graph, witness: dict) -> str | None:
    if len(g.adj) < 3 or not g.is_connected():
        return "cover offered for a graph that is not connected on >= 3 vertices"
    want = g.segments()
    got: set[tuple[str, str, str]] = set()
    for entry in witness["cover"]:
        seg = tuple(entry["segment"])
        if seg not in want:
            return f"cover entry {seg} is not a two-edge segment"
        if seg in got:
            return f"cover entry {seg} is repeated"
        got.add(seg)
        delta, cycle = entry["delta"], entry["cycle"]
        span = set(delta)
        if len(span) < 3 or len(span) != len(delta) or not span <= g.adj.keys():
            return f"cover entry {seg}: bad span"
        if not set(seg) <= span:
            return f"cover entry {seg}: span misses the segment"
        if len(cycle) != len(span) or set(cycle) != span:
            return f"cover entry {seg}: cycle does not visit the span once"
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if b not in g.adj[a]:
                return f"cover entry {seg}: cycle step {a}-{b} is not an edge"
    if got != want:
        return f"cover misses {len(want - got)} segments"
    return None


def check_witness(g: Graph, witness: dict, biconnected: bool) -> str | None:
    kind = witness.get("kind")
    if kind != ("cover" if biconnected else "amalgam"):
        return f"witness kind {kind!r} does not fit the verdict"
    return check_cover(g, witness) if biconnected else check_amalgam(g, witness)


def check_split(g: Graph, payload: dict, biconnected: bool) -> str | None:
    want = "no" if biconnected else "yes"
    if payload.get("free_split") is not (not g.is_connected()):
        return "free_split verdict is wrong"
    if payload.get("z_split") != want:
        return f"z_split is {payload.get('z_split')!r}, expected {want!r}"
    return check_witness(g, payload["witness"], biconnected)


def check_witness_report(g: Graph, payload: dict, biconnected: bool) -> str | None:
    want = "no" if biconnected else "yes"
    if payload.get("z_split") != want:
        return f"z_split is {payload.get('z_split')!r}, expected {want!r}"
    reason = check_witness(g, payload["witness"], biconnected)
    if reason is None and payload.get("verified") is not True:
        return "valid witness reported as unverified"
    return reason


class BlockFacts:
    """What the block structure of a connected graph predicts for J.

    ``degree[c]`` is the number of blocks holding cut vertex ``c``;
    ``blocks`` (optional) the vertex sets of the blocks.
    """

    def __init__(self, g: Graph, degree: dict[str, int], block_count: int, blocks=None):
        self.degree = degree
        self.block_count = block_count
        self.blocks = blocks
        self.leaves = {v for v, ns in g.adj.items() if len(ns) == 1}


def networkx_facts(g: Graph) -> BlockFacts:
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(g.adj)
    h.add_edges_from((u, v) for u, ns in g.adj.items() for v in ns if u < v)
    blocks = [frozenset(b) for b in nx.biconnected_components(h)]
    degree: dict[str, int] = {}
    for c in nx.articulation_points(h):
        degree[c] = sum(c in b for b in blocks)
    return BlockFacts(g, degree, len(blocks), blocks)


def check_jsj(g: Graph, payload: dict, facts: BlockFacts) -> str | None:
    """J against the block tree: counts, groups, loops and tree shape.

    J0 has a white node per block and a black node per cut vertex c with one
    edge per block holding c; a two-vertex block at a leaf of g becomes
    cyclic and carries a loop.  Collapsing absorbs every black node of
    valence two.
    """
    verts, edges = payload["vertices"], payload["edges"]
    deg = facts.degree
    keep_black = {c for c, d in deg.items() if d != 2}
    if len(verts) != facts.block_count + len(keep_black):
        return f"J has {len(verts)} vertices, expected {facts.block_count + len(keep_black)}"
    want_edges = sum(deg.values()) - (len(deg) - len(keep_black)) + len(facts.leaves)
    if len(edges) != want_edges:
        return f"J has {len(edges)} edges, expected {want_edges}"
    ids = {v["id"] for v in verts}
    if len(ids) != len(verts):
        return "J repeats a vertex id"
    blacks = sorted(v["group"]["vertices"][0] for v in verts if v["color"] == "black")
    if blacks != sorted(keep_black):
        return "J black vertices are not the cut vertices in three or more blocks"
    hanging = {v["id"] for v in verts if v["hanging"]}
    if len(hanging) != len(facts.leaves):
        return "J hanging vertices do not match the leaves of g"
    if facts.blocks is not None:
        raag = sorted(tuple(sorted(v["group"]["vertices"])) for v in verts if v["group"]["kind"] == "raag")
        want = sorted(tuple(sorted(b)) for b in facts.blocks if not (len(b) == 2 and b & facts.leaves))
        if raag != want:
            return "J raag vertex groups are not the non-hanging blocks"
    loops = [e for e in edges if e["loop"]]
    if sorted(e["stable_letter"] for e in loops) != sorted(facts.leaves):
        return "J loop stable letters are not the leaves of g"
    for e in edges:
        if e["group_vertex"] not in deg:
            return f"J edge {e['id']} has a non-cut edge group {e['group_vertex']}"
        if not set(e["ends"]) <= ids:
            return f"J edge {e['id']} has a foreign end"
        if e["loop"] and (e["ends"][0] not in hanging or e["stable_letter"] not in g.adj[e["group_vertex"]]):
            return f"J loop {e['id']} is not at a hanging leaf"
    # the non-loop edges form a spanning tree of the vertex ids
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = [e["ends"] for e in edges if not e["loop"]]
    for a, b in tree:
        ra, rb = find(a), find(b)
        if ra == rb:
            return "J base graph has a cycle"
        parent[ra] = rb
    if len(tree) != len(ids) - 1:
        return "J base graph is disconnected"
    return None


def check_check(n: int, stdout: str) -> str | None:
    want = ["reduced pass", "euler pass", "coverage pass", f"abelianization pass rank={n} torsion=[]"]
    got = stdout.splitlines()
    if got != want:
        return f"check printed {got[:4]!r}"
    return None


def check_cli_output(cmd: str, g: Graph, biconnected: bool, facts: BlockFacts, stdout: str) -> str | None:
    """Oracle for one successful ``raag <cmd>`` invocation."""
    if cmd == "check":
        return check_check(len(g.adj), stdout)
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if cmd == "split":
        return check_split(g, payload, biconnected)
    if cmd == "witness":
        return check_witness_report(g, payload, biconnected)
    return check_jsj(g, payload, facts)


# ------------------------------------------------------ seven-vertex sweep


def _bits(g: Graph) -> tuple[list[str], list[int]]:
    names = sorted(g.adj)
    index = {v: i for i, v in enumerate(names)}
    adj = [0] * len(names)
    for v, ns in g.adj.items():
        for w in ns:
            adj[index[v]] |= 1 << index[w]
    return names, adj


def _components(adj: list[int], alive: int) -> int:
    count = 0
    todo = alive
    while todo:
        seen = frontier = todo & -todo
        while frontier:
            reach = 0
            f = frontier
            while f:
                low = f & -f
                reach |= adj[low.bit_length() - 1]
                f ^= low
            frontier = reach & alive & ~seen
            seen |= frontier
        todo &= ~seen
        count += 1
    return count


def removal_facts(g: Graph) -> tuple[bool, BlockFacts]:
    """Biconnectivity and block degrees by deleting each vertex in turn.

    For a connected graph the number of blocks holding v is the number of
    components of g - v, and the block count follows from the block tree
    being a tree.
    """
    names, adj = _bits(g)
    full = (1 << len(names)) - 1
    degree = {}
    for i, v in enumerate(names):
        k = _components(adj, full & ~(1 << i))
        if k > 1:
            degree[v] = k
    biconnected = len(names) >= 2 and _components(adj, full) == 1 and not degree
    blocks = 1 + sum(d - 1 for d in degree.values())
    return biconnected, BlockFacts(g, degree, blocks)


def check_sweep_graph(g: Graph, out: dict) -> str | None:
    """Oracle for one graph of the in-process sweep pipeline."""
    biconnected, facts = removal_facts(g)
    reason = check_split(g, json.loads(out["report"]), biconnected)
    if reason is None and biconnected and out["recheck"] is not True:
        reason = "verify_cover rejected a valid cover"
    if reason is None:
        reason = check_jsj(g, json.loads(out["gog"]), facts)
    if reason is None and out["checks"] != (True, True, True, (len(g.adj), [])):
        reason = f"checks returned {out['checks']!r}"
    return reason
