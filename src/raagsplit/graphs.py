"""Finite simplicial graphs: parsing, components, cliques and two-edge segments.

Vertices are identified by their names (tokens over ``[A-Za-z0-9_]``) and
all tie-breaking is lexicographic over names, so every operation here is
deterministic and byte-reproducible.  Graphs are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Domain error: an operation was applied outside its contract."""


class ParseError(GraphError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# every vertex name matches this, so JSON has nothing to escape in one: the CLI writes
# cover arrays and decompositions by joining names (serialize._names_json, _gog_json)
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def _check_token(name: str) -> str:
    if not isinstance(name, str) or not _TOKEN_RE.match(name):
        raise GraphError(f"invalid vertex name {name!r}")
    return name


class SimplicialGraph:
    """A finite simple graph with named vertices.

    ``vertices`` keeps declaration order (duplicates merged); ``edges`` is the
    canonical sorted tuple of sorted pairs.  Neighbor lists are pre-sorted so
    breadth-first traversals expand lexicographically.
    """

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable[Sequence[str]] = ()):
        adj: dict[str, set[str]] = {}
        for name in vertices:
            adj.setdefault(_check_token(name), set())
        for pair in edges:
            try:
                u, v = pair
                declared = u in adj and v in adj
            except (TypeError, ValueError):  # not a pair, or an unhashable endpoint
                raise GraphError(f"edge {pair!r} is not a vertex pair") from None
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            if not declared:
                missing = u if u not in adj else v
                raise GraphError(f"edge endpoint {missing!r} is not a declared vertex")
            adj[u].add(v)
            adj[v].add(u)
        self._fill(adj)

    @classmethod
    def _trusted(cls, adj: dict[str, set[str]]) -> "SimplicialGraph":
        """The graph on ``adj``'s keys, in their order, with nothing checked.

        ``adj`` must be symmetric, free of self-loops and keyed by valid
        names: the parser, which validates each name once, builds it so.
        """
        g = cls.__new__(cls)
        g._fill(adj)
        return g

    def _fill(self, adj: dict[str, set[str]]) -> None:
        self.vertices: tuple[str, ...] = tuple(adj)
        self._adj: dict[str, tuple[str, ...]] = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        # each vertex's later neighbours, in sorted order: the sorted edge list without a sort of pairs
        nbrs = self._adj
        self.edges: tuple[tuple[str, str], ...] = tuple(
            [(u, v) for u in sorted(nbrs) for v in nbrs[u] if u < v]
        )

    @classmethod
    def from_edges(cls, edges: Iterable[Sequence[str]]) -> "SimplicialGraph":
        """Build a graph whose vertex order is first appearance in ``edges``."""
        order: dict[str, None] = {}
        pairs = []
        for pair in edges:
            try:
                u, v = pair
                order.setdefault(u, None)
                order.setdefault(v, None)
            except (TypeError, ValueError):  # not a pair, or an unhashable endpoint
                raise GraphError(f"edge {pair!r} is not a vertex pair") from None
            pairs.append((u, v))
        return cls(list(order), pairs)  # the constructor checks the names

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"vertex {v!r} not in graph") from None

    def __contains__(self, v: str) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"SimplicialGraph(vertices={list(self.vertices)!r}, edges={[list(e) for e in self.edges]!r})"


def parse_graph(text: str) -> SimplicialGraph:
    """Parse the line-oriented edge-list format.

    Each nonempty, non-comment line declares either one isolated vertex or one
    edge (two whitespace-separated tokens, endpoints implicitly declared).
    Lines starting with ``#`` are comments.  Duplicate declarations merge.

    >>> g = parse_graph("a b\\nb c")
    >>> g.vertices, g.edges
    (('a', 'b', 'c'), (('a', 'b'), ('b', 'c')))
    """
    # each name is matched once, on the first line it appears on: a key of adj is valid
    adj: dict[str, set[str]] = {}
    valid = _TOKEN_RE.match
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) == 2:
            u, v = tokens
            if u not in adj:
                if not valid(u):
                    raise ParseError(f"malformed token {u!r}", lineno)
                adj[u] = set()
            if v not in adj:
                if not valid(v):
                    raise ParseError(f"malformed token {v!r}", lineno)
                adj[v] = set()
            if u == v:
                raise ParseError(f"self-loop declared at {u!r}", lineno)
            adj[u].add(v)
            adj[v].add(u)
            continue
        for tok in tokens:
            if tok not in adj and not valid(tok):
                raise ParseError(f"malformed token {tok!r}", lineno)
        if len(tokens) != 1:
            raise ParseError(f"expected 1 or 2 tokens, got {len(tokens)}", lineno)
        adj.setdefault(tokens[0], set())
    return SimplicialGraph._trusted(adj)


def connected_components(g: SimplicialGraph) -> list[tuple[str, ...]]:
    """Maximal connected pieces, each sorted, ordered by least member."""
    adj = g._adj
    seen: set[str] = set()
    comps: list[tuple[str, ...]] = []
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for x in comp:  # the list grows as it is read, so it is the search's queue too
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
        comps.append(tuple(sorted(comp)))
    return comps


def _clique_counts(n: int, edges: Iterable[tuple[str, str]]) -> list[int]:
    """``clique_counts`` on n vertices and sorted pairs u < v: Chiba and Nishizeki, SIAM J. Comput. 1985."""
    later: dict[str, set[str]] = {}
    for u, v in edges:
        later.setdefault(u, set()).add(v)
    counts = [1, n] if n else [1]
    stack = [(common, 2) for common in later.values()]  # (names extending a clique, new size), none empty
    while stack:
        common, size = stack.pop()
        if size == len(counts):
            counts.append(0)
        counts[size] += len(common)
        stack += [(grown, size + 1) for w in common if w in later and (grown := common & later[w])]
    return counts


def clique_counts(g: SimplicialGraph) -> list[int]:
    """Number of complete induced subgraphs by size; entry 0 is the empty clique.

    Each clique is counted once, from its least name: time is bound by the cliques, memory by the edges.

    >>> clique_counts(SimplicialGraph("abc", [("a", "b"), ("a", "c"), ("b", "c")]))
    [1, 3, 3, 1]
    """
    return _clique_counts(len(g.vertices), g.edges)


def _euler_characteristic(n: int, edges: Iterable[tuple[str, str]]) -> int:
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(_clique_counts(n, edges)))


def euler_characteristic(g: SimplicialGraph) -> int:
    """Alternating clique sum: the Euler characteristic of A(g)'s cube complex."""
    return _euler_characteristic(len(g.vertices), g.edges)


def two_edge_segments(g: SimplicialGraph) -> list[tuple[str, str, str]]:
    """All paths u-v-w with u < w, sorted; the unordered two-edge segments of g.

    They are listed in order, with no sort: u runs over the sorted vertices,
    v over u's sorted neighbours and w over v's neighbours after u.
    """
    adj = g._adj
    segs = []
    for u in sorted(adj):
        for v in adj[u]:
            nv = adj[v]
            for w in nv[nv.index(u) + 1 :]:
                segs.append((u, v, w))
    return segs
