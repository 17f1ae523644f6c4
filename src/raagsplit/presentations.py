"""Presentations of decomposed groups and exact abelianization checks.

A presentation stores relators as freely reduced words of (generator index,
exponent) letters with exponents +-1.  Abelianization goes through an exact
integer Smith normal form, so torsion is certified absent rather than sampled.
A graph of groups is presented over the maximal tree that one union-find
picks from its edges in order; a second union-find merges the generator
copies along that tree, so tree edges leave no relator.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .blocks import cut_vertices
from .graphs import GraphError, SimplicialGraph, euler_characteristic
from .jsj import GraphOfGroups, RaagGroup

Word = tuple[tuple[int, int], ...]


class Presentation(NamedTuple):
    generators: tuple[str, ...]
    relators: tuple[Word, ...]


def free_reduce(word: Word) -> Word:
    """Cancel adjacent inverse letters until none remain."""
    out: list[tuple[int, int]] = []
    for gen, exp in word:
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def _commutator(i: int, j: int) -> Word:
    return ((i, 1), (j, 1), (i, -1), (j, -1))


def raag_presentation(g: SimplicialGraph) -> Presentation:
    """Generators are the vertices; one commutator relator per edge."""
    index = {v: i for i, v in enumerate(g.vertices)}
    relators = tuple(_commutator(index[u], index[v]) for u, v in g.edges)
    return Presentation(generators=g.vertices, relators=relators)


class _UnionFind:
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


def _span_edges(g: SimplicialGraph, members: Iterable[str]) -> list[tuple[str, str]]:
    """The edges g induces on ``members``, sorted, read off the sorted neighbour lists."""
    span = set(members)
    return [(a, b) for a in sorted(span) for b in g.neighbors(a) if b > a and b in span]


def emit_presentation(gog: GraphOfGroups) -> Presentation:
    """Fundamental group presentation of a graph of groups.

    The maximal tree of the base graph is picked greedily: an edge is a tree
    edge exactly when it joins two pieces that earlier edges left apart, so
    loops never are.  Any maximal tree presents the same group; on the
    tree-plus-loops bases that ``build_j0`` and ``collapse_to_j`` build, every
    non-loop edge is a tree edge.  Generator copies identified along tree
    edges merge into one symbol named by the underlying source-graph vertex,
    so a decomposition of A(g) presents itself on g's own vertex names and
    tree edges leave no relator.  Every other edge contributes its stable
    letter and a conjugation relator.
    """
    pieces = _UnionFind()
    uf = _UnionFind()
    non_tree = []
    for e in gog.edges:
        a, b = e.ends
        if pieces.union(a, b):
            uf.union((a, e.inclusions[0]), (b, e.inclusions[1]))
        else:
            non_tree.append(e)
    if len({pieces.find(v.id) for v in gog.vertices}) != 1:
        raise GraphError("graph of groups has a disconnected base graph")
    copies = {(v.id, x) for v in gog.vertices for x in v.group.generators()}
    for e in gog.edges:
        for vid, x in zip(e.ends, e.inclusions):
            if (vid, x) not in copies:
                raise GraphError(f"edge {e.id} includes {x!r}, not a generator at {vid!r}")

    class_name: dict = {}
    for v in gog.vertices:
        for x in v.group.generators():
            root = uf.find((v.id, x))
            prior = class_name.get(root)
            if prior is not None and prior != x:
                raise GraphError(f"merged generators disagree on a name: {prior!r} vs {x!r}")
            class_name[root] = x

    generators: list[str] = []
    index: dict = {}
    by_name: dict[str, int] = {}

    def symbol(vid: str, x: str) -> int:
        root = uf.find((vid, x))
        if root not in index:
            name = class_name[root]
            if name in by_name:
                raise GraphError(f"generator name {name!r} is carried by two distinct symbols")
            index[root] = len(generators)
            by_name[name] = index[root]
            generators.append(name)
        return index[root]

    for v in gog.vertices:
        for x in v.group.generators():
            symbol(v.id, x)

    relators: list[Word] = []
    for v in gog.vertices:
        if isinstance(v.group, RaagGroup):
            for a, b in _span_edges(gog.source, v.group.vertices):
                relators.append(_commutator(symbol(v.id, a), symbol(v.id, b)))
    for e in non_tree:
        if e.stable_letter is None:
            raise GraphError(f"non-tree edge {e.id} has no stable letter")
        if e.stable_letter in by_name:
            raise GraphError(f"stable letter {e.stable_letter!r} collides with a generator")
        t = len(generators)
        by_name[e.stable_letter] = t
        generators.append(e.stable_letter)
        img0 = symbol(e.ends[0], e.inclusions[0])
        img1 = symbol(e.ends[1], e.inclusions[1])
        relators.append(((t, 1), (img0, 1), (t, -1), (img1, -1)))  # t is fresh: nothing cancels
    return Presentation(generators=tuple(generators), relators=tuple(relators))


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Nonzero elementary divisors d1 | d2 | ... of an integer matrix.

    Exact arbitrary-precision row and column reduction; the empty list means
    rank zero.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if any(len(row) != cols for row in matrix):
        raise GraphError("matrix is not rectangular")
    a = [[int(x) for x in row] for row in matrix]
    divisors: list[int] = []
    t = 0
    while t < rows and t < cols:
        # move a least-magnitude nonzero entry of the trailing block to (t, t)
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if dirty:
                continue
            # row and column are clear; force divisibility of the rest
            for i in range(t + 1, rows):
                bad = next((j for j in range(t + 1, cols) if a[i][j] % a[t][t]), None)
                if bad is not None:
                    a[t] = [x + y for x, y in zip(a[t], a[i])]
                    dirty = True
                    break
            if not dirty:
                break
        divisors.append(a[t][t])
        t += 1
    return divisors


def abelianization(p: Presentation) -> tuple[int, list[int]]:
    """Free rank and torsion of the abelianized presentation.

    Relators that abelianize to zero (commutators, loop conjugations) add
    nothing to the relation module, so only the nonzero rows are reduced.
    """
    n = len(p.generators)
    matrix = []
    for word in p.relators:
        exponents = dict.fromkeys((gen for gen, _ in word), 0)
        for gen, exp in word:
            exponents[gen] += exp
        if any(exponents.values()):
            row = [0] * n
            for gen, total in exponents.items():
                row[gen] = total
            matrix.append(row)
    divisors = smith_normal_form(matrix) if matrix else []
    return n - len(divisors), [d for d in divisors if d > 1]


def check_euler(g: SimplicialGraph, gog: GraphOfGroups) -> bool:
    """Euler characteristic of g equals the vertex-group sum of the decomposition.

    Cyclic vertex groups and the edge groups, all infinite cyclic, contribute
    zero.
    """
    total = sum(
        euler_characteristic(SimplicialGraph(v.group.vertices, _span_edges(g, v.group.vertices)))
        for v in gog.vertices
        if isinstance(v.group, RaagGroup)
    )
    return euler_characteristic(g) == total


def check_coverage(g: SimplicialGraph, gog: GraphOfGroups) -> bool:
    """Every source vertex is accounted for and edge groups sit on cut vertices."""
    covered: set[str] = set()
    for v in gog.vertices:
        if isinstance(v.group, RaagGroup):
            covered.update(v.group.vertices)
        else:
            covered.add(v.group.generator)
    for e in gog.edges:
        if e.stable_letter is not None:
            covered.add(e.stable_letter)
    if covered != set(g.vertices):
        return False
    cuts = set(cut_vertices(g))
    return all(e.group.generator in cuts for e in gog.edges)
