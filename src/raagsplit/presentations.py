"""Presentations of decomposed groups and exact abelianization checks.

A presentation stores relators as freely reduced words of (generator index,
exponent) letters with exponents +-1.  Abelianization goes through an exact
integer Smith normal form, so torsion is certified absent rather than sampled.
A graph of groups is presented over the maximal tree that one union-find
picks from its edges in order.  Once every tree edge includes one name at
both ends and each name's copies form one class along the tree, generators
are indexed by name, so tree edges leave no relator.  Span relators and the
Euler check read each span's edges off one pass over the source's edges.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Union

from .blocks import cut_vertices
from .decompositions import GraphOfGroups, RaagGroup
from .graphs import GraphError, SimplicialGraph, _euler_characteristic, euler_characteristic

Word = tuple[tuple[int, int], ...]


class Presentation(NamedTuple):
    generators: tuple[str, ...]
    relators: tuple[Word, ...]


def _commutator(i: int, j: int) -> Word:
    return ((i, 1), (j, 1), (i, -1), (j, -1))


def raag_presentation(g: SimplicialGraph) -> Presentation:
    """Generators are the vertices; one commutator relator per edge."""
    index = {v: i for i, v in enumerate(g.vertices)}
    relators = tuple(_commutator(index[u], index[v]) for u, v in g.edges)
    return Presentation(generators=g.vertices, relators=relators)


def _span_edges(g: SimplicialGraph, gog: GraphOfGroups) -> list[tuple[tuple[str, ...], list[tuple[str, str]]]]:
    """Each RAAG vertex group's span and the sorted edges g induces on it, from one pass over g's edges."""
    spans = [(v.group.vertices, []) for v in gog.vertices if isinstance(v.group, RaagGroup)]
    spans_of: dict[str, Union[int, set[int]]] = {}  # a bare index until a second span
    for i, (span, _) in enumerate(spans):
        for x in span:
            if x not in g:
                raise GraphError(f"vertex {min(y for y in span if y not in g)!r} not in graph")
            known = spans_of.setdefault(x, i)
            if type(known) is set:
                known.add(i)
            elif known != i:
                spans_of[x] = {known, i}
    for a, b in g.edges:
        i, j = spans_of.get(a, -1), spans_of.get(b, -2)  # never equal, and in no set
        if type(i) is set or type(j) is set:  # runs over the smaller set, so no span rescans a hub
            for k in ({i} if type(i) is int else i) & ({j} if type(j) is int else j):
                spans[k][1].append((a, b))
        elif i == j:
            spans[i][1].append((a, b))
    return spans


def emit_presentation(gog: GraphOfGroups) -> Presentation:
    """Fundamental group presentation of a graph of groups.

    The maximal tree of the base graph is picked greedily: an edge is a tree
    edge exactly when it joins two pieces that earlier edges left apart, so
    loops never are.  Any maximal tree presents the same group; on the
    tree-plus-loops bases that ``build_j0`` and ``collapse_to_j`` build, every
    non-loop edge is a tree edge.  Each tree edge must include one name at
    both ends, and each name's copies must form one class along the tree.  A
    vertex holds at most one copy of a name and the tree edges form a forest,
    so the classes of a name number its copies less the tree edges carrying
    it.  The symbol of a copy is then its name, so a decomposition of A(g)
    presents itself on g's own vertex names and tree edges leave no relator.
    Every other edge contributes its stable letter and a conjugation relator.
    """
    root = {v.id: v.id for v in gog.vertices}  # a union-find with path halving
    tree, non_tree = [], []
    for e in gog.edges:
        a, b = e.ends
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a == b:
            non_tree.append(e)
        else:
            root[a] = b
            tree.append(e)
    if sum(v == r for v, r in root.items()) != 1:
        raise GraphError("graph of groups has a disconnected base graph")
    copies = dict.fromkeys((v.id, x) for v in gog.vertices for x in v.group.generators())
    for e in gog.edges:
        for vid, x in zip(e.ends, e.inclusions):
            if (vid, x) not in copies:
                raise GraphError(f"edge {e.id} includes {x!r}, not a generator at {vid!r}")

    classes = Counter(x for _, x in copies)  # each name's copies, in first-copy order
    for e in tree:
        x, y = e.inclusions
        if x != y:
            raise GraphError(f"merged generators disagree on a name: {x!r} vs {y!r}")
        classes[x] -= 1
    for x, count in classes.items():
        if count != 1:
            raise GraphError(f"generator name {x!r} is carried by two distinct symbols")
    index = {x: i for i, x in enumerate(classes)}

    relators = [_commutator(index[a], index[b]) for _, edges in _span_edges(gog.source, gog) for a, b in edges]
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


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Nonzero elementary divisors d1 | d2 | ... of an integer matrix.

    Exact arbitrary-precision reduction; the empty list means rank zero.  Each
    round pivots on a least nonzero entry and reduces its row and column by
    it; a remainder, smaller than the pivot, leads the next round, and a pivot
    left alone in its row and column is a diagonal entry and leaves with them.
    Replacing each pair of diagonal entries by their gcd and lcm then makes a
    divisibility chain (Newman, *Integral Matrices*, 1972, ch. II).

    >>> smith_normal_form([[2, 4], [6, 8]])
    [2, 4]
    """
    cols = len(matrix[0]) if matrix else 0
    if any(len(row) != cols or not all(isinstance(x, int) for x in row) for row in matrix):
        raise GraphError("matrix is not rectangular or has an entry that is not an int")
    a = [list(row) for row in matrix]
    diagonal: list[int] = []
    while True:
        nonzero = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        pivot_row = a[i]
        p = pivot_row[j]
        for k, row in enumerate(a):
            if k != i and row[j]:
                q = row[j] // p
                a[k] = [x - q * y for x, y in zip(row, pivot_row)]
        quotients = [x // p for x in pivot_row]
        quotients[j] = 0
        a = [[x - q * row[j] for x, q in zip(row, quotients)] for row in a]
        if sum(map(bool, a[i])) == 1 == sum(1 for row in a if row[j]):  # the pivot is alone
            diagonal.append(abs(p))
            del a[i]
            for row in a:
                del row[j]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            d, e = diagonal[i], diagonal[j]
            diagonal[i], diagonal[j] = math.gcd(d, e), math.lcm(d, e)
    return diagonal


def abelianization(p: Presentation) -> tuple[int, list[int]]:
    """Free rank and torsion of the abelianized presentation.

    Relators that abelianize to zero (commutators, loop conjugations) add
    nothing to the relation module, so only the nonzero rows are reduced.
    """
    n = len(p.generators)
    matrix = []
    for word in p.relators:
        exponents = dict.fromkeys((gen for gen, _ in word), 0)
        if not all(0 <= gen < n for gen in exponents):
            raise GraphError(f"relator {word!r} has a letter index outside range({n})")
        for gen, exp in word:
            exponents[gen] += exp
        if any(exponents.values()):
            row = [0] * n
            for gen, total in exponents.items():
                row[gen] = total
            matrix.append(row)
    divisors = smith_normal_form(matrix)
    return n - len(divisors), [d for d in divisors if d > 1]


def check_euler(g: SimplicialGraph, gog: GraphOfGroups) -> bool:
    """Euler characteristic of g equals the vertex-group sum of the decomposition.

    Cyclic vertex groups and the edge groups, all infinite cyclic, contribute
    zero.  χ(g) is counted on g's own edges, not on the spans'.
    """
    return euler_characteristic(g) == sum(_euler_characteristic(len(set(s)), e) for s, e in _span_edges(g, gog))


def check_coverage(g: SimplicialGraph, gog: GraphOfGroups) -> bool:
    """Every source vertex is accounted for and edge groups sit on cut vertices."""
    covered: set[str] = set()
    for v in gog.vertices:
        covered.update(v.group.generators())
    for e in gog.edges:
        if e.stable_letter is not None:
            covered.add(e.stable_letter)
    if covered != set(g.vertices):
        return False
    cuts = set(cut_vertices(g))
    return all(e.group.generator in cuts for e in gog.edges)
