import random
import sys
import tracemalloc
from collections.abc import Mapping
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from raagsplit import (
    GraphError,
    NonSplitCover,
    SimplicialGraph,
    SmallCaseWitness,
    ZSplitWitness,
    amalgam_defects,
    connected_components,
    cover_defects,
    cut_vertices,
    is_biconnected,
    nonsplit_cover,
    parse_graph,
    splits_over_z,
    two_edge_segments,
    verify_cover,
    z_split_witness,
)
from raagsplit.cli import labeled_graphs, oracle_biconnected
from raagsplit.splitting import _least_paths, _short_path

from conftest import (
    exhaustive_bfs_parents,
    frozen_nonsplit_cover,
    frozen_z_split_witness,
    graphs,
    induced_subgraph,
    oracle_hamiltonian_accepts,
    parent_chain,
    scale_graph,
)


def shuffled(edges, seed):
    """The graph of integer ``edges`` under seeded shuffled two-digit names."""
    perm = list(range(max(map(max, edges)) + 1))
    random.Random(seed).shuffle(perm)
    return SimplicialGraph.from_edges([(f"v{perm[a]:02d}", f"v{perm[b]:02d}") for a, b in edges])


def hub_graph(family):
    """K_{2,40} ("k2") or the wheel W_60 ("wheel") under seeded shuffled names."""
    if family == "k2":
        edges = [(h, i) for h in (0, 1) for i in range(2, 42)]
    else:
        edges = [(i, i % 60 + 1) for i in range(1, 61)] + [(0, i) for i in range(1, 61)]
    return shuffled(edges, family)


def subdivided(edges, lengths):
    """Each edge (a, b) of ``edges`` replaced by a chain with that many fresh inner vertices."""
    out = []
    fresh = max(map(max, edges)) + 1
    for (a, b), k in zip(edges, lengths):
        chain = [a, *range(fresh, fresh + k), b]
        fresh += k
        out.extend(zip(chain, chain[1:]))
    return out


THETA = subdivided([(0, 1)] * 6, range(1, 7))  # two hubs joined by chains of 1-6 inner vertices

# graphs made of chains of degree-2 vertices, for the chain rule of the cover
CHAIN_FAMILIES = {
    **{f"C{n}": [(i, (i + 1) % n) for i in range(n)] for n in range(3, 9)},
    "C40+chord": [(i, (i + 1) % 40) for i in range(40)] + [(0, 17)],
    # parallel chains between the same two hubs, each with its own middle paths
    "theta": THETA,
    "theta+edge": THETA + [(0, 1)],
    "subdivided-K4": subdivided(list(combinations(range(4), 2)), [0, 1, 2, 3, 5, 8]),
}


def oracle_cover(g):
    """The cover's entries from one exhaustive lexicographic search per segment, sorted."""
    expected = {}
    for v in g.vertices:
        for u, w in combinations(sorted(g.neighbors(v)), 2):
            path = parent_chain(exhaustive_bfs_parents(g, u, v), w)
            expected[(u, v, w)] = (tuple(sorted({v, *path})), (v, *path))
    return sorted(expected.items())


def sparse_biconnected(family, n, rng):
    """The edges of a biconnected graph on n vertices 0..n-1 with few edges, or None.

    "subdivided" subdivides each edge of a random biconnected graph on 4-6
    vertices, spreading n minus its vertex count inner vertices at random;
    "ears" grows a cycle of 3-6 vertices by open ears of 0-3 fresh vertices
    between two distinct old ones until it has n.
    """
    if family == "subdivided":
        k = rng.randint(4, 6)
        base = [e for e in combinations(range(k), 2) if rng.random() < 0.6]
        named = shuffled(base, 0) if base else None
        if named is None or len(named.vertices) < k or not is_biconnected(named):
            return None
        lengths = [0] * len(base)
        for _ in range(n - k):
            lengths[rng.randrange(len(base))] += 1
        return subdivided(base, lengths)
    size = rng.randint(3, 6)
    edges = [(i, (i + 1) % size) for i in range(size)]
    while size < n:
        a, b = rng.sample(range(size), 2)
        inner = list(range(size, size + min(rng.randint(0, 3), n - size)))
        if not inner and ((a, b) in edges or (b, a) in edges):
            continue
        chain = [a, *inner, b]
        edges.extend(zip(chain, chain[1:]))
        size += len(inner)
    return edges


def amalgam_invariants_hold(g, w: ZSplitWitness) -> bool:
    s1, s2 = set(w.side1), set(w.side2)
    allv = set(g.vertices)
    return (
        s1 | s2 == allv
        and s1 & s2 == {w.vertex}
        and s1 != allv
        and s2 != allv
        and len(s1) >= 1
        and len(s2) >= 1
    )


class TestSplitsFreely:
    """The free-splitting verdict: A(g) is a free product iff g is disconnected."""

    def test_edge_plus_vertex(self):
        assert splits_over_z(parse_graph("a b\nc")).free_split

    def test_two_triangles_connected(self, two_triangles):
        assert not splits_over_z(two_triangles).free_split

    def test_two_disjoint_edges(self):
        assert splits_over_z(parse_graph("a b\nc d")).free_split

    def test_long_path_plus_vertex(self):
        names = [f"p{i:04d}" for i in range(3000)]
        assert splits_over_z(SimplicialGraph([*names, "z"], zip(names, names[1:]))).free_split


class TestZSplitWitness:
    def test_path3(self, path3):
        w = z_split_witness(path3)
        assert (w.side1, w.side2, w.vertex) == (("a", "b"), ("b", "c"), "b")

    def test_two_triangles(self, two_triangles):
        w = z_split_witness(two_triangles)
        assert (w.side1, w.side2, w.vertex) == (
            ("a", "b", "c"),
            ("c", "d", "e", "f"),
            "c",
        )
        assert amalgam_invariants_hold(two_triangles, w)

    def test_disconnected_single_vertex_complement_swaps_sides(self):
        g = parse_graph("a b\nb c\na c\nx")
        w = z_split_witness(g)
        assert (w.side1, w.side2, w.vertex) == (("a", "x"), ("a", "b", "c"), "a")
        assert amalgam_invariants_hold(g, w)

    def test_disconnected_two_large_components(self):
        g = parse_graph("a b\nb c\na c\nx y\ny z\nx z")
        w = z_split_witness(g)
        assert amalgam_invariants_hold(g, w)
        assert w.vertex == "x"

    def test_biconnected_rejected(self, triangle):
        with pytest.raises(GraphError):
            z_split_witness(triangle)

    def test_small_rejected(self):
        with pytest.raises(GraphError):
            z_split_witness(parse_graph("a b"))

    @given(graphs(min_vertices=3, max_vertices=7))
    @settings(max_examples=80)
    def test_invariants_whenever_defined(self, g):
        from raagsplit import is_biconnected

        if is_biconnected(g):
            return
        assert amalgam_invariants_hold(g, z_split_witness(g))

    @staticmethod
    def same_as_frozen(g):
        """The witness or error message of the one-search rule equals the frozen three-branch one's."""
        outcomes = []
        for build in (z_split_witness, lambda g: frozen_z_split_witness(g, cut_vertices(g))):
            try:
                outcomes.append(build(g))
            except GraphError as exc:
                outcomes.append(str(exc))
        return outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_the_frozen_rule_on_every_labeled_graph(self, n):
        # disconnected graphs too: they reach both branches without cut vertices
        for g in labeled_graphs(n):
            assert self.same_as_frozen(g), g

    def test_matches_the_frozen_rule_on_random_sparse_graphs(self):
        rng = random.Random(21)
        lone = several = 0
        for _ in range(2000):
            n = rng.randint(3, 40)
            names = [f"v{i:02d}" for i in rng.sample(range(100), n)]
            g = SimplicialGraph(names, [rng.sample(names, 2) for _ in range(rng.randint(0, n + 5))])
            assert self.same_as_frozen(g), g
            if not cut_vertices(g) and len(connected_components(g)) > 1:
                outside = len(g.vertices) - len(connected_components(g)[0])
                lone += outside == 1
                several += outside > 1
        assert lone and several


class TestNonSplitCover:
    def test_triangle_entry(self, triangle):
        cover = nonsplit_cover(triangle)
        assert cover.entries[("a", "b", "c")] == (("a", "b", "c"), ("b", "a", "c"))
        assert len(cover.entries) == 3

    def test_square_detour(self, square):
        cover = nonsplit_cover(square)
        delta, cycle = cover.entries[("a", "b", "c")]
        assert delta == ("a", "b", "c", "d")
        assert cycle == ("b", "a", "d", "c")
        assert oracle_hamiltonian_accepts(induced_subgraph(square, delta), cycle)

    def test_k4_uses_chord(self):
        k4 = parse_graph("a b\na c\na d\nb c\nb d\nc d")
        cover = nonsplit_cover(k4)
        assert cover.entries[("a", "b", "c")] == (("a", "b", "c"), ("b", "a", "c"))

    def test_not_biconnected_rejected(self, path3):
        with pytest.raises(GraphError):
            nonsplit_cover(path3)

    def test_entries_match_direct_path_calls(self, square):
        cover = nonsplit_cover(square)
        for (u, v, w), (delta, cycle) in cover.entries.items():
            rho = next(_least_paths(square, u, v, (w,)))
            assert cycle == (v, *rho)
            assert delta == tuple(sorted({v, *rho}))

    @pytest.mark.parametrize("family", ["ear", "grid", "cycle", "k2", "wheel", "ear-500"])
    def test_matches_one_full_search_per_pair(self, family):
        # 300-vertex sparse graphs, where paths are long; hubs with many targets per search,
        # K_{2,40} and the wheel W_60; and two ear graphs at the biconnected benchmark's size,
        # whose covers each make about 300 searches and grow about 4,000 backward levels
        if family == "ear-500":
            graphs = [scale_graph("ear", 500, seed) for seed in (1, 2)]
        elif family in ("ear", "grid", "cycle"):
            graphs = [scale_graph(family, 300, 1)]
        else:
            graphs = [hub_graph(family)]
        for g in graphs:
            assert list(nonsplit_cover(g).entries.items()) == oracle_cover(g)

    # the chain rule: a degree-2 vertex's path runs down its chain, along one middle
    # path between the chain's ends, and back up; checked under several seeded namings
    @pytest.mark.parametrize("family", CHAIN_FAMILIES)
    def test_chain_rule_matches_one_full_search_per_pair(self, family):
        for seed in range(8):
            g = shuffled(CHAIN_FAMILIES[family], seed)
            assert list(nonsplit_cover(g).entries.items()) == oracle_cover(g)

    def test_chain_rule_on_every_small_biconnected_graph(self):
        count = 0
        for n in range(3, 7):
            for g in labeled_graphs(n):
                if is_biconnected(g):
                    count += 1
                    assert list(nonsplit_cover(g).entries.items()) == oracle_cover(g)
        assert count == 11617

    def test_matches_one_full_search_per_pair_on_dense_graphs(self):
        # seeded graphs on 7 and 8 vertices, each edge kept with probability 0.5-0.9:
        # almost every path has one or two edges and is read off the neighbour sets
        rng = random.Random(18)
        count = 0
        while count < 500:
            names = [f"v{i}" for i in range(rng.choice((7, 8)))]
            p = rng.uniform(0.5, 0.9)
            g = SimplicialGraph(names, [e for e in combinations(names, 2) if rng.random() < p])
            if is_biconnected(g):
                count += 1
                assert list(nonsplit_cover(g).entries.items()) == oracle_cover(g)

    @pytest.mark.parametrize("family", ["subdivided", "ears"])
    def test_matches_one_full_search_per_pair_on_sparse_graphs(self, family):
        # seeded biconnected graphs on 8-12 vertices with few edges, where many paths have
        # three or four edges: a biconnected base graph on 4-6 vertices with each edge
        # subdivided, or a cycle grown by random ears
        rng = random.Random(family)
        detours = count = 0
        while count < 500:
            edges = sparse_biconnected(family, rng.randint(8, 12), rng)
            if edges is None:
                continue
            count += 1
            g = shuffled(edges, rng.random())
            entries = nonsplit_cover(g).entries
            assert list(entries.items()) == oracle_cover(g)
            detours += sum(len(cycle) in (5, 6) for _, cycle in entries.values())
        assert detours > 2000

    def test_a_cycle_needs_no_search(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        nonsplit_cover(scale_graph("cycle", 300, 1))
        assert calls == []

    @pytest.mark.parametrize("edge", [False, True])
    def test_only_a_far_chain_middle_is_searched(self, monkeypatch, edge):
        calls = self._count_searches(monkeypatch)
        g = shuffled(THETA + [(0, 1)] * edge, 3)
        nonsplit_cover(g)
        hubs = {v for v in g.vertices if len(g.neighbors(v)) != 2}
        chains = connected_components(induced_subgraph(g, set(g.vertices) - hubs))
        assert sorted(map(len, chains)) == [1, 2, 3, 4, 5, 6]
        # every middle path is the edge between the hubs, or runs through the lone inner
        # vertex (two steps) or, for the lone vertex's own, through the two-vertex chain
        # (three steps): all are read off the neighbour sets
        assert [call for call in calls if call[1] not in hubs] == []

    # every path is a chord of K_n, or in K_{2,40} a hub-to-hub or side-to-side detour
    @pytest.mark.parametrize("family", [*(f"K{n}" for n in range(4, 9)), "k2"])
    def test_paths_of_one_or_two_edges_need_no_search(self, monkeypatch, family):
        if family == "k2":
            g = hub_graph(family)
        else:
            g = shuffled(list(combinations(range(int(family[1:])), 2)), family)
        calls = self._count_searches(monkeypatch)
        nonsplit_cover(g)
        assert calls == []

    def test_a_grid_searches_only_between_opposite_ends(self, monkeypatch):
        # two neighbours of v on one line through it are four steps apart in g - v, and
        # two on a corner share the diagonal vertex, two steps: no path needs a search
        rows, cols = 20, 25
        at = {(r, c): r * cols + c for r in range(rows) for c in range(cols)}
        edges = [(at[r, c], at[r + dr, c + dc]) for r, c in at for dr, dc in ((0, 1), (1, 0))
                 if (r + dr, c + dc) in at]
        perm = list(range(rows * cols))
        random.Random(1).shuffle(perm)
        name = [f"v{p:03d}" for p in perm]
        g = SimplicialGraph.from_edges([(name[a], name[b]) for a, b in edges])
        calls = self._count_searches(monkeypatch)
        nonsplit_cover(g)
        assert calls == []

    def test_a_wheel_searches_once_per_rim_vertex_and_hub(self, monkeypatch):
        # on the rim of W_60, two vertices five or more steps apart need a search; a
        # group's first such target and every later one share the search from u
        g = hub_graph("wheel")
        (hub,) = (v for v in g.vertices if len(g.neighbors(v)) == 60)
        calls = self._count_searches(monkeypatch)
        nonsplit_cover(g)
        groups = [(start, avoid) for start, avoid, _ in calls]
        assert {avoid for _, avoid in groups} == {hub}
        assert len(groups) == len(set(groups)) > 50
        # one search's targets: the first that is five or more steps from u in g - v, and
        # every later one three or more steps away; the nearer ones are read off the sets
        for start, avoid, targets in calls:
            parents = exhaustive_bfs_parents(g, start, avoid)
            steps = {w: len(parent_chain(parents, w)) - 1 for w in g.neighbors(avoid) if w > start}
            first = min(w for w, k in steps.items() if k >= 5)
            assert list(targets) == sorted(w for w, k in steps.items() if w >= first and k >= 3)

    @staticmethod
    def _count_searches(monkeypatch):
        import raagsplit.splitting

        search = raagsplit.splitting._least_paths
        calls = []

        def counted(g, start, avoid, targets):
            calls.append((start, avoid, targets))
            return search(g, start, avoid, targets)

        monkeypatch.setattr(raagsplit.splitting, "_least_paths", counted)
        return calls

    def test_whole_graph_spans_share_one_tuple(self):
        # every span of a cycle is the whole vertex set
        g = scale_graph("cycle", 300, 1)
        entries = nonsplit_cover(g).entries
        assert all(delta == tuple(sorted(cycle)) for delta, cycle in entries.values())
        assert len({id(delta) for delta, _ in entries.values()}) == 1
        assert splits_over_z(g).witness.entries == entries

    @given(graphs(min_vertices=3, max_vertices=7, connected=True))
    @settings(max_examples=60)
    def test_cover_completeness_and_validity(self, g):
        from raagsplit import is_biconnected

        if not is_biconnected(g):
            return
        cover = nonsplit_cover(g)
        # one entry per normalized two-edge segment, counted from adjacency
        expected = sum(
            len(g.neighbors(v)) * (len(g.neighbors(v)) - 1) // 2 for v in g.vertices
        )
        assert len(cover.entries) == expected
        assert verify_cover(g, cover)


class TestShortPath:
    """The paths of at most four edges that the cover reads off the neighbour sets."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_one_full_search_on_every_connected_graph(self, n):
        # every u, v and w of every connected labeled graph on n vertices: the least
        # shortest u-w path in g - v, or None exactly when it has five or more edges
        count = 0
        for g in labeled_graphs(n):
            if len(connected_components(g)) > 1:
                continue
            count += 1
            adj = g._adj
            nbrs = {x: set(nx) for x, nx in adj.items()}
            for u in g.vertices:
                for v in g.vertices:
                    if v == u:
                        continue
                    parents = exhaustive_bfs_parents(g, u, v)
                    for w in g.vertices:
                        if w != u and w != v:
                            path = parent_chain(parents, w) if w in parents else ()
                            expected = tuple(path) if len(path) in range(2, 6) else None
                            assert _short_path(adj, nbrs, u, v, w) == expected
        assert count == {3: 4, 4: 38, 5: 728, 6: 26704}[n]


class TestFrozenCover:
    """The cover built in segment order has the entries of its frozen copy in conftest,
    which built them per middle vertex and sorted them at the end, in the same order."""

    @staticmethod
    def assert_same(g):
        assert list(nonsplit_cover(g).entries.items()) == list(frozen_nonsplit_cover(g).entries.items())

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_biconnected_graph(self, n):
        count = 0
        for g in labeled_graphs(n):
            if is_biconnected(g):
                self.assert_same(g)
                count += 1
        assert count == {3: 1, 4: 10, 5: 238, 6: 11368}[n]

    def test_seeded_seven_vertex_graphs(self):
        # uniform labeled graphs on seven vertices, as the small sweep draws them
        rng = random.Random(1)
        names = "abcdefg"
        pairs = list(combinations(names, 2))
        count = 0
        while count < 3000:
            mask = rng.getrandbits(len(pairs))
            g = SimplicialGraph(names, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
            if is_biconnected(g):
                self.assert_same(g)
                count += 1

    @pytest.mark.parametrize("family", ["cycle", "grid", "ear", "K30", "wheel", "k2"])
    def test_scale_families(self, family):
        if family in ("cycle", "grid", "ear"):
            g = scale_graph(family, 300, 1)
        elif family == "K30":
            g = shuffled(list(combinations(range(30), 2)), family)
        else:
            g = hub_graph(family)
        self.assert_same(g)

    @given(graphs(min_vertices=3, max_vertices=9, connected=True))
    @settings(max_examples=300)
    def test_keys_come_out_sorted(self, g):
        assume(is_biconnected(g))
        c = nonsplit_cover(g)
        assert list(c.entries) == sorted(c.entries)


class TestVerifyCover:
    def test_round_trip(self, triangle):
        assert verify_cover(triangle, nonsplit_cover(triangle))

    def test_missing_segment_detected(self, square):
        cover = nonsplit_cover(square)
        entries = dict(cover.entries)
        del entries[("b", "c", "d")]
        broken = NonSplitCover(entries=entries)
        assert not verify_cover(square, broken)
        assert any("missing segment" in d for d in cover_defects(square, broken))

    def test_bad_cycle_detected(self, square):
        cover = nonsplit_cover(square)
        entries = dict(cover.entries)
        entries[("a", "b", "c")] = (("a", "b", "c"), ("b", "a", "c"))
        broken = NonSplitCover(entries=entries)
        assert not verify_cover(square, broken)

    def test_foreign_entry_detected(self, triangle):
        cover = nonsplit_cover(triangle)
        entries = dict(cover.entries)
        entries[("a", "b", "zz")] = (("a", "b", "c"), ("b", "a", "c"))
        assert not verify_cover(triangle, NonSplitCover(entries=entries))

    def test_never_raises_on_garbage(self, triangle):
        junk = NonSplitCover(entries={("x", "y", "z"): (("x",), ("x", "y"))})
        assert verify_cover(triangle, junk) is False

    MALFORMED = [
        lambda delta, cycle: ((["a"], *delta[1:]), cycle),
        lambda delta, cycle: (delta, (["b"], *cycle[1:])),
        lambda delta, cycle: (delta, (cycle[0], ["a"], *cycle[2:])),
        lambda delta, cycle: (5, cycle),
        lambda delta, cycle: (delta, 5),
        lambda delta, cycle: None,
        lambda delta, cycle: (delta, cycle, delta),
        lambda delta, cycle: (delta,),
    ]

    # the last entry meets a span whose cycle was already checked, the first does not
    @pytest.mark.parametrize("spot", [0, -1])
    @pytest.mark.parametrize("malform", MALFORMED)
    def test_malformed_entry_is_a_defect(self, square, spot, malform):
        entries = dict(nonsplit_cover(square).entries)
        seg = sorted(entries)[spot]
        entries[seg] = malform(*entries[seg])
        expected = [f"entry {seg}: not a span and a cycle of vertex names"]
        assert cover_defects(square, NonSplitCover(entries=entries)) == expected

    @pytest.mark.parametrize("key", [5, ("a", "d", 5)])  # ("a", "d", "c") is a key
    def test_unsortable_keys_are_a_defect(self, square, key):
        entries = dict(nonsplit_cover(square).entries)
        entries[key] = entries.pop(("a", "b", "c"))
        assert cover_defects(square, NonSplitCover(entries=entries)) == [
            "missing segment ('a', 'b', 'c')",
            "entries are not all keyed by segments of vertex names",
        ]

    def test_unhashable_keys_are_a_defect(self, square):
        pairs = [(list(seg), entry) for seg, entry in nonsplit_cover(square).entries.items()]

        class ListKeyed(Mapping):
            def __getitem__(self, key):
                for seg, entry in pairs:
                    if seg == key:
                        return entry
                raise KeyError(key)

            def __iter__(self):
                return (seg for seg, _ in pairs)

            def __len__(self):
                return len(pairs)

        assert cover_defects(square, NonSplitCover(entries=ListKeyed())) == [
            *(f"missing segment {seg}" for seg in two_edge_segments(square)),
            "entries are not all keyed by segments of vertex names",
        ]

    def test_items_that_hide_a_segment_do_not_hide_its_entry(self, square):
        held = dict(nonsplit_cover(square).entries)
        seg = ("a", "d", "c")
        delta, (v, a, b, *rest) = held[seg]
        held[seg] = (delta, (v, b, a, *rest))  # v-b is no edge of the square

        class HidesOne(EntriesView):  # keys() and __getitem__ hold the segment, items() not
            def items(self):
                return [(key, entry) for key, entry in held.items() if key != seg]

        assert cover_defects(square, NonSplitCover(entries=HidesOne(held))) == [
            "entry ('a', 'd', 'c'): cycle is not Hamiltonian in the span"
        ]

    @pytest.mark.parametrize("entries", [None, 5, "abc", []], ids=["none", "int", "str", "list"])
    def test_entries_not_a_mapping_are_a_defect(self, square, entries):
        assert cover_defects(square, NonSplitCover(entries=entries)) == [
            "cover entries are not a mapping of segments"
        ]
        assert not verify_cover(square, NonSplitCover(entries=entries))


def induced_cover_defects(g: SimplicialGraph, cover):
    """``cover_defects`` as first written, kept as its reference: one induced subgraph per entry.

    Each cycle is judged by conftest's brute-force oracle, which shares no code
    with the library's cycle check.
    """
    if len(g.vertices) < 3 or len(connected_components(g)) != 1:
        return ["graph is not connected with at least three vertices"]
    defects = []
    segments = set(two_edge_segments(g))
    for seg in sorted(segments):
        if seg not in cover.entries:
            defects.append(f"missing segment {seg}")
    for seg, (delta, cycle) in sorted(cover.entries.items()):
        u, v, w = seg
        label = f"entry {seg}"
        if seg not in segments:
            defects.append(f"{label}: not a two-edge segment of the graph")
            continue
        if any(x not in g for x in delta):
            defects.append(f"{label}: span leaves the graph")
            continue
        if len(delta) < 3:
            defects.append(f"{label}: span has fewer than three vertices")
            continue
        if not {u, v, w} <= set(delta):
            defects.append(f"{label}: span does not contain the segment")
            continue
        if not oracle_hamiltonian_accepts(induced_subgraph(g, delta), cycle):
            defects.append(f"{label}: cycle is not Hamiltonian in the span")
    return defects


def detour_entries(g):
    """Each segment's shortest detour around its middle vertex, where one exists."""
    entries = {}
    for u, v, w in two_edge_segments(g):
        path = next(_least_paths(g, u, v, (w,)))
        if path is not None:
            entries[(u, v, w)] = (tuple(sorted({v, *path})), (v, *path))
    return entries


MUTATIONS = (
    "duplicate span vertex",
    "repeat cycle vertex",
    "add outside vertex",
    "shuffle cycle",
    "drop cycle vertex",
    "rotate",
    "reverse",
    "drop entry",
    "foreign entry",
)


def mutate(g, entries, data):
    """Apply one drawn corruption (or harmless rewrite) to one drawn entry."""
    key = data.draw(st.sampled_from(sorted(entries)))
    delta, cycle = entries[key]
    kind = data.draw(st.sampled_from(MUTATIONS))
    spot = st.integers(min_value=0, max_value=len(cycle) - 1)
    if kind == "duplicate span vertex":
        delta = delta + (data.draw(st.sampled_from(delta)),)
    elif kind == "repeat cycle vertex":
        i, j = data.draw(spot), data.draw(spot)
        cycle = cycle[:i] + (cycle[j],) + cycle[i + 1 :]
    elif kind == "add outside vertex":
        x = data.draw(st.sampled_from(sorted(set(g.vertices) - set(delta)) + ["zz"]))
        i = data.draw(spot)
        cycle = cycle[:i] + (x,) + cycle[i:]
        if data.draw(st.booleans()):
            delta = tuple(sorted({*delta, x}))
    elif kind == "shuffle cycle":
        cycle = tuple(data.draw(st.permutations(cycle)))
    elif kind == "drop cycle vertex":
        i = data.draw(spot)
        cycle = cycle[:i] + cycle[i + 1 :]
    elif kind == "rotate":
        i = data.draw(spot)
        cycle = cycle[i:] + cycle[:i]
    elif kind == "reverse":
        cycle = cycle[::-1]
    elif kind == "drop entry":
        del entries[key]
        return
    else:
        key = (key[0], key[1], "zz")
    entries[key] = (delta, cycle)


class EntriesView(Mapping):
    """A mapping that is not a dict: the entries of a dict, read through ``__getitem__`` and ``__iter__``."""

    def __init__(self, entries):
        self._entries = entries

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


def assert_order_free(g, entries, data):
    """``cover_defects`` of ``entries`` matches the reference, and so it does re-inserted in a
    drawn order and behind a mapping that is not a dict."""
    expected = cover_defects(g, NonSplitCover(entries=entries))
    assert expected == induced_cover_defects(g, NonSplitCover(entries=entries))
    order = data.draw(st.permutations(list(entries)))
    assert cover_defects(g, NonSplitCover(entries={key: entries[key] for key in order})) == expected
    assert cover_defects(g, NonSplitCover(entries=EntriesView(entries))) == expected


class TestCoverDefectsDifferential:
    """``cover_defects`` against its first formulation, which built an induced subgraph per entry.

    Each mutated cover is checked as built, in a drawn key order, and behind a mapping that is
    not a dict: each segment is looked up whatever the order or type, so the defects are the same.
    """

    @given(graphs(min_vertices=3, max_vertices=7, connected=True), st.data())
    @settings(max_examples=300)
    def test_matches_induced_subgraph_formulation(self, g, data):
        entries = detour_entries(g)
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            if entries:
                mutate(g, entries, data)
        assert_order_free(g, entries, data)

    # covers whose entries share spans and repeat one cycle from other starts, so most
    # entries meet the comparison with an already checked cycle instead of a full check
    @pytest.mark.parametrize("family", [*CHAIN_FAMILIES, "cycle60"])
    @given(data=st.data())
    @settings(max_examples=30)
    def test_matches_where_cycles_repeat(self, family, data):
        g = scale_graph("cycle", 60, 1) if family == "cycle60" else shuffled(CHAIN_FAMILIES[family], 0)
        entries = dict(nonsplit_cover(g).entries)
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            mutate(g, entries, data)
        assert_order_free(g, entries, data)

    @given(graphs(min_vertices=3, max_vertices=7, connected=True), st.data())
    @settings(max_examples=60)
    def test_rotated_and_reversed_cycles_still_certify(self, g, data):
        if not is_biconnected(g):
            return
        entries = {}
        for seg, (delta, cycle) in nonsplit_cover(g).entries.items():
            i = data.draw(st.integers(min_value=0, max_value=len(cycle) - 1))
            cycle = cycle[i:] + cycle[:i]
            entries[seg] = (delta, cycle[::-1] if data.draw(st.booleans()) else cycle)
        assert cover_defects(g, NonSplitCover(entries=entries)) == []

    NOT_HAMILTONIAN = ["entry ('a', 'b', 'c'): cycle is not Hamiltonian in the span"]

    @pytest.mark.parametrize(
        "delta, cycle, expected",
        [
            (("a", "b", "c", "d", "d"), ("b", "a", "d", "c"), []),  # spans are vertex sets
            (("a", "b", "c", "d"), ("b", "a", "d", "a"), NOT_HAMILTONIAN),
            (("a", "b", "c", "d"), ("b", "a", "d", "c", "zz"), NOT_HAMILTONIAN),
            (("a", "b", "c", "d", "zz"), ("b", "a", "d", "c"), ["entry ('a', 'b', 'c'): span leaves the graph"]),
            (("a", "b", "c", "d"), ("b", "d", "a", "c"), NOT_HAMILTONIAN),  # b-d is no edge
            (("a", "b", "c", "d"), ("b", "a", "d"), NOT_HAMILTONIAN),
            (("a", "b", "c", "d"), (), NOT_HAMILTONIAN),
            (("a", "b", "c"), ("a", "b", "c"), NOT_HAMILTONIAN),  # no closing edge c-a
            (("a", "b", "c", "d"), ("a", "d", "c", "b"), []),
            (("a", "b", "c", "d"), ("c", "d", "a", "b"), []),
            (("a", "b"), ("b", "a"), ["entry ('a', 'b', 'c'): span has fewer than three vertices"]),
            (("a", "a", "b"), ("b", "a", "a"), ["entry ('a', 'b', 'c'): span does not contain the segment"]),
            (["a", "b", "c", "d"], ["b", "a", "d", "c"], []),  # spans and cycles may be lists
            (["a", "b", "c", "d"], ["b", "d", "a", "c"], NOT_HAMILTONIAN),
        ],
    )
    def test_square_entry(self, square, delta, cycle, expected):
        entries = dict(nonsplit_cover(square).entries)
        entries[("a", "b", "c")] = (delta, cycle)
        cover = NonSplitCover(entries=entries)
        assert cover_defects(square, cover) == expected == induced_cover_defects(square, cover)

    def test_shared_span_carries_no_verdict_to_the_next_entry(self, square):
        entries = dict(nonsplit_cover(square).entries)
        first, second = sorted(entries)[:2]
        span = entries[first][0]
        assert entries[second][0] is span  # the square's spans are all one shared tuple
        v, a, b, *rest = entries[second][1]
        entries[second] = (span, (v, b, a, *rest))  # v-b is no edge of the square
        cover = NonSplitCover(entries=entries)
        expected = [f"entry {second}: cycle is not Hamiltonian in the span"]
        assert cover_defects(square, cover) == expected == induced_cover_defects(square, cover)

    # the second entry's span equals the first's but is another object: the first's ring is
    # read again, and a cycle that is not one of its rotations is still checked in full
    @pytest.mark.parametrize("copy", [tuple, list], ids=["tuple", "list"])
    @pytest.mark.parametrize("broken", [False, True], ids=["rotated", "broken"])
    def test_an_equal_span_in_another_object(self, square, copy, broken):
        entries = dict(nonsplit_cover(square).entries)
        first, second = sorted(entries)[:2]
        span = copy(list(entries[first][0]))
        assert span is not entries[first][0] and span == copy(entries[first][0])
        v, a, b, *rest = entries[first][1][::-1]
        entries[second] = (span, (v, b, a, *rest) if broken else (v, a, b, *rest))  # v-b is no edge
        cover = NonSplitCover(entries=entries)
        expected = [f"entry {second}: cycle is not Hamiltonian in the span"] if broken else []
        assert cover_defects(square, cover) == expected == induced_cover_defects(square, cover)

    # in the domino's segment order ('b', 'a', 'd') spans the left square, ('b', 'c', 'f') the
    # right one and ('b', 'e', 'd') the left again: two spans of one size. Each entry is given
    # the ring of the entry before, rotated, so a ring kept across a change of span accepts it
    @pytest.mark.parametrize(
        "before, seg",
        [(("b", "a", "d"), ("b", "c", "f")), (("b", "c", "f"), ("b", "e", "d"))],
        ids=["new span", "first span again"],
    )
    def test_a_ring_is_not_read_across_a_change_of_span(self, before, seg):
        g = parse_graph("a b\nb c\nd e\ne f\na d\nb e\nc f")
        entries = dict(nonsplit_cover(g).entries)
        segments = two_edge_segments(g)
        assert segments.index(seg) == segments.index(before) + 1
        assert set(entries[before][0]) != set(entries[seg][0]) and len(entries[before][0]) == len(entries[seg][0])
        cycle = entries[before][1]
        entries[seg] = (entries[seg][0], cycle[1:] + cycle[:1])
        cover = NonSplitCover(entries=entries)
        expected = [f"entry {seg}: cycle is not Hamiltonian in the span"]
        assert cover_defects(g, cover) == expected == induced_cover_defects(g, cover)

    # a span that does not hash leaves the state of the entry before as it was: the entry after,
    # of the first entry's span, is still checked, and one of the same malformed span is flagged too
    @pytest.mark.parametrize("third", ["broken cycle", "malformed span"])
    def test_a_malformed_span_between_two_of_one_span(self, square, third):
        entries = dict(nonsplit_cover(square).entries)
        first, second, last = sorted(entries)[:3]
        assert entries[first][0] is entries[last][0]
        malformed = (["a"], "b", "c", "d")
        if third == "broken cycle":
            delta, (v, a, b, *rest) = entries[last]
            entries[last] = (delta, (v, b, a, *rest))  # v-b is no edge of the square
            expected = induced_cover_defects(square, NonSplitCover(entries=entries))
            assert expected == [f"entry {last}: cycle is not Hamiltonian in the span"]
        else:
            entries[last] = (malformed, entries[last][1])
            expected = [f"entry {last}: not a span and a cycle of vertex names"]
        entries[second] = (malformed, entries[second][1])
        expected = [f"entry {second}: not a span and a cycle of vertex names", *expected]
        assert cover_defects(square, NonSplitCover(entries=entries)) == expected

    def test_cycle_cover_with_one_cycle_left_open(self):
        """Only the closing step of one cycle of a 300-cycle's cover misses an edge."""
        g = scale_graph("cycle", 300, 1)
        entries = dict(nonsplit_cover(g).entries)
        seg = sorted(entries)[150]
        delta, cycle = entries[seg]
        cycle = cycle[5:] + cycle[:5]  # ends on a vertex outside the segment
        entries[seg] = (tuple(sorted(cycle[:-1])), cycle[:-1])
        cover = NonSplitCover(entries=entries)
        expected = [f"entry {seg}: cycle is not Hamiltonian in the span"]
        assert cover_defects(g, cover) == expected == induced_cover_defects(g, cover)

    def test_a_cycle_cover_checks_one_cycle(self, monkeypatch):
        home = sys.modules[cover_defects.__module__]  # wherever the checker lives
        check = home._is_hamiltonian_cycle
        calls = []

        def counted(nbrs, members, cycle):
            calls.append(cycle)
            return check(nbrs, members, cycle)

        monkeypatch.setattr(home, "_is_hamiltonian_cycle", counted)
        g = scale_graph("cycle", 300, 1)
        assert cover_defects(g, nonsplit_cover(g)) == []
        assert len(calls) == 1  # every other cycle is the first read from another start

    def test_a_wheel_cover_is_checked_in_memory_of_one_span(self):
        # nearly every one of the wheel's spans is distinct, so a record kept per span takes 30 MB
        rim = 150
        g = SimplicialGraph.from_edges(
            [*((f"r{i}", f"r{(i + 1) % rim}") for i in range(rim)), *(("hub", f"r{i}") for i in range(rim))]
        )
        cover = nonsplit_cover(g)
        assert len(cover.entries) == 11_625
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            assert cover_defects(g, cover) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - baseline < 4 * 2**20

    def test_a_rotation_with_two_names_swapped_is_checked(self):
        g = scale_graph("cycle", 300, 1)
        entries = dict(nonsplit_cover(g).entries)
        first, seg = sorted(entries)[0], sorted(entries)[150]
        cycle = entries[first][1][40:] + entries[first][1][:40]
        entries[seg] = (entries[seg][0], cycle[:7] + (cycle[8], cycle[7]) + cycle[9:])
        cover = NonSplitCover(entries=entries)
        expected = [f"entry {seg}: cycle is not Hamiltonian in the span"]
        assert cover_defects(g, cover) == expected == induced_cover_defects(g, cover)

    def test_a_library_cover_is_checked_without_a_sort(self, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("the cover's items were sorted")

        g = scale_graph("grid", 300, 1)
        entries = nonsplit_cover(g).entries
        # patched where the checker lives, so that moving it cannot make this test vacuous
        monkeypatch.setattr(sys.modules[cover_defects.__module__], "sorted", no_sort, raising=False)
        # the segments are looked up in g's order, so neither key order nor mapping type sorts
        for held in (entries, dict(reversed(entries.items())), EntriesView(entries)):
            assert cover_defects(g, NonSplitCover(entries=held)) == []

    # a dict subclass or another mapping may list the segments in order whatever its items
    # hold: each segment is still looked up, and a foreign key among the items still found
    @pytest.mark.parametrize("kind", ["dict subclass", "mapping"])
    @pytest.mark.parametrize("fault", ["foreign key", "broken cycle"])
    def test_segments_listed_in_order_do_not_hide_the_items(self, square, kind, fault):
        segments = two_edge_segments(square)
        held = dict(nonsplit_cover(square).entries)
        seg = segments[1]
        if fault == "foreign key":
            held[(seg[0], seg[1], "zz")] = held.pop(seg)
        else:
            delta, (v, a, b, *rest) = held[seg]
            held[seg] = (delta, (v, b, a, *rest))  # v-b is no edge of the square
        expected = induced_cover_defects(square, NonSplitCover(entries=held))
        assert expected

        class ListsSegments(dict if kind == "dict subclass" else EntriesView):
            def __iter__(self):
                return iter(segments)

            if kind == "mapping":
                def items(self):
                    return held.items()

        entries = ListsSegments(held)
        assert list(entries) == segments
        assert cover_defects(square, NonSplitCover(entries=entries)) == expected


class TestAmalgamDefects:
    def test_generated_witness_accepted(self, two_triangles):
        assert amalgam_defects(two_triangles, z_split_witness(two_triangles)) == []

    def test_triangle_amalgam_rejected(self, triangle):
        # covers the triangle and meets in b, but the edge a-c crosses the sides
        w = ZSplitWitness(side1=("a", "b"), side2=("b", "c"), vertex="b")
        assert amalgam_defects(triangle, w) == ["edge ('a', 'c') joins the sides away from 'b'"]

    def test_whole_graph_side_rejected(self, path3):
        w = ZSplitWitness(side1=("a", "b", "c"), side2=("b",), vertex="b")
        assert "a side is the whole graph" in amalgam_defects(path3, w)

    @pytest.mark.parametrize(
        "side1, vertex", [((["a"], "b"), "b"), (("a", "b"), ["b"]), (5, "b")]
    )
    def test_malformed_witness_is_a_defect(self, path3, side1, vertex):
        w = ZSplitWitness(side1=side1, side2=("b", "c"), vertex=vertex)
        assert amalgam_defects(path3, w) == ["witness is not two sides and a vertex of vertex names"]


class TestCoverPrecondition:
    def test_empty_cover_of_disconnected_graph_rejected(self):
        g = SimplicialGraph("abc", [("a", "b")])
        assert two_edge_segments(g) == []
        assert not verify_cover(g, NonSplitCover({}))

    def test_union_of_two_triangle_covers_rejected(self, triangle):
        other = parse_graph("d e\ne f\nd f")
        g = SimplicialGraph("abcdef", triangle.edges + other.edges)
        union = NonSplitCover(
            entries={**nonsplit_cover(triangle).entries, **nonsplit_cover(other).entries}
        )
        assert set(union.entries) == set(two_edge_segments(g))
        assert cover_defects(g, union) == ["graph is not connected with at least three vertices"]


class TestSplitsOverZ:
    def test_star_amalgam(self, star):
        report = splits_over_z(star)
        assert report.z_split == "yes" and not report.free_split
        assert report.witness == ZSplitWitness(
            side1=("c", "l1"), side2=("c", "l2", "l3"), vertex="c"
        )

    def test_triangle_cover(self, triangle):
        report = splits_over_z(triangle)
        assert report.z_split == "no"
        assert isinstance(report.witness, NonSplitCover)
        assert len(report.witness.entries) == len(two_edge_segments(triangle))

    def test_single_edge(self):
        report = splits_over_z(parse_graph("a b"))
        assert report.z_split == "hnn_small_case"
        assert report.witness == SmallCaseWitness("Z^2")
        assert not report.free_split

    def test_two_isolated_vertices(self):
        report = splits_over_z(parse_graph("a\nb"))
        assert report.z_split == "hnn_small_case"
        assert report.witness == SmallCaseWitness("F2")
        assert report.free_split

    def test_single_vertex(self):
        report = splits_over_z(SimplicialGraph(["a"]))
        assert report.z_split == "no"
        assert report.witness == SmallCaseWitness("Z")
        assert not report.free_split

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            splits_over_z(SimplicialGraph())

    def test_disconnected_reports_free_split_too(self):
        report = splits_over_z(parse_graph("a b\nc d\ne"))
        assert report.free_split and report.z_split == "yes"
        assert isinstance(report.witness, ZSplitWitness)

    @pytest.mark.parametrize(
        "text", ["a b\nb c\nc a", "a b\nb c\nc d\nd a", "a b\nb c"], ids=["triangle", "square", "path"]
    )
    def test_one_lowpoint_scan(self, text, monkeypatch):
        import raagsplit.blocks
        import raagsplit.splitting

        scan = raagsplit.blocks._lowpoint_scan
        scans = []

        def counted(g):
            scans.append(g)
            return scan(g)

        # splitting reads the scan through its own name and through blocks
        monkeypatch.setattr(raagsplit.splitting, "_lowpoint_scan", counted)
        monkeypatch.setattr(raagsplit.blocks, "_lowpoint_scan", counted)
        splits_over_z(parse_graph(text))
        assert len(scans) == 1

    def test_exhaustive_small_matches_removal_oracle(self):
        for n in (3, 4):
            for g in labeled_graphs(n):
                from raagsplit import connected_components

                if len(connected_components(g)) != 1:
                    continue
                verdict = splits_over_z(g).z_split == "yes"
                assert verdict == (not oracle_biconnected(g))

    @given(graphs(min_vertices=3, max_vertices=7, connected=True))
    @settings(max_examples=60)
    def test_witness_always_certifies(self, g):
        report = splits_over_z(g)
        if report.z_split == "yes":
            assert amalgam_invariants_hold(g, report.witness)
        else:
            assert verify_cover(g, report.witness)

    @given(graphs(min_vertices=1, max_vertices=7))
    @settings(max_examples=80)
    def test_report_consistency(self, g):
        from raagsplit import connected_components

        report = splits_over_z(g)
        n = len(g.vertices)
        disconnected = len(connected_components(g)) > 1
        if n >= 2:
            assert report.free_split == disconnected
        assert (report.z_split == "hnn_small_case") == (n == 2)
        if report.free_split and n >= 3:
            assert report.z_split != "no"
        expected_type = {
            "yes": ZSplitWitness,
            "no": (NonSplitCover, SmallCaseWitness),
            "hnn_small_case": SmallCaseWitness,
        }[report.z_split]
        assert isinstance(report.witness, expected_type)
