import random
from itertools import combinations

import pytest
from hypothesis import given, settings
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
    induced_subgraph,
    is_biconnected,
    nonsplit_cover,
    parse_graph,
    shortest_path_avoiding,
    splits_freely,
    splits_over_z,
    two_edge_segments,
    verify_cover,
    verify_hamiltonian_cycle,
    z_split_witness,
)
from raagsplit.cli import labeled_graphs, oracle_biconnected

from conftest import exhaustive_bfs_parents, graphs, parent_chain, scale_graph


def hub_graph(family):
    """K_{2,40} ("k2") or the wheel W_60 ("wheel") under seeded shuffled names."""
    if family == "k2":
        edges = [(h, i) for h in (0, 1) for i in range(2, 42)]
    else:
        edges = [(i, i % 60 + 1) for i in range(1, 61)] + [(0, i) for i in range(1, 61)]
    perm = list(range(max(b for _, b in edges) + 1))
    random.Random(family).shuffle(perm)
    return SimplicialGraph.from_edges([(f"v{perm[a]:02d}", f"v{perm[b]:02d}") for a, b in edges])


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
    def test_edge_plus_vertex(self):
        free, witness = splits_freely(parse_graph("a b\nc"))
        assert free and witness.parts == (("a", "b"), ("c",))

    def test_two_triangles_connected(self, two_triangles):
        assert splits_freely(two_triangles) == (False, None)

    def test_two_disjoint_edges(self):
        free, witness = splits_freely(parse_graph("a b\nc d"))
        assert free and witness.parts == (("a", "b"), ("c", "d"))

    def test_long_path_plus_vertex(self):
        names = [f"p{i:04d}" for i in range(3000)]
        free, witness = splits_freely(SimplicialGraph([*names, "z"], zip(names, names[1:])))
        assert free and witness.parts == (tuple(names), ("z",))

    def test_single_vertex_rejected(self):
        with pytest.raises(GraphError):
            splits_freely(SimplicialGraph(["a"]))


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
        assert verify_hamiltonian_cycle(induced_subgraph(square, delta), cycle)

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
            rho = shortest_path_avoiding(square, u, w, v)
            assert cycle == (v, *rho)
            assert delta == tuple(sorted({v, *rho}))

    @pytest.mark.parametrize("family", ["ear", "grid", "cycle", "k2", "wheel"])
    def test_matches_one_full_search_per_pair(self, family):
        # 300-vertex sparse graphs, where paths are long, and hubs with many
        # targets per search: K_{2,40} and the wheel W_60
        g = scale_graph(family, 300, 1) if family in ("ear", "grid", "cycle") else hub_graph(family)
        expected = {}
        for v in g.vertices:
            for u, w in combinations(sorted(g.neighbors(v)), 2):
                path = parent_chain(exhaustive_bfs_parents(g, u, v), w)
                expected[(u, v, w)] = (tuple(sorted({v, *path})), (v, *path))
        assert list(nonsplit_cover(g).entries.items()) == sorted(expected.items())

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


def induced_cover_defects(g: SimplicialGraph, cover):
    """``cover_defects`` as first written, kept as its reference: one induced subgraph per entry."""
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
        if not verify_hamiltonian_cycle(induced_subgraph(g, delta), cycle):
            defects.append(f"{label}: cycle is not Hamiltonian in the span")
    return defects


def detour_entries(g):
    """Each segment's shortest detour around its middle vertex, where one exists."""
    entries = {}
    for u, v, w in two_edge_segments(g):
        path = shortest_path_avoiding(g, u, w, v)
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


class TestCoverDefectsDifferential:
    """``cover_defects`` against its first formulation, which built an induced subgraph per entry."""

    @given(graphs(min_vertices=3, max_vertices=7, connected=True), st.data())
    @settings(max_examples=300)
    def test_matches_induced_subgraph_formulation(self, g, data):
        entries = detour_entries(g)
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            if entries:
                mutate(g, entries, data)
        cover = NonSplitCover(entries=entries)
        assert cover_defects(g, cover) == induced_cover_defects(g, cover)

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
            (("a", "b", "c"), ("a", "b", "c"), NOT_HAMILTONIAN),  # no closing edge c-a
            (("a", "b", "c", "d"), ("a", "d", "c", "b"), []),
            (("a", "b", "c", "d"), ("c", "d", "a", "b"), []),
            (("a", "b"), ("b", "a"), ["entry ('a', 'b', 'c'): span has fewer than three vertices"]),
            (("a", "a", "b"), ("b", "a", "a"), ["entry ('a', 'b', 'c'): span does not contain the segment"]),
        ],
    )
    def test_square_entry(self, square, delta, cycle, expected):
        entries = dict(nonsplit_cover(square).entries)
        entries[("a", "b", "c")] = (delta, cycle)
        cover = NonSplitCover(entries=entries)
        assert cover_defects(square, cover) == expected == induced_cover_defects(square, cover)


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
