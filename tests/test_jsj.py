from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagsplit import (
    CyclicGroup,
    GoGEdge,
    GoGVertex,
    GraphError,
    GraphOfGroups,
    RaagGroup,
    SimplicialGraph,
    build_j0,
    collapse_to_j,
    cut_vertices,
    is_biconnected,
    is_reduced,
    jsj,
    parse_graph,
)
from raagsplit.cli import labeled_graphs
from raagsplit.decompositions import BLACK, MERGED, WHITE
from raagsplit.serialize import _gog_json, gog_to_dot

from conftest import (
    frozen_build_j0,
    frozen_collapse_to_j,
    graphs,
    hand_built_gogs,
    oracle_is_connected,
    scale_graph,
)

DECOMPOSITION_PRECONDITION = "decomposition needs a connected graph with at least three vertices"


def whites(gog):
    return [v for v in gog.vertices if v.color in (WHITE, MERGED)]


def blacks(gog):
    return [v for v in gog.vertices if v.color == BLACK]


class TestBuildJ0:
    def test_star(self, star):
        j0 = build_j0(star)
        assert len(blacks(j0)) == 1 and blacks(j0)[0].group == CyclicGroup("c")
        hanging = [v for v in whites(j0) if v.hanging]
        assert len(hanging) == 3
        assert all(v.group == CyclicGroup("c") and v.toral for v in hanging)
        loops = [e for e in j0.edges if e.is_loop]
        assert sorted(e.stable_letter for e in loops) == ["l1", "l2", "l3"]
        tree_edges = [e for e in j0.edges if not e.is_loop]
        assert len(tree_edges) == 3
        assert all(e.group == CyclicGroup("c") for e in j0.edges)

    def test_two_triangles(self, two_triangles):
        j0 = build_j0(two_triangles)
        groups = [v.group for v in j0.vertices]
        assert RaagGroup(("a", "b", "c")) in groups
        assert RaagGroup(("c", "d")) in groups
        assert RaagGroup(("d", "e", "f")) in groups
        assert not any(e.is_loop for e in j0.edges)
        middle = next(v for v in whites(j0) if v.group == RaagGroup(("c", "d")))
        assert middle.toral and not middle.hanging

    def test_triangle_single_vertex(self, triangle):
        j0 = build_j0(triangle)
        assert len(j0.vertices) == 1 and j0.edges == ()
        assert j0.vertices[0].group == RaagGroup(("a", "b", "c"))

    def test_k2_rejected(self):
        with pytest.raises(GraphError, match=f"^{DECOMPOSITION_PRECONDITION}$"):
            build_j0(parse_graph("a b"))

    def test_disconnected_rejected(self):
        # block_tree's own "bicomponents ..." message must not leak
        for text in ("a b\nb c\nx", "a b\nb c\nx y"):
            with pytest.raises(GraphError, match=f"^{DECOMPOSITION_PRECONDITION}$"):
                build_j0(parse_graph(text))

    def test_path3_both_blocks_hanging(self, path3):
        j0 = build_j0(path3)
        assert all(v.hanging for v in whites(j0))
        assert sorted(e.stable_letter for e in j0.edges if e.is_loop) == ["a", "c"]


class TestCollapse:
    def test_two_triangles_becomes_path_of_three(self, two_triangles):
        j = collapse_to_j(build_j0(two_triangles))
        assert [v.group for v in j.vertices] == [
            RaagGroup(("a", "b", "c")),
            RaagGroup(("c", "d")),
            RaagGroup(("d", "e", "f")),
        ]
        assert [e.group.generator for e in j.edges] == ["c", "d"]
        assert not any(e.is_loop for e in j.edges)
        assert [v.color for v in j.vertices] == [MERGED, MERGED, WHITE]
        assert j.vertices[0].absorbed == ("c",) and j.vertices[1].absorbed == ("d",)

    def test_star_unchanged(self, star):
        j0 = build_j0(star)
        assert collapse_to_j(j0) == j0

    def test_path3(self, path3):
        j = collapse_to_j(build_j0(path3))
        assert len(j.vertices) == 2
        assert all(v.group == CyclicGroup("b") for v in j.vertices)
        loops = [e for e in j.edges if e.is_loop]
        assert sorted(e.stable_letter for e in loops) == ["a", "c"]
        joins = [e for e in j.edges if not e.is_loop]
        assert len(joins) == 1 and joins[0].group == CyclicGroup("b")

    def test_idempotent(self, two_triangles, star, path3):
        for g in (two_triangles, star, path3):
            j = collapse_to_j(build_j0(g))
            assert collapse_to_j(j) == j

    @given(graphs(min_vertices=3, max_vertices=7, connected=True))
    @settings(max_examples=60)
    def test_idempotent_property(self, g):
        j = jsj(g)
        assert collapse_to_j(j) == j


class TestIsReduced:
    def test_j_of_two_triangles(self, two_triangles):
        assert is_reduced(jsj(two_triangles))

    def test_j0_of_two_triangles_is_not(self, two_triangles):
        assert not is_reduced(build_j0(two_triangles))

    def test_single_vertex_gog(self, triangle):
        assert is_reduced(build_j0(triangle))


class TestJsj:
    def test_star_equals_j0(self, star):
        assert jsj(star) == build_j0(star)

    def test_biconnected_single_vertex(self, square):
        j = jsj(square)
        assert len(j.vertices) == 1 and j.edges == ()
        assert j.vertices[0].group == RaagGroup(("a", "b", "c", "d"))

    def test_preconditions(self):
        for text in ("a b", "a b\nc d", "a b\nb c\nx y"):
            with pytest.raises(GraphError, match=f"^{DECOMPOSITION_PRECONDITION}$"):
                jsj(parse_graph(text))

    @given(graphs(min_vertices=3, max_vertices=7, connected=True))
    @settings(max_examples=80)
    def test_structural_invariants(self, g):
        j = jsj(g)
        cuts = set(cut_vertices(g))
        valence = Counter(end for e in j.edges for end in e.ends)

        assert is_reduced(j)

        # edge groups are cyclic on cut vertices
        for e in j.edges:
            assert isinstance(e.group, CyclicGroup)
            assert e.group.generator in cuts

        # no surviving black vertex of valence two
        for v in blacks(j):
            assert valence[v.id] >= 3

        # every source vertex is accounted for
        seen = set()
        for v in j.vertices:
            if isinstance(v.group, RaagGroup):
                seen.update(v.group.vertices)
            else:
                seen.add(v.group.generator)
        stable = {e.stable_letter for e in j.edges if e.stable_letter is not None}
        assert seen | stable == set(g.vertices)

        # stable letters are exactly the valence-one vertices in hanging blocks
        hanging_blocks = [v.block for v in j.vertices if v.hanging]
        expected_stable = {
            x
            for blk in hanging_blocks
            for x in blk
            if len(g.neighbors(x)) == 1
        }
        assert stable == expected_stable

        if is_biconnected(g):
            assert len(j.vertices) == 1 and j.edges == ()


class TestGraphOfGroups:
    def test_edge_end_outside_the_vertices_rejected(self, path3):
        vertex = GoGVertex(id="w", color=WHITE, group=RaagGroup(("a", "b")))
        edge = GoGEdge(id="e0", ends=("w", "zz"), group=CyclicGroup("b"), inclusions=("b", "b"))
        with pytest.raises(GraphError, match="^edge e0 ends at 'zz', which is not a vertex id$"):
            GraphOfGroups(vertices=(vertex,), edges=(edge,), source=path3)

    def test_collapse_rejects_an_edge_left_at_a_collapsed_vertex(self):
        # two adjacent valence-two black vertices, and a loop at one: only a hand-built
        # decomposition has either, and collapsing it leaves an edge at a vertex it removes
        g = parse_graph("a b\nb c\nc d\n")
        w1 = GoGVertex("w1", WHITE, RaagGroup(("a", "b")), block=("a", "b"))
        w2 = GoGVertex("w2", WHITE, RaagGroup(("c", "d")), block=("c", "d"))
        b1, b2 = GoGVertex("b1", BLACK, CyclicGroup("b")), GoGVertex("b2", BLACK, CyclicGroup("c"))

        def edge(i, a, b, x, letter=None):
            return GoGEdge(f"e{i}", (a, b), CyclicGroup(x), (x, x), letter)

        chain = GraphOfGroups(
            (w1, b1, b2, w2),
            (edge(0, "w1", "b1", "b"), edge(1, "b1", "b2", "b"), edge(2, "b2", "w2", "c")),
            g,
        )
        with pytest.raises(GraphError, match="^edge e0 ends at 'b2', which is not a vertex id$"):
            collapse_to_j(chain)
        loop = GraphOfGroups(
            (w1, b1, w2),
            (edge(0, "w1", "b1", "b"), edge(1, "b1", "w2", "b"), edge(2, "b1", "b1", "b", "d")),
            g,
        )
        with pytest.raises(GraphError, match="^edge e2 ends at 'b1', which is not a vertex id$"):
            collapse_to_j(loop)

    @pytest.mark.parametrize(
        "family", ["path", "random-tree", "k4-chain", "cactus", "cycle", "grid", "ear"]
    )
    def test_builders_pass_the_ends_check(self, family):
        # the builders skip the constructor's ends check; every J and J0 they make must pass it
        g = scale_graph(family, 300, 1)
        for gog in (build_j0(g), jsj(g), collapse_to_j(build_j0(g))):
            assert GraphOfGroups(*gog) == gog

    def test_replace_checks_edge_ends(self, path3):
        gog = jsj(path3)
        loop = gog.edges[0]._replace(id="e9", ends=("zz", "zz"))
        with pytest.raises(GraphError, match="^edge e9 ends at 'zz', which is not a vertex id$"):
            gog._replace(edges=(loop,))
        assert gog._replace(edges=()).edges == ()


def assert_one_pass_j(g):
    """``jsj(g)`` has the records, record types and bytes of ``collapse_to_j(build_j0(g))``."""
    j, collapsed = jsj(g), collapse_to_j(build_j0(g))
    assert j == collapsed
    types = [list(map(type, (*gog.vertices, *gog.edges))) for gog in (j, collapsed)]
    assert types[0] == types[1]
    assert "".join(_gog_json(j)) == "".join(_gog_json(collapsed))
    assert gog_to_dot(j) == gog_to_dot(collapsed)


class TestFrozenBuilders:
    """``build_j0`` and ``collapse_to_j`` give the records of their frozen copies in conftest,
    and ``jsj``, which builds J without J0, gives their collapse."""

    @staticmethod
    def assert_same(g):
        j0 = build_j0(g)
        assert j0 == frozen_build_j0(g)
        assert collapse_to_j(j0) == frozen_collapse_to_j(j0)
        assert_one_pass_j(g)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_all_connected_graphs(self, n):
        count = 0
        for g in labeled_graphs(n):
            if len(g.edges) >= n - 1 and oracle_is_connected(g):
                self.assert_same(g)
                count += 1
        assert count == {3: 4, 4: 38, 5: 728, 6: 26704}[n]

    @pytest.mark.parametrize(
        "family", ["path", "random-tree", "k4-chain", "cactus", "cycle", "grid", "ear"]
    )
    def test_scale_families(self, family):
        self.assert_same(scale_graph(family, 300, 1))

    @pytest.mark.parametrize("name", sorted(hand_built_gogs()))
    def test_collapse_of_hand_built_inputs(self, name):
        gog = hand_built_gogs()[name]
        assert collapse_to_j(gog) == frozen_collapse_to_j(gog)

    def test_a_cut_vertex_shares_one_group(self, star):
        j0 = build_j0(star)
        groups = {id(v.group) for v in j0.vertices if v.group == CyclicGroup("c")}
        groups |= {id(e.group) for e in j0.edges}
        assert len(groups) == 1


@st.composite
def sparse_connected_graphs(draw):
    """A random spanning tree plus a few chords: many blocks, of every size, and many cut vertices."""
    n = draw(st.integers(min_value=3, max_value=16))
    names = [f"v{i:02d}" for i in range(n)]
    order = draw(st.permutations(names))
    parents = [order[draw(st.integers(min_value=0, max_value=i - 1))] for i in range(1, n)]
    edges = {tuple(sorted(pair)) for pair in zip(order[1:], parents)}
    chords = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=n // 2))
    edges |= {tuple(sorted(pair)) for pair in chords if pair[0] != pair[1]}
    return SimplicialGraph(names, sorted(edges))


class TestOnePassJ:
    """``assert_one_pass_j`` on cut-heavy graphs; ``TestFrozenBuilders`` runs it on all 27,474
    connected labeled graphs on 3-6 vertices."""

    @pytest.mark.parametrize("n", [300, 2000])
    @pytest.mark.parametrize("family", ["path", "random-tree", "k4-chain", "cactus"])
    def test_scale_families(self, family, n):
        assert_one_pass_j(scale_graph(family, n, 1))

    @given(sparse_connected_graphs())
    @settings(max_examples=300)
    def test_property(self, g):
        assert_one_pass_j(g)
