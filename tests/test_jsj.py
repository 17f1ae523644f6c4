from collections import Counter

import pytest
from hypothesis import given, settings

from raagsplit import (
    CyclicGroup,
    GoGEdge,
    GoGVertex,
    GraphError,
    GraphOfGroups,
    RaagGroup,
    build_j0,
    collapse_to_j,
    cut_vertices,
    is_biconnected,
    is_reduced,
    jsj,
    parse_graph,
)
from raagsplit.jsj import BLACK, MERGED, WHITE

from conftest import graphs

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

    def test_replace_checks_edge_ends(self, path3):
        gog = jsj(path3)
        loop = gog.edges[0]._replace(id="e9", ends=("zz", "zz"))
        with pytest.raises(GraphError, match="^edge e9 ends at 'zz', which is not a vertex id$"):
            gog._replace(edges=(loop,))
        assert gog._replace(edges=()).edges == ()
