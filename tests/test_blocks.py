import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagsplit import (
    GraphError,
    SimplicialGraph,
    block_tree,
    connected_components,
    cut_vertices,
    is_biconnected,
    parse_graph,
    splits_over_z,
)
from raagsplit.blocks import _lowpoint_scan
from raagsplit.cli import labeled_graphs

from conftest import (
    graphs,
    induced_subgraph,
    oracle_cut_vertices,
    oracle_is_biconnected,
    scale_graph,
)


class TestCutVertices:
    def test_path_middle(self, path3):
        assert cut_vertices(path3) == ("b",)

    def test_two_triangles_bridge_ends(self, two_triangles):
        assert cut_vertices(two_triangles) == ("c", "d")

    def test_triangle_has_none(self, triangle):
        assert cut_vertices(triangle) == ()

    def test_empty_graph(self):
        assert cut_vertices(SimplicialGraph()) == ()

    def test_disconnected(self):
        g = parse_graph("a b\nb c\nx y")
        assert cut_vertices(g) == ("b",)

    def test_exhaustive_small_against_removal_oracle(self):
        # disconnected graphs included: the lowpoint scan also counts components
        for n in range(1, 5):
            for g in labeled_graphs(n):
                assert cut_vertices(g) == oracle_cut_vertices(g)
                assert is_biconnected(g) == oracle_is_biconnected(g)
                if n >= 2:
                    assert splits_over_z(g).free_split == (len(connected_components(g)) > 1)

    @given(graphs(max_vertices=8))
    def test_matches_removal_oracle(self, g):
        assert cut_vertices(g) == oracle_cut_vertices(g)


def networkx_scan(g):
    """What ``_lowpoint_scan`` returns, from networkx: sorted blocks, cut vertices, component count."""
    ref = nx.Graph()
    ref.add_nodes_from(g.vertices)
    ref.add_edges_from(g.edges)
    blocks = sorted(tuple(sorted(c)) for c in nx.biconnected_components(ref))
    return blocks, set(nx.articulation_points(ref)), nx.number_connected_components(ref)


def sorted_scan(g):
    blocks, cuts, components = _lowpoint_scan(g)
    return sorted(blocks), cuts, components


class TestLowpointScan:
    def test_every_labeled_graph_up_to_five_vertices_matches_networkx(self):
        # disconnected graphs and isolated vertices included; an isolated vertex forms no block
        for n in range(1, 6):
            for g in labeled_graphs(n):
                assert sorted_scan(g) == networkx_scan(g)

    @given(graphs(max_vertices=12), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_matches_networkx_from_any_root(self, g, rnd):
        order = list(g.vertices)
        rnd.shuffle(order)  # the first declared vertex is the first depth-first root
        g = SimplicialGraph(order, g.edges)
        assert sorted_scan(g) == networkx_scan(g)

    def test_hub_declared_first_is_a_root_with_many_children(self):
        leaves = [f"l{i}" for i in range(5)]
        g = SimplicialGraph(["h", *leaves], [("h", x) for x in leaves])
        assert sorted_scan(g) == ([("h", x) for x in leaves], {"h"}, 1)

    def test_path_rooted_in_its_middle(self):
        # the root b has two children, a and c
        g = SimplicialGraph(["b", "a", "c"], [("a", "b"), ("b", "c")])
        assert sorted_scan(g) == ([("a", "b"), ("b", "c")], {"b"}, 1)

    def test_path_rooted_at_one_end(self):
        # the root a has one child, so it is no cut vertex; b and c are
        g = SimplicialGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        assert sorted_scan(g) == ([("a", "b"), ("b", "c"), ("c", "d")], {"b", "c"}, 1)


class TestIsBiconnected:
    def test_k2(self):
        assert is_biconnected(parse_graph("a b"))

    def test_star(self, star):
        assert not is_biconnected(star)

    def test_triangle(self, triangle):
        assert is_biconnected(triangle)

    def test_single_vertex(self):
        assert not is_biconnected(SimplicialGraph(["a"]))

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            is_biconnected(SimplicialGraph())

    @given(graphs(max_vertices=8))
    def test_matches_removal_oracle(self, g):
        assert is_biconnected(g) == oracle_is_biconnected(g)


def bicomponents(g):
    """The blocks of g in block-tree order, sorted by their vertex tuples."""
    return [blk for _, blk in block_tree(g).white]


class TestBicomponents:
    def test_two_triangles(self, two_triangles):
        assert bicomponents(two_triangles) == [
            ("a", "b", "c"),
            ("c", "d"),
            ("d", "e", "f"),
        ]

    def test_star(self, star):
        assert bicomponents(star) == [("c", "l1"), ("c", "l2"), ("c", "l3")]

    def test_triangle(self, triangle):
        assert bicomponents(triangle) == [("a", "b", "c")]

    def test_disconnected_rejected(self):
        for text in ("a b\nx y", "a b\nb c\nx y"):
            with pytest.raises(GraphError, match="^bicomponents are defined for connected graphs only$"):
                bicomponents(parse_graph(text))

    def test_single_vertex_rejected(self):
        with pytest.raises(GraphError, match="^bicomponents need at least two vertices$"):
            bicomponents(SimplicialGraph(["a"]))

    @given(graphs(min_vertices=2, max_vertices=8, connected=True))
    @settings(max_examples=60)
    def test_block_cover_properties(self, g):
        blocks = bicomponents(g)
        # all vertices covered
        assert set().union(*(set(b) for b in blocks)) == set(g.vertices)
        # each edge in exactly one block
        for u, v in g.edges:
            homes = [b for b in blocks if u in b and v in b]
            assert len(homes) == 1
        # blocks of size >= 3 are biconnected, size-2 blocks are edges
        for b in blocks:
            if len(b) == 2:
                assert b in g.edges
            else:
                assert is_biconnected(induced_subgraph(g, b))
        # distinct blocks meet in at most one vertex, necessarily a cut vertex
        cuts = set(cut_vertices(g))
        for i, b1 in enumerate(blocks):
            for b2 in blocks[i + 1 :]:
                shared = set(b1) & set(b2)
                assert len(shared) <= 1
                assert shared <= cuts


def membership_edges(bt):
    """The block tree's edges: (black id, white id) wherever the cut vertex lies in the block."""
    return {(bid, wid) for bid, v in bt.black for wid, blk in bt.white if v in blk}


class TestBlockTree:
    def test_star_shape(self, star):
        bt = block_tree(star)
        assert [v for _, v in bt.black] == ["c"]
        assert len(bt.white) == 3
        assert len(membership_edges(bt)) == 3

    def test_two_triangles_path_of_five(self, two_triangles):
        bt = block_tree(two_triangles)
        assert len(bt.black) == 2 and len(bt.white) == 3
        assert membership_edges(bt) == {
            ("cut:c", "blk0"),
            ("cut:c", "blk1"),
            ("cut:d", "blk1"),
            ("cut:d", "blk2"),
        }

    def test_triangle_single_white(self, triangle):
        bt = block_tree(triangle)
        assert bt.black == () and len(bt.white) == 1 and membership_edges(bt) == set()

    @given(graphs(min_vertices=2, max_vertices=8, connected=True))
    @settings(max_examples=60)
    def test_tree_shape_and_leaf_color(self, g):
        bt = block_tree(g)
        edges = membership_edges(bt)
        n_nodes = len(bt.black) + len(bt.white)
        assert len(edges) == n_nodes - 1
        # bipartite between black and white by construction; check connectivity
        if n_nodes > 1:
            reached = {bt.white[0][0]}
            frontier = [bt.white[0][0]]
            adj = {}
            for b, w in edges:
                adj.setdefault(b, []).append(w)
                adj.setdefault(w, []).append(b)
            while frontier:
                x = frontier.pop()
                for y in adj.get(x, []):
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
            assert len(reached) == n_nodes
        # every leaf is white: each cut vertex lies in at least two blocks
        degree = {}
        for b, w in edges:
            degree[b] = degree.get(b, 0) + 1
        for bid, _ in bt.black:
            assert degree.get(bid, 0) >= 2


@pytest.mark.parametrize(
    "family,n,seed",
    [
        ("path", 300, 1),
        ("random-tree", 2000, 1),
        ("random-tree", 700, 2),
        ("k4-chain", 1000, 1),
        ("cactus", 2000, 1),
        ("cactus", 500, 2),
    ],
)
def test_block_tree_matches_networkx_at_scale(family, n, seed):
    g = scale_graph(family, n, seed)
    ref = nx.Graph(g.edges)
    bt = block_tree(g)
    assert sorted(blk for _, blk in bt.white) == sorted(
        tuple(sorted(c)) for c in nx.biconnected_components(ref)
    )
    assert sorted(v for _, v in bt.black) == sorted(nx.articulation_points(ref))
