import string
import tracemalloc
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raagsplit import (
    GraphError,
    ParseError,
    SimplicialGraph,
    clique_counts,
    connected_components,
    euler_characteristic,
    parse_graph,
    two_edge_segments,
)

from raagsplit.certify import _is_hamiltonian_cycle
from raagsplit.cli import main
from raagsplit.splitting import _least_paths

from conftest import (
    HUB_GRAPHS,
    exhaustive_bfs_parents,
    graphs,
    induced_subgraph,
    oracle_bfs_distance,
    oracle_clique_counts,
    oracle_components,
    oracle_hamiltonian_accepts,
    parent_chain,
)


NAME_CHARS = frozenset(string.ascii_letters + string.digits + "_")

# blank and comment lines, a malformed self-loop, and lines of one to three tokens (mostly
# two) after spaces and tabs; about one token in seven is malformed, so that many texts parse
_SPACED_TOKEN = st.tuples(
    st.sampled_from([" ", "\t", "  ", " \t "]),
    st.sampled_from(["a", "b", "c", "d", "x_1", "Z9"] * 4 + ["a-", "c.d", "#e", "é"]),
)
EDGE_LIST_LINES = st.one_of(
    st.sampled_from(["", "   ", "# a b", "#", "\t# c- d", "a- a-"]),
    st.sampled_from([1, 2, 2, 2, 3])
    .flatmap(lambda k: st.lists(_SPACED_TOKEN, min_size=k, max_size=k))
    .map(lambda parts: "".join(sep + tok for sep, tok in parts)),
)


def reference_parse(text):
    """The edge-list format read line by line with every token checked on every line.

    Returns ``("graph", vertices, edges)`` or ``("error", message, line)``.
    """
    order, edges = {}, set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        for tok in tokens:
            if not set(tok) <= NAME_CHARS:
                return "error", f"line {lineno}: malformed token {tok!r}", lineno
        if len(tokens) == 2 and tokens[0] == tokens[1]:
            return "error", f"line {lineno}: self-loop declared at {tokens[0]!r}", lineno
        if len(tokens) > 2:
            return "error", f"line {lineno}: expected 1 or 2 tokens, got {len(tokens)}", lineno
        for tok in tokens:
            order.setdefault(tok, None)
        if len(tokens) == 2:
            edges.add(tuple(sorted(tokens)))
    return "graph", tuple(order), tuple(sorted(edges))


class TestParse:
    def test_path(self):
        g = parse_graph("a b\nb c")
        assert g.vertices == ("a", "b", "c")
        assert g.edges == (("a", "b"), ("b", "c"))

    def test_isolated_vertex(self):
        g = parse_graph("x")
        assert g.vertices == ("x",)
        assert g.edges == ()

    def test_duplicate_edge_merges(self):
        g = parse_graph("a b\na b")
        assert g.edges == (("a", "b"),)

    def test_comments_and_blanks(self):
        g = parse_graph("# heading\n\na b\n   \n# tail\nb c\n")
        assert g.vertices == ("a", "b", "c")

    def test_reversed_edge_merges(self):
        assert parse_graph("a b\nb a").edges == (("a", "b"),)

    def test_declaration_order_kept(self):
        assert parse_graph("z y\na").vertices == ("z", "y", "a")

    @pytest.mark.parametrize(
        "text,line",
        [("a b\nc- d", 2), ("a a", 1), ("a b c", 1), ("ok\n\nx y z w", 3)],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line == line
        assert f"line {line}" in str(err.value)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("a- a-", "line 1: malformed token 'a-'"),  # not a self-loop
            ("a b c-", "line 1: malformed token 'c-'"),  # not a wrong token count
            ("a b\nb c-\nc- d\nc-", "line 2: malformed token 'c-'"),  # its first line
            ("a b\na- b\n# a- b", "line 2: malformed token 'a-'"),
            ("a b\nb a a", "line 2: expected 1 or 2 tokens, got 3"),
            ("a b\n\tb   b \r\n", "line 2: self-loop declared at 'b'"),
            ("a\n b #c", "line 2: malformed token '#c'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert str(err.value) == message

    @given(st.lists(EDGE_LIST_LINES, max_size=12), st.sampled_from(["\n", "\r\n"]), st.booleans())
    @settings(max_examples=300)
    def test_matches_a_reference_parser(self, lines, newline, trailing):
        text = newline.join(lines) + (newline if trailing else "")
        expected = reference_parse(text)
        try:
            g = parse_graph(text)
        except ParseError as err:
            assert ("error", str(err), err.line) == expected
            return
        assert ("graph", g.vertices, g.edges) == expected
        for v in g.vertices:  # the adjacency the parser built agrees with the edge list
            assert g.neighbors(v) == tuple(sorted({x for e in g.edges if v in e for x in e} - {v}))

    def test_constructor_rejects_undeclared_endpoint(self):
        with pytest.raises(GraphError):
            SimplicialGraph(["a"], [("a", "b")])

    def test_constructor_rejects_self_loop(self):
        with pytest.raises(GraphError):
            SimplicialGraph(["a"], [("a", "a")])

    @pytest.mark.parametrize(
        "vertices,edges",
        [("ab", [5]), ([["a"]], []), (["a"], [(["a"], "a")]), ("abc", [("a", "b", "c")])],
        ids=["non-pair edge", "unhashable vertex", "unhashable endpoint", "triple edge"],
    )
    def test_constructor_raises_graph_error_on_malformed_input(self, vertices, edges):
        with pytest.raises(GraphError):
            SimplicialGraph(vertices, edges)
        if edges:  # the malformed-edge cases; from_edges takes no vertex list
            with pytest.raises(GraphError):
                SimplicialGraph.from_edges(edges)


class TestInducedSubgraph:
    """conftest's ``induced_subgraph``, which other tests build their subgraphs with."""

    def test_edge_restriction(self, triangle):
        sub = induced_subgraph(triangle, {"a", "b"})
        assert sub.vertices == ("a", "b")
        assert sub.edges == (("a", "b"),)

    def test_two_triangles_restricts_to_triangle(self, two_triangles, triangle):
        sub = induced_subgraph(two_triangles, {"a", "b", "c"})
        assert set(sub.edges) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_identity(self, two_triangles):
        assert induced_subgraph(two_triangles, two_triangles.vertices) == two_triangles

    def test_foreign_member_rejected(self, triangle):
        with pytest.raises(GraphError):
            induced_subgraph(triangle, {"a", "zz"})

    @given(graphs(max_vertices=6), st.data())
    def test_idempotent(self, g, data):
        members = data.draw(st.sets(st.sampled_from(g.vertices)) if g.vertices else st.just(set()))
        once = induced_subgraph(g, members)
        assert induced_subgraph(once, members) == once


class TestConnectedComponents:
    def test_path_single_component(self, path3):
        assert connected_components(path3) == [("a", "b", "c")]

    def test_edge_plus_isolated(self):
        g = parse_graph("a b\nc")
        assert connected_components(g) == [("a", "b"), ("c",)]

    def test_star_connected(self, star):
        assert connected_components(star) == [("c", "l1", "l2", "l3")]

    def test_empty_graph(self):
        assert connected_components(SimplicialGraph()) == []

    @given(graphs(max_vertices=7))
    def test_matches_closure_oracle(self, g):
        assert sorted(connected_components(g)) == oracle_components(g.vertices, g.edges)


def least_path(g, u, w, v):
    """The shortest u-w path in g minus v that the cover builder takes, or None."""
    return next(_least_paths(g, u, v, (w,)))


def is_hamiltonian(g, seq):
    """The cover checker's cycle test, on the whole of g."""
    return _is_hamiltonian_cycle({x: set(g.neighbors(x)) for x in g.vertices}, set(g.vertices), seq)


class TestShortestPathAvoiding:
    def test_direct_edge(self, two_triangles):
        assert least_path(two_triangles, "a", "b", "c") == ["a", "b"]

    def test_detour_around_square(self, square):
        assert least_path(square, "a", "c", "b") == ["a", "d", "c"]

    def test_absent_when_separated(self, path3):
        assert least_path(path3, "a", "c", "b") is None

    def test_lexicographic_tie_break(self):
        # two shortest routes x-a-y and x-b-y once c is removed; a wins
        g = parse_graph("x a\na y\nx b\nb y\nx c\nc y")
        assert least_path(g, "x", "y", "c") == ["x", "a", "y"]

    def test_backward_links_take_least_neighbour(self):
        # u's wide first level makes the search from w take three levels; that
        # search finds d before c, but y's least neighbour one step nearer w is c
        g = parse_graph("w a\nw b\na d\nb c\nc y\nd y\nu y\nu f\nu g\nu h")
        assert least_path(g, "u", "w", "f") == ["u", "y", "c", "b", "w"]

    @given(graphs(min_vertices=3, max_vertices=7), st.data())
    def test_against_bfs_oracle(self, g, data):
        trip = data.draw(st.permutations(g.vertices))
        u, w, v = trip[0], trip[1], trip[2]
        path = least_path(g, u, w, v)
        expected = oracle_bfs_distance(g, u, w, avoid=v)
        if path is None:
            assert expected is None
        else:
            assert len(path) - 1 == expected
            assert path[0] == u and path[-1] == w and v not in path
            assert all(b in g.neighbors(a) for a, b in zip(path, path[1:]))


class TestEarlyStoppingSearch:
    """The two-ended search gives every target the path a full one-sided search finds."""

    @given(graphs(min_vertices=3, max_vertices=6), st.data())
    @settings(max_examples=300)
    def test_shortest_path_matches_full_search(self, g, data):
        u, w, v = data.draw(st.permutations(g.vertices))[:3]
        full = exhaustive_bfs_parents(g, u, v)
        expected = parent_chain(full, w) if w in full else None
        assert least_path(g, u, w, v) == expected

    @given(graphs(min_vertices=3, max_vertices=8), st.data())
    @settings(max_examples=300)
    def test_every_target_chain_matches_full_search(self, g, data):
        u, v = data.draw(st.permutations(g.vertices))[:2]
        others = [x for x in g.vertices if x != v]
        targets = data.draw(st.lists(st.sampled_from(others), unique=True))
        full = exhaustive_bfs_parents(g, u, v)
        paths = list(_least_paths(g, u, v, targets))
        assert len(paths) == len(targets)
        for w, path in zip(targets, paths):
            assert path == (parent_chain(full, w) if w in full else None)


class TestHamiltonianCycleCheck:
    def test_triangle(self, triangle):
        assert is_hamiltonian(triangle, ("a", "b", "c"))

    def test_chord_is_ignored(self):
        g = parse_graph("a b\nb c\nc d\na d\na c")
        assert is_hamiltonian(g, ("a", "b", "c", "d"))

    def test_missing_vertex_fails(self, square):
        assert not is_hamiltonian(square, ("a", "b", "c"))

    def test_repeat_fails(self, square):
        assert not is_hamiltonian(square, ("a", "b", "a", "d"))

    def test_non_edge_fails(self, square):
        assert not is_hamiltonian(square, ("a", "c", "b", "d"))

    def test_foreign_vertex_fails(self, triangle):
        assert not is_hamiltonian(triangle, ("a", "b", "zz"))

    @given(graphs(min_vertices=3, max_vertices=5))
    @settings(max_examples=40)
    def test_matches_bruteforce_on_all_permutations(self, g):
        for perm in permutations(g.vertices):
            assert is_hamiltonian(g, perm) == oracle_hamiltonian_accepts(g, perm)


class TestCliqueCounts:
    def test_triangle(self, triangle):
        assert clique_counts(triangle) == [1, 3, 3, 1]

    def test_two_triangles(self, two_triangles):
        assert clique_counts(two_triangles) == [1, 6, 7, 2]

    def test_star(self, star):
        assert clique_counts(star) == [1, 4, 3]

    def test_empty_graph(self):
        assert clique_counts(SimplicialGraph()) == [1]

    def test_hundred_vertex_path(self, capsys, tmp_path):
        edges = [(f"v{i:03d}", f"v{i + 1:03d}") for i in range(99)]
        assert clique_counts(SimplicialGraph.from_edges(edges)) == [1, 100, 99]
        path = tmp_path / "path100.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "reduced pass",
            "euler pass",
            "coverage pass",
            "abelianization pass rank=100 torsion=[]",
        ]

    @given(graphs(max_vertices=7))
    @example(HUB_GRAPHS["windmill-hub-first"])
    @example(HUB_GRAPHS["windmill-hub-last"])
    @example(HUB_GRAPHS["star"])
    @example(HUB_GRAPHS["k2-40"])
    def test_matches_subset_enumeration(self, g):
        assert clique_counts(g) == oracle_clique_counts(g)

    def test_memory_follows_the_edges_on_paths(self):
        # one n-bit mask per vertex would take n^2 / 8 bytes, four times as much on twice the path
        peaks = []
        for n in (10_000, 20_000):
            g = SimplicialGraph.from_edges((f"v{i}", f"v{i + 1}") for i in range(n - 1))
            tracemalloc.start()
            try:
                assert clique_counts(g) == [1, n, n - 1]
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 3 * peaks[0]


class TestEulerCharacteristic:
    def test_single_vertex(self):
        assert euler_characteristic(SimplicialGraph(["a"])) == 0

    def test_two_triangles(self, two_triangles):
        assert euler_characteristic(two_triangles) == 0

    def test_square(self, square):
        # chi(F2 x F2) = (-1) * (-1)
        assert euler_characteristic(square) == 1

    @given(graphs(min_vertices=1, max_vertices=4), graphs(min_vertices=1, max_vertices=4))
    def test_disjoint_union_rule(self, g1, g2):
        renamed = SimplicialGraph(
            [v + "_r" for v in g2.vertices], [(u + "_r", v + "_r") for u, v in g2.edges]
        )
        union = SimplicialGraph(
            list(g1.vertices) + list(renamed.vertices), list(g1.edges) + list(renamed.edges)
        )
        assert euler_characteristic(union) == (
            euler_characteristic(g1) + euler_characteristic(renamed) - 1
        )


def test_two_edge_segments_square(square):
    assert two_edge_segments(square) == [
        ("a", "b", "c"),
        ("a", "d", "c"),
        ("b", "a", "d"),
        ("b", "c", "d"),
    ]


@given(graphs(min_vertices=0, max_vertices=8))
@settings(max_examples=300)
def test_two_edge_segments_match_a_sort_of_every_neighbour_pair(g):
    pairs = [(u, v, w) for v in g.vertices for u, w in combinations(g.neighbors(v), 2)]
    assert two_edge_segments(g) == sorted(pairs)
