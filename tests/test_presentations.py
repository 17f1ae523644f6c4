import hashlib
import math
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagsplit import (
    GraphError,
    Presentation,
    abelianization,
    build_j0,
    check_coverage,
    check_euler,
    collapse_to_j,
    connected_components,
    emit_presentation,
    euler_characteristic,
    jsj,
    parse_graph,
    raag_presentation,
    smith_normal_form,
)
from raagsplit.cli import labeled_graphs
from raagsplit.decompositions import CyclicGroup, GoGEdge, GoGVertex, GraphOfGroups, RaagGroup

from conftest import (
    HUB_GRAPHS,
    frozen_emit_presentation,
    graphs,
    hand_built_gogs,
    induced_subgraph,
    oracle_is_connected,
    scale_graph,
    windmill,
)


# ------------------------------------------------------------ relator algebra


def canonical_relator(p: Presentation, word):
    """Orientation- and rotation-free form of a relator, on generator names."""
    named = tuple((p.generators[g], e) for g, e in word)
    inverse = tuple((g, -e) for g, e in reversed(named))
    candidates = []
    for w in (named, inverse):
        for i in range(len(w)):
            candidates.append(w[i:] + w[:i])
    return min(candidates)


def relator_set(p: Presentation):
    return {canonical_relator(p, w) for w in p.relators}


def presentations_match(p1: Presentation, p2: Presentation) -> bool:
    return set(p1.generators) == set(p2.generators) and relator_set(p1) == relator_set(p2)


# ---------------------------------------------------------------------- snf


def det_bareiss(rows):
    """Exact integer determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd_ladder(matrix):
    """gcd of all k x k minors for each k, by brute-force determinants."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    ladder = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[matrix[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, abs(det_bareiss(sub)))
        ladder.append(g)
    return ladder


class TestSmithNormalForm:
    def test_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0, 0], [0, 0, 0]]) == []

    def test_identity(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]

    def test_empty(self):
        assert smith_normal_form([]) == []

    def test_ragged_rejected(self):
        for matrix in ([[1, 2], [3]], [[2.5, 0], [0, 3]], [["7"]]):
            with pytest.raises(GraphError, match="not rectangular or has an entry that is not an int"):
                smith_normal_form(matrix)

    @staticmethod
    def random_matrices(rng):
        """Dense small-entry matrices, then sparse ones with a zero row and column."""
        for _ in range(200):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            yield [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        for _ in range(100):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            matrix = [
                [rng.randint(-(10**4), 10**4) if rng.random() < 0.3 else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            matrix[rng.randrange(rows)] = [0] * cols
            zero_col = rng.randrange(cols)
            for row in matrix:
                row[zero_col] = 0
            yield matrix

    def test_divisibility_chain_and_minor_ladder(self):
        for matrix in self.random_matrices(random.Random(20240311)):
            divisors = smith_normal_form(matrix)
            for d1, d2 in zip(divisors, divisors[1:]):
                assert d2 % d1 == 0
            ladder = minor_gcd_ladder(matrix)
            prod = 1
            for k, g in enumerate(ladder, start=1):
                if k <= len(divisors):
                    prod *= divisors[k - 1]
                    assert g == prod
                else:
                    assert g == 0


class TestRaagPresentation:
    def test_k2(self):
        p = raag_presentation(parse_graph("a b"))
        assert p.generators == ("a", "b")
        assert p.relators == (((0, 1), (1, 1), (0, -1), (1, -1)),)

    def test_triangle(self, triangle):
        p = raag_presentation(triangle)
        assert len(p.generators) == 3 and len(p.relators) == 3

    def test_star(self, star):
        p = raag_presentation(star)
        assert len(p.generators) == 4 and len(p.relators) == 3


class TestEmitPresentation:
    def test_single_vertex_gog(self, triangle):
        assert emit_presentation(build_j0(triangle)) == raag_presentation(triangle)

    def test_two_triangles_round_trip_exact(self, two_triangles):
        p = emit_presentation(jsj(two_triangles))
        assert set(p.generators) == set("abcdef")
        assert relator_set(p) == relator_set(raag_presentation(two_triangles))

    def test_star_loop_relators(self, star):
        p = emit_presentation(jsj(star))
        assert p.generators == ("c", "l1", "l2", "l3")
        assert presentations_match(p, raag_presentation(star))

    def test_fixture_round_trips(self, star, two_triangles, path3):
        p4 = parse_graph("a b\nb c\nc d")
        for g in (star, two_triangles, path3, p4):
            assert presentations_match(
                emit_presentation(jsj(g)), raag_presentation(g)
            )

    def test_all_trees_up_to_five_vertices(self):
        for n in (3, 4, 5):
            for g in labeled_graphs(n):
                if len(g.edges) != n - 1 or len(connected_components(g)) != 1:
                    continue
                assert presentations_match(
                    emit_presentation(jsj(g)), raag_presentation(g)
                )

    def test_windmill_round_trip(self):
        g = windmill(40)
        p = emit_presentation(jsj(g))
        assert presentations_match(p, raag_presentation(g))
        assert abelianization(p) == (81, [])

    def test_disconnected_base_rejected(self, triangle):
        gog = build_j0(triangle)
        orphan = GraphOfGroups(
            vertices=gog.vertices + (gog.vertices[0].__class__(
                id="stray", color="white", group=gog.vertices[0].group
            ),),
            edges=gog.edges,
            source=gog.source,
        )
        with pytest.raises(GraphError, match="graph of groups has a disconnected base graph"):
            emit_presentation(orphan)

    @staticmethod
    def gog_on_ab(count, *edges):
        """``count`` vertex groups on ``a, b`` of the path ``a b c``, joined by ``edges``."""
        vertices = tuple(
            GoGVertex(id=f"w{i}", color="white", group=RaagGroup(("a", "b"))) for i in range(count)
        )
        return GraphOfGroups(vertices=vertices, edges=edges, source=parse_graph("a b\nb c"))

    @staticmethod
    def edge(ends, inclusions, stable_letter=None, eid="e0"):
        return GoGEdge(
            id=eid,
            ends=ends,
            group=CyclicGroup(inclusions[1]),
            inclusions=inclusions,
            stable_letter=stable_letter,
        )

    def test_merged_copies_disagree_on_a_name(self):
        gog = self.gog_on_ab(2, self.edge(("w0", "w1"), ("a", "b")))
        with pytest.raises(GraphError, match="merged generators disagree on a name: 'a' vs 'b'"):
            emit_presentation(gog)

    def test_one_name_on_two_symbols(self):
        gog = self.gog_on_ab(2, self.edge(("w0", "w1"), ("b", "b")))
        with pytest.raises(GraphError, match="generator name 'a' is carried by two distinct"):
            emit_presentation(gog)

    def test_loop_without_stable_letter(self):
        gog = self.gog_on_ab(1, self.edge(("w0", "w0"), ("a", "a")))
        with pytest.raises(GraphError, match="non-tree edge e0 has no stable letter"):
            emit_presentation(gog)

    def test_stable_letter_collides_with_a_generator(self):
        gog = self.gog_on_ab(1, self.edge(("w0", "w0"), ("a", "a"), stable_letter="b"))
        with pytest.raises(GraphError, match="stable letter 'b' collides with a generator"):
            emit_presentation(gog)
        first = self.edge(("w0", "w0"), ("a", "a"), stable_letter="c", eid="e0")
        again = self.edge(("w0", "w0"), ("b", "b"), stable_letter="c", eid="e1")
        with pytest.raises(GraphError, match="stable letter 'c' collides with a generator"):
            emit_presentation(self.gog_on_ab(1, first, again))

    @pytest.mark.parametrize(
        "groups, edges, message",
        [
            (
                [("a", "b"), ("a", "b")],
                [(("w0", "w1"), ("a", "b")), (("w0", "w1"), ("q", "a"), "s")],
                "edge e1 includes 'q', not a generator at 'w0'",
            ),
            # the first copy of a second 'a' class, (w1, a), comes before the disagreeing (w2, b)
            (
                [("a", "b"), ("a", "b"), ("a", "b")],
                [(("w0", "w1"), ("b", "b")), (("w1", "w2"), ("a", "b"))],
                "merged generators disagree on a name: 'a' vs 'b'",
            ),
            (
                [("a", "b"), ("a", "b", "zz")],
                [(("w0", "w1"), ("b", "b"))],
                "generator name 'a' is carried by two distinct symbols",
            ),
            ([("a", "zz")], [(("w0", "w0"), ("a", "a"))], "vertex 'zz' not in graph"),
            (
                [("a", "b")],
                [(("w0", "w0"), ("a", "a"), "b"), (("w0", "w0"), ("b", "b"))],
                "stable letter 'b' collides with a generator",
            ),
        ],
        ids=["inclusion", "names disagree", "name on two symbols", "not in graph", "edge order"],
    )
    def test_of_two_defects_the_earlier_check_reports(self, groups, edges, message):
        """Inclusions, then names, then spans, then loops in edge order."""
        vertices = tuple(
            GoGVertex(id=f"w{i}", color="white", group=RaagGroup(gens))
            for i, gens in enumerate(groups)
        )
        edges = tuple(self.edge(*spec, eid=f"e{i}") for i, spec in enumerate(edges))
        gog = GraphOfGroups(vertices=vertices, edges=edges, source=parse_graph("a b\nb c"))
        with pytest.raises(GraphError, match=f"^{message}$"):
            emit_presentation(gog)

    def test_no_vertices_rejected(self, path3):
        with pytest.raises(GraphError, match="graph of groups has a disconnected base graph"):
            emit_presentation(GraphOfGroups(vertices=(), edges=(), source=path3))

    @pytest.mark.parametrize("ends", [("w0", "w0"), ("w0", "w1")], ids=["loop", "tree edge"])
    def test_inclusion_outside_the_end_group_rejected(self, ends):
        gog = self.gog_on_ab(len(set(ends)), self.edge(ends, ("q", "a"), stable_letter="c"))
        with pytest.raises(GraphError, match="^edge e0 includes 'q', not a generator at 'w0'$"):
            emit_presentation(gog)

    def test_cyclic_base_takes_edges_in_order(self):
        """The first two edges close no cycle, so the third one carries the stable letter."""
        vertices = tuple(
            GoGVertex(id=f"w{i}", color="white", group=RaagGroup(("a",))) for i in range(3)
        )
        edges = (
            self.edge(("w1", "w2"), ("a", "a"), stable_letter="s", eid="e0"),
            self.edge(("w0", "w1"), ("a", "a"), stable_letter="t", eid="e1"),
            self.edge(("w0", "w2"), ("a", "a"), stable_letter="u", eid="e2"),
        )
        p = emit_presentation(GraphOfGroups(vertices, edges, source=parse_graph("a b")))
        assert p.generators == ("a", "u")
        assert p.relators == (((1, 1), (0, 1), (1, -1), (0, -1)),)
        assert abelianization(p) == (2, [])

    def test_name_checks_quote_the_first_tree_edge_and_the_first_name(self):
        """A disagreeing tree edge is the first in edge order, its names in end order; a name
        on two classes is the first in first-copy order."""
        disagree = self.gog_on_ab(
            3,
            self.edge(("w1", "w2"), ("b", "a"), eid="e0"),
            self.edge(("w0", "w1"), ("a", "b"), eid="e1"),
        )
        with pytest.raises(GraphError, match="^merged generators disagree on a name: 'b' vs 'a'$"):
            emit_presentation(disagree)
        vertices = tuple(
            GoGVertex(id=f"w{i}", color="white", group=RaagGroup(gens))
            for i, gens in enumerate([("b", "a", "c"), ("a", "c"), ("b", "c")])
        )
        edges = (
            self.edge(("w0", "w1"), ("c", "c"), eid="e0"),
            self.edge(("w0", "w2"), ("c", "c"), eid="e1"),
        )
        gog = GraphOfGroups(vertices=vertices, edges=edges, source=parse_graph("a b\nb c"))
        with pytest.raises(GraphError, match="^generator name 'b' is carried by two distinct symbols$"):
            emit_presentation(gog)

    # sha256 of repr((generators, relators)) on scale_graph(family, 300, 1); J0 and J agree
    DIGESTS = {
        "cactus": "a95d23d62616b8ab33729fdc53efcce51ab8349b2dd21c87722b87c038a318f6",
        "k4-chain": "8d5ba8b5ab3eca7ea13b55f0907c279ba7870dedc5bca6152102fb0ce12dbc3a",
        "path": "e8b94a5c0a0312183f8a891e52ab48dcbd7f03d8b35ebee9cede1d6f793ebaed",
        "random-tree": "3fec388334274fac00169206d17d27a087ca34ed2f6a09fbde2c78c48ef98275",
    }

    @pytest.mark.parametrize("family", sorted(DIGESTS))
    def test_golden_digest_at_scale(self, family):
        j0 = build_j0(scale_graph(family, 300, 1))
        for gog in (j0, collapse_to_j(j0)):
            p = emit_presentation(gog)
            digest = hashlib.sha256(repr((p.generators, p.relators)).encode()).hexdigest()
            assert digest == self.DIGESTS[family]


def random_gog(rng: random.Random) -> GraphOfGroups:
    """A hand-built graph of groups on 1-4 vertices and 0-5 edges over the path a-b-c-d.

    Inclusions mostly lie in their end's group and agree; a name outside the
    path, a foreign inclusion, a missing or repeated stable letter and a
    disconnected base each turn up now and then.
    """
    groups = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            groups.append(CyclicGroup(rng.choice("abcd")))
        else:
            names = rng.sample("abcd", rng.randint(1, 3)) + (["z"] if rng.random() < 0.05 else [])
            groups.append(RaagGroup(tuple(names)))
    vertices = tuple(GoGVertex(f"w{i}", "white", group) for i, group in enumerate(groups))
    edges = []
    for k in range(rng.randint(0, 5)):
        ends = (rng.randrange(len(groups)), rng.randrange(len(groups)))
        gens = [groups[end].generators() for end in ends]
        x = rng.choice(gens[0])
        y = x if x in gens[1] and rng.random() < 0.8 else rng.choice(gens[1])
        if rng.random() < 0.05:
            x = rng.choice("abcdq")
        letter = rng.choice([None, "s", "t", "u", "a"])
        edges.append(GoGEdge(f"e{k}", (f"w{ends[0]}", f"w{ends[1]}"), CyclicGroup(y), (x, y), letter))
    return GraphOfGroups(vertices, tuple(edges), parse_graph("a b\nb c\nc d"))


class TestFrozenEmitPresentation:
    """``emit_presentation`` against its two-union-find copy in conftest.

    Presentations and error messages are equal, except that the two name
    checks may quote another edge or name than the frozen copy did.
    """

    NAME_CHECKS = ("merged generators disagree on a name", "is carried by two distinct symbols")

    @classmethod
    def outcome(cls, emit, gog):
        try:
            return emit(gog)
        except GraphError as err:
            message = str(err)
            return next((check for check in cls.NAME_CHECKS if check in message), message)

    @classmethod
    def assert_same(cls, gog):
        assert cls.outcome(emit_presentation, gog) == cls.outcome(frozen_emit_presentation, gog)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_j0_and_j_of_all_connected_graphs(self, n):
        count = 0
        for g in labeled_graphs(n):
            if len(g.edges) >= n - 1 and oracle_is_connected(g):
                j0 = build_j0(g)
                self.assert_same(j0)
                self.assert_same(collapse_to_j(j0))
                count += 1
        assert count == {3: 4, 4: 38, 5: 728, 6: 26704}[n]

    @pytest.mark.parametrize("name", sorted(hand_built_gogs()))
    def test_hand_built_gogs(self, name):
        self.assert_same(hand_built_gogs()[name])

    @pytest.mark.parametrize("name", sorted(HUB_GRAPHS))
    def test_hub_graphs(self, name):
        g = HUB_GRAPHS[name]
        self.assert_same(build_j0(g))
        self.assert_same(jsj(g))

    def test_seeded_random_gogs(self):
        checks = ("disconnected", "includes", *self.NAME_CHECKS, "not in graph", "no stable", "collides")
        rng = random.Random(19)
        reached = set()
        for _ in range(20_000):
            gog = random_gog(rng)
            self.assert_same(gog)
            outcome = self.outcome(frozen_emit_presentation, gog)
            if isinstance(outcome, Presentation):
                reached.add("presented")
            else:
                reached.update(check for check in checks if check in outcome)
        assert reached == {"presented", *checks}  # every outcome turns up


class TestAbelianization:
    def test_raag_is_free_of_vertex_rank(self, two_triangles, star):
        for g in (two_triangles, star):
            assert abelianization(raag_presentation(g)) == (len(g.vertices), [])

    def test_decomposition_round_trip(self, two_triangles):
        assert abelianization(emit_presentation(jsj(two_triangles))) == (6, [])

    def test_torsion(self):
        p = Presentation(generators=("a",), relators=(((0, 1), (0, 1)),))
        assert abelianization(p) == (0, [2])

    def test_no_relators(self):
        assert abelianization(Presentation(generators=("a", "b"), relators=())) == (2, [])

    def test_letter_index_outside_generators_rejected(self):
        # -1 would wrap to the last generator, 3 would overrun the matrix row
        for generators, word in ((("a", "b"), ((-1, 1),)), (("a",), ((3, 1),))):
            with pytest.raises(GraphError, match=re.escape(f"relator {word!r} has a letter index outside")):
                abelianization(Presentation(generators, (word,)))


class TestChecks:
    def test_euler_fixtures(self, two_triangles, star, square):
        assert check_euler(two_triangles, jsj(two_triangles))
        assert check_euler(star, jsj(star))
        assert check_euler(square, jsj(square))

    def test_euler_also_on_initial_stage(self, two_triangles):
        assert check_euler(two_triangles, build_j0(two_triangles))

    def test_euler_windmill(self):
        g = windmill(40)
        assert check_euler(g, jsj(g)) and check_euler(g, build_j0(g))

    @given(graphs(min_vertices=3, max_vertices=6), st.data())
    @settings(max_examples=100)
    def test_euler_matches_induced_subgraphs_on_any_spans(self, g, data):
        # spans may overlap in edges, unlike blocks, so an edge can belong to several
        subsets = st.lists(st.sampled_from(g.vertices), min_size=1, unique=True)
        self.assert_euler_matches_induced_subgraphs(g, data.draw(st.lists(subsets, min_size=1, max_size=4)))

    @pytest.mark.parametrize("name", sorted(HUB_GRAPHS))
    def test_euler_matches_induced_subgraphs_on_hub_graphs(self, name):
        g = HUB_GRAPHS[name]
        assert check_euler(g, jsj(g)) and check_euler(g, build_j0(g))
        blocks = [v.group.vertices for v in build_j0(g).vertices if isinstance(v.group, RaagGroup)]
        self.assert_euler_matches_induced_subgraphs(g, blocks + [g.vertices, g.vertices[::2]])

    @staticmethod
    def assert_euler_matches_induced_subgraphs(g, spans):
        vertices = tuple(
            GoGVertex(id=f"w{i}", color="white", group=RaagGroup(tuple(span)))
            for i, span in enumerate(spans)
        ) + (GoGVertex(id="b", color="black", group=CyclicGroup(g.vertices[0])),)
        gog = GraphOfGroups(vertices=vertices, edges=(), source=g)
        total = sum(euler_characteristic(induced_subgraph(g, span)) for span in spans)
        assert check_euler(g, gog) == (euler_characteristic(g) == total)

    def test_euler_rejects_span_outside_host(self, triangle):
        gog = GraphOfGroups(
            vertices=(GoGVertex(id="w", color="white", group=RaagGroup(("a", "zz"))),),
            edges=(),
            source=triangle,
        )
        with pytest.raises(GraphError, match="'zz' not in graph"):
            check_euler(triangle, gog)
        with pytest.raises(GraphError, match="'zz' not in graph"):
            emit_presentation(gog)

    def test_coverage_fixtures(self, two_triangles, star):
        assert check_coverage(two_triangles, jsj(two_triangles))
        assert check_coverage(star, jsj(star))

    def test_coverage_fails_without_loop(self, star):
        j = jsj(star)
        pruned = GraphOfGroups(
            vertices=j.vertices, edges=tuple(e for e in j.edges if not e.is_loop), source=j.source
        )
        assert not check_coverage(star, pruned)

    def test_coverage_fails_on_non_cut_edge_group(self, two_triangles):
        j = jsj(two_triangles)
        from raagsplit import CyclicGroup

        bad_edges = (
            GoGEdge(
                id=j.edges[0].id,
                ends=j.edges[0].ends,
                group=CyclicGroup("a"),
                inclusions=("a", "a"),
            ),
        ) + j.edges[1:]
        assert not check_coverage(two_triangles, GraphOfGroups(j.vertices, bad_edges, j.source))
