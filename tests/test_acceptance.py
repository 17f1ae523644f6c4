"""Acceptance suite: exhaustive sweeps and fixture structure checks.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  Sweeps enumerate every labeled graph on the stated vertex range;
expected connected-graph totals are recomputed from the standard counting
recurrence rather than hard-coded.  The seven-vertex Euler sweep fans out
over worker processes with a deterministic sum reduce; the decomposition
stage there is the uncollapsed one, which the identity covers equally.
"""

from __future__ import annotations

import json
import math
import sys
import time
from itertools import combinations
from multiprocessing import get_context

import pytest

from raagsplit import (
    CyclicGroup,
    GraphError,
    GraphOfGroups,
    NonSplitCover,
    RaagGroup,
    SimplicialGraph,
    ZSplitWitness,
    abelianization,
    amalgam_defects,
    build_j0,
    check_euler,
    connected_components,
    emit_presentation,
    euler_characteristic,
    is_reduced,
    jsj,
    parse_graph,
    verify_cover,
)
from raagsplit.cli import census_rows, labeled_graphs, main
from raagsplit.splitting import Z_SPLIT_YES, splits_over_z

STAR_TEXT = "c l1\nc l2\nc l3\n"
TWO_TRIANGLES_TEXT = "a b\na c\nb c\nc d\nd e\nd f\ne f\n"


def criterion(number: int, detail: str, elapsed: float | None = None) -> None:
    suffix = f" [{elapsed:.3f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number}: PASS - {detail}{suffix}")


def connected_labeled_count(n: int) -> int:
    """Counting recurrence for connected labeled graphs (independent oracle)."""
    total = lambda k: 2 ** (k * (k - 1) // 2)
    memo = {1: 1}
    for m in range(2, n + 1):
        memo[m] = total(m) - sum(
            memo[k] * math.comb(m - 1, k - 1) * total(m - k) for k in range(1, m)
        )
    return memo[n]


# --------------------------------------------------------- removal oracle


def _component_count(vertices, edges) -> int:
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in vertices})


def removal_oracle_biconnected(g: SimplicialGraph) -> bool:
    """Biconnectivity straight from the definition, no shared code paths."""
    if len(g.vertices) < 2:
        return False
    base = _component_count(g.vertices, g.edges)
    if base != 1:
        return False
    for v in g.vertices:
        rest = [x for x in g.vertices if x != v]
        rest_edges = [e for e in g.edges if v not in e]
        if _component_count(rest, rest_edges) > base:
            return False
    return True


def connected_graphs(n: int):
    for g in labeled_graphs(n):
        if len(connected_components(g)) == 1:
            yield g


@pytest.fixture(scope="session")
def sweep36():
    """One pass over all connected labeled graphs on 3..6 vertices.

    Collects everything criteria 4, 5 and 7 and the rebuild check assert on;
    failures are recorded, not raised, so each reports independently.
    """
    results = {
        "checked": 0,
        "witness_failures": [],
        "abelianization_failures": [],
        "reduced_failures": [],
        "rebuild_failures": [],
    }
    for n in range(3, 7):
        for g in connected_graphs(n):
            results["checked"] += 1
            report = splits_over_z(g)
            if report.z_split == Z_SPLIT_YES:
                w = report.witness
                sound = isinstance(w, ZSplitWitness) and not amalgam_defects(g, w)
            else:
                sound = isinstance(report.witness, NonSplitCover) and verify_cover(
                    g, report.witness
                )
            if not sound:
                results["witness_failures"].append(g)
            decomposition = jsj(g)
            if not is_reduced(decomposition):
                results["reduced_failures"].append(g)
            if abelianization(emit_presentation(decomposition)) != (n, []):
                results["abelianization_failures"].append(g)
            if not (rebuilds(decomposition) and rebuilds(build_j0(g))):
                results["rebuild_failures"].append(g)
    return results


def rebuilds(gog: GraphOfGroups) -> bool:
    """The public constructor, which checks every edge end, accepts ``gog``'s records and gives ``gog`` back.

    The builders construct J and J0 without that check, as their edge ends are
    vertex ids by construction; this pins that invariant.
    """
    try:
        return GraphOfGroups(*gog) == gog
    except GraphError:
        return False


def test_criterion_1_star_fixture(tmp_path, capsys):
    start = time.perf_counter()
    g = parse_graph(STAR_TEXT)
    j0 = build_j0(g)
    j = jsj(g)

    black = [v for v in j0.vertices if v.color == "black"]
    hanging = [v for v in j0.vertices if v.hanging]
    loops = [e for e in j0.edges if e.is_loop]
    tree_edges = [e for e in j0.edges if not e.is_loop]
    assert len(black) == 1 and black[0].group == CyclicGroup("c")
    assert len(hanging) == 3 and all(v.group == CyclicGroup("c") for v in hanging)
    assert len(tree_edges) == 3
    assert sorted(e.stable_letter for e in loops) == ["l1", "l2", "l3"]
    assert all(e.group == CyclicGroup("c") for e in j0.edges)
    assert all(isinstance(v.group, CyclicGroup) for v in j0.vertices)
    assert j == j0  # the decomposition is already reduced

    path = tmp_path / "star.txt"
    path.write_text(STAR_TEXT)
    assert main(["jsj", str(path), "--stage=j0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["vertices"]) == 4
    assert sum(v["color"] == "black" for v in payload["vertices"]) == 1
    assert sum(v["hanging"] for v in payload["vertices"]) == 3
    assert sum(e["loop"] for e in payload["edges"]) == 3
    assert all(v["group"]["kind"] == "cyclic" and v["group"]["vertices"] == ["c"] for v in payload["vertices"])

    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    criterion(1, "J0(star) exact structure; J(star) == J0(star)", elapsed)


def test_criterion_2_two_triangles_fixture(tmp_path, capsys):
    start = time.perf_counter()
    g = parse_graph(TWO_TRIANGLES_TEXT)
    j = jsj(g)

    assert [v.group for v in j.vertices] == [
        RaagGroup(("a", "b", "c")),
        RaagGroup(("c", "d")),
        RaagGroup(("d", "e", "f")),
    ]
    assert all(v.color in ("white", "merged") for v in j.vertices)
    assert [(e.ends, e.group.generator) for e in j.edges] == [
        (("blk0", "blk1"), "c"),
        (("blk1", "blk2"), "d"),
    ]
    assert not any(e.is_loop for e in j.edges)

    path = tmp_path / "gamma2.txt"
    path.write_text(TWO_TRIANGLES_TEXT)
    assert main(["jsj", str(path), "--stage=j"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [v["group"]["vertices"] for v in payload["vertices"]] == [
        ["a", "b", "c"],
        ["c", "d"],
        ["d", "e", "f"],
    ]
    assert [e["group_vertex"] for e in payload["edges"]] == ["c", "d"]

    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    criterion(2, "J(two triangles) is the Z^3 *_Z Z^2 *_Z Z^3 path", elapsed)


def test_criterion_3_verdict_sweep():
    start = time.perf_counter()
    checked = 0
    disagreements = []
    blocks = []  # per n, the graphs the removal oracle accepts
    for n in range(3, 7):
        blocks.append(0)
        for g in connected_graphs(n):
            checked += 1
            biconnected = removal_oracle_biconnected(g)
            blocks[-1] += biconnected
            if (splits_over_z(g).z_split == Z_SPLIT_YES) == biconnected:
                disagreements.append(g)
    elapsed = time.perf_counter() - start
    expected = sum(connected_labeled_count(n) for n in range(3, 7))
    assert checked == expected
    assert blocks == [1, 10, 238, 11368]  # labeled blocks, OEIS A013922
    assert disagreements == []
    assert elapsed < 60.0
    criterion(3, f"splitting verdict vs removal oracle on {checked} graphs, 0 disagreements", elapsed)


def test_criterion_4_witness_soundness(sweep36):
    assert sweep36["checked"] == sum(connected_labeled_count(n) for n in range(3, 7))
    assert sweep36["witness_failures"] == []
    criterion(4, f"witnesses sound on all {sweep36['checked']} graphs")


def test_criterion_5_abelianization_round_trip(sweep36):
    assert sweep36["abelianization_failures"] == []
    criterion(5, f"abelianization == (|V|, []) on all {sweep36['checked']} graphs")


# ------------------------------------------------------- criterion 6 (n=7)

_SEVEN_NAMES = list("abcdefg")
_SEVEN_PAIRS = list(combinations(_SEVEN_NAMES, 2))


def _euler_worker(bounds: tuple[int, int]) -> tuple[int, int]:
    lo, hi = bounds
    checked = failures = 0
    npairs = len(_SEVEN_PAIRS)
    for mask in range(lo, hi):
        edges = [_SEVEN_PAIRS[i] for i in range(npairs) if mask >> i & 1]
        g = SimplicialGraph(_SEVEN_NAMES, edges)
        if len(connected_components(g)) != 1:
            continue
        checked += 1
        if not check_euler(g, build_j0(g)):
            failures += 1
    return checked, failures


def test_criterion_6_euler_identity():
    start = time.perf_counter()
    spots = {
        "star": (parse_graph(STAR_TEXT), 0),
        "two triangles": (parse_graph(TWO_TRIANGLES_TEXT), 0),
        "square": (parse_graph("a b\nb c\nc d\na d"), 1),
    }
    for name, (g, chi) in spots.items():
        assert euler_characteristic(g) == chi, name

    checked = failures = 0
    for n in range(3, 7):
        for g in connected_graphs(n):
            checked += 1
            if not (check_euler(g, jsj(g)) and check_euler(g, build_j0(g))):
                failures += 1
    assert checked == sum(connected_labeled_count(n) for n in range(3, 7))
    assert failures == 0

    total_masks = 1 << len(_SEVEN_PAIRS)
    step = 1 << 16
    chunks = [(lo, min(lo + step, total_masks)) for lo in range(0, total_masks, step)]
    with get_context("fork").Pool(2) as pool:
        parts = pool.map(_euler_worker, chunks)
    checked7 = sum(c for c, _ in parts)
    failures7 = sum(f for _, f in parts)
    assert checked7 == connected_labeled_count(7)
    assert failures7 == 0
    elapsed = time.perf_counter() - start
    criterion(
        6,
        f"Euler identity on {checked} graphs (3-6) and {checked7} graphs (7); spot values ok",
        elapsed,
    )


def test_criterion_7_reducedness(sweep36):
    assert sweep36["reduced_failures"] == []
    criterion(7, f"jsj reduced on all {sweep36['checked']} graphs")


def test_builders_pass_the_public_ends_check(sweep36):
    assert sweep36["rebuild_failures"] == []


def test_criterion_8_census_table():
    rows = census_rows({n: labeled_graphs(n) for n in (3, 4)})
    assert rows[0]["n"] == 3
    assert (rows[0]["connected"], rows[0]["biconnected"], rows[0]["splits_over_Z"]) == (4, 1, 3)
    assert rows[1]["n"] == 4
    assert (rows[1]["connected"], rows[1]["biconnected"], rows[1]["splits_over_Z"]) == (38, 10, 28)

    # independent recount, bit for bit
    for row, n in zip(rows, (3, 4)):
        connected = biconnected = splits = 0
        for g in labeled_graphs(n):
            if _component_count(g.vertices, g.edges) != 1:
                continue
            connected += 1
            if removal_oracle_biconnected(g):
                biconnected += 1
            else:
                splits += 1
        assert (connected, biconnected, splits) == (
            row["connected"],
            row["biconnected"],
            row["splits_over_Z"],
        )
    criterion(8, "census rows for n=3 and n=4 match the removal-oracle recount exactly")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
