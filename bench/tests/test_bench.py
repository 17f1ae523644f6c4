"""Tests of the benchmark itself: generators, oracle, percentiles, spans.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import gen
import oracle
import run
import sweep_worker
from spans import Tracer, count_means, layer_table, self_times
from stats import FAILED, Tally, fail_ratio, per_input, percentile


# ------------------------------------------------------------ generator


@pytest.mark.parametrize("workload", sorted(gen.WORKLOAD_FAMILIES))
def test_round_graphs_are_deterministic(workload):
    first = gen.round_graphs(workload, seed=7, rnd=3)
    again = gen.round_graphs(workload, seed=7, rnd=3)
    assert [gen.edge_list_text(e) for _, e in first] == [gen.edge_list_text(e) for _, e in again]
    other = gen.round_graphs(workload, seed=8, rnd=3)
    assert [gen.edge_list_text(e) for _, e in first] != [gen.edge_list_text(e) for _, e in other]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOAD_FAMILIES))
def test_families_have_the_stated_shape(workload):
    for family, edges in gen.round_graphs(workload, seed=1, rnd=0):
        g = oracle.Graph(edges)
        facts = oracle.networkx_facts(g)
        _, size = gen.WORKLOAD_FAMILIES[workload][family]
        assert len(g.adj) == size and g.is_connected()
        if workload == "biconnected":
            assert len(facts.blocks) == 1
            assert max(len(ns) for ns in g.adj.values()) <= 4
        else:
            assert len(facts.blocks) >= size // 4


def test_sweep_masks_are_deterministic_and_connected():
    take = lambda seed: [m for m, _ in zip(gen.sweep_masks(seed), range(200))]
    assert take(3) == take(3) != take(4)
    for mask in take(3):
        g = oracle.Graph(gen.mask_edges(mask), gen.SWEEP_NAMES)
        assert g.is_connected()


# --------------------------------------------------------------- oracle


TRIANGLE = oracle.Graph([("a", "b"), ("b", "c"), ("a", "c")])


def test_oracle_rejects_the_planted_triangle_amalgam():
    witness = {"kind": "amalgam", "side1": ["a", "b"], "side2": ["b", "c"], "vertex": "b"}
    assert oracle.check_amalgam(TRIANGLE, witness) is not None


def test_oracle_accepts_a_sound_amalgam():
    path = oracle.Graph([("a", "b"), ("b", "c")])
    witness = {"kind": "amalgam", "side1": ["a", "b"], "side2": ["b", "c"], "vertex": "b"}
    assert oracle.check_amalgam(path, witness) is None


def test_oracle_rejects_an_empty_cover_of_an_edge_and_an_isolated_vertex():
    g = oracle.Graph([("a", "b")], isolated=["c"])
    assert oracle.check_cover(g, {"kind": "cover", "cover": []}) is not None


def test_oracle_cover_checks():
    square = oracle.Graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    entries = [
        {"segment": list(seg), "delta": ["a", "b", "c", "d"], "cycle": [seg[1], seg[0], *sorted(set("abcd") - set(seg)), seg[2]]}
        for seg in sorted(square.segments())
    ]
    assert oracle.check_cover(square, {"kind": "cover", "cover": entries}) is None
    assert oracle.check_cover(square, {"kind": "cover", "cover": entries[1:]}) is not None
    broken = json.loads(json.dumps(entries))
    broken[0]["cycle"] = ["a", "c", "b", "d"]
    assert oracle.check_cover(square, {"kind": "cover", "cover": broken}) is not None


def test_oracle_check_lines():
    assert oracle.check_check(3, "reduced pass\neuler pass\ncoverage pass\nabelianization pass rank=3 torsion=[]\n") is None
    assert oracle.check_check(3, "reduced pass\neuler fail\ncoverage pass\nabelianization pass rank=3 torsion=[]\n")
    assert oracle.check_check(3, "")


def test_oracle_agrees_with_the_library_on_sweep_graphs():
    from pipeline import sweep_graph
    from spans import Untraced

    for mask in [m for m, _ in zip(gen.sweep_masks(11), range(150))]:
        edges = gen.mask_edges(mask)
        out, _ = sweep_graph(gen.SWEEP_NAMES, edges, gen.edge_list_text(edges), Untraced)
        assert oracle.check_sweep_graph(oracle.Graph(edges, gen.SWEEP_NAMES), out) is None


def test_oracle_jsj_facts_agree_between_networkx_and_removal():
    for mask in [m for m, _ in zip(gen.sweep_masks(5), range(150))]:
        g = oracle.Graph(gen.mask_edges(mask), gen.SWEEP_NAMES)
        nx_facts = oracle.networkx_facts(g)
        biconnected, facts = oracle.removal_facts(g)
        assert (facts.degree, facts.block_count) == (nx_facts.degree, nx_facts.block_count)
        assert biconnected == (len(nx_facts.blocks) == 1)


def test_oracle_rejects_a_tampered_decomposition():
    from raagsplit import jsj, parse_graph
    from raagsplit.serialize import gog_to_dict

    edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e"), ("d", "f"), ("e", "f"), ("f", "g")]
    g = oracle.Graph(edges)
    facts = oracle.networkx_facts(g)
    payload = gog_to_dict(jsj(parse_graph(gen.edge_list_text(edges))))
    assert oracle.check_jsj(g, payload, facts) is None
    dropped = dict(payload, edges=payload["edges"][:-1])
    assert oracle.check_jsj(g, dropped, facts) is not None
    relabeled = json.loads(json.dumps(payload))
    relabeled["vertices"][0]["group"]["vertices"] = ["a", "b"]
    assert oracle.check_jsj(g, relabeled, facts) is not None


# ---------------------------------------------------------- percentiles


def test_percentile_interpolates_linearly():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 90) == pytest.approx(4.6)
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 100) == 5.0
    assert percentile([], 50) is None


def test_failures_rank_above_every_success():
    samples = [0.1, FAILED, 0.3, 0.2]
    assert percentile(samples, 50) == pytest.approx(0.25)
    assert percentile(samples, 200 / 3) == pytest.approx(0.3)
    assert percentile(samples, 90) is None  # needs the failure's time: unmet
    assert percentile([FAILED] * 3, 50) is None


def test_per_input_medians():
    assert per_input([[0.3, 0.1, 0.2], [0.4, FAILED], [FAILED, FAILED, 0.5], [0.7]]) == [0.2, None, None, 0.7]


def test_tally_and_fail_ratio():
    tally = Tally()
    tally.record("split", None)
    tally.record("check", "exit 4: capped")
    tally.record("check", "exit 4: capped")
    tally.record("jsj", "oracle: wrong", wrong=True)
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 3, 1)
    assert tally.as_dict()["fail_ratio"] == 0.75
    assert tally.as_dict()["by_reason"] == {"check: exit 4: capped": 2, "jsj: oracle: wrong": 1}
    assert fail_ratio(8, 0) == 0.0
    with pytest.raises(ValueError):
        fail_ratio(0, 0)


def test_the_number_of_ops_depends_only_on_seconds():
    # So two sets of runs attempt the same ops, however fast the machine is.
    assert [run.passes("cut-heavy", s) for s in (1, 30, 60)] == [1, 5, 10]
    assert run.passes("biconnected", 30) == 5
    assert sweep_worker.graph_count(30, trace=False) == 24000
    assert sweep_worker.graph_count(30, trace=True) == sweep_worker.TRACE_MAX_GRAPHS


# ---------------------------------------------------------------- spans


def _span(i, start, end, parent=None, name="x", off_path=False):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": "o",
            "counts": {}, "error": None, "off_path": off_path}


def test_self_time_subtracts_covered_child_intervals():
    spans = [_span(0, 0, 100), _span(1, 10, 40, 0), _span(2, 30, 60, 0), _span(3, 90, 120, 0)]
    assert self_times(spans) == {0: 100 - 50 - 10, 1: 30, 2: 30, 3: 30}


def test_tracer_records_calls_errors_and_counts():
    tracer = Tracer({"m.f": lambda r: {"m.size": len(r)}})
    with tracer.op("op.x", "op1"):
        tracer.call("m.f", list, "abc")
        tracer.probe("m.f", list, "ab")
        with pytest.raises(ZeroDivisionError):
            tracer.call("m.g", lambda: 1 / 0)
    root, call, probe, failed = tracer.spans
    assert root["parent"] is None and call["parent"] == probe["parent"] == root["id"]
    assert {s["op"] for s in tracer.spans} == {"op1"}
    assert (call["off_path"], probe["off_path"]) == (False, True)
    assert failed["error"] == "ZeroDivisionError"
    table = layer_table(tracer.spans)
    assert table["m.f"]["calls"] == 2 and table["m.g"]["errors"] == 1
    assert count_means(tracer.spans) == {"m.size": 2.5}


def test_cli_overhead_subtracts_the_replay_of_the_same_graph_and_command():
    def span(i, name, op, seconds, parent=0, off_path=False):
        return {**_span(i, 0, int(seconds * 1e9), parent, name, off_path), "op": op}

    spans = [
        span(0, "cli.split", "0-k4-chain-split-0", 1.0, parent=None),
        span(1, "cli.split", "0-k4-chain-split-1", 0.8, parent=None),
        span(2, "splitting.splits_over_z", "0-k4-chain-split", 0.3),
        span(3, "blocks.is_biconnected", "0-k4-chain-split", 0.2, off_path=True),
        span(4, "graphs.parse_graph", "0-k4-chain-jsj", 0.4),
    ]
    overhead = run.cli_overhead(spans, setup_s=0.1)
    assert overhead["split"] == pytest.approx([0.6, 0.4])
    assert overhead["jsj"] == []


# ---------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [f"{n}.s" for n in run.LAYER_TIMES] + list(run.LAYER_COUNTS) + ["presentations.check_euler.failed"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
