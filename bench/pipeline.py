"""In-process ops through the public ``raagsplit`` API.

``cli_op`` makes the calls ``raag <cmd>`` makes, so the traced run can split a
command's time into layers; ``sweep_graph`` is the full library pipeline the
small-sweep workload times.  ``ctx.call`` is a call on the op's path and
``ctx.probe`` re-runs, on the same input, a public function the op reaches
only inside another call (``splits_over_z`` runs ``connected_components``,
``is_biconnected`` and one witness constructor; ``build_j0`` runs
``block_tree``).  Probes run only when tracing.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

from raagsplit import (
    GraphError,
    NonSplitCover,
    SimplicialGraph,
    abelianization,
    block_tree,
    build_j0,
    check_coverage,
    check_euler,
    collapse_to_j,
    connected_components,
    emit_presentation,
    is_biconnected,
    is_reduced,
    nonsplit_cover,
    parse_graph,
    splits_over_z,
    verify_cover,
    z_split_witness,
)
from raagsplit.serialize import gog_to_dict, gog_to_dot, report_to_dict, witness_to_dict


def _graph_counts(g) -> dict[str, int]:
    return {"graphs.n": len(g.vertices), "graphs.m": len(g.edges)}


def _bytes(payload: str) -> dict[str, int]:
    return {"serialize.bytes": len(payload.encode())}


COUNTERS = {
    "graphs.parse_graph": _graph_counts,
    "graphs.SimplicialGraph": _graph_counts,
    "blocks.block_tree": lambda bt: {"blocks.blocks": len(bt.white), "blocks.cut_vertices": len(bt.black)},
    "splitting.splits_over_z": lambda r: {
        "splitting.segments": len(r.witness.entries) if isinstance(r.witness, NonSplitCover) else 0
    },
    "jsj.collapse_to_j": lambda gog: {"jsj.gog_vertices": len(gog.vertices), "jsj.gog_edges": len(gog.edges)},
    "presentations.emit_presentation": lambda p: {
        "presentations.generators": len(p.generators),
        "presentations.relators": len(p.relators),
    },
    "serialize.report_json": _bytes,
    "serialize.gog_json": _bytes,
    "serialize.gog_dot": _bytes,
}


def report_json(report) -> str:
    return json.dumps(report_to_dict(report))


def witness_json(report, verified: bool) -> str:
    return json.dumps({"z_split": report.z_split, "witness": witness_to_dict(report.witness), "verified": verified})


def gog_json(gog) -> str:
    return json.dumps(gog_to_dict(gog))


def _verdict(g, ctx):
    """``splits_over_z`` on the path, its inner calls as probes."""
    report = ctx.call("splitting.splits_over_z", splits_over_z, g)
    ctx.probe("graphs.connected_components", connected_components, g)
    if ctx.probe("blocks.is_biconnected", is_biconnected, g):
        ctx.probe("splitting.nonsplit_cover", nonsplit_cover, g)
    else:
        ctx.probe("splitting.z_split_witness", z_split_witness, g)
    return report


def _decompose(g, ctx):
    j0 = ctx.call("jsj.build_j0", build_j0, g)
    ctx.probe("blocks.block_tree", block_tree, g)
    return ctx.call("jsj.collapse_to_j", collapse_to_j, j0)


def _checks(g, j, ctx):
    """What ``raag check`` computes, in its order; ``None`` for a check never reached."""
    p = ctx.call("presentations.emit_presentation", emit_presentation, j)
    ab = ctx.call("presentations.abelianization", abelianization, p)
    reduced = ctx.call("jsj.is_reduced", is_reduced, j)
    try:
        euler = ctx.call("presentations.check_euler", check_euler, g, j)
    except GraphError:
        return reduced, None, None, ab
    return reduced, euler, ctx.call("presentations.check_coverage", check_coverage, g, j), ab


def cli_op(cmd: str, text: str, ctx) -> None:
    """The library calls behind ``raag <cmd>`` on one edge-list file."""
    g = ctx.call("graphs.parse_graph", parse_graph, text)
    if cmd in ("split", "witness"):
        report = _verdict(g, ctx)
        if cmd == "split":
            ctx.call("serialize.report_json", report_json, report)
            return
        # an amalgam is re-checked by a private CLI helper, which is not replayed
        cover = isinstance(report.witness, NonSplitCover)
        verified = ctx.call("splitting.verify_cover", verify_cover, g, report.witness) if cover else True
        ctx.call("serialize.report_json", witness_json, report, verified)
    elif cmd == "jsj":
        j = _decompose(g, ctx)
        ctx.call("serialize.gog_json", gog_json, j)
        ctx.probe("serialize.gog_dot", gog_to_dot, j)
    else:
        _checks(g, _decompose(g, ctx), ctx)


def sweep_graph(names, edges, text: str, ctx) -> tuple[dict, dict[str, int]]:
    """One seven-vertex graph through the whole pipeline.

    Returns the outputs for the oracle and the nanoseconds of the library
    calls behind each ``raag`` command (graph construction counts for all).
    """
    t0 = perf_counter_ns()
    g = ctx.call("graphs.SimplicialGraph", SimplicialGraph, names, edges)
    ctx.call("graphs.connected_components", connected_components, g)
    t1 = perf_counter_ns()
    report = _verdict(g, ctx)
    report_payload = ctx.call("serialize.report_json", report_json, report)
    t2 = perf_counter_ns()
    recheck = None
    if isinstance(report.witness, NonSplitCover):
        recheck = ctx.call("splitting.verify_cover", verify_cover, g, report.witness)
    t3 = perf_counter_ns()
    j = _decompose(g, ctx)
    gog_payload = ctx.call("serialize.gog_json", gog_json, j)
    t4 = perf_counter_ns()
    checks = _checks(g, j, ctx)
    t5 = perf_counter_ns()
    ctx.probe("graphs.parse_graph", parse_graph, text)
    ctx.probe("serialize.gog_dot", gog_to_dot, j)
    build = t1 - t0
    times = {
        "split": t2 - t0,
        "witness": t3 - t0,
        "jsj": build + t4 - t3,
        "check": build + t5 - t3,
        "graph": t5 - t0,
    }
    return {"report": report_payload, "recheck": recheck, "gog": gog_payload, "checks": checks}, times
