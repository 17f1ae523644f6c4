"""The library leaves no reference cycles, and only the ``raag`` process turns the cyclic collector off.

``raag`` runs with ``gc.disable()``, so a call that left a cycle behind would
hold its memory until the process ends.  Each check calls a function once to
warm it up (a first import leaves garbage of its own), then once more with
the collector off, and asks ``gc.collect()`` how many unreachable objects
that call left.
"""

import gc
from functools import lru_cache

import pytest

import raagsplit.cli as cli
from raagsplit import (
    abelianization,
    amalgam_defects,
    build_j0,
    check_coverage,
    check_euler,
    clique_counts,
    collapse_to_j,
    cover_defects,
    emit_presentation,
    is_reduced,
    jsj,
    parse_graph,
    splits_over_z,
)
from raagsplit.cli import census_rows, labeled_graphs, main
from raagsplit.serialize import (
    _gog_json,
    _payload_json,
    gog_to_dict,
    gog_to_dot,
    report_to_dict,
    witness_to_dict,
)

from conftest import scale_graph

GRAPHS = {"cut-heavy": ("cactus", 300), "biconnected": ("grid", 100)}

# each function and the inputs it is called on, by name
CALLS = {
    "parse_graph": (parse_graph, "text"),
    "splits_over_z": (splits_over_z, "g"),
    "cover_defects": (cover_defects, "g", "cover"),
    "amalgam_defects": (amalgam_defects, "g", "amalgam"),
    "build_j0": (build_j0, "g"),
    "jsj": (jsj, "g"),
    "collapse_to_j": (collapse_to_j, "j0"),
    "report_to_dict": (report_to_dict, "report"),
    "witness_to_dict": (witness_to_dict, "witness"),
    "_payload_json": (lambda fields: "".join(_payload_json(fields)), "fields"),  # every chunk
    "gog_to_dict": (gog_to_dict, "j"),
    "_gog_json": (lambda j: "".join(_gog_json(j)), "j"),  # every chunk
    "gog_to_dot": (gog_to_dot, "j"),
    "emit_presentation": (emit_presentation, "j"),
    "abelianization": (abelianization, "presentation"),
    "is_reduced": (is_reduced, "j"),
    "check_euler": (check_euler, "g", "j"),
    "check_coverage": (check_coverage, "g", "j"),
    "clique_counts": (clique_counts, "g"),
}


@lru_cache(maxsize=None)
def inputs(kind: str) -> dict:
    g = scale_graph(*GRAPHS[kind], 1)
    report = splits_over_z(g)
    j = jsj(g)
    return {
        "g": g,
        # each verifier checks the witness of each graph, so it rejects one of them
        "amalgam": splits_over_z(scale_graph(*GRAPHS["cut-heavy"], 1)).witness,
        "cover": splits_over_z(scale_graph(*GRAPHS["biconnected"], 1)).witness,
        "text": "".join(f"{u} {v}\n" for u, v in g.edges),
        "report": report,
        "witness": report.witness,
        "fields": report._asdict(),
        "j0": build_j0(g),
        "j": j,
        "presentation": emit_presentation(j),
    }


def garbage_left_by(call) -> int:
    call()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("kind", GRAPHS)
@pytest.mark.parametrize("name", CALLS)
def test_no_reference_cycle(name, kind):
    function, *keys = CALLS[name]
    args = [inputs(kind)[key] for key in keys]
    assert garbage_left_by(lambda: function(*args)) == 0


def test_census_rows_leave_no_reference_cycle():
    assert garbage_left_by(lambda: census_rows({5: labeled_graphs(5)})) == 0


class TestPolicy:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_gc_state_alone(self, tmp_path, capsys, enabled):
        graph = tmp_path / "path.txt"
        graph.write_text("a b\nb c\nc d\n")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv in (["check", str(graph)], ["jsj", str(graph)], ["split", str(graph)]):
                assert main(argv) == 0
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_entry_disables_gc_before_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
        with pytest.raises(SystemExit) as exit_info:
            cli.entry()
        assert (exit_info.value.code, calls) == (0, ["disable", "main"])
