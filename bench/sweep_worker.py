"""Child process of the small-sweep workload: one process, no pool.

Usage: ``sweep_worker.py SEED SECONDS TRACE OUT_DIR`` with ``src`` on
PYTHONPATH.  ``graph_count(SECONDS, TRACE)`` graphs are drawn from
``gen.sweep_masks(SEED)``: the count does not depend on how fast the program
runs.  Each graph runs through ``pipeline.sweep_graph``; the
oracle checks it after the clock stops.  Every REF_WINDOW_S the in-process
reference runs, and the graphs timed since the last one are put at reference
speed (see ``calib``) and appended to OUT_DIR/samples.txt, one line per
graph (``-`` for a failed one): the times of COLUMNS at reference speed,
then the same in wall seconds.  So this process's memory does not grow with
the number of graphs.  Prints one JSON object.

With TRACE=1 each graph runs twice, traced and untraced, alternating which
goes first, so tracing overhead is the difference of the two on the same
path; spans are written to OUT_DIR/spans.jsonl.  A traced run takes at most
TRACE_MAX_GRAPHS graphs, which is plenty for per-layer means and keeps the
span file small.  No graph starts after LIMIT_S, so a much slower program
still ends in time; the graphs left unstarted count as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import calib
import gen
import oracle
from pipeline import COUNTERS, sweep_graph
from spans import Tracer, Untraced
from stats import Tally

REF_WINDOW_S = 0.25
# Graphs per second of --seconds: about what one run got through on the
# machine the benchmark was written on, reference runs included.
GRAPHS_PER_S = 800
TRACE_MAX_GRAPHS = 2000
LIMIT_S = 140
COLUMNS = (*gen.COMMANDS, "graph")


def graph_count(seconds: float, trace: bool) -> int:
    count = max(1, round(seconds * GRAPHS_PER_S))
    return min(count, TRACE_MAX_GRAPHS) if trace else count


def main(seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    with open(out_dir / "samples.txt", "w", encoding="utf-8") as samples:
        return sweep(seed, seconds, trace, out_dir, samples)


def sweep(seed: int, seconds: float, trace: bool, out_dir: Path, samples) -> dict:
    tally = Tally()
    tracer = Tracer(COUNTERS)
    traced_ns = untraced_ns = 0
    masks = gen.sweep_masks(seed)
    window: list[dict | None] = []  # stage times of the graphs since the last reference
    ref = calib.in_process_ref()

    def flush() -> None:
        nonlocal window, ref
        after = calib.in_process_ref()
        for t in window:
            if t is None:
                samples.write("-\n")
                continue
            raw = [t[c] / 1e9 for c in COLUMNS]
            scaled = [calib.scale(x, ref, after, calib.IN_PROCESS_NOMINAL_S) for x in raw]
            samples.write(" ".join(map(repr, scaled + raw)) + "\n")
        window, ref = [], after

    window_end = perf_counter() + REF_WINDOW_S
    deadline = perf_counter() + LIMIT_S
    count = graph_count(seconds, trace)
    index = 0
    while index < count and perf_counter() < deadline:
        edges = gen.mask_edges(next(masks))
        text = gen.edge_list_text(edges)
        failure, wrong = None, False
        try:
            if trace:
                passes = ["traced", "untraced"] if index % 2 == 0 else ["untraced", "traced"]
                for mode in passes:
                    if mode == "untraced":
                        start = perf_counter_ns()
                        sweep_graph(gen.SWEEP_NAMES, edges, text, Untraced)
                        untraced_ns += perf_counter_ns() - start
                        continue
                    with tracer.op("sweep.graph", f"g{index}") as root:
                        out, times = sweep_graph(gen.SWEEP_NAMES, edges, text, tracer)
                    probes = sum(s["end"] - s["start"] for s in tracer.spans[root["id"] + 1:] if s["off_path"])
                    traced_ns += root["end"] - root["start"] - probes
            else:
                out, times = sweep_graph(gen.SWEEP_NAMES, edges, text, Untraced)
        except Exception as exc:  # any exception is a failed op, tallied by type
            failure = f"raised {type(exc).__name__}"
        if failure is None:
            failure = oracle.check_sweep_graph(oracle.Graph(edges, gen.SWEEP_NAMES), out)
            wrong = failure is not None
        tally.record("sweep", failure, wrong)
        window.append(None if failure else times)
        index += 1
        if perf_counter() >= window_end:
            flush()
            window_end = perf_counter() + REF_WINDOW_S
    flush()
    for _ in range(index, count):
        tally.record("sweep", f"not run: past the {LIMIT_S} s limit")
        samples.write("-\n")
    result = {"tally": tally.as_dict(), "columns": COLUMNS}
    if trace:
        tracer.dump(out_dir / "spans.jsonl")
        on_path = sum(1 for s in tracer.spans if s["parent"] is not None and not s["off_path"])
        result["trace"] = {
            "graphs": index,
            "overhead_s_per_graph": (traced_ns - untraced_ns) / 1e9 / index,
            "overhead_s_per_span": (traced_ns - untraced_ns) / 1e9 / on_path,
            "untraced_s_per_graph": untraced_ns / 1e9 / index,
        }
    return result


if __name__ == "__main__":
    seed, seconds, trace, out_dir = sys.argv[1:5]
    json.dump(main(int(seed), float(seconds), trace == "1", Path(out_dir)), sys.stdout)
