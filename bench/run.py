"""raagsplit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {cut-heavy,biconnected,small-sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is run from ``src``
as it stands, nothing is installed.  Inputs come from ``gen`` and the seed
only.  Every output is checked by ``oracle`` outside the timed region.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The lines before it print every
metric by name and unit, including the ones that cannot go into that object
(a percentile that lands on a failed op reads ``unmet``).  Inputs, spans and
the full report go to ``.bench_out/`` in the checkout.

cut-heavy and biconnected run each generated graph through ``raag split``,
``raag witness``, ``raag jsj`` and ``raag check``, each in a fresh process,
one at a time.  small-sweep runs seven-vertex graphs through the library in
one child process.  See ``bench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calib
import gen
import oracle
from gen import COMMANDS
from spans import Tracer, count_means, layer_table
from stats import FAILED, Tally, fail_ratio, per_input, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cut-heavy", "biconnected", "small-sweep")
LAYERS = ("graphs", "blocks", "splitting", "jsj", "presentations", "serialize")
SETUP_RUNS = 7
LOOP_LIMIT_S = 75  # no op starts later than this into the measuring loop
# Graphs per family.  check fails on every graph of these workloads today,
# and on cut-heavy it costs more than all the other runs of a graph
# together, so it runs once per graph and cut-heavy has one graph per family.
COPIES = {"cut-heavy": 1, "biconnected": 2}
# Passes of split, witness and jsj over every graph: one per PASS_S seconds
# of --seconds, whatever the speed of the machine or the program, so the
# seed and --seconds alone fix the ops of a run.  On the machine the
# benchmark was written on a pass takes about 6 s on cut-heavy (check
# included) and 9 s on biconnected, whose runs so outlast --seconds: fewer
# repeats leave its per-graph medians too noisy.
PASS_S = 6.0
OP_TIMEOUT_S = 120
SWEEP_TIMEOUT_S = 170
REPLAY_TIMEOUT_S = 60

# Reported in the final JSON line, on every workload.
END_TO_END = (
    "setup_s",
    "split_s.p50", "split_s.p90",
    "witness_s.p50", "witness_s.p90",
    "jsj_s.p50", "jsj_s.p90",
    "peak_rss_mb",
)
# Library calls made on every workload; mean self time per call (s).
LAYER_TIMES = (
    "graphs.parse_graph", "graphs.SimplicialGraph", "graphs.connected_components",
    "blocks.is_biconnected", "blocks.block_tree",
    "splitting.splits_over_z",
    "jsj.build_j0", "jsj.collapse_to_j", "jsj.is_reduced",
    "presentations.emit_presentation", "presentations.abelianization", "presentations.check_euler",
    "serialize.report_json", "serialize.gog_json", "serialize.gog_dot",
)
# Calls some workload never makes: printed, not in the JSON line.
LAYER_TIMES_PRINTED = (
    "splitting.z_split_witness", "splitting.nonsplit_cover", "splitting.verify_cover",
    "presentations.check_coverage",
)
LAYER_COUNTS = (
    "graphs.n", "graphs.m", "blocks.blocks", "blocks.cut_vertices", "splitting.segments",
    "jsj.gog_vertices", "jsj.gog_edges", "presentations.generators", "presentations.relators",
    "serialize.bytes",
)
NOTES = {
    "graphs.SimplicialGraph": "probe on the CLI workloads, in a process of its own (parse_graph builds it inside)",
    "graphs.parse_graph": "probe on small-sweep, on the graph's edge-list text",
    "graphs.connected_components": "probe inside splits_over_z; small-sweep also calls it on the path",
    "blocks.is_biconnected": "probe; splits_over_z runs it inside, and nonsplit_cover runs it again",
    "blocks.block_tree": "probe; build_j0 runs it inside, so jsj.build_j0.s includes one block_tree",
    "splitting.splits_over_z": "includes connected_components, is_biconnected and one witness constructor;"
    " a non-biconnected graph gets two lowpoint scans (is_biconnected, then cut_vertices)",
    "splitting.z_split_witness": "probe; runs cut_vertices, its own lowpoint scan",
    "splitting.nonsplit_cover": "probe; runs is_biconnected again inside",
    "splitting.verify_cover": "witness re-check of a cover; amalgams use a private CLI helper",
    "presentations.check_euler": "raises CapacityError above 64 vertices",
    "serialize.gog_dot": "probe: the jsj op writes JSON; this is what --format=dot would add",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], timeout: float) -> tuple[float, int | None, str, str]:
    """Wall time, exit code (None on timeout), stdout and stderr of one process."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return perf_counter() - start, None, "", "timeout"
    return perf_counter() - start, proc.returncode, out.decode(), err.decode()


def raag(*args: str) -> list[str]:
    return [sys.executable, "-m", "raagsplit.cli", *args]


class RefClock:
    """Times subprocess ops at reference speed (see ``calib``).

    A reference run taken less than REUSE_S ago serves as the next op's
    "before" run.
    """

    REUSE_S = 0.5

    def __init__(self) -> None:
        self.last: tuple[float, float] | None = None  # (taken at, seconds)

    def _ref(self) -> float:
        dt, rc, _, err = run_child([sys.executable, "-c", calib.SUBPROCESS_CODE], OP_TIMEOUT_S)
        if rc != 0:
            raise SystemExit(f"error: reference run failed (exit {rc}): {err.strip()[-200:]}")
        self.last = (perf_counter(), dt)
        return dt

    def run(self, argv: list[str], runner=run_child, timeout: float = OP_TIMEOUT_S):
        """(seconds at reference speed, wall seconds, exit code, stdout, stderr)."""
        fresh = self.last is not None and perf_counter() - self.last[0] < self.REUSE_S
        before = self.last[1] if fresh else self._ref()
        dt, rc, out, err = runner(argv, timeout)
        return calib.scale(dt, before, self._ref(), calib.SUBPROCESS_NOMINAL_S), dt, rc, out, err


def measure_setup(clock: RefClock) -> tuple[float, float]:
    """Median time of ``raag --help`` in a fresh process, at reference speed and raw.

    One untimed warm-up run first, so byte-compiling the sources is not counted.
    """
    scaled, raw = [], []
    for i in range(SETUP_RUNS + 1):
        at_ref, dt, rc, out, err = clock.run(raag("--help"))
        if rc != 0 or "usage: raag" not in out:
            raise SystemExit(f"error: raag --help failed (exit {rc}): {err.strip()[:200]}")
        if i:
            scaled.append(at_ref)
            raw.append(dt)
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def first_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[0] if lines else ""


# --------------------------------------------------------- CLI workloads


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S))


def run_cli_workload(workload: str, seed: int, seconds: float, clock: RefClock, tracer, out_dir: Path) -> dict:
    """A fixed set of graphs, each through the four commands.

    The seed alone fixes the graphs: COPIES[workload] graphs of every family,
    however fast the program runs, so each percentile is taken over the same
    family mix.  ``check`` runs once per graph.  ``split``, ``witness`` and
    ``jsj`` run in ``passes(workload, seconds)`` passes over every graph,
    a number that does not depend on how fast the program runs.  A graph's
    time for a command is the median of its runs.  The runs of a pass
    interleave, so each graph's samples spread over the run rather than
    sharing one few-second stretch of machine speed.  No op starts after
    LOOP_LIMIT_S, which keeps a run of a much slower program inside the time
    a run may take; an op left unstarted counts as failed.  With a tracer,
    each invocation is a ``cli.<cmd>`` span under an ``op.<cmd>`` span, and
    each graph and command is one replay job.
    """
    graphs = []
    for copy in range(COPIES[workload]):
        for family, edges in gen.round_graphs(workload, seed, copy):
            path = out_dir / f"{len(graphs)}-{family}.txt"
            path.write_text(gen.edge_list_text(edges), encoding="utf-8")
            g = oracle.Graph(edges)
            facts = oracle.networkx_facts(g)
            graphs.append((f"{len(graphs)}-{family}", path, g, facts, g.is_connected() and len(facts.blocks) == 1))
    samples: dict[str, list] = {cmd: [[] for _ in graphs] for cmd in COMMANDS}  # repeats per graph
    raw: dict[str, list] = {cmd: [[] for _ in graphs] for cmd in COMMANDS}
    tally = Tally()
    jobs = []
    if tracer is not None:
        for graph_id, path, *_ in graphs:
            jobs.append({"op": f"{graph_id}-build", "cmd": "build", "path": str(path)})
            jobs.extend({"op": f"{graph_id}-{cmd}", "cmd": cmd, "path": str(path)} for cmd in COMMANDS)
    ops = []
    start = perf_counter()
    for rep in range(passes(workload, seconds)):
        for i, (graph_id, path, g, facts, biconnected) in enumerate(graphs):
            for cmd in COMMANDS:
                if cmd == "check" and rep:
                    continue
                op_id = f"{graph_id}-{cmd}-{rep}"
                left = LOOP_LIMIT_S - (perf_counter() - start)
                if left <= 0:
                    failure = f"not started: past the {LOOP_LIMIT_S} s loop limit"
                    tally.record(cmd, failure)
                    samples[cmd][i].append(FAILED)
                    raw[cmd][i].append(FAILED)
                    ops.append({"op": op_id, "s": None, "raw_s": None, "failure": failure})
                    continue
                argv = raag(cmd, str(path))
                if tracer is None:
                    at_ref, dt, rc, out, err = clock.run(argv, timeout=left)
                else:
                    with tracer.op(f"op.{cmd}", op_id):
                        at_ref, dt, rc, out, err = clock.run(
                            argv, lambda *a: tracer.call(f"cli.{cmd}", run_child, *a), left
                        )
                if rc == 0:
                    reason = oracle.check_cli_output(cmd, g, biconnected, facts, out)
                    failure = None if reason is None else f"oracle: {reason}"
                else:
                    failure = f"exit {rc}: {first_line(err)}"
                tally.record(cmd, failure, wrong=rc == 0 and failure is not None)
                samples[cmd][i].append(at_ref if failure is None else FAILED)
                raw[cmd][i].append(dt if failure is None else FAILED)
                ops.append({"op": op_id, "s": at_ref, "raw_s": dt, "failure": failure})
    return {
        "samples": {cmd: per_input(groups) for cmd, groups in samples.items()},
        "raw": {cmd: per_input(groups) for cmd, groups in raw.items()},
        "tally": tally, "passes": passes(workload, seconds), "jobs": jobs, "ops": ops,
    }


def replay(tracer, jobs: list[dict], out_dir: Path) -> list[dict]:
    """Re-run each job's library calls in a fresh traced process; merge the spans.

    A fresh process per job pays what each ``raag`` process pays, such as
    the first validation of every vertex name.
    """
    spans = list(tracer.spans)
    worker = str(Path(__file__).parent / "replay_worker.py")
    for job in jobs:
        spans_path = out_dir / f"replay-{job['op']}.jsonl"
        dt, rc, out, err = run_child([sys.executable, worker, json.dumps(job), str(spans_path)], REPLAY_TIMEOUT_S)
        if rc != 0:
            raise SystemExit(f"error: replay of {job['op']} failed (exit {rc}): {err.strip()[-400:]}")
        base = len(spans)
        with open(spans_path, encoding="utf-8") as handle:
            for line in handle:
                span = json.loads(line)
                span["id"] += base
                if span["parent"] is not None:
                    span["parent"] += base
                spans.append(span)
    return spans


def cli_overhead(spans: list[dict], setup_s: float) -> dict[str, list[float]]:
    """Per command: subprocess wall time minus setup_s minus the replayed library spans.

    An invocation ``<graph>-<cmd>-<rep>`` is matched with the replay job
    ``<graph>-<cmd>``, which ran in another process at another moment, so
    this is an estimate and can come out below zero.
    """
    cli: list[tuple[str, str, float]] = []
    lib: dict[str, float] = {}
    for s in spans:
        seconds = (s["end"] - s["start"]) / 1e9
        if s["name"].startswith("cli."):
            cli.append((s["name"][4:], s["op"].rsplit("-", 1)[0], seconds))
        elif s["parent"] is not None and not s["off_path"] and s["name"].split(".")[0] in LAYERS:
            lib[s["op"]] = lib.get(s["op"], 0.0) + seconds
    out: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}
    for cmd, job, seconds in cli:
        out[cmd].append(seconds - setup_s - lib.get(job, 0.0))
    return out


# ------------------------------------------------------------ small sweep


def run_sweep(seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    argv = [sys.executable, str(Path(__file__).parent / "sweep_worker.py"), str(seed), str(seconds),
            "1" if trace else "0", str(out_dir)]
    dt, rc, out, err = run_child(argv, SWEEP_TIMEOUT_S)
    if rc != 0:
        raise SystemExit(f"error: sweep worker failed (exit {rc}): {err.strip()[-400:]}")
    res = json.loads(out)
    res["tally"] = Tally.from_dict(res["tally"])
    samples: dict[str, list] = {name: [] for name in res["columns"]}
    raw: dict[str, list] = {name: [] for name in res["columns"]}
    with open(out_dir / "samples.txt", encoding="utf-8") as handle:
        for line in handle:
            values = [FAILED] * 2 * len(samples) if line.strip() == "-" else map(float, line.split())
            for column, value in zip([*samples.values(), *raw.values()], values):
                column.append(value)
    res["samples"], res["raw"] = samples, raw
    if trace:
        with open(out_dir / "spans.jsonl", encoding="utf-8") as handle:
            res["spans"] = [json.loads(line) for line in handle]
    return res


# ---------------------------------------------------------------- report


def end_to_end(workload: str, res: dict, setup: tuple[float, float]) -> tuple[dict, dict, dict]:
    """(JSON metrics, printed metrics, wall-time figures).

    Printed values may be "unmet" or "n/a".  Times are at reference speed
    (``calib``); the wall-time figures are the same metrics in plain wall
    seconds, printed as ``raw``.
    """
    printed: dict[str, tuple] = {"setup_s": (setup[0], "s")}
    wall: dict[str, float] = {"setup_s": setup[1]}
    samples = res["samples"]
    for cmd in COMMANDS:
        n = len(samples[cmd])  # graphs on the CLI workloads, each the median of its repeats
        for p in (50, 90):
            name = f"{cmd}_s.p{p}"
            value = percentile(samples[cmd], p)
            printed[name] = ("unmet" if value is None else value, "s", f"n={n}")
            if value is not None:
                wall[name] = percentile(res["raw"][cmd], p)
    tally = res["tally"]
    printed["fail_ratio"] = (fail_ratio(tally.attempted, tally.failed), "ratio", f"{tally.failed}/{tally.attempted} failed")
    if workload == "small-sweep":
        ok = [s for s in samples["graph"] if s is not FAILED]
        printed["sweep_graphs_per_s"] = (len(ok) / sum(ok) if ok else "unmet", "1/s", f"{len(ok)} graphs")
        if ok:
            wall["sweep_graphs_per_s"] = len(ok) / sum(s for s in res["raw"]["graph"] if s is not FAILED)
        for p in (50, 90):
            printed[f"graph_s.p{p}"] = (percentile(samples["graph"], p) or "unmet", "s")
    else:
        printed["sweep_graphs_per_s"] = ("n/a", "1/s", "small-sweep only")
    printed["peak_rss_mb"] = (peak_rss_mb(), "MB")
    for name, value in wall.items():
        printed[name] += (f"raw {value:.6g}",)
    metrics = {
        name: {"value": printed[name][0], "unit": printed[name][1]}
        for name in END_TO_END
        if not isinstance(printed[name][0], str)
    }
    return metrics, printed, wall


def per_layer(workload: str, spans: list[dict], setup_s: float, res: dict) -> tuple[dict, dict]:
    table = layer_table(spans)
    counts = count_means(spans)
    printed: dict[str, tuple] = {}
    for name in (*LAYER_TIMES, *LAYER_TIMES_PRINTED):
        row = table.get(name)
        note = NOTES.get(name, "")
        if row is None:
            printed[f"{name}.s"] = ("not called on this workload", "s")
        else:
            printed[f"{name}.s"] = (row["self_s"], "s", f"calls={row['calls']}", note)
    for name in LAYER_COUNTS:
        printed[name] = (counts.get(name, 0.0), "count", "mean per call")
    euler = table.get("presentations.check_euler")
    if euler is not None:
        printed["presentations.check_euler.failed"] = (euler["errors"] / euler["calls"], "count", "share of calls that raised")
    if workload == "small-sweep":
        printed["cli.overhead_s"] = ("n/a", "s", "no CLI on small-sweep")
        tr = res["trace"]
        printed["trace.overhead_s_per_graph"] = (tr["overhead_s_per_graph"], "s", f"untraced {tr['untraced_s_per_graph']:.6g} s/graph")
        printed["trace.overhead_s_per_span"] = (tr["overhead_s_per_span"], "s")
    else:
        per_cmd = cli_overhead(spans, setup_s)
        every = [x for xs in per_cmd.values() for x in xs]
        printed["cli.overhead_s"] = (statistics.mean(every), "s", "subprocess - setup_s - library spans, mean per op")
        for cmd, xs in per_cmd.items():
            printed[f"cli.overhead_s.{cmd}"] = (statistics.mean(xs), "s")
        printed["trace.overhead_s_per_span"] = ("n/a", "s", "measured on small-sweep, which runs the same in-process path")
    keys = [f"{name}.s" for name in LAYER_TIMES] + list(LAYER_COUNTS) + ["presentations.check_euler.failed"]
    metrics = {
        key: {"value": printed[key][0], "unit": printed[key][1]}
        for key in keys
        if key in printed and not isinstance(printed[key][0], str)
    }
    return metrics, printed


def print_metrics(printed: dict) -> None:
    for name, (value, unit, *extra) in printed.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:40s} {shown:>14s} {unit:6s} {' '.join(x for x in extra if x)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "raagsplit" / "cli.py").is_file():
        print(f"error: no raagsplit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    clock = RefClock()
    setup = measure_setup(clock)
    tracer = Tracer({}) if args.trace and args.workload != "small-sweep" else None
    if args.workload == "small-sweep":
        res = run_sweep(args.seed, args.seconds, bool(args.trace), out_dir)
    else:
        res = run_cli_workload(args.workload, args.seed, args.seconds, clock, tracer, out_dir)
    tally: Tally = res["tally"]
    if args.trace:
        if args.workload == "small-sweep":
            spans = res["spans"]
        else:
            spans = replay(tracer, res["jobs"], out_dir)
            with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as handle:
                handle.writelines(json.dumps(s) + "\n" for s in spans)
        metrics, printed = per_layer(args.workload, spans, setup[1], res)
        wall = {}
        title = "per-layer metrics (traced run)"
    else:
        metrics, printed, wall = end_to_end(args.workload, res, setup)
        title = "end-to-end metrics"
    print(f"workload {args.workload}  seed {args.seed}  {title}")
    print_metrics(printed)
    print(f"  failures by reason: {json.dumps(dict(sorted(tally.reasons.items())))}")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in printed.items()}, "wall": wall,
        "tally": tally.as_dict(),
        "passes": res.get("passes"), "ops": res.get("ops", []),
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
