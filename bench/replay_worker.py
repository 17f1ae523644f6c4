"""Child process of a traced CLI-workload run: one replay job.

Usage: ``replay_worker.py JOB SPANS_PATH`` with ``src`` on PYTHONPATH.  JOB
is a JSON object ``{"op": id, "cmd": command, "path": file}``.  For a
``raag`` command the job makes that command's library calls on the file
(``pipeline.cli_op``); for ``build`` it builds the graph with
``SimplicialGraph.from_edges``, a probe that gets a process of its own so
that it pays the same first-time name validation ``parse_graph`` pays.  The
calls run in spans under one op span, written to SPANS_PATH as JSON lines.
A fresh process per job starts as each ``raag`` process does, and keeps the
benchmark's own heap out of the numbers.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

from pipeline import COUNTERS, cli_op
from raagsplit import SimplicialGraph
from spans import Tracer


def main(job: dict, spans_path: str) -> None:
    tracer = Tracer(COUNTERS)
    text = Path(job["path"]).read_text(encoding="utf-8")
    with tracer.op(f"replay.{job['cmd']}", job["op"]):
        try:
            if job["cmd"] == "build":
                edges = [tuple(line.split()) for line in text.splitlines()]
                tracer.probe("graphs.SimplicialGraph", SimplicialGraph.from_edges, edges)
            else:
                cli_op(job["cmd"], text, tracer)
        except Exception:  # the span holds the error
            traceback.print_exc()
    tracer.dump(spans_path)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]), sys.argv[2])
