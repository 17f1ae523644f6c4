"""Run every workload over seeds 1-10 and record the baseline.

    python3 bench/baseline.py

For each workload it makes one untraced run per seed and one traced run (the
first seed), all with ``run_seconds`` from BENCHMARK.json, and rewrites
``bench/baseline.json`` whole.  Each metric gets its median, quartiles and
spread: the distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.  Times get these figures
twice: at reference speed, as reported, and in plain wall seconds, so the
two spreads can be compared.  The file also records the machine, the Python
version and the commit measured.  It prints one line per metric, so that
the spreads can be checked against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = range(1, 11)
OUT = ROOT / "bench" / "baseline.json"


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}" / "report.json").read_text())
    return {"result": result, "report": report}


def summary(values: list, unit: str) -> dict:
    numbers = [v for v in values if isinstance(v, (int, float))]
    if len(numbers) < len(values):
        return {"unit": unit, "values": sorted(set(map(str, values)))}  # some run read "unmet" or "n/a"
    q1, med, q3 = statistics.quantiles(numbers, n=4) if len(numbers) > 1 else (numbers[0],) * 3
    return {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "runs": len(numbers)}


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                      if ln.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine(),
            "cpu": model, "system": platform.system()}


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {"machine": machine(), "commit": commit(), "run_seconds": SPEC["run_seconds"], "seeds": list(SEEDS),
           "workloads": {}}
    for spec in SPEC["workloads"]:
        workload = spec["name"]
        runs = [run_once(workload, seed, 0) for seed in SEEDS]
        printed = {
            name: summary([r["report"]["metrics"][name]["value"] for r in runs], first["unit"])
            for name, first in runs[0]["report"]["metrics"].items()
        }
        wall = {name: summary([r["report"]["wall"].get(name, "unmet") for r in runs], printed[name]["unit"])
                for name in runs[0]["report"]["wall"]}
        traced = run_once(workload, SEEDS[0], 1)
        out["workloads"][workload] = {
            "end_to_end": printed,
            "end_to_end_wall": wall,
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "correct": all(r["result"]["correct"] for r in runs),
            "failures_by_reason": runs[0]["report"]["tally"]["by_reason"],
            "per_layer": {name: m["value"] for name, m in traced["report"]["metrics"].items()},
        }
        for name, stats in printed.items():
            if "values" in stats:
                print(f"{workload:12s} {name:28s} {'/'.join(stats['values'])} {stats['unit']}")
                continue
            spread, bound = stats["spread"], bounds.get(name)
            line = f"{workload:12s} {name:28s} median {stats['median']:.6g} {stats['unit']}"
            if spread is not None:
                line += f"  spread {spread:.3f}"
                if wall.get(name, {}).get("spread") is not None:
                    line += f" (wall {wall[name]['spread']:.3f})"
                if bound is not None:
                    line += f"  bound {bound}: {'ok' if spread <= bound / 3 else 'wide'}"
            print(line, flush=True)
    OUT.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
