#!/usr/bin/env python3
"""Records or checks perfbench's simulated-clock trajectory.

Usage (from the repository root):

    python3 tools/perfbench_sim.py record   # rewrite PERFBENCH_sim.json
    python3 tools/perfbench_sim.py check    # exit 1 on any difference

Runs perfbench/run.py (Release build) on every workload at seed 1 for
--seconds 1, once with --trace 0 and once with --trace 1, and keeps only the
rows that are exact per seed: every simulated-clock metric, latency and
per-layer count, plus the attempted and failed operation counts. Host-clock
rows (wall, set-up and build seconds, RSS, host ns per event, tracing
overhead) are dropped. The result is one JSON row per line, so a changed
simulated number shows as a one-line diff.
"""

import argparse
import difflib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATH = os.path.join(ROOT, "PERFBENCH_sim.json")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
from run import WORKLOADS  # noqa: E402  (perfbench's own workload list)

SEED = 1
SECONDS = 1

# Rows that measure the host, not the simulated machine.
HOST_ROWS = {
    "wall_s", "setup_s", "peak_rss_mb", "core.build_s", "fs.format_s",
    "fs.prepare_s", "fs.warm_s", "net.connect_s", "sim.host_ns_per_event",
    "trace.overhead_pct",
}
HOST_PREFIXES = ("host.",)


def is_host_row(name):
    return name in HOST_ROWS or name.startswith(HOST_PREFIXES)


def run_perfbench(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    # perfbench exits non-zero unless every repetition was correct.
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"{workload} --trace {trace}: perfbench exited "
                           f"with {proc.returncode}")
    return json.loads(lines[-1])


def rows_of(workload, trace, result):
    rows = []
    for name in ("attempted", "failed"):
        rows.append({"workload": workload, "trace": trace, "metric": name,
                     "value": result[name], "unit": "count"})
    for name, metric in result["metrics"].items():
        if not is_host_row(name):
            rows.append({"workload": workload, "trace": trace,
                         "metric": name, "value": metric["value"],
                         "unit": metric["unit"]})
    return rows


def render(rows):
    body = ",\n".join(json.dumps(row) for row in rows)
    return "[\n" + body + "\n]\n"


def record():
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            rows += rows_of(workload, trace,
                            run_perfbench(workload, trace))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("record", "check"))
    args = parser.parse_args()

    name = os.path.basename(PATH)
    try:
        rows = record()
    except (OSError, RuntimeError, KeyError, ValueError) as err:
        print(f"perfbench_sim: {err}", file=sys.stderr)
        return 1

    fresh = render(rows)
    if args.mode == "record":
        with open(PATH, "w", encoding="utf-8") as out:
            out.write(fresh)
        print(f"wrote {len(rows)} rows to {name}")
        return 0

    with open(PATH, encoding="utf-8") as committed_file:
        committed = committed_file.read()
    if fresh == committed:
        print(f"{name}: every simulated row matches")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        committed.splitlines(keepends=True), fresh.splitlines(keepends=True),
        fromfile=f"{name} (committed)", tofile="fresh run"))
    print(f"{name}: simulated rows differ", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
