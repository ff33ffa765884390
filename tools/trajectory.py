#!/usr/bin/env python3
"""Records or checks every deterministic bench row and perfbench's
simulated-clock rows, and gates them.

    python3 tools/trajectory.py record   # rewrite both committed files
    python3 tools/trajectory.py check    # exit 1 on any difference or gate

Runs each bench of BENCHES (built under build/; fig08 times real threads,
so it stays out) with SOLROS_BENCH_QUICK=1 --json, and each VARIANT, into
BENCH_baseline.json. Runs perfbench/run.py on every workload at seed 1 for
1 s with --trace 0 and 1, and keeps the rows that are exact per seed in
PERFBENCH_sim.json. Both files hold one JSON row per line. check writes the
fresh rows to BENCH_fresh.json and PERFBENCH_fresh.json, and every gate
prints one PASS or FAIL line with its value. The tool sets SOLROS_* only in
the processes it starts, so it refuses to run with one already set.
"""

import argparse
import concurrent.futures
import difflib
import json
import operator
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
from run import WORKLOADS  # noqa: E402  (perfbench's own workload list)

BENCHES = (
    "fig01a_motivation_fs", "fig01b_motivation_net",
    "fig04_pcie_characteristics", "fig09_rb_lazy_update",
    "fig10_rb_adaptive_copy", "fig11_fs_random_read", "fig12_fs_random_write",
    "fig13_latency_breakdown", "fig14_net_latency", "fig15_net_throughput",
    "fig16_shared_listen_scaling", "fig17_applications",
    "fig18_control_plane_scalability", "fig19_connection_storm", "ablations",
    "cache_paths",
)
# (setting, benches, same): a `same` variant must print the default rows;
# the rows of any other are kept, tagged with "env".
VARIANTS = (
    ("SOLROS_PROXY_SHARDS=1", BENCHES, True),
    ("SOLROS_JOURNAL=off", ("fig12_fs_random_write",), True),
    ("SOLROS_JOURNAL=metadata", ("fig12_fs_random_write",), False),
)
JOBS = 3  # bench processes run at once

# perfbench rows that measure the host, not the simulated machine, besides
# the host.* ones.
HOST_ROWS = {
    "wall_s", "setup_s", "peak_rss_mb", "core.build_s", "fs.format_s",
    "fs.prepare_s", "fs.warm_s", "net.connect_s", "sim.host_ns_per_event",
    "trace.overhead_pct",
}


def run_bench(bench, setting):
    env = dict(os.environ, SOLROS_BENCH_QUICK="1")
    if setting is not None:
        name, value = setting.split("=", 1)
        env[name] = value
    proc = subprocess.run([os.path.join(ROOT, "build", "bench", bench),
                           "--json"], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, check=False)
    rows = [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith('{"bench"')]
    if proc.returncode != 0 or not rows:
        raise RuntimeError(f"{bench} ({setting or 'default'}) exited with "
                           f"{proc.returncode} after {len(rows)} rows")
    return rows


def bench_rows():
    """The committed bench rows, and the `same` variants that differ."""
    jobs = [(bench, None) for bench in BENCHES]
    jobs += [(bench, setting) for setting, benches, _ in VARIANTS
             for bench in benches]
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        results = dict(zip(jobs, pool.map(lambda job: run_bench(*job),
                                          jobs)))
    rows = [row for bench in BENCHES for row in results[(bench, None)]]
    differ = []
    for setting, benches, same in VARIANTS:
        for bench in benches:
            got = results[(bench, setting)]
            if not same:
                rows += [dict(bench=row.pop("bench"), env=setting, **row)
                         for row in got]
            elif got != results[(bench, None)]:
                differ.append(f"{bench} under {setting}")
    return rows, differ


def run_perfbench(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    # perfbench exits non-zero unless every repetition was correct.
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"{workload} --trace {trace}: perfbench exited "
                           f"with {proc.returncode}")
    return json.loads(lines[-1])


def perfbench_rows():
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_perfbench(workload, trace)
            for name in ("attempted", "failed"):
                rows.append({"workload": workload, "trace": trace,
                             "metric": name, "value": result[name],
                             "unit": "count"})
            for name, metric in result["metrics"].items():
                if name not in HOST_ROWS and not name.startswith("host."):
                    rows.append({"workload": workload, "trace": trace,
                                 "metric": name, "value": metric["value"],
                                 "unit": metric["unit"]})
    return rows


def render(rows):
    body = ",\n".join(json.dumps(row) for row in rows)
    return "[\n" + body + "\n]\n"


# --- gates --------------------------------------------------------------

class Missing(Exception):
    """A row or cell a gate reads is not in the row set."""


def cells(row):
    return [value for key, value in row.items()
            if key not in ("bench", "env", "table")]


def find(rows, bench, table=None, key=None, env=None):
    """Every row of `bench` (in `table`, first cell `key`, under `env`)."""
    found = [row for row in rows
             if row["bench"] == bench and row.get("env") == env
             and table in (None, row["table"])
             and key in (None, cells(row)[0])]
    if not found:
        raise Missing(f"no {bench} row {table or ''} {key or ''} "
                      f"{env or ''}".rstrip())
    return found


def num(row, column):
    """The number a cell prints: "3.6x" reads 3.6."""
    try:
        return float(row[column].rstrip("x"))
    except (KeyError, ValueError) as err:
        raise Missing(f"{row['bench']} {cells(row)[0]}: no number in "
                      f"column {column!r}") from err


def one(rows, bench, table, key, env=None):
    found = find(rows, bench, table, key, env)
    if len(found) != 1:
        raise Missing(f"{len(found)} {bench} rows {table} {key}")
    return found[0]


def at(rows, bench, table, key, column, env=None):
    """The number in `column` of the one row that matches."""
    return num(one(rows, bench, table, key, env), column)


SEQ_READ = "sequential O_BUFFER reads (64 KiB)"
FIG18 = "fig18_control_plane_scalability"
STORM = "buffered read storm: 4 phis x 8 workers over one shared 160KB region"
SHARDS = ("proxy-shard scaling: same storm, control plane sharded across "
          "pinned cores")
FIG14 = "ping-pong latency by message size"
PANEL = ("measured per-request net-stage breakdown (4KB, avg us; stages sum "
         "to total exactly)")
NET_CONFIGS = ("Host", "Phi-Solros", "Phi-Linux")
FIG15 = "fig15_net_throughput"
FIG16 = ("fig16_shared_listen_scaling", "echo throughput by forwarding policy")
FIG19 = "fig19_connection_storm"
FIG12 = "fig12_fs_random_write"
META = "SOLROS_JOURNAL=metadata"
FIG10 = ("(a) Xeon Phi -> Host (host pulls; host-side threshold 1KB)",
         "(b) Host -> Xeon Phi (Phi pulls; Phi-side threshold 16KB)")
FIG17 = ("text indexing (64 MiB corpus, 61 workers)",
         "image search (8 MiB features/image x32, 61 workers)")


def iosched_on(r, column):
    return at(r, FIG18, STORM, "iosched-on", column)


def shard_speedup(r, shards):
    return (at(r, FIG18, SHARDS, f"shards={shards}", "kRPC/s") /
            at(r, FIG18, SHARDS, "shards=1", "kRPC/s"))


def p99_gap(row):
    return num(row, "Phi-Linux p99 us") / num(row, "Solros p99 us")


def fig19(r, key, column):
    return at(r, FIG19, None, key, column)


def journal_ratios(r):
    column = "Phi-Solros O_BUFFER GB/s"
    return [at(r, FIG12, row["table"], cells(row)[0], column, META) /
            num(row, column) for row in find(r, FIG12)]


def solros_over_host(r):
    return [num(row, "Phi-Solros") / num(row, "Host")
            for row in find(r, "fig01a_motivation_fs")]


def fig10(r):
    return [row for title in FIG10
            for row in find(r, "fig10_rb_adaptive_copy", title)]


def fig11_top(r, column):
    return at(r, "fig11_fs_random_read", "8 thread(s)", "1MB", column)


def fig12_top(r, column):
    return at(r, FIG12, "8 thread(s)", "1MB", column)


def panel(r, config, column):
    return at(r, "fig14_net_latency", PANEL, config, column)


def fig15(r, table=None):
    return find(r, FIG15, table)


def fig16_rate(r, policy, phis):
    found = [row for row in find(r, *FIG16, policy)
             if row.get("#phis") == phis]
    if len(found) != 1:
        raise Missing(f"{len(found)} fig16 {policy} rows at {phis} phis")
    return num(found[0], "kmsgs/s")


def spread(row):
    """Most over fewest events per phi: "186/248/310/248" reads 1.667."""
    try:
        events = [int(n) for n in row["events per phi"].split("/")]
    except (KeyError, ValueError) as err:
        raise Missing(f"fig16 {cells(row)[0]}: no events per phi") from err
    return max(events) / min(events)


def fig17(r, table):
    return at(r, "fig17_applications", table, "Phi-Solros",
              "speedup vs virtio")


# (what, op, bound, value): the gate passes when `value(rows) op bound`;
# a missing row or cell fails it.
GATES = (
    ("cache_paths seq_read nvme cmds", "<=", 64,
     lambda r: at(r, "cache_paths", SEQ_READ, None, "nvme cmds")),
    ("fig18 iosched-on doorbells + interrupts", "<=", 100,
     lambda r: iosched_on(r, "doorbells") + iosched_on(r, "interrupts")),
    ("fig18 iosched-on kRPC/s", ">=", 182.95,
     lambda r: iosched_on(r, "kRPC/s")),
    ("fig18 shards=2 kRPC/s over shards=1", ">=", 1.6,
     lambda r: shard_speedup(r, 2)),
    ("fig18 shards=4 kRPC/s over shards=1", ">=", 2.5,
     lambda r: shard_speedup(r, 4)),
    ("fig18 highest shard max/mean at shards=2 and 4", "<=", 1.25,
     lambda r: max(at(r, FIG18, SHARDS, key, "shard max/mean")
                   for key in ("shards=2", "shards=4"))),
    ("fig14 64B Phi-Linux/Solros p99", ">=", 3.6,
     lambda r: p99_gap(one(r, "fig14_net_latency", FIG14, "64B"))),
    ("fig14 lowest Phi-Linux/Solros p99 over the sizes", ">=", 3.5,
     lambda r: min(map(p99_gap, find(r, "fig14_net_latency", FIG14)))),
    ("fig19 batch-on/batch-off ops/s", ">", 1,
     lambda r: fig19(r, "batch-on", "ops/s") /
     fig19(r, "batch-off", "ops/s")),
    ("fig19 batch-off/batch-on doorbells", ">=", 2,
     lambda r: fig19(r, "batch-off", "doorbells") /
     fig19(r, "batch-on", "doorbells")),
    ("fig19 batch-on p99 us", "<=", 65000,
     lambda r: fig19(r, "batch-on", "p99 us")),
    ("fig19 lowest fairness of the two rows", ">=", 0.8,
     lambda r: min(fig19(r, key, "fair min/mean")
                   for key in ("batch-on", "batch-off"))),
    ("fig12 lowest metadata-journal/no-journal O_BUFFER", ">=", 0.85,
     lambda r: min(journal_ratios(r))),
    ("fig01a lowest Phi-Solros/Host", ">=", 0.7,
     lambda r: min(solros_over_host(r))),
    ("fig01a highest Phi-Solros/Host", "<", 1,
     lambda r: max(solros_over_host(r))),
    ("fig10 lowest DMA/memcpy but at (b) 512B", ">", 1,
     lambda r: min(num(row, "dma GB/s") / num(row, "memcpy GB/s")
                   for row in fig10(r)
                   if (row["table"][:3], cells(row)[0]) != ("(b)", "512B"))),
    ("fig10 lowest adaptive/DMA where adaptive picks DMA", ">=", 0.99,
     lambda r: min((num(row, "adaptive GB/s") / num(row, "dma GB/s")
                    for row in fig10(r)
                    if row.get("adaptive picks") == "dma"), default=0)),
    ("fig11 lower of Host and Phi-Solros at 1MB x 8 threads", ">=", 2.3,
     lambda r: min(fig11_top(r, "Host GB/s"),
                   fig11_top(r, "Phi-Solros GB/s"))),
    ("fig11 highest Phi-virtio or Phi-NFS GB/s", "<", 0.1,
     lambda r: max(num(row, column)
                   for row in find(r, "fig11_fs_random_read")
                   for column in ("Phi-virtio GB/s", "Phi-NFS GB/s"))),
    ("fig11 Phi-Solros over the faster of virtio and NFS at 1MB x 8 "
     "threads", ">=", 25,
     lambda r: fig11_top(r, "Phi-Solros GB/s") /
     max(fig11_top(r, "Phi-virtio GB/s"), fig11_top(r, "Phi-NFS GB/s"))),
    ("fig12 lower of Host and Phi-Solros at 1MB x 8 threads", ">=", 1.15,
     lambda r: min(fig12_top(r, "Host GB/s"),
                   fig12_top(r, "Phi-Solros GB/s"))),
    ("fig12 highest Phi-virtio or Phi-NFS GB/s", "<=", 0.12,
     lambda r: max(num(row, column)
                   for row in find(r, FIG12)
                   for column in ("Phi-virtio GB/s", "Phi-NFS GB/s"))),
    ("fig14 panel wire us, highest minus lowest config", "<=", 0,
     lambda r: max(panel(r, c, "wire") for c in NET_CONFIGS) -
     min(panel(r, c, "wire") for c in NET_CONFIGS)),
    ("fig14 panel Phi-Linux/Phi-Solros proxy us", ">=", 9,
     lambda r: panel(r, "Phi-Linux", "proxy") /
     panel(r, "Phi-Solros", "proxy")),
    ("fig15 lowest Phi-Solros/Host at 1 connection", ">=", 0.95,
     lambda r: min(num(row, "Phi-Solros GB/s") / num(row, "Host GB/s")
                   for row in fig15(r, "1 connection(s)"))),
    ("fig15 highest Phi-Solros GB/s", "<=", 0.75,
     lambda r: max(num(row, "Phi-Solros GB/s") for row in fig15(r))),
    ("fig15 Host 256KB GB/s, 16 connections over 1", ">=", 10,
     lambda r: at(r, FIG15, "16 connection(s)", "256KB", "Host GB/s") /
     at(r, FIG15, "1 connection(s)", "256KB", "Host GB/s")),
    ("fig15 highest Phi-Linux GB/s", "<", 0.1,
     lambda r: max(num(row, "Phi-Linux GB/s") for row in fig15(r))),
    ("fig16 round-robin highest/lowest kmsgs/s at 1, 2 and 4 phis", "<=",
     1.03,
     lambda r: max(fig16_rate(r, "round-robin", n) for n in "124") /
     min(fig16_rate(r, "round-robin", n) for n in "124")),
    ("fig16 highest round-robin or least-loaded events per phi max/min",
     "<=", 1,
     lambda r: max(spread(row)
                   for policy in ("round-robin", "least-loaded")
                   for row in find(r, *FIG16, policy))),
    ("fig17 text indexing Phi-Solros speedup vs virtio", ">=", 12,
     lambda r: fig17(r, FIG17[0])),
    ("fig17 image search Phi-Solros speedup vs virtio", ">=", 1.3,
     lambda r: fig17(r, FIG17[1])),
)
OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge}


def evaluate(gate, rows):
    """(name, passed, value text) of one gate on `rows`."""
    what, op, bound, value = gate
    name = f"{what} {op} {bound}"
    try:
        got = value(rows)
    except Missing as err:
        return name, False, f"missing: {err}"
    return name, OPS[op](got, bound), f"{round(got, 3):g}"


def run_gates(rows):
    """Prints one line per gate; returns the names of those that failed."""
    failed = []
    for gate in GATES:
        name, passed, text = evaluate(gate, rows)
        print(f"{'PASS' if passed else 'FAIL'} {name}: {text}")
        if not passed:
            failed.append(name)
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("record", "check"))
    args = parser.parse_args()
    preset = sorted(name for name in os.environ
                    if name.startswith("SOLROS_"))
    if preset:
        print(f"trajectory: unset {', '.join(preset)}", file=sys.stderr)
        return 2

    try:
        rows, differ = bench_rows()
        files = (("BENCH_baseline.json", "BENCH_fresh.json", rows),
                 ("PERFBENCH_sim.json", "PERFBENCH_fresh.json",
                  perfbench_rows()))
    except (OSError, RuntimeError, KeyError, ValueError) as err:
        print(f"trajectory: {err}", file=sys.stderr)
        return 1

    bad = [f"{variant} differs from the default rows" for variant in differ]
    bad += [f"gate failed: {name}" for name in run_gates(rows)]
    for committed_name, fresh_name, file_rows in files:
        fresh = render(file_rows)
        name = committed_name if args.mode == "record" else fresh_name
        with open(os.path.join(ROOT, name), "w", encoding="utf-8") as out:
            out.write(fresh)
        if args.mode == "record":
            print(f"wrote {len(file_rows)} rows to {committed_name}")
            continue
        with open(os.path.join(ROOT, committed_name),
                  encoding="utf-8") as committed_file:
            committed = committed_file.read()
        if fresh != committed:
            sys.stdout.writelines(difflib.unified_diff(
                committed.splitlines(keepends=True),
                fresh.splitlines(keepends=True),
                fromfile=f"{committed_name} (committed)",
                tofile=fresh_name))
            bad.append(f"{committed_name}: rows differ")
    for problem in bad:
        print(f"trajectory: {problem}", file=sys.stderr)
    if not bad and args.mode == "check":
        print(f"trajectory: {len(files[0][2])} bench rows and "
              f"{len(files[1][2])} perfbench rows match; "
              f"{len(GATES)} gates pass")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
