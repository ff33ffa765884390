#!/usr/bin/env python3
"""Unit tests for the gates of tools/trajectory.py.

Each gate reads the committed BENCH_baseline.json rows and must pass on
them, fail when one cell breaks its bound, and fail when the rows it reads
are missing.
"""

import copy
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in tools/
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import trajectory  # noqa: E402

T = trajectory
FIG01A = "fig01a_motivation_fs"
FIG10 = "fig10_rb_adaptive_copy"
FIG11 = "fig11_fs_random_read"
FIG14 = "fig14_net_latency"
FIG16 = T.FIG16[0]
FIG17 = "fig17_applications"


def sel(bench, table=None, key=None, env=None, where=None):
    """Rows of `bench` (in `table`, first cell `key`, under `env`) whose
    cells also hold every column: value of `where`."""
    return (bench, table, key, env, where or {})


# gate -> (rows to break, column, a value that breaks the bound, rows to
# drop; None drops the broken rows).
CASES = {
    "cache_paths seq_read nvme cmds <= 64":
        (sel("cache_paths", T.SEQ_READ), "nvme cmds", "65", None),
    "fig18 iosched-on doorbells + interrupts <= 100":
        (sel(T.FIG18, T.STORM, "iosched-on"), "doorbells", "101", None),
    "fig18 iosched-on kRPC/s >= 182.95":
        (sel(T.FIG18, T.STORM, "iosched-on"), "kRPC/s", "182.9", None),
    "fig18 shards=2 kRPC/s over shards=1 >= 1.6":
        (sel(T.FIG18, T.SHARDS, "shards=2"), "kRPC/s", "1.0", None),
    "fig18 shards=4 kRPC/s over shards=1 >= 2.5":
        (sel(T.FIG18, T.SHARDS, "shards=4"), "kRPC/s", "1.0", None),
    "fig18 highest shard max/mean at shards=2 and 4 <= 1.25":
        (sel(T.FIG18, T.SHARDS, "shards=4"), "shard max/mean", "1.26", None),
    "fig14 64B Phi-Linux/Solros p99 >= 3.6":
        (sel(FIG14, T.FIG14, "64B"), "Phi-Linux p99 us", "223.1", None),
    "fig14 lowest Phi-Linux/Solros p99 over the sizes >= 3.5":
        (sel(FIG14, T.FIG14, "64KB"), "Phi-Linux p99 us", "2700.0",
         sel(FIG14, T.FIG14)),
    "fig19 batch-on/batch-off ops/s > 1":
        (sel(T.FIG19, key="batch-on"), "ops/s", "275415", None),
    "fig19 batch-off/batch-on doorbells >= 2":
        (sel(T.FIG19, key="batch-on"), "doorbells", "20481", None),
    "fig19 batch-on p99 us <= 65000":
        (sel(T.FIG19, key="batch-on"), "p99 us", "65000.1", None),
    "fig19 lowest fairness of the two rows >= 0.8":
        (sel(T.FIG19, key="batch-off"), "fair min/mean", "0.799", None),
    "fig12 lowest metadata-journal/no-journal O_BUFFER >= 0.85":
        (sel(T.FIG12, "8 thread(s)", "1MB", T.META),
         "Phi-Solros O_BUFFER GB/s", "0.100", None),
    "fig01a lowest Phi-Solros/Host >= 0.7":
        (sel(FIG01A, key="32KB"), "Phi-Solros", "1.500", sel(FIG01A)),
    "fig01a highest Phi-Solros/Host < 1":
        (sel(FIG01A, key="4MB"), "Phi-Solros", "2.398", sel(FIG01A)),
    "fig10 lowest DMA/memcpy but at (b) 512B > 1":
        (sel(FIG10, T.FIG10[0], "1MB"), "memcpy GB/s", "9.000", sel(FIG10)),
    "fig10 lowest adaptive/DMA where adaptive picks DMA >= 0.99":
        (sel(FIG10, T.FIG10[1], "4MB"), "adaptive GB/s", "2.500",
         sel(FIG10)),
    "fig11 lower of Host and Phi-Solros at 1MB x 8 threads >= 2.3":
        (sel(FIG11, "8 thread(s)", "1MB"), "Host GB/s", "2.299", None),
    "fig11 highest Phi-virtio or Phi-NFS GB/s < 0.1":
        (sel(FIG11, "1 thread(s)", "32KB"), "Phi-NFS GB/s", "0.100",
         sel(FIG11)),
    "fig11 Phi-Solros over the faster of virtio and NFS at 1MB x 8 threads "
    ">= 25":
        (sel(FIG11, "8 thread(s)", "1MB"), "Phi-NFS GB/s", "0.094", None),
    "fig12 lower of Host and Phi-Solros at 1MB x 8 threads >= 1.15":
        (sel(T.FIG12, "8 thread(s)", "1MB"), "Host GB/s", "1.149", None),
    "fig12 highest Phi-virtio or Phi-NFS GB/s <= 0.12":
        (sel(T.FIG12, "1 thread(s)", "32KB"), "Phi-NFS GB/s", "0.121",
         sel(T.FIG12)),
    "fig14 panel wire us, highest minus lowest config <= 0":
        (sel(FIG14, T.PANEL, "Host"), "wire", "10.8", None),
    "fig14 panel Phi-Linux/Phi-Solros proxy us >= 9":
        (sel(FIG14, T.PANEL, "Phi-Linux"), "proxy", "302.3", None),
    "fig15 lowest Phi-Solros/Host at 1 connection >= 0.95":
        (sel(T.FIG15, "1 connection(s)", "512B"), "Phi-Solros GB/s", "0.034",
         sel(T.FIG15, "1 connection(s)")),
    "fig15 highest Phi-Solros GB/s <= 0.75":
        (sel(T.FIG15, "16 connection(s)", "256KB"), "Phi-Solros GB/s",
         "0.751", sel(T.FIG15)),
    "fig15 Host 256KB GB/s, 16 connections over 1 >= 10":
        (sel(T.FIG15, "16 connection(s)", "256KB"), "Host GB/s", "3.449",
         None),
    "fig15 highest Phi-Linux GB/s < 0.1":
        (sel(T.FIG15, "16 connection(s)", "256KB"), "Phi-Linux GB/s",
         "0.100", sel(T.FIG15)),
    "fig16 round-robin highest/lowest kmsgs/s at 1, 2 and 4 phis <= 1.03":
        (sel(FIG16, T.FIG16[1], "round-robin", where={"#phis": "4"}),
         "kmsgs/s", "71.4", None),
    "fig16 highest round-robin or least-loaded events per phi max/min <= 1":
        (sel(FIG16, T.FIG16[1], "least-loaded", where={"#phis": "4"}),
         "events per phi", "247/249/248/248",
         sel(FIG16, T.FIG16[1])),
    "fig17 text indexing Phi-Solros speedup vs virtio >= 12":
        (sel(FIG17, T.FIG17[0], "Phi-Solros"), "speedup vs virtio", "11.9x",
         None),
    "fig17 image search Phi-Solros speedup vs virtio >= 1.3":
        (sel(FIG17, T.FIG17[1], "Phi-Solros"), "speedup vs virtio", "1.2x",
         None),
}
GATES = {T.evaluate(gate, [])[0]: gate for gate in T.GATES}


def matches(row, selector):
    bench, table, key, env, where = selector
    return (row["bench"] == bench and row.get("env") == env
            and table in (None, row["table"])
            and key in (None, T.cells(row)[0])
            and all(row.get(column) == value
                    for column, value in where.items()))


def passes(name, rows):
    return T.evaluate(GATES[name], rows)[1]


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        path = os.path.join(T.ROOT, "BENCH_baseline.json")
        with open(path, encoding="utf-8") as committed:
            cls.rows = json.load(committed)

    def test_every_gate_has_a_case(self):
        self.assertEqual(sorted(CASES), sorted(GATES))

    def test_pass_break_missing(self):
        for name, (broken, column, bad, dropped) in CASES.items():
            with self.subTest(gate=name):
                self.assertTrue(passes(name, self.rows))
                violating = copy.deepcopy(self.rows)
                hits = [row for row in violating if matches(row, broken)]
                self.assertEqual(len(hits), 1)
                self.assertIn(column, hits[0])
                hits[0][column] = bad
                self.assertFalse(passes(name, violating))
                dropped = dropped or broken
                missing = [row for row in self.rows
                           if not matches(row, dropped)]
                self.assertLess(len(missing), len(self.rows))
                self.assertFalse(passes(name, missing))

    def test_a_missing_column_fails(self):
        rows = copy.deepcopy(self.rows)
        for row in rows:
            if row["bench"] == T.FIG19:
                del row["p99 us"]
        self.assertFalse(passes("fig19 batch-on p99 us <= 65000", rows))

    def test_two_matching_rows_fail(self):
        rows = self.rows + [row for row in self.rows
                            if matches(row, CASES["fig19 batch-on p99 us "
                                                  "<= 65000"][0])]
        self.assertFalse(passes("fig19 batch-on p99 us <= 65000", rows))

    def test_no_dma_pick_fails(self):
        rows = copy.deepcopy(self.rows)
        for row in rows:
            if "adaptive picks" in row:
                row["adaptive picks"] = "memcpy"
        self.assertFalse(passes(
            "fig10 lowest adaptive/DMA where adaptive picks DMA >= 0.99",
            rows))


if __name__ == "__main__":
    unittest.main()
