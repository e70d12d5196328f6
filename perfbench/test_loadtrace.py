"""Tests of the benchmark's own parts that need no build.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import loadtrace
import run


class TraceDeterminism(unittest.TestCase):
    def phases(self, seed):
        return [loadtrace.warmup(seed),
                loadtrace.burst(seed, "burst0", 2000),
                loadtrace.open_loop(seed, "nominal", 1500, 2.0)]

    def test_same_seed_gives_byte_identical_traces(self):
        for a, b in zip(self.phases(7), self.phases(7)):
            self.assertEqual(loadtrace.render(a), loadtrace.render(b))

    def test_different_seed_gives_a_different_trace(self):
        # The warm-up covers the fixed hot set; every measured phase
        # depends on the seed.
        for a, b in list(zip(self.phases(7), self.phases(8)))[1:]:
            self.assertNotEqual(loadtrace.render(a), loadtrace.render(b))

    def test_streams_of_one_seed_differ_only_in_classifies(self):
        a = loadtrace.burst(7, "burst0", 500)
        b = loadtrace.burst(7, "burst1", 500)
        self.assertNotEqual(loadtrace.render(a), loadtrace.render(b))
        solves = [[row for row in rows if '"type":"solve"' in row[2]]
                  for rows in (a, b)]
        self.assertTrue(solves[0])
        self.assertEqual(solves[0], solves[1])


class TraceShape(unittest.TestCase):
    def test_rows_are_protocol_lines_with_unique_ids(self):
        rows = loadtrace.open_loop(3, "nominal", 2000, 3.0)
        ids = set()
        last_due = -1
        for due, conn, line in rows:
            self.assertGreaterEqual(due, last_due)
            last_due = due
            self.assertIn(conn, range(loadtrace.CONNS))
            req = json.loads(line)
            self.assertIn(req["type"], ("classify", "solve"))
            ids.add(req["id"])
        self.assertEqual(len(ids), len(rows))
        # Poisson at 2000 req/s for 3 s.
        self.assertLess(abs(len(rows) - 6000), 400)

    def test_mix(self):
        rows = loadtrace.burst(11, "mix", 20000)
        reqs = [json.loads(line) for _, _, line in rows]
        solves = [r for r in reqs if r["type"] == "solve"]
        inline = [r for r in reqs if "table" in r]
        self.assertEqual(len(solves), round(len(reqs) * loadtrace.SOLVE_SHARE))
        per_solver = len(solves) // len(loadtrace.SOLVERS)
        for solver in loadtrace.SOLVERS:
            self.assertIn(sum(r["solver"] == solver for r in solves),
                          (per_solver, per_solver + 1))
        self.assertLess(abs(len(inline) / len(reqs) - loadtrace.UNIQUE_SHARE *
                            (1 - loadtrace.SOLVE_SHARE)), 0.01)
        self.assertEqual({r["solver"] for r in solves}, set(loadtrace.SOLVERS))
        for r in inline:
            allowed = r["table"]["allowed"]
            for mask, bits in zip(allowed, loadtrace.TABLE_BITS):
                self.assertLess(mask, 1 << bits)

    def test_every_hot_problem_is_warmed(self):
        warmed = {json.loads(line)["problem_seed"]
                  for _, _, line in loadtrace.warmup(0)}
        drawn = {json.loads(line).get("problem_seed")
                 for _, _, line in loadtrace.burst(5, "hot", 5000)}
        drawn.discard(None)
        self.assertTrue(drawn <= warmed)


class BenchmarkFile(unittest.TestCase):
    def test_metric_and_workload_names_match_the_runner(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.pct(values, 50), 50)
        self.assertEqual(run.pct(values, 99), 99)
        self.assertEqual(run.pct(values, 100), 100)
        self.assertEqual(run.pct([5.0], 99), 5.0)


if __name__ == "__main__":
    unittest.main()
