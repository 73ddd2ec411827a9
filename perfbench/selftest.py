"""Smoke run and self-tests of the benchmark.

    python3 perfbench/selftest.py

Checks, for every workload on a handful of ops: the oracle accepts the
engine's answers and rejects altered ones; two untraced runs of a seed and
the traced run give the same digest; and the spans that the prediction in
perfbench/NOTES.md relies on fire on the workloads it names, and stay silent
where it says zero.  Also checks that the oracles' own printer and parser
agree with the engine's.
"""

import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import algebra as alg  # noqa: E402
from run import run_worker  # noqa: E402
from worker import load_engine  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

cc = load_engine()
SEED = 7
# Enough ops to cover every family of each workload's mix except the rare
# A4 op of excess-tor, which the traced benchmark run covers.
SMOKE_OPS = {"bezout": 8, "excess-tor": 6, "correspondences": 6, "scripts": 6}

# Spans that must fire (calls > 0) on each workload.
FIRES = {
    "bezout": ["intersection.intersection_product", "geometry.cycle_of_subscheme",
               "primes.minimal_primes", "primes.factor", "primes.length_at_prime",
               "homology.tor_modules", "homology.free_resolution",
               "homology.coefficient_module", "groebner.buchberger",
               "groebner.eliminate", "groebner.Ideal.normal_form",
               "polyring.PolynomialRing.parse"],
    "excess-tor": ["intersection.tor_length_table", "primes.length_at_prime",
                   "homology.coefficient_module", "homology.tor_modules",
                   "primes.minimal_primes", "groebner.buchberger"],
    "correspondences": ["correspondences.compose",
                        "correspondences.correspondence_degree",
                        "morphisms.flat_pullback", "morphisms.proper_pushforward",
                        "morphisms.pushforward_module", "morphisms.zariski_image",
                        "primes.generic_rank", "groebner.eliminate",
                        "intersection.intersection_product"],
    "scripts": ["script.run_script", "script.render_report",
                "geometry.CartierDivisor.weil", "geometry.ChartedSpace.glue_cycles",
                "intersection.intersection_product", "primes.factor",
                "polyring.PolynomialRing.parse"],
}
# Spans that must stay silent: morphisms only run on correspondences, the
# script layer only on scripts.
SILENT = {
    "bezout": ["morphisms.", "script.", "correspondences.",
               "intersection.tor_length_table"],
    "excess-tor": ["morphisms.", "script.", "correspondences.",
                   "intersection.intersection_product"],
    "correspondences": ["script.", "intersection.tor_length_table"],
    "scripts": ["morphisms.", "correspondences.", "intersection.tor_length_table"],
}


def worker(workload, mode, ops, **opts):
    return run_worker(workload, SEED, mode, time.monotonic() + 300, ops=ops,
                      **opts)[0]


def _bump_first_multiplicity(text):
    return "2*" + text if not text[0].isdigit() else "3" + text[1:]


def _alter_scripts(out):
    report = json.loads(out)
    report["objects"]["W"]["components"][0]["mult"] += 1
    return json.dumps(report)


def _alter_tor(out):
    prime, _, lengths = out.partition(": [")
    first, _, rest = lengths.partition(",")
    return f"{prime}: [{int(first) + 1},{rest}"


ALTER = {"bezout": _bump_first_multiplicity, "excess-tor": _alter_tor,
         "correspondences": _bump_first_multiplicity, "scripts": _alter_scripts}


class OracleTests(unittest.TestCase):
    def test_oracles_accept_answers_and_reject_altered_ones(self):
        for name, cls in WORKLOADS.items():
            workload = cls(cc)
            for i in range(SMOKE_OPS[name]):
                inp = workload.make(SEED, i)
                out = workload.run(inp)
                with self.subTest(workload=name, op=i):
                    self.assertIsNone(workload.check(inp, out))
                    self.assertIsNotNone(workload.check(inp, ALTER[name](out)))

    def test_warmup_inputs_are_answered_correctly(self):
        for name, cls in WORKLOADS.items():
            workload = cls(cc)
            inp = workload.warmup(SEED)
            with self.subTest(workload=name):
                self.assertIsNone(workload.check(inp, workload.run(inp)))

    def test_inputs_depend_only_on_the_seed(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(cls.make(SEED, 5), cls.make(SEED, 5))
                self.assertNotEqual(cls.make(SEED, 5), cls.make(SEED + 1, 5))

    def test_printer_and_parser_match_the_engine(self):
        names = ("x", "y")
        ring = cc.PolynomialRing(cc.QQ, names)
        poly = {(3, 1): alg.QQ.coerce("-3/4"), (0, 2): 1, (1, 0): -2, (0, 0): 5}
        engine = ring.parse(alg.fmt(poly, names))
        self.assertEqual(alg.parse(str(engine), names, alg.QQ), poly)
        f7 = alg.Field(7)
        engine7 = cc.PolynomialRing(cc.GF(7), names).parse(alg.fmt(poly, names))
        self.assertEqual(alg.parse(str(engine7), names, f7), alg.clean(poly, f7))


class SmokeRunTests(unittest.TestCase):
    def test_digests_repeat_and_spans_fire(self):
        out = HERE / "out"
        for name, ops in SMOKE_OPS.items():
            first = worker(name, "replay", ops)
            second = worker(name, "replay", ops)
            traced = worker(name, "traced", ops,
                            spans=out / f"selftest-{name}.json.gz")
            with self.subTest(workload=name):
                for run in (first, second, traced):
                    self.assertEqual(run["failures"], [])
                self.assertEqual(first["digest"], second["digest"])
                self.assertEqual(first["digest"], traced["digest"])
                layers = traced["layers"]
                for layer in FIRES[name]:
                    self.assertGreater(layers.get(layer, [0])[0], 0, layer)
                for prefix in SILENT[name]:
                    fired = [k for k, row in layers.items()
                             if k.startswith(prefix) and row[0]]
                    self.assertEqual(fired, [], prefix)


if __name__ == "__main__":
    unittest.main()
