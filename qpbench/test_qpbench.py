"""Self-tests of the benchmark (not of quadpencil).

    python3 -m unittest discover -s qpbench -p 'test_*.py'

Run from the root of a checkout; they take about half a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from check import check_certificate, check_claim, decided_places  # noqa: E402
from exact import char_form, parse_forms_file  # noqa: E402
from gen import random_pencils, verify_lift_claims  # noqa: E402
from spans import self_times  # noqa: E402

EXAMPLE = os.path.join(ROOT, "tests", "data", "example_pencil.txt")


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class TinyRunTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run("verify-lift", trace)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(emitted, {m["name"]: m["unit"] for m in spec[key]})


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from quadpencil.pipeline import PipelineConfig, canonical_json, run_pipeline

        cls.text = canonical_json(run_pipeline(PipelineConfig(input_path=EXAMPLE)))
        with open(EXAMPLE, encoding="utf-8") as handle:
            cls.forms = parse_forms_file(handle.read())

    def _mutated(self, edit) -> str:
        doc = json.loads(self.text)
        edit(doc)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def test_accepts_the_untouched_certificate(self):
        self.assertEqual(check_certificate(self.text, *self.forms, never_positive=True), [])
        self.assertEqual(decided_places(self.text), (7, 8))

    def test_fewer_decided_places_than_known_fail(self):
        from worker import check_output

        rows = [[[i, j, c] for (i, j), c in sorted(q.items())] for q in self.forms]
        item = {"forms": rows, "never_positive": True, "min_decided": 7}
        self.assertEqual(check_output("bundled", item, self.text), ([], (7, 8)))
        item["min_decided"] = 8
        self.assertTrue(check_output("bundled", item, self.text)[0])

    def test_rejects_one_changed_lift_digit(self):
        def edit(doc):
            entry = next(e for e in doc["local_certificates"] if e.get("lift"))
            entry["lift"][3] = str(int(entry["lift"][3]) + 1)

        self.assertTrue(any("residual" in e for e in
                            check_certificate(self._mutated(edit), *self.forms)))

    def test_rejects_one_changed_characteristic_coefficient(self):
        def edit(doc):
            coeffs = doc["characteristic_form"]["coefficients_lowest_first"]
            coeffs[2] = str(int(coeffs[2]) - 1)

        self.assertTrue(any("characteristic form" in e for e in
                            check_certificate(self._mutated(edit), *self.forms)))

    def test_rejects_a_positive_verdict_on_the_example(self):
        def edit(doc):
            doc["incomplete_reasons"] = []
            doc["verdict"] = "locally rational at all places (per cited criteria)"

        self.assertTrue(check_certificate(self._mutated(edit), *self.forms,
                                          never_positive=True))

    def test_verify_lift_claim_and_its_negative_control(self):
        from quadpencil import fano, localcert
        from quadpencil.pencil import PencilOfQuadrics
        from quadpencil.quadric import QuadraticForm

        claim = verify_lift_claims(3, 1, ROOT)[1]
        q1, q2 = claim["forms"]
        pencil = PencilOfQuadrics(QuadraticForm(q1), QuadraticForm(q2))
        p = claim["prime"]
        chart = fano.GrassmannChart((claim["chart"][0] - 1, claim["chart"][1] - 1))
        system = fano.fano_system(pencil, chart)
        cert = localcert.hensel_certify(system, claim["coords"], p, claim["precision"])
        report = {"on_system": True, "jacobian_rank": cert.jacobian_rank,
                  "smooth": cert.liftable, "lift": list(cert.lift),
                  "lift_modulus": cert.lift_modulus}
        self.assertEqual(check_claim(claim, report), [])
        report["lift"][0] += p
        self.assertTrue(check_claim(claim, report))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(verify_lift_claims(5, 2, ROOT), verify_lift_claims(5, 2, ROOT))
        self.assertNotEqual(verify_lift_claims(5, 2, ROOT), verify_lift_claims(6, 2, ROOT))

    def test_random_pencils_are_integral_and_smooth(self):
        pool = random_pencils(1)
        self.assertEqual(pool, random_pencils(1))
        for q1, q2 in pool:
            f = char_form(q1, q2)
            self.assertEqual(len(f), 7)
            self.assertTrue(all(c.denominator == 1 for c in f))


class SelfTimeTest(unittest.TestCase):
    def test_self_times_add_up_to_the_root_with_overlapping_children(self):
        # root [0, 100]; child a [10, 60] on one thread, child b [40, 80] on
        # another; grandchild of a at [20, 30].
        spans = [["root", 0, 100, -1, 0, None], ["a", 10, 60, 0, 0, None],
                 ["b", 40, 80, 0, 0, None], ["c", 20, 30, 1, 0, None]]
        times = self_times(spans, [0, 1, 2, 3])
        self.assertAlmostEqual(sum(times.values()), 100)
        self.assertAlmostEqual(times[0], 10 + 20)
        self.assertAlmostEqual(times[3], 10)
        self.assertAlmostEqual(times[1], 10 + 10 + 10)
        self.assertAlmostEqual(times[2], 10 + 20)


if __name__ == "__main__":
    unittest.main()
