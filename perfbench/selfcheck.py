"""Checks of the benchmark itself (stdlib unittest):

    python3 perfbench/selfcheck.py

- wrapper coverage: after patching, every package global that was bound
  to a traced function is bound to its wrapper, including the import
  sites in other modules, so no call escapes the count;
- exact repeat: one seed run twice on a reduced corpus gives identical
  calls and size counters, and wrapping changes no output byte;
- reference scaling: an input's time is scaled by the reference kernel's
  samples on either side of it, and the median is taken over passes.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

PKG = tracing.PACKAGE


class WrapperCoverage(unittest.TestCase):
    def setUp(self):
        self.mods = worker.import_package()
        self.tracer = tracing.Tracer()

    def test_every_import_site_resolves_to_the_wrapper(self):
        originals = {
            f"{m}.{f}": getattr(sys.modules[f"{PKG}.{m}"], f) for m, f in tracing.TRACED
        }
        self.tracer.patch.apply()
        try:
            for module in tracing.package_modules():
                for attr, value in vars(module).items():
                    for name, original in originals.items():
                        self.assertIsNot(value, original, f"{module.__name__}.{attr} still bound to {name}")
            wrapped = {id(w) for _, _, _, w in self.tracer.patch.sites}
            expected = [
                ("linalg", "rank_rational"),
                ("homology", "rank_rational"),
                ("formulas", "rank_rational"),
                ("pairs", "rank_rational"),
                ("linalg", "nullspace"),
                ("formulas", "free_rank_check"),
                ("homology", "factor_cyclotomic"),
                ("homology", "twisted_boundary"),
                ("report", "compare_pipelines"),
                ("crosscheck", "compare_pipelines"),
                ("crosscheck", "full_decomposition"),
                ("report", "full_decomposition"),
                ("cli", "emit_report"),
            ]
            for module, attr in expected:
                value = getattr(sys.modules[f"{PKG}.{module}"], attr)
                self.assertIn(id(value), wrapped, f"{module}.{attr} is not wrapped")
        finally:
            self.tracer.patch.undo()
        for name, original in originals.items():
            module, attr = name.split(".")
            self.assertIs(getattr(sys.modules[f"{PKG}.{module}"], attr), original)

    def test_internal_calls_are_counted(self):
        linalg = sys.modules[f"{PKG}.linalg"]
        self.tracer.reset_pass()
        self.tracer.patch.apply()
        try:
            linalg.span_rank([[1, 0], [0, 1]])
            linalg.intersect_spans([[1, 0]], [[1, 0]])
        finally:
            self.tracer.patch.undo()
        self.assertEqual(self.tracer.calls["linalg.rank_rational"], 1)
        self.assertEqual(self.tracer.calls["linalg.nullspace"], 1)


class ExactRepeat(unittest.TestCase):
    def run_reduced(self, workload: str, count: int):
        mods = worker.import_package()
        items = workloads.build_corpus(workload, 7, mods[f"{PKG}.cli"])[:count]
        gen = workloads.SPEC[workload]["generator"]
        plain = worker.run_pass(mods, items, gen)
        tracer = tracing.Tracer()
        tracer.reset_pass()
        tracer.patch.apply()
        try:
            traced = worker.run_pass(mods, items, gen, tracer=tracer)
        finally:
            tracer.patch.undo()
        self.assertEqual(plain.errors, {})
        self.assertEqual(traced.errors, {})
        self.assertEqual(plain.outputs, traced.outputs)
        return dict(tracer.calls), dict(tracer.counters)

    def test_counts_repeat_and_wrapping_changes_no_byte(self):
        for workload, count in (("small", 12), ("fuzz_thorough", 3)):
            with self.subTest(workload=workload):
                first = self.run_reduced(workload, count)
                second = self.run_reduced(workload, count)
                self.assertEqual(first, second)
                self.assertGreater(first[0]["linalg.rank_rational"], 0)

    def test_presentation_changes_no_answer(self):
        mods = worker.import_package()
        gen = workloads.SPEC["small"]["generator"]
        canon = []
        for seed in (3, 4):
            items = workloads.build_corpus("small", seed, mods[f"{PKG}.cli"])
            items = sorted(items, key=lambda it: it.index)[:15]
            p = worker.run_pass(mods, items, gen)
            self.assertEqual(p.errors, {})
            canon.append(p.canonical)
        self.assertEqual(canon[0], canon[1])


class ReferenceScaling(unittest.TestCase):
    def test_times_scale_by_the_adjacent_samples(self):
        nominal = reference.NOMINAL_S
        passes = []
        for speed in (1.0, 2.0, 0.5):  # the same work on a machine running at three speeds
            p = worker.Pass([None, None])
            p.wall = [0.010 / speed, 0.030 / speed]
            p.ref = [nominal / speed] * 3
            passes.append(p)
        for value, expected in zip(worker.scaled(passes, "wall"), (0.010, 0.030)):
            self.assertAlmostEqual(value, expected)
        passes[0].ref = [nominal, 3 * nominal, nominal]
        self.assertAlmostEqual(worker.scaled(passes[:1], "wall")[1], 0.030 / 2)

    def test_kernel_answer_is_checked(self):
        self.assertGreater(reference.sample(), 0.0)


if __name__ == "__main__":
    unittest.main()
