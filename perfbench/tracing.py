"""Span recording around the package's public functions, from outside it.

Each traced function is replaced by a wrapper at every module global of
the package bound to it, so calls between modules and inside a module
(span_rank -> rank_rational, intersect_spans -> nullspace, formulas ->
free_rank_check) all pass through the wrapper.  Spans carry a parent
link; a function's self time is its duration minus the time its child
spans cover.  Counters are read from arguments and return values.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs traced in the per-layer run.  The two pipeline
# entry points are spans too, so that time inside them has a parent.
TRACED = [
    ("linalg", "rank_rational"),
    ("linalg", "smith_normal_form"),
    ("linalg", "intersect_spans"),
    ("linalg", "nullspace"),
    ("linalg", "span_rank"),
    ("polys", "factor_cyclotomic"),
    ("homology", "twisted_boundary"),
    ("homology", "free_rank_check"),
    ("homology", "full_decomposition"),
    ("formulas", "torsion_profile"),
    ("formulas", "weighted_exponent_sum"),
    ("formulas", "top_jordan_count"),
    ("formulas", "max_exponent"),
    ("formulas", "summand_counts"),
    ("formulas", "anti_invariant_homology"),
    ("formulas", "solve_exponents"),
    ("formulas", "formula_decomposition"),
    ("flagcomplex", "build_flag_complex"),
    ("flagcomplex", "boundary_matrix"),
    ("flagcomplex", "level_boundary_matrix"),
    ("flagcomplex", "filtration_level"),
    ("report", "parse_input"),
    ("report", "compare_pipelines"),
    ("report", "emit_report"),
    ("crosscheck", "cross_validate_once"),
    ("crosscheck", "even_reduction_check"),
    ("crosscheck", "monodromy_check"),
]

PACKAGE = "artinkernels"


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Patch:
    """Rebinds module globals from originals to wrappers, reversibly."""

    def __init__(self):
        self.sites: list[tuple[object, str, object, object]] = []

    def bind(self, modules, original, wrapper) -> int:
        count = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.sites.append((module, attr, original, wrapper))
                    count += 1
        return count

    def apply(self) -> None:
        for module, attr, _, wrapper in self.sites:
            setattr(module, attr, wrapper)

    def undo(self) -> None:
        for module, attr, original, _ in self.sites:
            setattr(module, attr, original)


class PipelineTimer:
    """Wall time inside full_decomposition and formula_decomposition,
    timed at their report and crosscheck import sites only."""

    def __init__(self):
        self.direct = 0.0
        self.formulas = 0.0
        self.patch = Patch()
        report = sys.modules[PACKAGE + ".report"]
        crosscheck = sys.modules[PACKAGE + ".crosscheck"]
        for attr, slot in (("full_decomposition", "direct"), ("formula_decomposition", "formulas")):
            original = getattr(report, attr)
            self.patch.bind([report, crosscheck], original, self._timed(original, slot))

    def _timed(self, fn, slot):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self, slot, getattr(self, slot) + time.perf_counter() - start)

        return wrapper

    def reset(self) -> None:
        self.direct = 0.0
        self.formulas = 0.0


class Tracer:
    """Spans, calls, self time and size counters for the TRACED functions."""

    def __init__(self):
        self.patch = Patch()
        self.stack: list[list] = []  # [span id, time covered by children]
        self.record_spans = False
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.origin = time.perf_counter()
        self._next_id = 0
        self.reset_pass()
        modules = package_modules()
        measures = {
            "linalg.rank_rational": self._rank_entries,
            "linalg.smith_normal_form": self._smith_sizes,
            "homology.twisted_boundary": self._entry_degree,
            "homology.free_rank_check": self._free_rank_repeat,
            "formulas.torsion_profile": self._weight_class,
            "flagcomplex.build_flag_complex": self._cells,
        }
        for module_name, func in TRACED:
            name = f"{module_name}.{func}"
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func)
            self.patch.bind(modules, original, self._wrap(name, original, measures.get(name)))

    def reset_pass(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.begin_input()

    def begin_input(self) -> None:
        """Repeat keys are kept per input (the objects stay alive until here)."""
        self._seen_free_rank: set = set()
        self._seen_weight_class: set = set()

    def _wrap(self, name, fn, measure):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if self.record_spans:
                    self.spans.append((span_id, parent, name, start - self.origin, end - self.origin))
            if measure is not None:
                measure(args, kwargs, result)
                if stack:
                    # counter bookkeeping is nobody's self time
                    stack[-1][1] += clock() - end
            return result

        return wrapper

    # -- counters read from arguments and results ------------------------

    def _rank_entries(self, args, kwargs, result) -> None:
        rows = args[0] if args else kwargs["rows"]
        self.counters["linalg.rank_rational.entries"] += len(rows) * (len(rows[0]) if rows else 0)

    def _smith_sizes(self, args, kwargs, snf) -> None:
        c = self.counters
        c["linalg.smith_normal_form.max_cells"] = max(c["linalg.smith_normal_form.max_cells"], snf.nrows * snf.ncols)
        degree = max((q.degree for q in snf.invariant_factors), default=0)
        c["linalg.smith_normal_form.max_factor_degree"] = max(c["linalg.smith_normal_form.max_factor_degree"], degree)

    def _entry_degree(self, args, kwargs, tb) -> None:
        degree = max((e.poly.degree for row in tb.matrix for e in row if not e.is_zero()), default=0)
        key = "homology.twisted_boundary.max_entry_degree"
        self.counters[key] = max(self.counters[key], degree)

    def _free_rank_repeat(self, args, kwargs, result) -> None:
        f = args[0] if args else kwargs["f"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        if (f, k) in self._seen_free_rank:
            self.counters["homology.free_rank_check.repeats"] += 1
        self._seen_free_rank.add((f, k))

    def _weight_class(self, args, kwargs, result) -> None:
        names = ("f", "chi", "d", "k")
        f, chi, d, k = (args[i] if len(args) > i else kwargs[n] for i, n in enumerate(names))
        weights = tuple(1 if chi.values[v] % d == 0 else 0 for v in f.graph.vertices)
        key = (f, weights, k)
        if key in self._seen_weight_class:
            self.counters["formulas.torsion_profile.repeats"] += 1
        self._seen_weight_class.add(key)

    def _cells(self, args, kwargs, f) -> None:
        self.counters["flagcomplex.build_flag_complex.cells"] += sum(f.count(d) for d in range(0, f.dim + 1))
