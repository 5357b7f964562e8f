"""One workload in one process: set up, run passes for a time budget, check.

Invoked by run.py, which reads this process's peak RSS.  A pass sends
every item of the workload once, closed loop: the next input goes only
after the previous call returned.  The reference kernel (reference.py)
is timed before the first input and after every input, and each input's
times are scaled by the kernel's speed around it, so that the machine's
drifting speed cancels out.  An item's time is the median of its scaled
times over the passes; totals are sums of those per-item times.  The raw
(unscaled) totals go to standard error.

Untraced (--trace 0): only full_decomposition and formula_decomposition
are timed, at their report and crosscheck import sites.  Traced
(--trace 1): untraced and traced passes alternate; the traced ones give
per-function calls, self time and size counters, and the spans of the
first traced pass are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
SETUP_REF_SAMPLES = 5
DIGESTS = json.loads((HERE / "digests.json").read_text())


def import_package():
    """Fresh import of the package from the checkout's src/."""
    for name in [n for n in sys.modules if n == tracing.PACKAGE or n.startswith(tracing.PACKAGE + ".")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    pkg = importlib.import_module(tracing.PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"{tracing.PACKAGE} imported from {pkg.__file__}, not from src/")
    for module in ("cli", "crosscheck", "report"):
        importlib.import_module(f"{tracing.PACKAGE}.{module}")
    return sys.modules


def warm_up(mods) -> list[str]:
    """Run the five fixtures once; returns those that miss their goldens."""
    cli = mods[tracing.PACKAGE + ".cli"]
    missed = []
    for name in cli.FIXTURES:
        try:
            if cli.run_fixture(name) != cli.golden_bytes(name):
                missed.append(name)
        except Exception:  # noqa: BLE001 - a failing fixture is reported, not fatal
            missed.append(name)
    return missed


def run_item(mods, item, gen: dict) -> tuple[bytes, bytes]:
    """Send one input; returns (output bytes, presentation-free output bytes)."""
    if item.kind == "fuzz":
        crosscheck = mods[tracing.PACKAGE + ".crosscheck"]
        result = crosscheck.fuzz(
            1,
            item.fuzz_seed,
            max_vertices=gen["max_vertices"],
            max_label=gen["max_label"],
            check_reduction=gen["check_reduction"],
            check_monodromy=gen["check_monodromy"],
        )
        if not result.ok or result.trials != 1:
            raise RuntimeError(f"fuzz seed {item.fuzz_seed}: {result.mismatches}")
        out = json.dumps(
            {"seed": item.fuzz_seed, "trials": result.trials, "comparisons": result.comparisons}
        ).encode()
        return out, out
    report = mods[tracing.PACKAGE + ".report"]
    job = report.JobSpec(data=item.data, method=item.method, allow_resonant=item.allow_resonant)
    rep, code = report.run(job)
    out = report.emit_report(rep, "json")
    if code != 0:
        raise RuntimeError(f"input {item.index}: exit code {code}")
    if item.golden is not None:
        if out != item.golden:
            raise RuntimeError(f"fixture input {item.index} differs from its golden report")
        return out, out
    doc = json.loads(out)
    del doc["provenance"]  # input hash and vertex names depend on the presentation
    return out, json.dumps(doc, sort_keys=True, indent=2).encode()


class Pass:
    """Outcome of sending every item once."""

    def __init__(self, items):
        self.wall = [0.0] * len(items)
        self.direct = [0.0] * len(items)
        self.formulas = [0.0] * len(items)
        self.outputs: list[bytes] = [b""] * len(items)
        self.canonical: list[bytes] = [b""] * len(items)
        self.errors: dict[int, str] = {}
        self.differs: set[int] = set()  # positions whose outputs differ from the first pass's
        self.ref: list[float] = []  # reference kernel before the first input and after each


def run_pass(mods, items, gen, timer=None, tracer=None) -> Pass:
    p = Pass(items)
    p.ref.append(reference.sample())
    for pos, item in enumerate(items):
        if timer is not None:
            timer.reset()
        if tracer is not None:
            tracer.begin_input()
        start = time.perf_counter()
        try:
            p.outputs[pos], p.canonical[pos] = run_item(mods, item, gen)
        except Exception as exc:  # noqa: BLE001 - a failed input is counted, not fatal
            p.errors[pos] = f"{type(exc).__name__}: {exc}"
        p.wall[pos] = time.perf_counter() - start
        if timer is not None:
            p.direct[pos] = timer.direct
            p.formulas[pos] = timer.formulas
        p.ref.append(reference.sample())
    return p


def fastest(passes, field: str) -> list[float]:
    """Per item, the smallest raw value over the passes."""
    return [min(getattr(p, field)[i] for p in passes) for i in range(len(passes[0].wall))]


def scaled(passes, field: str) -> list[float]:
    """Per item, the median over the passes of its time in reference seconds."""
    return [
        statistics.median(getattr(p, field)[i] * reference.scale(p.ref[i], p.ref[i + 1]) for p in passes)
        for i in range(len(passes[0].wall))
    ]


def timed_setup(seed: int, workload: str, corpus_seed):
    """One set-up (import, corpus, fixture warm-up), timed in reference seconds."""
    before = statistics.median(reference.sample() for _ in range(SETUP_REF_SAMPLES))
    start = time.perf_counter()
    mods = import_package()
    items = workloads.build_corpus(workload, seed, mods[tracing.PACKAGE + ".cli"], corpus_seed)
    missed = warm_up(mods)
    elapsed = time.perf_counter() - start
    after = statistics.median(reference.sample() for _ in range(SETUP_REF_SAMPLES))
    return mods, items, missed, elapsed * reference.scale(before, after), elapsed


def release_outputs(p: Pass, first: Pass) -> None:
    """Note where p's outputs differ from the first pass's, then free them,
    so that peak memory does not grow with the number of passes."""
    p.differs = {i for i, out in enumerate(p.outputs) if out != first.outputs[i]}
    p.outputs = p.canonical = None


def digest_of(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def check(items, passes, workload: str, corpus_default: bool) -> tuple[set, str, str]:
    """Failed item positions, the presentation-free digest and the run digest.

    An item fails if it raised, returned a nonzero code, missed its
    golden, gave different bytes in different passes, or (for the default
    corpus) differs from its recorded digest.  Later passes have been
    compared with the first by release_outputs.
    """
    failed = set()
    for p in passes:
        failed.update(p.errors)
        failed.update(p.differs)
    first = passes[0]
    by_index = sorted(range(len(items)), key=lambda i: items[i].index)
    report_digest = digest_of(first.canonical[i] for i in by_index)
    if corpus_default:
        recorded = DIGESTS[workload]["items"]
        for i in by_index:
            if hashlib.sha256(first.canonical[i]).hexdigest()[:16] != recorded[items[i].index]:
                failed.add(i)
        if report_digest != DIGESTS[workload]["report_digest"]:
            failed.update(range(len(items)))
    run_digest = digest_of(first.outputs)
    return failed, report_digest, run_digest


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPEC))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=None)
    parser.add_argument("--record-digests", action="store_true", help="print the digests of one pass as JSON and exit")
    args = parser.parse_args(argv)

    spec = workloads.SPEC[args.workload]
    gen = spec["generator"]
    corpus_default = args.corpus_seed in (None, spec["corpus_seed"])

    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        mods, items, missed, setup_s, raw_s = timed_setup(args.seed, args.workload, args.corpus_seed)
        setups.append(setup_s)
        raw_setups.append(raw_s)

    if args.record_digests:
        p = run_pass(mods, items, gen)
        if p.errors:
            print(json.dumps(p.errors), file=sys.stderr)
            return 1
        by_index = sorted(range(len(items)), key=lambda i: items[i].index)
        print(json.dumps({
            "report_digest": digest_of(p.canonical[i] for i in by_index),
            "items": [hashlib.sha256(p.canonical[i]).hexdigest()[:16] for i in by_index],
        }))
        return 0

    timer = tracing.PipelineTimer() if not args.trace else None
    tracer = tracing.Tracer() if args.trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    traced_counts = []
    begin = time.perf_counter()
    while True:
        with_trace = bool(args.trace) and len(traced) < len(plain)
        start = time.perf_counter()
        if with_trace:
            tracer.reset_pass()
            tracer.record_spans = not traced
            tracer.patch.apply()
            try:
                traced.append(run_pass(mods, items, gen, tracer=tracer))
            finally:
                tracer.patch.undo()
                tracer.record_spans = False
            traced_counts.append((dict(tracer.calls), dict(tracer.counters), dict(tracer.self_s)))
        else:
            if timer is not None:
                timer.patch.apply()
            try:
                plain.append(run_pass(mods, items, gen, timer=timer))
            finally:
                if timer is not None:
                    timer.patch.undo()
        last = time.perf_counter() - start
        done = traced if with_trace else plain
        if len(done) > 1:
            release_outputs(done[-1], done[0])
        elapsed = time.perf_counter() - begin
        need_traced = bool(args.trace) and not traced
        if not need_traced and elapsed + last > args.seconds:
            break

    failed, report_digest, run_digest = check(items, plain, args.workload, corpus_default)
    correct = not failed
    if traced:
        t_failed, t_report, t_run = check(items, traced, args.workload, corpus_default)
        failed |= t_failed
        repeat_ok = all(c[:2] == traced_counts[0][:2] for c in traced_counts)
        correct = not failed and t_report == report_digest and t_run == run_digest and repeat_ok
        if not repeat_ok:
            print("counters differ between traced passes", file=sys.stderr)
    if missed:
        correct = False
        print(f"fixtures missing their goldens at warm-up: {missed}", file=sys.stderr)
    for p in plain + traced:
        for pos, err in sorted(p.errors.items()):
            print(f"input {items[pos].index}: {err}", file=sys.stderr)

    if not args.trace:
        wall = scaled(plain, "wall")
        ms = sorted(x * 1000 for x in wall)
        metrics = {
            "total_s": metric(sum(wall), "s"),
            "direct_s": metric(sum(scaled(plain, "direct")), "s"),
            "formulas_s": metric(sum(scaled(plain, "formulas")), "s"),
            "input_p50_ms": metric(statistics.median(ms), "ms"),
            "input_p90_ms": metric(statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
            "setup_s": metric(statistics.median(setups), "s"),
        }
    else:
        metrics = layer_metrics(traced_counts)
        metrics["trace.overhead_s"] = metric(sum(fastest(traced, "wall")) - sum(fastest(plain, "wall")), "s")
        write_spans(tracer, args)

    print(
        f"{args.workload}: {len(plain)} untraced and {len(traced)} traced passes of {len(items)} inputs, "
        f"report digest {report_digest[:16]}; raw seconds: median pass {statistics.median(sum(p.wall) for p in plain):.3f}, "
        f"median set-up {statistics.median(raw_setups):.3f}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": correct,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


CALLS_AND_SELF = [f"{m}.{f}" for m, f in tracing.TRACED if f not in ("full_decomposition", "formula_decomposition")]
SELF_ONLY = {"report", "crosscheck"}
COUNTERS = {
    "linalg.rank_rational.entries": "count",
    "linalg.smith_normal_form.max_cells": "count",
    "linalg.smith_normal_form.max_factor_degree": "degree",
    "homology.twisted_boundary.max_entry_degree": "degree",
    "flagcomplex.build_flag_complex.cells": "count",
}


def layer_metrics(traced_counts) -> dict:
    """Calls and counters of the first traced pass; self time from the fastest traced pass."""
    calls, counters, _ = traced_counts[0]
    out = {}
    for name in CALLS_AND_SELF:
        if name.split(".")[0] not in SELF_ONLY:
            out[f"{name}.calls"] = metric(calls.get(name, 0), "count")
        out[f"{name}.self_s"] = metric(min(c[2].get(name, 0.0) for c in traced_counts), "s")
    for name, unit in COUNTERS.items():
        out[name] = metric(counters.get(name, 0), unit)
    frc = calls.get("homology.free_rank_check", 0)
    tp = calls.get("formulas.torsion_profile", 0)
    out["homology.free_rank_check.repeat_share"] = metric(
        counters.get("homology.free_rank_check.repeats", 0) / frc if frc else 0.0, "ratio"
    )
    out["formulas.torsion_profile.weight_class_reuse"] = metric(
        counters.get("formulas.torsion_profile.repeats", 0) / tp if tp else 0.0, "ratio"
    )
    return out


def write_spans(tracer, args) -> None:
    """Spans of the first traced pass: [id, parent id, name, start s, end s]."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps([list(s) for s in tracer.spans]))


if __name__ == "__main__":
    sys.exit(main())
