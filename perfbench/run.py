"""Benchmark for artinkernels: seeded workloads through the public entry points.

    python3 perfbench/run.py --workload small --seed 0 --seconds 50 --trace 0

Workloads (see workloads.json for generator parameters, corpus seeds and
reasons): small and fuzz_thorough.  Each runs in its own child process
(worker.py), so peak_rss_mb is that workload's alone.  One caller,
closed loop, no threads or pools.

--trace 0 prints the end-to-end metrics: total_s, direct_s, formulas_s,
input_p50_ms and input_p90_ms (over per-input times; the sample count is
"attempted"), setup_s (median of nine set-ups: import, corpus
generation, fixture warm-up) and peak_rss_mb.  Times are in reference
seconds: wall time scaled by the machine's speed, as a fixed kernel
timed next to the work measures it (reference.py), because the host's
speed drifts too much for raw wall time to compare runs.  --trace 1 prints
per-layer calls, self time and size counters from a traced run.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
Outputs are checked against the fixture goldens and the recorded digests
in digests.json; any wrong output makes "correct" false and the exit
code 1.  Without src/artinkernels next to this directory the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=None, help="draw another problem set (held-out check)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "artinkernels" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'artinkernels'}", file=sys.stderr)
        return 2
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.corpus_seed is not None:
        cmd += ["--corpus-seed", str(args.corpus_seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MiB"}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
