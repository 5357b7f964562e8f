"""Command line interface.

Subcommands: decompose (run one or both pipelines on an input file),
check (shorthand for --method both), fixtures (run the bundled example
inputs against their golden reports), fuzz (randomized cross-validation).
Exit codes: 0 success, 1 input error, 2 cross-validation mismatch or a
failed internal consistency check.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .graphs import ConsistencyError, InputError
from .report import JobSpec, emit_report, run


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", "-i", required=True, help="JSON or DOT input file")
    parser.add_argument("--output", "-o", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--max-degree", type=int, default=None)
    parser.add_argument(
        "--d",
        default=None,
        help="comma separated torsion orders to report (default: all candidates)",
    )
    parser.add_argument(
        "--allow-resonant",
        action="store_true",
        help="let the direct pipeline accept resonant or otherwise degenerate labels",
    )


def _parse_orders(spec: str | None) -> list[int] | None:
    if spec is None:
        return None
    try:
        orders = [int(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"bad --d list {spec!r}") from exc
    if not orders or min(orders) < 1:
        raise InputError(f"--d list {spec!r} must name orders of at least 1")
    return orders


def _run_job(args: argparse.Namespace, method: str) -> int:
    data = Path(args.input).read_bytes()
    job = JobSpec(
        data=data,
        method=method,
        max_degree=args.max_degree,
        d_filter=_parse_orders(args.d),
        allow_resonant=args.allow_resonant,
    )
    report, code = run(job)
    payload = emit_report(report, args.format)
    if args.output:
        Path(args.output).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return code


FIXTURES = {
    "tree": {"method": "both"},
    "tree_resonant": {"method": "direct", "allow_resonant": True},
    "kite": {"method": "both"},
    "triforce": {"method": "both"},
    "square_frame": {"method": "both"},
}


def fixture_bytes(name: str) -> bytes:
    return resources.files("artinkernels").joinpath(f"fixtures/{name}.json").read_bytes()


def golden_bytes(name: str) -> bytes:
    return resources.files("artinkernels").joinpath(f"fixtures/expected/{name}.json").read_bytes()


def run_fixture(name: str) -> bytes:
    cfg = FIXTURES[name]
    job = JobSpec(
        data=fixture_bytes(name),
        method=cfg.get("method", "both"),
        allow_resonant=cfg.get("allow_resonant", False),
    )
    report, code = run(job)
    if code != 0:
        raise InputError(f"fixture {name} reported a pipeline mismatch")
    return emit_report(report, "json")


def _cmd_fixtures(_args: argparse.Namespace) -> int:
    failures = 0
    for name in FIXTURES:
        try:
            got = run_fixture(name)
            want = golden_bytes(name)
            ok = got == want
        except Exception as exc:  # noqa: BLE001 - report and continue
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1
    return 2 if failures else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .crosscheck import fuzz

    result = fuzz(
        trials=args.trials,
        seed=args.seed,
        max_vertices=args.max_vertices,
        max_label=args.max_label,
        check_reduction=args.thorough,
        check_monodromy=args.thorough,
    )
    for msg in result.mismatches:
        print(f"MISMATCH {msg}")
    print(f"{result.trials} trials, {len(result.mismatches)} mismatches")
    return 2 if result.mismatches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="artin-kernels",
        description="Module decomposition of Artin kernel homology over K[t^±1]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="run one or both pipelines on an input")
    _add_common(p_dec)
    p_dec.add_argument("--method", choices=("direct", "formulas", "both"), default="both")

    p_check = sub.add_parser("check", help="decompose with method=both")
    _add_common(p_check)

    p_fix = sub.add_parser("fixtures", help="run the bundled examples against goldens")

    p_fuzz = sub.add_parser("fuzz", help="randomized pipeline cross-validation")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--trials", type=int, default=50)
    p_fuzz.add_argument("--max-vertices", type=int, default=6)
    p_fuzz.add_argument("--max-label", type=int, default=12)
    p_fuzz.add_argument(
        "--thorough",
        action="store_true",
        help="also run the even-reduction and invariant checks per trial",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "decompose":
            return _run_job(args, args.method)
        if args.command == "check":
            return _run_job(args, "both")
        if args.command == "fixtures":
            return _cmd_fixtures(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
