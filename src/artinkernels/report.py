"""Report assembly: input parsing, pipeline execution, cross-validation,
and deterministic serialization.

Inputs are JSON ({"vertices": [...], "edges": [[a, b], ...],
"character": {...}}) or a small DOT subset (vertex statements carrying an
integer attribute n, undirected edges with --).  The JSON report schema
is {"degrees": {"<m>": {"free_rank": int, "torsion": {"<d>": [...]}}},
"method": ..., "agreement": ...} plus formula profiles and provenance;
serialization is key-sorted so identical inputs give identical bytes.
The JSON equals json.dumps(report_dict, sort_keys=True, indent=2) plus a
newline.  A report-shaped writer (_report_json) produces it from the
Report's fields, with no dict built: one template per degree and per
profile, each distinct profile formatted once per report.  The tests'
reference builds the report dict and runs the generic writer
(_dump_json) on it.

Both pipelines answer with homology.ModuleDecomposition, so degrees
serialize by one path, the direct pipeline's when both ran; the formula
profiles are read off the formula vectors (TorsionProfile.of).  run
admits each input once (homology.require_admissible) and hands that
admission to both pipelines.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .flagcomplex import build_flag_complex
from .formulas import TorsionProfile, formula_decomposition
from .graphs import Character, CharacterClass, InputError, SimplicialGraph
from .homology import ModuleDecomposition, full_decomposition, require_admissible


class ParseError(InputError):
    """Malformed input file."""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_json_input(data: bytes) -> tuple[SimplicialGraph, Character]:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("vertices", "edges", "character"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError("'vertices' must be a list of strings")
    edges = doc["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e) for e in edges
    ):
        raise ParseError("'edges' must be a list of pairs of vertex strings")
    char = doc["character"]
    if not isinstance(char, dict):
        raise ParseError("'character' must be an object")
    graph = SimplicialGraph(vertices, edges)
    missing = [v for v in vertices if v not in char]
    if missing:
        raise ParseError(f"character value missing for vertices {missing}")
    known = set(vertices)
    extra = [v for v in char if v not in known]
    if extra:
        raise ParseError(f"character defined on unknown vertices {extra}")
    values = {}
    for v, n in char.items():
        if not isinstance(n, int) or isinstance(n, bool):
            raise ParseError(f"character value for {v!r} must be an integer")
        values[v] = n
    return graph, Character(values)


_DOT_VERTEX = re.compile(r'^"?([\w.+-]+)"?\s*\[\s*n\s*=\s*(-?\d+)\s*\]$')
_DOT_EDGE = re.compile(r'^"?([\w.+-]+)"?\s*--\s*"?([\w.+-]+)"?$')


def parse_dot_input(data: bytes) -> tuple[SimplicialGraph, Character]:
    """Parse the DOT subset: graph { a [n=18]; a -- b; ... }.

    Vertex declaration order is the order of the vertex statements; every
    vertex must carry an integer attribute n.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from exc
    body = text
    open_idx = body.find("{")
    close_idx = body.rfind("}")
    if open_idx < 0 or close_idx < 0 or close_idx < open_idx:
        raise ParseError("missing graph braces")
    words = body[:open_idx].lower().split()  # DOT keywords are case-independent
    if words[:1] == ["strict"]:
        words = words[1:]
    if words[:1] != ["graph"]:
        raise ParseError("only undirected 'graph' inputs are supported")
    vertices: list[str] = []
    values: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(body[open_idx + 1 : close_idx].splitlines(), start=1):
        for stmt in raw.split(";"):
            stmt = stmt.strip()
            if not stmt or stmt.startswith("//") or stmt.startswith("#"):
                continue
            m = _DOT_VERTEX.match(stmt)
            if m:
                name, label = m.group(1), int(m.group(2))
                if name in values:
                    raise ParseError(f"line {lineno}: vertex {name!r} declared twice")
                vertices.append(name)
                values[name] = label
                continue
            m = _DOT_EDGE.match(stmt)
            if m:
                edges.append((m.group(1), m.group(2)))
                continue
            raise ParseError(f"line {lineno}: cannot parse statement {stmt!r}")
    graph = SimplicialGraph(vertices, edges)
    return graph, Character(values)


def canonical_input_json(graph: SimplicialGraph, chi: Character) -> bytes:
    """Serialize a parsed input back to canonical JSON, key-sorted like a
    report; parsing the result reproduces the same graph and character."""
    doc = {
        "vertices": list(graph.vertices),
        "edges": [list(e) for e in graph.edges],
        "character": {v: chi[v] for v in graph.vertices},
    }
    return (_dump_json(doc) + "\n").encode("utf-8")


def parse_input(data: bytes) -> tuple[SimplicialGraph, Character]:
    """The DOT subset when the input opens with a DOT graph keyword, in
    any case; JSON otherwise."""
    if data.lstrip()[:7].lower().startswith((b"graph", b"strict", b"digraph")):
        return parse_dot_input(data)
    return parse_json_input(data)


# ---------------------------------------------------------------------------
# job + report model
# ---------------------------------------------------------------------------


@dataclass
class JobSpec:
    data: bytes
    method: str = "both"  # direct | formulas | both
    max_degree: Optional[int] = None
    d_filter: Optional[Sequence[int]] = None
    allow_resonant: bool = False


@dataclass
class Report:
    method: str
    degrees: dict[int, ModuleDecomposition]
    profiles: dict[int, dict[int, TorsionProfile]] = field(default_factory=dict)
    formula_degrees: dict[int, ModuleDecomposition] = field(default_factory=dict)
    agreement: Optional[str] = None
    mismatches: list[str] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)


def compare_pipelines(
    degrees: dict[int, ModuleDecomposition],
    formula: dict[int, ModuleDecomposition],
    orders: Sequence[int],
) -> list[str]:
    """Per degree the free rank, the order-1 part and one exponent vector
    per order, between the two pipelines, which answer the same degrees;
    every other statistic of either side is a function of these.  Returns
    the list of mismatch descriptions (empty means agreement)."""
    issues = []
    for m, theirs in formula.items():
        direct = degrees[m]
        if direct.free_rank != theirs.free_rank:
            issues.append(f"H_{m}: free rank {direct.free_rank} (direct) vs {theirs.free_rank} (formulas)")
        if direct.torsion == theirs.torsion:
            continue  # every order agrees
        if direct.exponent_vector(1) != theirs.exponent_vector(1):
            issues.append(f"H_{m}: order-1 part {direct.exponent_vector(1)} vs {theirs.exponent_vector(1)}")
        for d in orders:
            if direct.exponent_vector(d) != theirs.exponent_vector(d):
                issues.append(
                    f"H_{m} d={d}: exponents {direct.exponent_vector(d)} (direct) "
                    f"vs {theirs.exponent_vector(d)} (formulas)"
                )
    return issues


def _profiles(dec: ModuleDecomposition, orders: Sequence[int]) -> dict[int, TorsionProfile]:
    """The formula profile of each order in one degree (none in degree 0),
    read once per distinct exponent vector; its summand count sum(vec), the
    number of bars, matched the double cover's count in the pipeline."""
    if dec.degree == 0:
        return {}
    k, made, out = dec.degree - 1, {}, {}
    for d in orders:
        vec = dec.torsion.get(d, ())
        p = made.get(vec)
        if p is None:
            p = made[vec] = TorsionProfile.of(k, d, vec, sum(vec))
        out[d] = TorsionProfile(k, d, p.weighted_sum, p.summand_count, p.top_count, p.max_exponent, vec)
    return out


def run(job: JobSpec) -> tuple[Report, int]:
    """Execute a job; returns the report and the process exit code
    (0 success, 1 input error, 2 cross-validation mismatch)."""
    if job.method not in ("direct", "formulas", "both"):
        raise InputError(f"unknown method {job.method!r}: use direct, formulas or both")
    if job.max_degree is not None and job.max_degree < 0:
        raise InputError(f"max degree must be non-negative, got {job.max_degree}")
    graph, chi = parse_input(job.data)
    f = build_flag_complex(graph)
    # one admission per input, read by both pipelines; each still
    # refuses by its own rule
    admitted = require_admissible(f, chi, allow_degenerate=True)
    cls = admitted.character_class
    if job.method in ("formulas", "both") and cls is not CharacterClass.NON_RESONANT_SURJECTIVE:
        raise InputError(
            f"{cls.value} character unsupported by the formula pipeline; "
            "use --method direct (with --allow-resonant for degenerate labels)"
        )
    orders = admitted.orders
    if job.d_filter is not None:
        for d in job.d_filter:
            if d != 1 and d not in orders:
                raise InputError(
                    f"--d order {d} is neither 1 nor a candidate torsion order "
                    f"(candidates: {', '.join(map(str, orders)) or 'none'})"
                )
        wanted = set(job.d_filter)
        orders = tuple(d for d in orders if d in wanted)

    report = Report(method=job.method, degrees={}, provenance=_provenance(job.data, graph))
    if job.method in ("direct", "both"):
        report.degrees = full_decomposition(
            f, chi, max_degree=job.max_degree, allow_degenerate=job.allow_resonant, admitted=admitted
        )
    if job.method in ("formulas", "both"):
        report.formula_degrees = formula_decomposition(f, chi, orders, max_degree=job.max_degree, admitted=admitted)
        report.profiles = {m: _profiles(dec, orders) for m, dec in report.formula_degrees.items()}
    code = 0
    if job.method == "both":
        report.mismatches = compare_pipelines(report.degrees, report.formula_degrees, orders)
        report.agreement = "agree" if not report.mismatches else "mismatch"
        if report.mismatches:
            code = 2
    return report, code


def _provenance(data: bytes, graph: SimplicialGraph) -> dict:
    return {
        "input_sha256": hashlib.sha256(data).hexdigest(),
        "vertices": list(graph.vertices),
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _module_text(dec: ModuleDecomposition) -> str:
    parts = []
    if dec.free_rank == 1:
        parts.append("K[t±1]")
    elif dec.free_rank > 1:
        parts.append(f"K[t±1]^{dec.free_rank}")
    for d, vec in sorted(dec.torsion.items()):
        for j, r in enumerate(vec, start=1):
            if r == 0:
                continue
            base = f"K[t±1]/Φ{d}" if j == 1 else f"K[t±1]/Φ{d}^{j}"
            parts.append(f"({base})^{r}" if r > 1 else base)
    return " ⊕ ".join(parts) if parts else "0"


def _dump_json(obj, indent: str = "") -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) for the
    types a report holds, tested by exact type.  json.dumps takes its
    pure-Python encoder whenever indent is set; this writer only borrows
    the C string escaper."""
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if kind is dict:
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _dump_json(v, inner) for k, v in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        items = [_dump_json(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    raise TypeError(f"cannot serialize {kind.__name__} in a report")


# A report's own nodes sit at fixed depths, so each is one template with
# its keys in the order sort_keys gives; an exponent vector sits at the
# same depth in a degree's torsion and in a profile.
_DEGREE_JSON = '{{\n      "free_rank": {},{}\n      "torsion": {}\n    }}'
_PROFILE_JSON = (
    '{{\n        "exponents": {},\n        "max_exponent": {},\n        "summand_count": {},'
    '\n        "top_count": {},\n        "weighted_sum": {}\n      }}'
)


def _vector_json(vec: Sequence[int]) -> str:
    return "[\n          " + ",\n          ".join(map(int.__repr__, vec)) + "\n        ]" if vec else "[]"


def _object_json(entries: list[str], indent: str) -> str:
    """An object's text from its '"<key>": <value>' entries, for integer
    keys.  A key's closing quote sorts below every digit and minus sign a
    longer key could go on with, so sorting the entries sorts the keys as
    strings, as sort_keys does ("10" < "2")."""
    if not entries:
        return "{}"
    entries.sort()
    sep = ",\n" + indent + "  "
    return "{" + sep[1:] + sep.join(entries) + "\n" + indent + "}"


def _degree_json(dec: ModuleDecomposition) -> str:
    remainder = ""
    if dec.remainder_factors:
        factors = ",\n        ".join(encode_basestring_ascii(str(p)) for p in dec.remainder_factors)
        remainder = '\n      "remainder_factors": [\n        ' + factors + "\n      ],"
    torsion = [f'"{d}": {_vector_json(vec)}' for d, vec in dec.torsion.items()]
    return _DEGREE_JSON.format(dec.free_rank, remainder, _object_json(torsion, "      "))


def _report_json(report: Report) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) of the
    report's dict, written from its fields without building the dict:
    one template per degree and per profile, each distinct profile
    formatted once per report.  The free-form provenance and mismatch
    list go through _dump_json."""
    degrees = report.degrees or report.formula_degrees
    agreement = "null" if report.agreement is None else encode_basestring_ascii(report.agreement)
    parts = [
        '{\n  "agreement": ' + agreement,
        ',\n  "degrees": ' + _object_json([f'"{m}": {_degree_json(dec)}' for m, dec in degrees.items()], "  "),
        ',\n  "method": ' + encode_basestring_ascii(report.method),
    ]
    if report.mismatches:
        parts.append(',\n  "mismatches": ' + _dump_json(report.mismatches, "  "))
    if report.profiles:
        made: dict[tuple, str] = {}
        per_degree = []
        for m, per in report.profiles.items():
            entries = []
            for d, p in per.items():
                key = (p.exponents, p.max_exponent, p.summand_count, p.top_count, p.weighted_sum)
                text = made.get(key)
                if text is None:
                    text = made[key] = _PROFILE_JSON.format(_vector_json(key[0]), *key[1:])
                entries.append(f'"{d}": {text}')
            per_degree.append(f'"{m}": {_object_json(entries, "    ")}')
        parts.append(',\n  "profiles": ' + _object_json(per_degree, "  "))
    parts.append(',\n  "provenance": ' + _dump_json(report.provenance, "  ") + "\n}\n")
    return "".join(parts)


def emit_report(report: Report, fmt: str = "json") -> bytes:
    """Deterministic serialization; identical reports give identical bytes."""
    if fmt == "json":
        return _report_json(report).encode("utf-8")
    if fmt != "text":
        raise InputError(f"unknown output format {fmt!r}")
    lines = []
    for m, dec in sorted((report.degrees or report.formula_degrees).items()):
        lines.append(f"H_{m} = {_module_text(dec)}")
        if dec.remainder_factors:
            rems = ", ".join(str(p) for p in dec.remainder_factors)
            lines.append(f"    non-cyclotomic content: {rems}")
    for m, per in sorted(report.profiles.items()):
        for d, p in sorted(per.items()):
            lines.append(
                f"  degree {m}, order {d}: summands={p.summand_count} "
                f"dim_per_factor={p.weighted_sum} top={p.top_count} "
                f"max_exp={p.max_exponent} exponents={list(p.exponents)}"
            )
    if report.agreement is not None:
        lines.append(f"cross-validation: {report.agreement}")
        lines.extend(f"  {msg}" for msg in report.mismatches)
    return ("\n".join(lines) + "\n").encode("utf-8")
