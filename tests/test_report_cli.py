"""Input parsing, report serialization, CLI behavior and exit codes, and
the README's library example."""

import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from artinkernels import InputError, Simplex, TorsionProfile
from artinkernels.cli import FIXTURES, fixture_bytes, golden_bytes, main, run_fixture
from artinkernels.crosscheck import random_connected_graph, random_nonresonant_character
from artinkernels.homology import ModuleDecomposition
from artinkernels.polys import ExactPoly
from artinkernels.report import (
    JobSpec,
    ParseError,
    Report,
    _dump_json,
    canonical_input_json,
    emit_report,
    parse_dot_input,
    parse_input,
    run,
)

from conftest import count_admission_calls, reference_report_json


def test_parse_json_minimal():
    data = b'{"vertices":["a","b"],"edges":[["a","b"]],"character":{"a":1,"b":2}}'
    g, chi = parse_input(data)
    assert g.vertices == ("a", "b")
    assert g.edges == (("a", "b"),)
    assert chi["a"] == 1 and chi["b"] == 2


def test_parse_json_errors():
    with pytest.raises(ParseError):
        parse_input(b"{not json")
    with pytest.raises(ParseError):
        parse_input(b'{"vertices":["a"],"edges":[]}')
    with pytest.raises(InputError):
        parse_input(b'{"vertices":["a"],"edges":[["a","a"]],"character":{"a":1}}')
    with pytest.raises(InputError):
        parse_input(b'{"vertices":["a"],"edges":[["a","b"]],"character":{"a":1}}')
    with pytest.raises(ParseError):
        parse_input(b'{"vertices":["a"],"edges":[],"character":{"a":1,"b":2}}')
    with pytest.raises(ParseError):
        parse_input(b'{"vertices":["a"],"edges":[],"character":{"a":1.5}}')


@pytest.mark.parametrize("edge", ['"ab"', "[1, 2]", '{"a": 1, "b": 2}'])
def test_parse_json_rejects_edges_that_are_not_string_pairs(tmp_path, capsys, edge):
    # a string read as its two letters, numbers read through str() and an
    # object that ended in a KeyError are all malformed input: exit 1
    data = b'{"vertices":["a","b"],"edges":[%s],"character":{"a":1,"b":2}}' % edge.encode()
    with pytest.raises(ParseError, match="'edges' must be a list of pairs of vertex strings"):
        parse_input(data)
    target = tmp_path / "input.json"
    target.write_bytes(data)
    assert main(["decompose", "--input", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_parse_dot():
    # DOT keywords are case-independent
    for header in (b"graph kernel", b"Graph", b"GRAPH g", b"Strict Graph"):
        text = b"""
        %s {
          a [n=18];
          b [n=4];
          c [n=12];
          a -- b;
          a -- c;
        }
        """ % header
        g, chi = parse_dot_input(text)
        assert g.vertices == ("a", "b", "c")
        assert chi["a"] == 18
        assert g.edges == (("a", "b"), ("a", "c"))
        g2, chi2 = parse_input(text.strip())
        assert g2.vertices == g.vertices and chi2.values == chi.values


def test_parse_dot_errors():
    with pytest.raises(ParseError):
        parse_dot_input(b"digraph g { a -> b; }")
    with pytest.raises(ParseError):
        parse_dot_input(b"graph g { a [n=1]; a [n=2]; }")
    with pytest.raises(ParseError):
        parse_dot_input(b"graph g { a [weight=1]; }")


@pytest.mark.parametrize(
    "text",
    [
        b"digraph { a [n=1]; b [n=2]; a -- b; }",
        b"strict digraph { a [n=1]; b [n=2]; a -- b; }",
        b"strict { a [n=1]; }",
        b"DiGraph { a [n=1]; b [n=2]; a -- b; }",
        b"STRICT DIGRAPH g { a [n=1]; }",
    ],
)
def test_every_header_but_graph_is_refused(tmp_path, capsys, text):
    # only `graph` and `strict graph` name an undirected graph; a digraph
    # is refused as one, strict or not and whichever parser it reaches
    with pytest.raises(ParseError, match="only undirected 'graph' inputs are supported"):
        parse_dot_input(text)
    with pytest.raises(ParseError, match="only undirected 'graph' inputs are supported"):
        parse_input(text)
    target = tmp_path / "input.txt"
    target.write_bytes(text)
    assert main(["decompose", "--input", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "only undirected 'graph' inputs are supported" in err
    g, chi = parse_dot_input(re.sub(b"(?i)digraph", b"graph", text).replace(b"strict {", b"strict graph {"))
    assert chi["a"] == 1


def test_canonical_round_trip():
    for name in FIXTURES:
        g, chi = parse_input(fixture_bytes(name))
        g2, chi2 = parse_input(canonical_input_json(g, chi))
        assert g2.vertices == g.vertices
        assert g2.edges == g.edges
        assert chi2.values == chi.values


def test_json_writer_matches_the_indented_json_module():
    # the writer behind every JSON report replaces json.dumps(sort_keys,
    # indent=2), whose pure-Python encoder it avoids; the bytes must not move
    docs = [
        {},
        [],
        {"b": [], "a": {}, "c": [1, -2, 3 ** 80], "d": None, "e": True, "f": False},
        {"é ✓": ["tab\t", "quote\"", "K[t±1]/Φ2"], "nested": [[], [{}], {"x": [0]}]},
        ("tuple", 0),
        "plain",
    ]
    docs += [json.loads(golden_bytes(name)) for name in FIXTURES]
    for doc in docs:
        assert _dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _dump_json({"x": 0.5})


def reference_bytes(report: Report) -> bytes:
    return (_dump_json(reference_report_json(report)) + "\n").encode("utf-8")


def test_report_writer_matches_the_generic_writer_on_every_fixture():
    # every method that admits a fixture, the resonant one by its override
    for name in FIXTURES:
        resonant = name == "tree_resonant"
        for method in ("direct",) if resonant else ("direct", "formulas", "both"):
            report, _ = run(JobSpec(data=fixture_bytes(name), method=method, allow_resonant=resonant))
            assert emit_report(report, "json") == reference_bytes(report), (name, method)


def test_report_writer_matches_the_generic_writer_on_random_inputs():
    # labels up to 12 give orders 10, 11 and 12, whose keys sort before
    # "2" as strings; some of them carry torsion as well as profiles
    two_digit = set()
    for seed in range(30):
        report, _ = run(JobSpec(data=report_input(f"random-{seed}"), method="both"))
        assert emit_report(report, "json") == reference_bytes(report), seed
        two_digit.update(d for dec in report.degrees.values() for d in dec.torsion if d >= 10)
    assert two_digit


def test_report_writer_matches_the_generic_writer_on_cut_reports():
    for job in (
        JobSpec(data=fixture_bytes("tree"), method="both", max_degree=0),
        JobSpec(data=fixture_bytes("tree"), method="both", d_filter=[12, 6, 1]),
        JobSpec(data=fixture_bytes("square_frame"), method="formulas", d_filter=[2], max_degree=1),
    ):
        report, _ = run(job)
        assert emit_report(report, "json") == reference_bytes(report), job


def test_report_writer_matches_the_generic_writer_on_a_hand_built_report():
    # no golden has remainder factors or degrees past 9, whose keys sort
    # as strings too; profiles repeat, so their shared text is reused
    degrees = {
        m: ModuleDecomposition(
            m, m % 3, {1: (m,), 2: (0, 1), 10: (2,)} if m else {}, (ExactPoly([2, 0, 1]),) * (m % 2)
        )
        for m in range(12)
    }
    profiles = {
        m: {d: TorsionProfile.of(m - 1, d, (0, 1) if d == 2 else (2,), 1 if d == 2 else 2) for d in (2, 10)}
        for m in range(1, 12)
    }
    report = Report(
        method="both",
        degrees=degrees,
        profiles={0: {}, **profiles},
        agreement="agree",
        provenance={"input_sha256": "0" * 64, "vertices": ["a", "é"]},
    )
    text = emit_report(report, "json")
    assert text == reference_bytes(report)
    assert b'"remainder_factors": [\n        "t^2 + 2"\n      ]' in text
    assert list(json.loads(text)["degrees"]) == sorted(str(m) for m in range(12))


def test_report_writer_matches_the_generic_writer_on_a_mismatch(monkeypatch):
    import artinkernels.report as report_module

    real = report_module.formula_decomposition

    def one_off(*args, **kwargs):
        out = real(*args, **kwargs)
        out[1].free_rank += 1
        return out

    monkeypatch.setattr(report_module, "formula_decomposition", one_off)
    report, code = run(JobSpec(data=fixture_bytes("kite"), method="both"))
    assert code == 2 and report.agreement == "mismatch" and report.mismatches
    assert emit_report(report, "json") == reference_bytes(report)


def test_report_writer_matches_the_generic_writer_on_non_ascii_names():
    data = json.dumps(
        {
            "vertices": ["é", "Φ₂", "\"q\"", "tab\t"],
            "edges": [["é", "Φ₂"], ["Φ₂", "\"q\""], ["\"q\"", "tab\t"]],
            "character": {"é": 2, "Φ₂": 3, "\"q\"": 4, "tab\t": 6},
        }
    ).encode("utf-8")
    for method in ("direct", "formulas", "both"):
        report, _ = run(JobSpec(data=data, method=method))
        text = emit_report(report, "json")
        assert text == reference_bytes(report)
        assert json.loads(text)["provenance"]["vertices"] == ["é", "Φ₂", '"q"', "tab\t"]


def test_each_report_admits_its_input_once(monkeypatch):
    # report.run classifies the character, lists its candidate orders and
    # groups them into weight classes once; both pipelines read that
    calls = count_admission_calls(monkeypatch)
    jobs = [
        JobSpec(data=fixture_bytes(name), method=method)
        for name in ("tree", "kite", "triforce", "square_frame")
        for method in ("direct", "formulas", "both")
    ]
    jobs.append(JobSpec(data=fixture_bytes("tree_resonant"), method="direct", allow_resonant=True))
    jobs += [JobSpec(data=report_input(f"random-{seed}"), method="both") for seed in range(5)]
    for job in jobs:
        calls.clear()
        run(job)
        assert Counter(name for name, _ in calls) == {
            "classify_character": 1,
            "torsion_candidates": 1,
            "weight_classes": 1,
        }, job
    # under --d the formula side groups only its filtered orders
    calls.clear()
    run(JobSpec(data=fixture_bytes("tree"), method="both", d_filter=[6, 2]))
    grouped = [args[2] for name, args in calls if name == "weight_classes"]
    assert grouped == [(2, 3, 4, 6, 9, 12, 18), (2, 6)]


def test_run_determinism():
    data = fixture_bytes("kite")
    a = emit_report(run(JobSpec(data=data, method="both"))[0], "json")
    b = emit_report(run(JobSpec(data=data, method="both"))[0], "json")
    assert a == b


def test_run_exit_codes_and_formulas_refusal():
    report, code = run(JobSpec(data=fixture_bytes("tree"), method="both"))
    assert code == 0 and report.agreement == "agree"
    with pytest.raises(InputError):
        run(JobSpec(data=fixture_bytes("tree_resonant"), method="formulas"))
    with pytest.raises(InputError):
        run(JobSpec(data=fixture_bytes("tree_resonant"), method="both"))
    # direct without the override also refuses
    with pytest.raises(InputError):
        run(JobSpec(data=fixture_bytes("tree_resonant"), method="direct"))
    report, code = run(
        JobSpec(data=fixture_bytes("tree_resonant"), method="direct", allow_resonant=True)
    )
    assert code == 0


def test_formula_only_report_reads_every_vector_off_the_bars(ambiguous_h3):
    # H_3's order-2 profile (3 summands, weighted sum 7, largest exponent
    # 3) fits two vectors; the formula-only report must still print the
    # direct module and the vector, in every degree
    data = canonical_input_json(*ambiguous_h3)
    lines = {}
    for method in ("direct", "formulas"):
        report, code = run(JobSpec(data=data, method=method))
        assert code == 0
        lines[method] = [x for x in emit_report(report, "text").decode().splitlines() if x.startswith("H_")]
    assert "H_3 = (K[t±1]/Φ1)^26 ⊕ (K[t±1]/Φ2^2)^2 ⊕ K[t±1]/Φ2^3" in lines["direct"]
    assert lines["formulas"] == lines["direct"]
    report, code = run(JobSpec(data=data, method="both"))
    assert code == 0 and report.agreement == "agree"
    doc = json.loads(emit_report(report, "json"))
    assert doc["profiles"]["3"]["2"]["exponents"] == [0, 2, 1]
    assert b"undetermined" not in emit_report(report, "text")


def test_emitted_degrees_structure():
    report, _ = run(JobSpec(data=fixture_bytes("square_frame"), method="direct"))
    doc = json.loads(emit_report(report, "json"))
    assert doc["degrees"]["2"]["torsion"] == {"1": [8], "2": [0, 0, 1]}
    assert doc["degrees"]["3"]["torsion"] == {}
    kite_doc = json.loads(emit_report(run(JobSpec(data=fixture_bytes("kite"), method="direct"))[0], "json"))
    assert kite_doc["degrees"]["2"] == {"free_rank": 0, "torsion": {"1": [1], "2": [1]}}


def test_text_format():
    report, _ = run(JobSpec(data=fixture_bytes("kite"), method="direct"))
    text = emit_report(report, "text").decode()
    assert "H_1 = (K[t±1]/Φ1)^5 ⊕ (K[t±1]/Φ2^2)^2" in text
    assert "H_3 = 0" in text


def report_input(name: str) -> bytes:
    """A fixture, or for random-<seed> a default-fuzz-size input drawn from that seed."""
    if not name.startswith("random-"):
        return fixture_bytes(name)
    rng = random.Random(int(name.removeprefix("random-")))
    g = random_connected_graph(rng, 6)
    return canonical_input_json(g, random_nonresonant_character(rng, g, 12))


@pytest.mark.parametrize(
    "name", ["tree", "kite", "triforce", "square_frame", *(f"random-{seed}" for seed in range(30))]
)
def test_formulas_report_matches_direct_report(name):
    # a formulas-only report serializes the formula pipeline's degrees;
    # they must read exactly as the direct pipeline's modules
    reports = {
        method: run(JobSpec(data=report_input(name), method=method))[0]
        for method in ("formulas", "direct")
    }
    docs = {method: json.loads(emit_report(r, "json")) for method, r in reports.items()}
    assert docs["formulas"]["degrees"] == docs["direct"]["degrees"]
    lines = {
        method: [line for line in emit_report(r, "text").decode().splitlines() if line.startswith("H_")]
        for method, r in reports.items()
    }
    assert lines["formulas"] == lines["direct"] and lines["direct"]


def test_d_filter_and_max_degree():
    report, _ = run(JobSpec(data=fixture_bytes("tree"), method="both", d_filter=[6], max_degree=1))
    doc = json.loads(emit_report(report, "json"))
    assert set(doc["degrees"]) == {"0", "1"}
    assert set(doc["profiles"]["1"]) == {"6"}
    # direct degrees keep all orders; the filter limits the formula side
    assert doc["degrees"]["1"]["torsion"]["6"] == [0, 1]
    # an order that is neither 1 nor a candidate could only select nothing
    with pytest.raises(InputError, match=r"order 7 .*\(candidates: 2, 3, 4, 6, 9, 12, 18\)"):
        run(JobSpec(data=fixture_bytes("tree"), method="both", d_filter=[6, 7]))


def test_unknown_method_is_refused():
    # a method the report does not know is refused, never answered with
    # an empty report and exit code 0
    for method in ("Both", "formula", ""):
        with pytest.raises(InputError, match="unknown method"):
            run(JobSpec(data=fixture_bytes("kite"), method=method))


def test_readme_library_example_runs(capsys):
    # the README's library example runs as printed, and its last line
    # shows the two pipelines answering one degree with equal modules
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("{0: ModuleDecomposition(degree=0")
    assert lines[-1] == "True"


def test_negative_max_degree_is_rejected(tmp_path, capsys):
    with pytest.raises(InputError):
        run(JobSpec(data=fixture_bytes("kite"), method="both", max_degree=-1))
    target = tmp_path / "kite.json"
    target.write_bytes(fixture_bytes("kite"))
    assert main(["check", "--input", str(target), "--max-degree", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max degree" in captured.err
    # zero stays valid: degree 0 only
    report, code = run(JobSpec(data=fixture_bytes("kite"), method="both", max_degree=0))
    assert code == 0 and set(report.degrees) == {0}


@pytest.mark.parametrize("spec", [",,", "0,-2", "", "2,0", "7", "2,7"])
def test_cli_rejects_order_lists_that_select_nothing(tmp_path, capsys, spec):
    target = tmp_path / "kite.json"
    target.write_bytes(fixture_bytes("kite"))
    assert main(["check", "--input", str(target), "--d", spec]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "--d" in err
    assert main(["check", "--input", str(target), "--d", "1,2"]) == 0


def test_goldens_match():
    for name in FIXTURES:
        assert run_fixture(name) == golden_bytes(name), name


def test_reports_make_no_simplex_objects(monkeypatch):
    # both pipelines and the Q[t] Smith form read the clique codes alone:
    # with Simplex refusing construction every report still matches
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Simplex was made")

    monkeypatch.setattr(Simplex, "__init__", refuse)
    with pytest.raises(AssertionError, match="a Simplex was made"):
        Simplex((), ())
    for name in FIXTURES:
        assert run_fixture(name) == golden_bytes(name), name


def test_cli_main(tmp_path, capsys):
    target = tmp_path / "input.json"
    target.write_bytes(fixture_bytes("tree"))
    out = tmp_path / "report.json"
    code = main(["decompose", "--input", str(target), "--method", "direct", "--format", "json", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_bytes())
    assert doc["degrees"]["1"]["torsion"]["6"] == [0, 1]

    code = main(["check", "--input", str(target)])
    assert code == 0
    seen = capsys.readouterr().out
    assert "cross-validation: agree" in seen

    code = main(["fixtures"])
    assert code == 0
    seen = capsys.readouterr().out
    assert seen.count("PASS") == len(FIXTURES)

    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"vertices":["a"],"edges":[["a","a"]],"character":{"a":1}}')
    assert main(["decompose", "--input", str(bad)]) == 1

    resonant = tmp_path / "res.json"
    resonant.write_bytes(fixture_bytes("tree_resonant"))
    assert main(["decompose", "--input", str(resonant), "--method", "formulas"]) == 1
    assert (
        main(["decompose", "--input", str(resonant), "--method", "direct", "--allow-resonant"])
        == 0
    )


def test_cli_fuzz_smoke(capsys):
    assert main(["fuzz", "--trials", "3", "--seed", "5", "--max-vertices", "5"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value", [("--max-vertices", "1"), ("--max-label", "0"), ("--trials", "-3")]
)
def test_cli_fuzz_rejects_degenerate_generator_bounds(capsys, monkeypatch, flag, value):
    import artinkernels.crosscheck as crosscheck

    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(crosscheck, "random_connected_graph", no_trial)
    assert main(["fuzz", "--trials", "3", flag, value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and flag[2:].replace("-", " ") in err


def test_consistency_errors_exit_2_and_fuzz_runs_on(tmp_path, capsys, monkeypatch):
    import artinkernels.crosscheck as crosscheck
    import artinkernels.report as report
    from artinkernels import ConsistencyError

    real = crosscheck.full_decomposition
    calls = []

    def fails_on_trial_2(f, chi, *args, **kwargs):
        calls.append(chi)
        if len(calls) == 3:
            raise ConsistencyError("planted failure")
        return real(f, chi, *args, **kwargs)

    monkeypatch.setattr(crosscheck, "full_decomposition", fails_on_trial_2)
    assert main(["fuzz", "--seed", "1", "--trials", "4"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == 4
    assert lines[-1] == "4 trials, 1 mismatches"
    assert len(lines) == 2 and lines[0].startswith("MISMATCH trial 2 (")
    assert lines[0].endswith("): planted failure")

    def raises(*args, **kwargs):
        raise ConsistencyError("planted failure")

    monkeypatch.setattr(report, "full_decomposition", raises)
    target = tmp_path / "kite.json"
    target.write_bytes(fixture_bytes("kite"))
    for command in (["check"], ["decompose", "--method", "direct"]):
        assert main([*command, "--input", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: planted failure\n"
