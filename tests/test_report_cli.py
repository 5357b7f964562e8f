"""Input parsing, report serialization, CLI behavior and exit codes."""

import json

import pytest

from artinkernels import InputError
from artinkernels.cli import FIXTURES, fixture_bytes, golden_bytes, main, run_fixture
from artinkernels.report import (
    JobSpec,
    ParseError,
    canonical_input_json,
    emit_report,
    parse_dot_input,
    parse_input,
    run,
)


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


def test_parse_dot():
    text = b"""
    graph kernel {
      a [n=18];
      b [n=4];
      c [n=12];
      a -- b;
      a -- c;
    }
    """
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


def test_canonical_round_trip():
    for name in FIXTURES:
        g, chi = parse_input(fixture_bytes(name))
        g2, chi2 = parse_input(canonical_input_json(g, chi))
        assert g2.vertices == g.vertices
        assert g2.edges == g.edges
        assert chi2.values == chi.values


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


def test_d_filter_and_max_degree():
    report, _ = run(JobSpec(data=fixture_bytes("tree"), method="both", d_filter=[6], max_degree=1))
    doc = json.loads(emit_report(report, "json"))
    assert set(doc["degrees"]) == {"0", "1"}
    assert set(doc["profiles"]["1"]) == {"6"}
    # direct degrees keep all orders; the filter limits the formula side
    assert doc["degrees"]["1"]["torsion"]["6"] == [0, 1]


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


def test_goldens_match():
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
