import json
import shlex
from pathlib import Path

import pytest

from bsurf import cli, fixtures, io

DOCS = Path(__file__).resolve().parent.parent / "documents"


# ---------------------------------------------------------------------------
# documents


def test_shipped_three_sheet_document_loads():
    doc = io.load(DOCS / "three_sheets.json")
    b = doc.surfaces["three-sheets"]
    assert len(b.sectors) == 3
    assert len(b.branch_arcs) == 2
    assert "three-slabs" in doc.domains
    assert doc.weights["full"] == ("three-sheets", (2, 1, 1))


def test_empty_document_loads():
    doc = io.loads(json.dumps({"format_version": 1}))
    assert doc.surfaces == {}
    assert doc.faces == {}


def test_parse_error_carries_line_and_column():
    with pytest.raises(io.DocumentError) as err:
        io.loads('{"format_version": 1,\n "branched_surfaces": [}]}')
    assert err.value.kind == "parse error"
    assert "line 2" in err.value.location


def test_reference_error_names_the_offender():
    raw = {"format_version": 1,
           "weights": [{"name": "w", "surface": "ghost", "entries": [1]}]}
    with pytest.raises(io.DocumentError) as err:
        io.loads(json.dumps(raw))
    assert err.value.kind == "reference error"
    assert "ghost" in str(err.value)


def test_crossing_diagram_rejected_as_non_planar():
    raw = {"format_version": 1,
           "faces": [{"face": "F", "edge_slots": [[0, 1], [2, 3], []]}],
           "dividing_sets": [{"face": "F", "arcs": [[0, 2], [1, 3]]}]}
    with pytest.raises(io.DocumentError) as err:
        io.loads(json.dumps(raw))
    assert "non-planar dividing set" in str(err.value)


def test_inadmissible_weight_rejected_with_rule_name():
    raw = {"format_version": 1,
           "branched_surfaces": [json.loads(io.dumps(_theta_doc()))["branched_surfaces"][0]],
           "weights": [{"name": "bad", "surface": "theta", "entries": [1, 1, 1]}]}
    with pytest.raises(io.DocumentError) as err:
        io.loads(json.dumps(raw))
    assert "switch" in str(err.value)


def _theta_doc():
    doc = io.ComplexDocument()
    doc.surfaces["theta"] = fixtures.theta_surface()
    return doc


def test_round_trip_is_byte_exact():
    for name in ("three_sheets.json", "theta.json", "complex.json"):
        text = (DOCS / name).read_text(encoding="utf-8")
        assert io.dumps(io.loads(text)) == text


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_ok(capsys):
    rc = cli.main(["validate", str(DOCS / "complex.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "holonomy G: pass" in out


def test_cli_validate_flags_zero_holonomy(tmp_path, capsys):
    raw = json.loads((DOCS / "complex.json").read_text())
    for cr in raw["holonomy"][0]["crossings"]:
        cr["shift"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    rc = cli.main(["validate", str(bad)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "bennequin-violation" in out
    assert "circuit" in out


def test_cli_hilbert_reports_basis(capsys):
    rc = cli.main(["hilbert", str(DOCS / "theta.json"), "--surface", "theta",
                   "--oracle-bound", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 minimal generators" in out
    assert "oracle check at bound 2: pass" in out


def test_cli_carry_with_named_weight(capsys):
    rc = cli.main(["carry", str(DOCS / "theta.json"), "--surface", "theta",
                   "--weight", "u1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "torus" in out


def test_cli_carry_rejects_bad_weight(capsys):
    rc = cli.main(["carry", str(DOCS / "theta.json"), "--surface", "theta",
                   "--weight", "1,1,1"])
    assert rc == 1


def test_cli_lutz_enumerate_bound_zero_is_base(capsys):
    rc = cli.main(["lutz", "enumerate", str(DOCS / "theta.json"),
                   "--surface", "theta", "--base", "u1", "--bound", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "enumerated 1 weights" in out
    assert "0,1,1" in out


def test_cli_lutz_plan(capsys):
    rc = cli.main(["lutz", "plan", str(DOCS / "theta.json"), "--surface", "theta",
                   "--target", "2,1,3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "coefficients 1,2" in out


def test_cli_bypass_halfdisk(tmp_path, capsys):
    doc = io.ComplexDocument()
    d = fixtures.face_with_boundary_parallel("F1")
    doc.faces["F1"] = d.face
    doc.dividing_sets["F1"] = d
    path = tmp_path / "face.json"
    io.save(doc, path)
    rc = cli.main(["bypass", str(path), "--face", "F1", "--site", "halfdisk:1,2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3 arcs -> 2 arcs" in out
    assert "tb -2 -> -1" in out


def test_cli_prune_reports_classes(capsys):
    rc = cli.main(["prune", str(DOCS / "complex.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "terminal classes" in out


def test_cli_prune_cap_failure_is_validation_exit(capsys):
    rc = cli.main(["prune", str(DOCS / "complex.json"), "--cap", "3/2"])
    out = capsys.readouterr().out
    assert rc == 2
    assert out == ("ensemble pipeline: FAIL (structure 'base' has angle 3/2 "
                   "on boundary sector 0, cap 3/2)\n")


def test_cli_prune_passing_cap_prints_the_same(capsys):
    assert cli.main(["prune", str(DOCS / "complex.json")]) == 0
    plain = capsys.readouterr()
    assert cli.main(["prune", str(DOCS / "complex.json"), "--cap", "2"]) == 0
    assert capsys.readouterr() == plain


def _readme_examples():
    text = (DOCS.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_examples_run(monkeypatch, capsys):
    monkeypatch.chdir(DOCS.parent)
    examples = _readme_examples()
    assert len(examples) == 5
    for argv in examples:
        assert argv[0] == "bsurf"
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_cli_missing_file_is_input_error(capsys):
    rc = cli.main(["validate", "/nonexistent/nowhere.json"])
    assert rc == 1


def test_cli_graph_export(tmp_path, capsys):
    out_path = tmp_path / "graph.txt"
    rc = cli.main(["carry", str(DOCS / "theta.json"), "--surface", "theta",
                   "--weight", "1,1,2", "--export-graph", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().strip().splitlines()
    assert any(line.startswith("s2c0") for line in lines)


def test_incoherent_ensemble_rejected(tmp_path):
    raw = json.loads((DOCS / "three_sheets.json").read_text())
    bad = raw["ensembles"][0]["structures"][1]
    angles = bad["angles"]
    angles[0] = str(int(angles[0].split("/")[0]) + 4) + "/" + angles[0].split("/")[1]
    with pytest.raises(io.DocumentError) as err:
        io.loads(json.dumps(raw))
    assert "adjacency-coherence" in str(err.value)


def test_cli_bypass_square_strands(tmp_path, capsys):
    doc = io.ComplexDocument()
    d = fixtures.parallel_face(3, face="P")
    doc.faces["P"] = d.face
    doc.dividing_sets["P"] = d
    path = tmp_path / "p.json"
    io.save(doc, path)
    rc = cli.main(["bypass", str(path), "--face", "P", "--site", "strands:4,2,0",
                   "--side", "pos"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3 arcs -> 3 arcs" in out


def test_cli_lutz_plan_rebase_failure_is_validation_exit(capsys):
    rc = cli.main(["lutz", "plan", str(DOCS / "theta.json"), "--surface", "theta",
                   "--base", "1,0,1", "--target", "0,1,1"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "re-base required" in out
