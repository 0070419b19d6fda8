import copy
import json
import random
import re
import shlex
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bsurf import cli, domain, fixtures, hilbert, io, prisms, surface
from tests.test_domain import _fraction_check_adjacency, _outcome, exact_ensembles
from tests.test_surface import _reference_carried_surface

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
        doc = io.loads(text)
        assert io.dumps(doc) == text
        for section, entities in vars(doc).items():     # saved in name order, not dict order
            if isinstance(entities, dict):
                setattr(doc, section, dict(reversed(entities.items())))
        assert io.dumps(doc) == text


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


@pytest.mark.parametrize("name, expected", [
    ("complex.json", "surface theta: pass\n"
                     "domain theta-domain: pass\n"
                     "tb_triangulation: 24 over 4 faces: pass\n"
                     "holonomy G: pass\n"
                     "prism configuration corner: admissible\n"),
    ("theta.json", "surface theta: pass\n"
                   "surface theta-twisted: pass\n"),
    ("three_sheets.json", "surface three-sheets: pass\n"
                          "domain three-slabs: pass\n"),
])
def test_cli_validate_output_on_shipped_documents(name, expected, capsys):
    assert cli.main(["validate", str(DOCS / name)]) == 0
    assert capsys.readouterr() == (expected, "")


def test_cli_validate_prints_every_prism_configuration_fault(tmp_path, capsys):
    raw = json.loads((DOCS / "complex.json").read_text())
    tet = raw["prism_configurations"][0]["tets"]["G"]
    tet["prisms"][0]["vertical_faces"][1]["top"] = [6, 7]      # across two stacks
    tet["prisms"].append(copy.deepcopy(tet["prisms"][0]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert cli.main(["validate", str(bad)]) == 2
    assert capsys.readouterr() == (
        "surface theta: pass\n"
        "domain theta-domain: pass\n"
        "tb_triangulation: 24 over 4 faces: pass\n"
        "holonomy G: pass\n"
        "prism configuration corner: FAIL\n"
        "  tetrahedron G: duplicate prism kinds ['corner:s1', 'corner:s1']\n"
        "  tetrahedron G: 2 prisms exceed the declared selection of size 1\n"
        "  face F124: vertical face (0, 1)..(6, 7) meets a safety triangle\n", "")


def test_cli_validate_names_a_vertical_face_slot_off_its_face(tmp_path, capsys):
    (t1, t2), models = fixtures.two_tetrahedra(6)
    doc = io.ComplexDocument(tetrahedra={t.index: t for t in (t1, t2)})
    for fid in models:
        d = fixtures.stack_face(6, 6, 6, face=fid)
        doc.faces[fid], doc.dividing_sets[fid] = d.face, d
    sel = prisms.PrismSelection(frozenset({"s1"}))
    doc.prism_configs["off"] = prisms.PrismConfiguration(
        selections={"G1": sel, "G2": sel},
        prisms={tid: (prisms.Prism("corner:s1", (prisms.VerticalFace("F123", bottom, (4, 5)),)),)
                for tid, bottom in (("G1", (0, 1)), ("G2", (99, 1)))})
    io.save(doc, tmp_path / "off.json")
    assert cli.main(["validate", str(tmp_path / "off.json")]) == 2
    assert capsys.readouterr() == ("tb_triangulation: 126 over 7 faces: pass\n"
                                   "prism configuration off: FAIL\n"
                                   "  face F123: arc (99, 1) is not a dividing component\n", "")


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


def test_cli_bypass_rejects_an_unusable_halfdisk(tmp_path, capsys):
    d = fixtures.single_arc_disk()
    path = tmp_path / "disk.json"
    io.save(io.ComplexDocument(faces={"D": d.face}, dividing_sets={"D": d}), path)
    assert cli.main(["bypass", str(path), "--face", "D", "--site", "halfdisk:0,1"]) == 1
    assert capsys.readouterr() == ("", "error: arc (0, 1) is the only arc on face D: its "
                                       "half-disk is not a usable bypass site\n")


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


@pytest.mark.parametrize("cap", ["1.5", "1e1000000", "1/0", " 3/2", "1_0"])
def test_cli_prune_cap_outside_the_angle_forms_is_a_located_validation_exit(capsys, cap):
    assert cli.main(["prune", str(DOCS / "complex.json"), "--cap", cap]) == 2
    assert capsys.readouterr() == (
        "", f"error: argument --cap: expected an integer or p/q, got {cap!r}\n")


@pytest.mark.parametrize("cap", ["abc", "", "a1"])
def test_cli_prune_cap_that_is_no_number_is_an_input_error(capsys, cap):
    assert cli.main(["prune", str(DOCS / "complex.json"), "--cap", cap]) == 1
    assert capsys.readouterr() == ("", f"error: Invalid literal for Fraction: {cap!r}\n")


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


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    for _ in range(3):
        assert cli.main(["validate", str(DOCS / "theta.json")]) == 0
    assert cli.main(["validate", "/nonexistent/nowhere.json"]) == 1
    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])
    assert cli.main(["validate", str(DOCS / "theta.json")]) == 0
    assert len(built) == 1


def test_cli_missing_file_is_input_error(capsys):
    rc = cli.main(["validate", "/nonexistent/nowhere.json"])
    assert rc == 1


def test_cli_directory_is_one_line_input_error(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_non_utf8_document_is_a_parse_error_at_its_byte(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format_version": 1, "x": "\xff"}')
    with pytest.raises(io.DocumentError) as err:
        io.load(path)
    assert str(err.value) == "parse error at byte 28: invalid UTF-8 (invalid start byte)"


def test_cli_graph_export(tmp_path, capsys):
    out_path = tmp_path / "graph.txt"
    for name, weight, text in [
            ("theta", "1,1,2", "s0c0 s2c0\ns1c0 s2c1\ns2c0 s0c0\ns2c1 s1c0\n"),
            ("theta-twisted", "klein", "s0c0 s2c0\ns2c0 s0c0\n"),
            ("theta-twisted", "2,1,3", "s0c0 s2c0 s2c1\ns0c1 s2c0 s2c1\ns1c0 s2c2\n"
                                       "s2c0 s0c0 s0c1\ns2c1 s0c0 s0c1\ns2c2 s1c0\n")]:
        rc = cli.main(["carry", str(DOCS / "theta.json"), "--surface", name,
                       "--weight", weight, "--export-graph", str(out_path)])
        assert rc == 0
        assert out_path.read_bytes() == text.encode(), (name, weight)


def test_cli_validate_graph_export(tmp_path, capsys):
    out_path = tmp_path / "graph.txt"
    rc = cli.main(["validate", str(DOCS / "three_sheets.json"), "--export-graph", str(out_path)])
    assert (rc, capsys.readouterr().out) == (0, "surface three-sheets: pass\n"
                                                "domain three-slabs: pass\n")
    assert out_path.read_text(encoding="utf-8") == (
        "three-sheets/sector0 three-sheets/arc0 three-sheets/arc1\n"
        "three-sheets/sector1 three-sheets/arc0 three-sheets/arc1\n"
        "three-sheets/sector2 three-sheets/arc0 three-sheets/arc1\n"
        "three-sheets/arc0 three-sheets/sector0 three-sheets/sector1 three-sheets/sector2 "
        "three-sheets/tp0\n"
        "three-sheets/arc1 three-sheets/sector0 three-sheets/sector1 three-sheets/sector2 "
        "three-sheets/tp0\n")


def _reference_carry_out(name, b, w):
    """`bsurf carry` stdout in its line format, from the reference assembly."""
    components = _reference_carried_surface(b, w)
    lines = [f"surface {name} weight {','.join(str(x) for x in w)}: "
             f"{len(components)} components, chi {sum(c.euler_char for c in components)}, "
             f"fully carried: {all(x > 0 for x in w)}"]
    lines += [f"  component {c.index}: chi {c.euler_char}, "
              f"{'orientable' if c.orientable else 'non-orientable'}, {c.classification.value}"
              for c in components]
    return "".join(line + "\n" for line in lines)


def _carry_weights(b, coeff_lists):
    gens = hilbert.minimal_generators(surface.switch_system(b)).basis
    for coeffs in coeff_lists:
        w = tuple(sum(n * u[i] for n, u in zip(coeffs, gens)) for i in range(len(b.sectors)))
        if any(w):
            yield w


@pytest.mark.parametrize("path", sorted(DOCS.glob("*.json")), ids=lambda p: p.stem)
def test_cli_carry_matches_the_reference_on_shipped_documents(path, capsys):
    doc = io.load(path)
    for name, b in doc.surfaces.items():
        named = [v for s, v in doc.weights.values() if s == name]
        for w in named + list(_carry_weights(b, [(1,), (0, 1), (2, 3, 1), (5, 0, 7, 2)])):
            assert cli.main(["carry", str(path), "--surface", name,
                             "--weight", ",".join(str(x) for x in w)]) == 0
            assert capsys.readouterr().out == _reference_carry_out(name, b, w)


def test_cli_carry_matches_the_reference_on_a_large_twisted_theta(capsys):
    # an odd coefficient of (1, 0, 1) leaves one Klein bottle among the tori,
    # so the components come in three runs
    b = io.load(DOCS / "theta.json").surfaces["theta-twisted"]
    a, c = 37_501, 62_499
    w = (a, c, a + c)
    assert sum(w) == 2 * 10 ** 5
    assert len(surface.carried_surface(b, w).runs) == 3
    assert cli.main(["carry", str(DOCS / "theta.json"), "--surface", "theta-twisted",
                     "--weight", ",".join(str(x) for x in w)]) == 0
    assert capsys.readouterr().out == _reference_carry_out("theta-twisted", b, w)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10 ** 6), coeffs=st.lists(st.integers(0, 9), min_size=1, max_size=8))
def test_cli_carry_matches_the_reference_on_random_surfaces(tmp_path, capsys, seed, coeffs):
    b = fixtures.random_branched_surface(random.Random(seed))
    doc = io.ComplexDocument()
    doc.surfaces[b.name] = b
    path = tmp_path / "random.json"
    io.save(doc, path)
    for w in _carry_weights(b, [coeffs]):
        assert cli.main(["carry", str(path), "--surface", b.name,
                         "--weight", ",".join(str(x) for x in w)]) == 0
        assert capsys.readouterr().out == _reference_carry_out(b.name, b, w)


def test_incoherent_ensemble_rejected(tmp_path):
    raw = json.loads((DOCS / "three_sheets.json").read_text())
    bad = raw["ensembles"][0]["structures"][1]
    angles = bad["angles"]
    angles[0] = str(int(angles[0].split("/")[0]) + 4) + "/" + angles[0].split("/")[1]
    with pytest.raises(io.DocumentError) as err:
        io.loads(json.dumps(raw))
    assert "adjacency-coherence" in str(err.value)


def test_incoherent_structure_late_in_a_large_ensemble_is_located_by_its_offsets():
    fd = fixtures.theta_domain()
    base = (Fraction(1, 3), Fraction(2, 5), Fraction(11, 15))
    xs = [domain.AdjustedStructure(fd, domain.AngleFunction(
        tuple(a + Fraction(i, 7) * u for a, u in zip(base, (1, 0, 1)))), f"x{i}")
        for i in range(640)]
    bad = list(xs[633].angle.values)
    bad[1] += Fraction(1, 9)
    xs[633] = domain.AdjustedStructure(fd, domain.AngleFunction(tuple(bad)), "x633")
    doc = io.ComplexDocument(surfaces={"theta": fd.quotient}, domains={"d": fd},
                             ensembles={"e": ("d", tuple(xs))})
    with pytest.raises(io.DocumentError) as err:
        io.loads(io.dumps(doc))
    assert str(err.value) == (
        "invariant violation at ensemble e structure x633: fibered_domain rule "
        "adjacency-coherence: adjacency violated at arc 0: merged offset 633/7 != 5704/63")


def test_non_adjacent_structure_is_located_with_its_fraction_offsets():
    raw = copy.deepcopy(SHIPPED["complex"])
    raw["ensembles"][0]["structures"][2]["angles"][1] = "13/2"
    with pytest.raises(io.DocumentError) as err:
        io.loads(json.dumps(raw))
    assert str(err.value) == (
        "invariant violation at ensemble pipeline structure twice: fibered_domain rule "
        "adjacency-coherence: adjacency violated at arc 0: merged offset 4 != 5")


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


# ---------------------------------------------------------------------------
# malformed documents: strict types, located errors, never a traceback

SHIPPED = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in sorted(DOCS.glob("*.json"))}
LOCATED = re.compile(r"^error: (parse error|reference error|invariant violation) at .+: .+")


def _json_paths(x, path=()):
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _json_paths(v, path + (k,))


def _mutate(doc, path, change):
    """Drop, shorten, empty or replace the value at ``path``; skip a path an
    earlier change removed."""
    try:
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        value = parent[path[-1]]
    except (KeyError, IndexError, TypeError):
        return
    if not isinstance(parent, (dict, list)):    # a string put there by an earlier change
        return
    if change == "drop":
        del parent[path[-1]]
    elif change in ("shorten", "empty"):
        if isinstance(value, list):
            del value[len(value) - 1 if change == "shorten" else 0:]
    else:
        parent[path[-1]] = copy.deepcopy(change)


def _validate(doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli.main(["validate", str(path)])
    return rc, capsys.readouterr().err


SURFACE = ("branched_surfaces", 0)
CORE = "branched_surface_core rule"
ANGLES = ("ensembles", 0, "structures", 0, "angles")


@pytest.mark.parametrize("name, path, change, err", [
    ("theta", SURFACE + ("sectors",), 5,
     "parse error at branched_surface theta sectors: expected list, got 5"),
    ("theta", SURFACE + ("sectors", 0, "boundary_cycles", 0, 0), None,
     "parse error at branched_surface theta sectors[0].boundary_cycles[0][0]: "
     "expected object, got null"),
    ("theta", ("branched_surfaces",), 1, "parse error at branched_surfaces: expected list, got 1"),
    ("theta", ("weights", 0, "entries"), 5, "parse error at weight both entries: expected list, got 5"),
    ("theta", ("weights", 0, "entries"), [0.0, 1, 1],
     "parse error at weight both entries[0]: expected int, got 0.0"),
    ("complex", ANGLES, [None, 1, 1],
     "parse error at ensemble pipeline structures[0].angles[0]: expected str or int, got null"),
    ("complex", ANGLES, 5,
     "parse error at ensemble pipeline structures[0].angles: expected list, got 5"),
    ("theta", SURFACE + ("branch_arcs", 0, "endpoints"), [1],
     "parse error at branched_surface theta branch_arcs[0].endpoints: "
     "expected 2 items, got a list of 1"),
    ("theta", SURFACE + ("sectors", 0, "boundary_cycles", 0, 0, "arc"), "drop",
     "parse error at branched_surface theta sectors[0].boundary_cycles[0][0]: "
     "missing field 'arc'"),
    ("theta", SURFACE + ("sectors", 0, "orientable"), "no",
     "parse error at branched_surface theta sectors[0].orientable: expected bool, got \"no\""),
    ("theta", ("weights", 0, "name"), "drop", "parse error at weights: missing field 'name'"),
    ("complex", ("tetrahedra", 0, "edges", 0, "face_edges", 0), 7,
     "invariant violation at tetrahedron G: triangulation_complex rule edge-slot-agreement: "
     "tetrahedron G edge 0: face edges must be 0, 1 or 2"),
    ("complex", ("tetrahedra", 0, "edges", 4, "index"), 3,
     "invariant violation at tetrahedron G: triangulation_complex rule edge-slot-agreement: "
     "tetrahedron G: edge indices must be 0 to 5, each once"),
    ("complex", ("prism_configurations", 0, "tets", "G", "diagonal"), 5,
     "invariant violation at prism_configuration corner tets.G: "
     "diagonal prism must be 0, 1, 2 or None"),
    ("complex", ANGLES, [1, 1, True],
     "parse error at ensemble pipeline structures[0].angles[2]: expected str or int, got true"),
    ("complex", ANGLES, [1, 1.0, 1],
     "parse error at ensemble pipeline structures[0].angles[1]: expected str or int, got 1.0"),
    ("theta", SURFACE + ("sectors", 0, "index"), 5,
     f"invariant violation at branched_surface theta (sector 5): {CORE} sector-index: "
     "expected index 0"),
    ("theta", SURFACE + ("branch_arcs", 0, "index"), 5,
     f"invariant violation at branched_surface theta (arc 5): {CORE} arc-index: "
     "expected index 0"),
    ("theta", SURFACE + ("branch_arcs", 0, "endpoints"), [0, 0],
     f"invariant violation at branched_surface theta (arc 0): {CORE} "
     "dangling triple-point reference: triple point 0 does not exist"),
    ("three_sheets", SURFACE + ("triple_points", 0, "arcs"), [0, 0],
     f"invariant violation at branched_surface three-sheets (triple point 0): {CORE} "
     "triple-point-arcs: must be an endpoint of exactly two distinct arcs, got [0, 1]"),
    ("theta", SURFACE + ("sectors", 0, "boundary_cycles", 0, 0, "arc"), 9,
     f"invariant violation at branched_surface theta (sector 0 cycle 0): {CORE} "
     "dangling arc reference: arc 9 does not exist"),
    ("theta", SURFACE + ("branch_arcs", 0, "upper_sector"), 1,
     f"invariant violation at branched_surface theta (arc 0 upper): {CORE} arc-side-owner: "
     "occupied by sector 0, declared 1"),
    ("theta", SURFACE + ("sectors", 0, "boundary_cycles"),
     [[{"arc": 0, "side": "upper"}, {"arc": 1, "side": "upper"}]],
     f"invariant violation at branched_surface theta (sector 0 cycle 0): {CORE} "
     "cycle-closed-arc: a closed arc must form a whole boundary cycle"),
    ("complex", ("fibered_domains", 0, "vertical_annuli", 0, "arcs"), [9],
     "invariant violation at fibered_domain theta-domain (annulus 0): fibered_domain rule "
     "dangling arc reference: arc 9 does not exist"),
    ("complex", ("fibered_domains", 0, "boundary_sectors"), [9],
     "invariant violation at fibered_domain theta-domain (boundary markers): fibered_domain "
     "rule dangling sector reference: sector 9 does not exist"),
    ("theta", ("weights", 0, "entries"), [1, 1, 1],
     f"invariant violation at weight both: {CORE} switch-equations: "
     "entries violate a switch equation"),
    ("theta", ("weights", 0, "entries"), [-1, 1, 0],
     f"invariant violation at weight both: {CORE} nonnegative-entries: "
     "entry -1 on sector 0 is negative"),
    ("theta", ("weights", 0, "entries"), [2, -1, 1],
     f"invariant violation at weight both: {CORE} nonnegative-entries: "
     "entry -1 on sector 1 is negative"),
])
def test_malformed_document_is_one_located_error(tmp_path, capsys, name, path, change, err):
    doc = copy.deepcopy(SHIPPED[name])
    _mutate(doc, path, change)
    assert _validate(doc, tmp_path, capsys) == (1, f"error: {err}\n")


def test_cli_validate_reports_a_circuit_that_does_not_close(tmp_path, capsys):
    doc = copy.deepcopy(SHIPPED["complex"])
    doc["tetrahedra"][0]["edges"][0]["faces"][0] = "F234"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert ("holonomy G: FAIL\n  circuit at s2: incomplete (circuit around s2 does not close up: "
            "edge 4 does not return to face F123)\n") in capsys.readouterr().out


def test_structure_labels_default_to_their_place_in_the_ensemble():
    raw = copy.deepcopy(SHIPPED["complex"])
    structures = raw["ensembles"][0]["structures"]
    del structures[0]["label"]
    structures[1]["label"] = None
    structures[2]["label"] = ""
    _, loaded = io.loads(json.dumps(raw)).ensembles["pipeline"]
    assert [x.label for x in loaded] == ["pipeline[0]", "pipeline[1]", ""]


def test_duplicate_names_rejected():
    raw = copy.deepcopy(SHIPPED["complex"])
    raw["faces"].append(copy.deepcopy(raw["faces"][0]))
    with pytest.raises(io.DocumentError, match="^parse error at face F123: declared twice$"):
        io.loads(json.dumps(raw))
    raw = copy.deepcopy(SHIPPED["theta"])
    raw["branched_surfaces"][1]["name"] = "theta"
    with pytest.raises(io.DocumentError, match="^parse error at branched_surface theta: declared"):
        io.loads(json.dumps(raw))


def test_unknown_keys_rejected_at_every_level():
    with pytest.raises(io.DocumentError, match="^parse error at document: unknown field "
                                               "'branched_surface'$"):
        io.loads(json.dumps({"format_version": 1, "branched_surface": []}))
    raw = copy.deepcopy(SHIPPED["complex"])
    raw["tetrahedra"][0]["edges"][2]["face"] = "F123"
    with pytest.raises(io.DocumentError, match=r"^parse error at tetrahedron G edges\[2\]: "
                                               "unknown field 'face'$"):
        io.loads(json.dumps(raw))


@pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
def test_format_version_must_be_the_integer_one(version):
    with pytest.raises(io.DocumentError) as err:
        io.loads(json.dumps({"format_version": version}))
    assert str(err.value) == f"parse error at format_version: expected 1, got {version!r}"


def test_repeated_key_is_a_located_parse_error():
    text = (DOCS / "theta.json").read_text(encoding="utf-8")
    assert text.count('"name": "theta"') == 1
    text = text.replace('"name": "theta"', '"name": "theta", "name": "other"')
    with pytest.raises(io.DocumentError) as err:
        io.loads(text)
    assert str(err.value) == "parse error at branched_surfaces[0]: repeated key 'name'"
    doc = copy.deepcopy(SHIPPED["complex"])
    text = json.dumps(doc).replace('"shift": ', '"shift": 0, "shift": ', 1)
    with pytest.raises(io.DocumentError) as err:
        io.loads(text)
    assert str(err.value) == "parse error at holonomy for G crossings[0]: repeated key 'shift'"


@pytest.mark.parametrize("angle", ["1e1000000", "1.5", " 3/2", "3_0", "1/0"])
def test_angle_outside_the_saved_forms_is_a_parse_error_at_the_angle(angle):
    doc = copy.deepcopy(SHIPPED["complex"])
    doc["ensembles"][0]["structures"][1]["angles"][1] = angle
    with pytest.raises(io.DocumentError) as err:
        io.loads(json.dumps(doc))
    assert str(err.value) == ("parse error at ensemble pipeline structures[1].angles[1]: "
                              f"expected integer or p/q, got {json.dumps(angle)}")


CHANGES = st.sampled_from(["drop", "shorten", "empty", None, 0, -1, 7, 1.5, "x", "", True,
                           False, [], {}, [1], {"a": 1}])


@st.composite
def _mutated_documents(draw):
    name = draw(st.sampled_from(sorted(SHIPPED)))
    paths = st.sampled_from(list(_json_paths(SHIPPED[name])))
    doc = copy.deepcopy(SHIPPED[name])
    for path, change in draw(st.lists(st.tuples(paths, CHANGES), min_size=1, max_size=3)):
        _mutate(doc, path, change)
    return doc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_mutated_documents())
def test_mutated_documents_never_escape_a_traceback(tmp_path, capsys, doc):
    rc, err = _validate(doc, tmp_path, capsys)
    assert rc in (0, 1, 2)
    if rc == 1:
        assert LOCATED.match(err) and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# names: each entity is saved under the key it is loaded or stored by

# None drops the name, and "" asks for the positional name too
NAMES = st.one_of(st.none(), st.just(""), st.sampled_from(
    ["a", "b", "c", "d", "e", "f", "g", "theta", "surface1", "surface10", "domain0"]))


@st.composite
def _renamed_documents(draw):
    """A shipped document whose surfaces and domains are renamed, unnamed,
    copied under other names and shuffled; references follow the originals
    to the name each now loads under (``key`` or ``stem`` + position)."""
    raw = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for section, stem, refs in (("branched_surfaces", "surface",
                                 (("weights", "surface"), ("fibered_domains", "surface"))),
                                ("fibered_domains", "domain", (("ensembles", "domain"),))):
        items = raw.get(section, [])
        if not items:
            continue
        originals = {id(x): x["name"] for x in items}
        items += [copy.deepcopy(x) for x in draw(st.lists(st.sampled_from(items), max_size=10))]
        for x in items:
            name = draw(st.one_of(st.just(x["name"]), NAMES) if id(x) in originals else NAMES)
            if name is None:
                del x["name"]
            else:
                x["name"] = name
        items[:] = draw(st.permutations(items))
        now = {originals[id(x)]: x.get("name") or f"{stem}{i}"
               for i, x in enumerate(items) if id(x) in originals}
        for ref_section, field in refs:
            for r in raw.get(ref_section, []):
                r[field] = now[r[field]]
    return json.dumps(raw)


@settings(max_examples=150, deadline=None)
@given(text=_renamed_documents())
def test_renamed_documents_round_trip_section_by_section(text):
    try:
        doc = io.loads(text)
    except io.DocumentError:     # two entities took one name
        return
    saved = io.dumps(doc)
    again = io.loads(saved)
    for section, entities in vars(doc).items():
        assert getattr(again, section) == entities, section
    assert io.dumps(again) == saved


@pytest.mark.parametrize("section", ["surfaces", "domains"])
def test_a_surface_or_domain_under_the_empty_key_is_not_saved(section):
    fd = fixtures.theta_domain()
    doc = io.ComplexDocument(surfaces={"t": fd.quotient}, domains={"d": fd})
    if section == "surfaces":
        doc.surfaces[""] = fixtures.theta_surface()
        doc.weights["w"] = ("", (1, 1, 2))
    else:
        doc.domains[""] = fd
    with pytest.raises(io.DocumentError) as err:
        io.dumps(doc)
    word, stem = (("branched_surface", "surface") if section == "surfaces"
                  else ("fibered_domain", "domain"))
    assert str(err.value) == (f"invariant violation at {word} '': "
                              f"an empty name loads back as {stem}<index>")


def test_library_documents_reload_under_their_keys():
    t, models = fixtures.simple_tetrahedron(2)
    doc = io.ComplexDocument(tetrahedra={"T": t},
                             holonomy={"T": fixtures.holonomy_all_minus_one(t)})
    # two equal surfaces, each named "theta"; the domain is on the second one
    fd = fixtures.theta_domain()
    doc.surfaces["a"], doc.surfaces["b"] = fixtures.theta_surface(), fd.quotient
    doc.weights["w"] = ("a", (1, 1, 2))
    doc.domains["d"] = fd
    for fid, fm in models.items():
        doc.faces[fid] = fm
        doc.dividing_sets[fid] = fixtures.stack_face(1, 1, 1, face="elsewhere")
    loaded = io.loads(io.dumps(doc))
    assert {k: b.name for k, b in loaded.surfaces.items()} == {"a": "a", "b": "b"}
    assert loaded.weights == doc.weights
    assert loaded.domains["d"].quotient is loaded.surfaces["b"]
    assert [d.face.face for d in loaded.dividing_sets.values()] == sorted(models)
    assert (loaded.tetrahedra["T"].index, loaded.holonomy["T"].tet) == ("T", "T")
    assert io.dumps(loaded) == io.dumps(doc)


# ---------------------------------------------------------------------------
# ensembles against the Fraction decode they replaced

_FRACTION_STRUCTURE = io._entity(dict, ("label", str, None),
                                 ("angles", io._list((io._angle, str))))
_FRACTION_ENSEMBLES = io._section("ensemble", "name", None, io._entity(
    dict, ("name", str), ("domain", str), ("structures", io._list(_FRACTION_STRUCTURE), ())))


def _fraction_ensembles(text):
    """The ensembles of a document whose other sections are sound, decoded
    one angle literal at a time and checked by Fraction differences."""
    raw = json.loads(text, object_pairs_hook=io._object)
    doc = io.loads(json.dumps(dict(raw, ensembles=[])))
    ensembles = {}
    for name, (where, e) in _FRACTION_ENSEMBLES[0](raw["ensembles"], None, "ensembles").items():
        fd = io._ref(doc.domains, e["domain"], where, "fibered_domain")
        structures = []
        for i, sd in enumerate(e["structures"]):
            label = f"{name}[{i}]" if sd["label"] is None else sd["label"]
            try:
                structures.append(domain.AdjustedStructure(
                    domain=fd, angle=domain.AngleFunction(sd["angles"]), label=label))
            except ValueError as exc:
                raise io.DocumentError("invariant violation", f"structure {label}",
                                       f"fibered_domain rule positive-angles: {exc}")
        for x in structures[1:]:
            try:
                _fraction_check_adjacency(structures[0], x)
            except ValueError as exc:
                raise io.DocumentError("invariant violation",
                                       f"ensemble {name} structure {x.label}",
                                       f"fibered_domain rule adjacency-coherence: {exc}")
        ensembles[name] = (e["domain"], tuple(structures))
    return ensembles


BAD_ANGLES = st.sampled_from(["1.5", "0", "-3/2", "1/0", " 2", "", True, 2.0, None, 0, "-0"])


@settings(max_examples=100, deadline=None)
@given(case=exact_ensembles(), data=st.data())
def test_ensembles_load_as_the_fraction_decode_did(case, data):
    fd, xs = case
    doc = io.ComplexDocument(surfaces={fd.quotient.name: fd.quotient}, domains={"d": fd},
                             ensembles={"e": ("d", tuple(xs)), "f": ("d", tuple(xs[::-1]))})
    text = io.dumps(doc)
    if data.draw(st.booleans()):
        raw = json.loads(text)
        structures = raw["ensembles"][data.draw(st.integers(0, 1))]["structures"]
        angles = structures[data.draw(st.integers(0, len(structures) - 1))]["angles"]
        angles[data.draw(st.integers(0, len(angles) - 1))] = data.draw(BAD_ANGLES)
        text = json.dumps(raw, indent=1, sort_keys=True) + "\n"
    loaded = _outcome(lambda: io.loads(text).ensembles)
    assert loaded == _outcome(_fraction_ensembles, text)
    if type(loaded) is dict:
        assert io.dumps(io.loads(text)) == text


def test_angle_memo_lives_for_one_load():
    good = json.dumps(SHIPPED["complex"])
    raw = copy.deepcopy(SHIPPED["complex"])
    raw["ensembles"][0]["structures"][2]["angles"][1] = "11/2.0"
    with pytest.raises(io.DocumentError) as err:
        io.loads(json.dumps(raw))
    assert str(err.value) == ("parse error at ensemble pipeline structures[2].angles[1]: "
                              "expected integer or p/q, got \"11/2.0\"")
    first, second = (io.loads(good).ensembles["pipeline"][1] for _ in range(2))
    assert first == second == _fraction_ensembles(good)["pipeline"][1]
    # A literal repeated in one load is read once; no value is shared between loads.
    assert first[0].angle[0] is first[1].angle[0]
    assert not {id(v) for x in first for v in x.angle.values} & {
        id(v) for x in second for v in x.angle.values}


# ---------------------------------------------------------------------------
# the canonical writer against json.dumps(..., indent=1, sort_keys=True)

def _written(write, value):
    try:
        return write(value)
    except TypeError:
        return TypeError


def _json_text(value):
    return json.dumps(value, indent=1, sort_keys=True)


SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
           | st.floats() | st.text())
KEYS = st.text() | st.integers() | st.none() | st.booleans() | st.floats()
ROWS = st.integers(0, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers() | st.booleans(), min_size=n, max_size=n)
    | st.tuples(*[st.integers()] * n), max_size=6))
JSON_VALUES = st.recursive(
    SCALARS | ROWS,
    lambda kids: (st.lists(kids, max_size=5) | st.tuples(kids, kids)
                  | st.dictionaries(st.text(), kids, max_size=5)
                  | st.dictionaries(KEYS, kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(value=JSON_VALUES)
def test_writer_writes_what_json_dumps_writes(value):
    assert (_written(lambda v: io._text(v, ""), value) == _written(_json_text, value))


@pytest.mark.parametrize("value", [{"a": object()}, [1, 2, {3}], {(1, 2): 3}, {"a": 1, 2: 3},
                                   [[1, 2], [3, b"4"]]])
def test_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        _json_text(value)
    with pytest.raises(TypeError):
        io._text(value, "")


ODD_NAMES = st.text(st.sampled_from(list('aZ09-_ "\\/\n\t\x00\x7fé☃\U0001F600')),
                    min_size=1, max_size=6)
FACE_SIZES = st.sampled_from([(0, 0, 0), (1, 0, 2), (3, 3, 3), (144, 144, 144)])


@st.composite
def _documents(draw):
    """Documents with escaped and non-ASCII names, empty lists and objects, a
    None diagonal, p/q angles and, at times, 432-arc stack faces."""
    doc = io.ComplexDocument()
    for fid in draw(st.lists(ODD_NAMES, max_size=3, unique=True)):
        d = fixtures.stack_face(*draw(FACE_SIZES), face=fid)
        doc.faces[fid] = d.face
        if draw(st.booleans()):
            doc.dividing_sets[fid] = d
    if draw(st.booleans()):
        fd, xs = draw(exact_ensembles())
        surface_name, domain_name = draw(ODD_NAMES), draw(ODD_NAMES)
        doc.surfaces[surface_name], doc.domains[domain_name] = fd.quotient, fd
        doc.weights[draw(ODD_NAMES)] = (surface_name, tuple(draw(st.lists(st.integers()))))
        doc.ensembles[draw(ODD_NAMES)] = (domain_name, tuple(
            replace(x, label=draw(ODD_NAMES)) for x in xs))
    if draw(st.booleans()):
        t, _ = fixtures.simple_tetrahedron(2, tet=draw(ODD_NAMES))
        doc.tetrahedra[t.index] = t
        doc.holonomy[t.index] = fixtures.holonomy_all_minus_one(t)
        sel = prisms.PrismSelection(frozenset(draw(st.sets(ODD_NAMES, max_size=2))),
                                    draw(st.sampled_from([None, 0, 2])))
        doc.prism_configs[draw(ODD_NAMES)] = prisms.PrismConfiguration(
            selections={t.index: sel}, prisms={t.index: (prisms.Prism(draw(ODD_NAMES), ()),)})
    if draw(st.booleans()):
        doc.prism_configs[draw(ODD_NAMES)] = prisms.PrismConfiguration(selections={}, prisms={})
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=_documents())
def test_dumps_writes_what_json_dumps_writes(doc):
    assert io.dumps(doc) == _json_text(io._raw(doc)) + "\n"


def test_shipped_documents_save_as_json_dumps_writes():
    for p in sorted(DOCS.glob("*.json")):
        assert io.dumps(io.load(p)) == _json_text(json.loads(p.read_text(encoding="utf-8"))) + "\n"


# A fault deep in a long list keeps its location and its text.
_LONG = fixtures.stack_face(1000, 1000, 1000, face="F")
_LONG_RAW = json.loads(io.dumps(io.ComplexDocument(faces={"F": _LONG.face},
                                                   dividing_sets={"F": _LONG})))
ARCS = ("dividing_sets", 0, "arcs")


@pytest.mark.parametrize("path, value, err", [
    (ARCS + (2999,), True, "parse error at dividing_set on F arcs[2999]: expected list, got true"),
    (ARCS + (2999,), "7", 'parse error at dividing_set on F arcs[2999]: expected list, got "7"'),
    (ARCS + (2999,), [1, 2, 3], "invariant violation at dividing_set on F: "
     "dividing_set_calculus rule slot-matching: malformed arc (1, 2, 3)"),
    (ARCS + (2999, 1), True,
     "parse error at dividing_set on F arcs[2999][1]: expected int, got true"),
    (ARCS + (2999, 1), "7",
     'parse error at dividing_set on F arcs[2999][1]: expected int, got "7"'),
    (("faces", 0, "edge_slots", 2, 1999), True,
     "parse error at face F edge_slots[2][1999]: expected int, got true"),
    (("faces", 0, "edge_slots", 2, 1999), 5, "invariant violation at face F: "
     "dividing_set_calculus rule slot-order: slot 5 declared twice on face F"),
])
def test_a_fault_deep_in_a_long_list_is_located(path, value, err):
    assert len(_LONG_RAW["dividing_sets"][0]["arcs"]) == 3000
    raw = copy.deepcopy(_LONG_RAW)
    _mutate(raw, path, value)
    with pytest.raises(io.DocumentError) as exc:
        io.loads(json.dumps(raw))
    assert str(exc.value) == err
