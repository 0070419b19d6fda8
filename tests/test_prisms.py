import itertools

import pytest

from bsurf import fixtures
from bsurf.prisms import (Circuit, Crossing, HolonomyData, HolonomyFinding, Prism,
                          PrismConfiguration, PrismSelection, VerticalFace, admissible,
                          canonical_circuits, config_order, corner_transport,
                          enumerate_prism_selections, holonomy, maximal_selections,
                          selection_order, validate_holonomy, validate_tetrahedron)


@pytest.fixture(scope="module")
def tetra():
    return fixtures.simple_tetrahedron(4)


# ---------------------------------------------------------------------------
# selections


def test_sixty_four_selections(tetra):
    t, _ = tetra
    sels = enumerate_prism_selections(t)
    assert len(sels) == 64
    assert len(set(sels)) == 64
    assert PrismSelection(corners=frozenset()) in sels


def test_exactly_three_maximal_families(tetra):
    t, _ = tetra
    maximal = maximal_selections(t)
    assert len(maximal) == 3
    assert all(s.size == 5 for s in maximal)
    assert {s.diagonal for s in maximal} == {0, 1, 2}


def test_selection_order_cases(tetra):
    t, _ = tetra
    small = PrismSelection(corners=frozenset({"s1"}))
    big = PrismSelection(corners=frozenset({"s1", "s2"}), diagonal=1)
    other = PrismSelection(corners=frozenset({"s3"}), diagonal=2)
    assert selection_order(small, big) == "less-equal"
    assert selection_order(big, small) == "greater"
    assert selection_order(small, small) == "equal"
    assert selection_order(big, other) == "incomparable"


def test_selection_order_is_partial_order(tetra):
    t, _ = tetra
    sels = enumerate_prism_selections(t)
    for p in sels:
        assert p.subsumed_by(p)
    for p, q in itertools.combinations(sels, 2):
        if p.subsumed_by(q) and q.subsumed_by(p):
            assert p == q


# ---------------------------------------------------------------------------
# tetrahedron validation


def test_tetrahedron_fixture_is_consistent(tetra):
    t, models = tetra
    assert validate_tetrahedron(t, models) == []


def test_slot_count_disagreement_detected(tetra):
    t, models = tetra
    broken = dict(models)
    victim = t.edges[0].faces[0]
    local = t.edges[0].face_edges[0]
    fm = broken[victim]
    slots = list(fm.edge_slots)
    slots[local] = slots[local][:-1]
    from bsurf.dividing import FaceModel
    broken[victim] = FaceModel(face=fm.face, edge_slots=tuple(tuple(s) for s in slots))
    problems = validate_tetrahedron(t, broken)
    assert any(v.rule == "edge-slot-agreement" and "slot counts disagree" in v.detail
               for v in problems)


# ---------------------------------------------------------------------------
# prism configurations


def _dividing_data(models):
    return {fid: fixtures.stack_face(2, 2, 2, face=fid) for fid in models}


def _vertical_face_in_stack(d):
    """Bottom and top arcs of the first two-piece stack of a face."""
    from bsurf.dividing import classify_pieces
    rep = classify_pieces(d)
    pair, chain = sorted(rep.stacks.items())[0]
    chords = []
    for piece in chain:
        chords.extend(tuple(sorted(c)) for c in piece.chords)
    uniq = sorted(set(chords))
    return VerticalFace(face=d.face.face, bottom=uniq[0], top=uniq[-1])


def test_admissible_stack_faces(tetra):
    t, models = tetra
    dividing = _dividing_data(models)
    fid = t.faces[0]
    vf = _vertical_face_in_stack(dividing[fid])
    cfg = PrismConfiguration(
        selections={t.index: PrismSelection(corners=frozenset({"s1"}))},
        prisms={t.index: (Prism(kind="corner:s1", vertical_faces=(vf,)),)})
    assert admissible(cfg, dividing)


def test_inadmissible_vertical_face_names_the_violation(tetra):
    t, models = tetra
    dividing = _dividing_data(models)
    fid = t.faces[0]
    d = dividing[fid]
    arcs = sorted(tuple(sorted(a)) for a in d.arcs)
    # arcs from different stacks never bound a single ordinary run
    vf = VerticalFace(face=fid, bottom=arcs[0], top=arcs[-1])
    cfg = PrismConfiguration(
        selections={t.index: PrismSelection(corners=frozenset({"s1"}))},
        prisms={t.index: (Prism(kind="corner:s1", vertical_faces=(vf,)),)})
    report = admissible(cfg, dividing)
    assert not report
    assert "safety triangle" in report.certificate or "extraordinary" in report.certificate


def test_empty_configuration_is_admissible(tetra):
    t, models = tetra
    cfg = PrismConfiguration(selections={}, prisms={})
    assert admissible(cfg, _dividing_data(models))


def test_config_order_interval_containment():
    fid = "X"
    d = fixtures.stack_face(3, 3, 3, face=fid)
    dividing = {fid: d}
    from bsurf.dividing import classify_pieces
    rep = classify_pieces(d)
    pair, chain = sorted(rep.stacks.items())[0]
    chords = sorted({tuple(sorted(c)) for piece in chain for c in piece.chords})
    assert len(chords) == 3
    # three nested arcs: [0..2] contains [0..1]
    inner = Prism(kind="corner:s1",
                  vertical_faces=(VerticalFace(face=fid, bottom=chords[0], top=chords[1]),))
    outer = Prism(kind="corner:s1",
                  vertical_faces=(VerticalFace(face=fid, bottom=chords[0], top=chords[2]),))
    p = PrismConfiguration(selections={"G": PrismSelection(frozenset({"s1"}))},
                           prisms={"G": (inner,)})
    q = PrismConfiguration(selections={"G": PrismSelection(frozenset({"s1"}))},
                           prisms={"G": (outer,)})
    assert config_order(p, q, dividing) == "less-equal"
    assert config_order(q, p, dividing) == "greater"
    assert config_order(p, p, dividing) == "equal"


def test_prisms_need_a_selection_on_their_tetrahedron():
    # a document saves prisms under their tetrahedron's selection, so these
    # prisms on G2 would be lost by a save
    vf = VerticalFace("F123", (0, 1), (2, 3))
    with pytest.raises(ValueError, match="^prisms on tetrahedra without a selection: G2$"):
        PrismConfiguration(selections={"G1": PrismSelection(frozenset({"s1"}))},
                           prisms={"G2": (Prism("corner:s1", (vf,)),)})
    ok = PrismConfiguration(selections={"G1": PrismSelection(frozenset({"s1"}))},
                            prisms={"G1": (Prism("corner:s1", (vf,)),)})
    assert list(ok.all_prisms()) == [("G1", Prism("corner:s1", (vf,)))]


# ---------------------------------------------------------------------------
# holonomy


def test_holonomy_composition(tetra):
    t, _ = tetra
    h = fixtures.holonomy_all_minus_one(t)
    for circuit in canonical_circuits(t):
        assert holonomy(h, circuit, t) == -1


def test_holonomy_shift_sum_example(tetra):
    t, _ = tetra
    circ = canonical_circuits(t)[0]
    shifts = {}
    for i, (face, edge) in enumerate(circ.corners):
        nxt = circ.corners[(i + 1) % 3][0]
        shifts[(edge, face, nxt)] = (0, 0, -1)[i]
    h = HolonomyData(tet=t.index, crossings=tuple(
        Crossing(edge=k[0], face_from=k[1], face_to=k[2], shift=v)
        for k, v in shifts.items()))
    assert holonomy(h, circ, t) == -1


def test_holonomy_non_closing_circuit_rejected(tetra):
    t, _ = tetra
    h = fixtures.holonomy_all_minus_one(t)
    good = canonical_circuits(t)[0]
    # swap the measuring edge for one not adjacent to the first face
    first_face = good.corners[0][0]
    alien = next(e for e in t.edges if first_face not in e.faces)
    broken = Circuit(vertex=good.vertex,
                     corners=good.corners[:-1] + ((good.corners[-1][0], alien.index),))
    with pytest.raises(ValueError, match="close"):
        holonomy(h, broken, t)


def test_validate_holonomy_passes_on_minus_one(tetra):
    t, _ = tetra
    report = validate_holonomy(fixtures.holonomy_all_minus_one(t), t)
    assert report.ok
    assert all(f.value == -1 for f in report.findings)


def _tamper(h: HolonomyData, t, circuit, delta):
    face, edge = circuit.corners[-1]
    first = circuit.corners[0][0]
    crossings = []
    for c in h.crossings:
        if (c.edge, c.face_from, c.face_to) == (edge, face, first):
            crossings.append(Crossing(c.edge, c.face_from, c.face_to, c.shift + delta))
        else:
            crossings.append(c)
    return HolonomyData(tet=h.tet, crossings=tuple(crossings))


def test_validate_holonomy_flags_zero_as_bennequin_violation(tetra):
    t, _ = tetra
    circ = canonical_circuits(t)[0]
    h = _tamper(fixtures.holonomy_all_minus_one(t), t, circ, +1)
    report = validate_holonomy(h, t)
    assert not report.ok
    verdicts = {f.circuit.vertex: f.verdict for f in report.findings}
    assert verdicts[circ.vertex] == "bennequin-violation"


def test_validate_holonomy_flags_minus_two_as_non_minimal(tetra):
    t, _ = tetra
    circ = canonical_circuits(t)[0]
    h = _tamper(fixtures.holonomy_all_minus_one(t), t, circ, -1)
    report = validate_holonomy(h, t)
    assert not report.ok
    bad = next(f for f in report.findings if f.circuit.vertex == circ.vertex)
    assert bad.verdict == "non-minimal"
    assert bad.value == -2


def test_validate_holonomy_excludes_same_face_approach(tetra):
    t, _ = tetra
    h = fixtures.holonomy_all_minus_one(t)
    base = canonical_circuits(t)[0]
    face0, edge0 = base.corners[0]
    weird = Circuit(vertex=base.vertex,
                    corners=((face0, edge0), base.corners[1], (face0, base.corners[2][1])))
    report = validate_holonomy(h, t, extra_circuits=[weird])
    flagged = [f for f in report.findings if f.verdict == "excluded"]
    assert len(flagged) == 1


def test_validate_holonomy_incomplete_data(tetra):
    t, _ = tetra
    h = HolonomyData(tet=t.index, crossings=())
    report = validate_holonomy(h, t)
    assert not report.ok
    assert all(f.verdict == "incomplete" for f in report.findings)


def test_validate_holonomy_reports_an_empty_circuit_as_incomplete(tetra):
    t, _ = tetra
    empty = Circuit("s1", ())
    report = validate_holonomy(fixtures.holonomy_all_minus_one(t), t, extra_circuits=[empty])
    assert not report.ok
    assert [f for f in report.findings if f.verdict != "ok"] == [
        HolonomyFinding(empty, None, "incomplete", "circuit around s1 has no corners")]
    with pytest.raises(ValueError, match="^circuit around s1 has no corners$"):
        holonomy(fixtures.holonomy_all_minus_one(t), empty, t)


def test_corner_transport_adjacency(tetra):
    t, _ = tetra
    h = fixtures.holonomy_all_minus_one(t)
    for circ in canonical_circuits(t):
        for start in range(1, 5):
            tr = corner_transport(h, circ, t, start_index=start)
            assert tr.adjacent


def test_corner_transport_range_check(tetra):
    t, _ = tetra
    h = fixtures.holonomy_all_minus_one(t)
    circ = canonical_circuits(t)[0]
    sizes = {(edge, face): 1 for face, edge in circ.corners}
    sizes.update({(circ.corners[-1][1], circ.corners[0][0]): 1})
    with pytest.raises(ValueError, match="range"):
        corner_transport(h, circ, t, start_index=0, stack_sizes={
            (circ.corners[-1][1], circ.corners[0][0]): 0})


def test_tb_aggregate_delegates(tetra):
    t, models = tetra
    from bsurf.prisms import tb_aggregate
    # four faces, six arcs each: half of twelve crossings per face
    assert tb_aggregate(_dividing_data(models)) == 4 * 6


def test_coverage_report_thresholds(tetra):
    t, models = tetra
    from bsurf.prisms import coverage_report
    dividing = _dividing_data(models)
    fid = t.faces[0]
    vf = _vertical_face_in_stack(dividing[fid])
    cfg = PrismConfiguration(
        selections={t.index: PrismSelection(corners=frozenset({"s1"}))},
        prisms={t.index: (Prism(kind="corner:s1", vertical_faces=(vf,)),)})
    rep = coverage_report(cfg, dividing, max_outside=100, min_pieces_per_face=1)
    assert rep.within_bounds
    strict = coverage_report(cfg, dividing, max_outside=0, min_pieces_per_face=20)
    assert not strict.within_bounds
    assert strict.thin_faces


def test_holonomy_additive_under_concatenation(tetra):
    t, _ = tetra
    h = fixtures.holonomy_all_minus_one(t)
    # splitting the composed shift at any corner leaves the total intact
    for circ in canonical_circuits(t):
        parts = []
        for i, (face, edge) in enumerate(circ.corners):
            nxt = circ.corners[(i + 1) % 3][0]
            parts.append(h.shift(edge, face, nxt))
        assert sum(parts[:2]) + sum(parts[2:]) == holonomy(h, circ, t)


def _two_tet_setup():
    from bsurf.prisms import validate_configuration
    (t1, t2), models = fixtures.two_tetrahedra(6)
    dividing = {fid: fixtures.stack_face(3, 3, 3, face=fid) for fid in models}
    d = dividing["F123"]
    from bsurf.dividing import classify_pieces
    rep = classify_pieces(d)
    pair, chain = sorted(rep.stacks.items())[0]
    chords = sorted({tuple(sorted(c)) for piece in chain for c in piece.chords})
    return (t1, t2), dividing, chords, validate_configuration


def test_cross_tetrahedron_matching_fibrations_pass():
    (t1, t2), dividing, chords, validate_configuration = _two_tet_setup()
    vf = VerticalFace(face="F123", bottom=chords[0], top=chords[1])
    cfg = PrismConfiguration(
        selections={"G1": PrismSelection(frozenset({"s1"})),
                    "G2": PrismSelection(frozenset({"s1"}))},
        prisms={"G1": (Prism("corner:s1", (vf,)),),
                "G2": (Prism("corner:s1", (vf,)),)})
    assert validate_configuration(cfg, dividing) == []
    assert admissible(cfg, dividing)


def test_cross_tetrahedron_mismatched_overlap_rejected():
    (t1, t2), dividing, chords, validate_configuration = _two_tet_setup()
    d = dividing["F123"]
    from bsurf.dividing import classify_pieces
    # widen one side: same stack but a strictly larger span, overlapping the other
    rep = classify_pieces(d)
    pair, chain = sorted(rep.stacks.items())[0]
    all_chords = sorted({tuple(sorted(c)) for piece in chain for c in piece.chords})
    narrow = VerticalFace(face="F123", bottom=all_chords[0], top=all_chords[1])
    wide = VerticalFace(face="F123", bottom=all_chords[0], top=all_chords[-1])
    cfg = PrismConfiguration(
        selections={"G1": PrismSelection(frozenset({"s1"})),
                    "G2": PrismSelection(frozenset({"s1"}))},
        prisms={"G1": (Prism("corner:s1", (narrow,)),),
                "G2": (Prism("corner:s1", (wide,)),)})
    problems = validate_configuration(cfg, dividing)
    assert problems
    assert "without matching fibrations" in problems[0]


def test_duplicate_prism_kind_in_one_tetrahedron_rejected():
    (t1, t2), dividing, chords, validate_configuration = _two_tet_setup()
    vf = VerticalFace(face="F123", bottom=chords[0], top=chords[1])
    cfg = PrismConfiguration(
        selections={"G1": PrismSelection(frozenset({"s1"}))},
        prisms={"G1": (Prism("corner:s1", (vf,)), Prism("corner:s1", (vf,)))})
    problems = validate_configuration(cfg, dividing)
    assert any("duplicate" in p or "exceed" in p for p in problems)


# ---------------------------------------------------------------------------
# admissibility certificates, by exact text


def _one_face_config(*vertical_faces):
    return PrismConfiguration(
        selections={"T": PrismSelection(frozenset({"s1"}))},
        prisms={"T": (Prism("corner:s1", vertical_faces),)})


@pytest.mark.parametrize("bottom, top, certificate", [
    ((0, 2), (4, 5), "face X: arc (0, 2) is not a dividing component"),
    ((5, 4), (7, 8), "face X: arc (7, 8) is not a dividing component"),
    ((0, 1), (6, 7), "face X: vertical face (0, 1)..(6, 7) meets a safety triangle"),
    ((4, 5), (10, 11), "face X: vertical face (4, 5)..(10, 11) meets an extraordinary piece"),
])
def test_admissible_certificates_by_exact_text(bottom, top, certificate):
    # stack_face(3, 3, 3): arcs (0, 1), (6, 7) and (12, 13) cut off the corners,
    # and the outermost arcs (4, 5), (10, 11) and (16, 17) bound the central piece
    d = fixtures.stack_face(3, 3, 3, face="X")
    report = admissible(_one_face_config(VerticalFace("X", bottom, top)), {"X": d})
    assert (report.admissible, report.certificate) == (False, certificate)


def test_admissible_names_a_face_without_dividing_data():
    d = fixtures.stack_face(3, 3, 3, face="X")
    cfg = _one_face_config(VerticalFace("X", (0, 1), (4, 5)), VerticalFace("Y", (0, 1), (4, 5)))
    assert admissible(cfg, {"X": d}).certificate == "face Y: no dividing data"
    assert admissible(cfg, {"X": d, "Y": fixtures.stack_face(3, 3, 3, face="Y")})


def test_admissible_reports_the_first_failing_vertical_face():
    d = fixtures.stack_face(3, 3, 3, face="X")
    cfg = _one_face_config(VerticalFace("X", (0, 1), (4, 5)), VerticalFace("X", (0, 1), (6, 7)),
                           VerticalFace("X", (0, 2), (4, 5)), VerticalFace("Y", (0, 1), (4, 5)))
    assert admissible(cfg, {"X": d}).certificate == (
        "face X: vertical face (0, 1)..(6, 7) meets a safety triangle")


def test_config_order_incomparable():
    fid = "X"
    d = fixtures.stack_face(3, 3, 3, face=fid)
    chords = [(0, 1), (2, 3), (4, 5)]

    def config(kind, lo, hi):
        vf = VerticalFace(face=fid, bottom=chords[lo], top=chords[hi])
        return PrismConfiguration(selections={"G": PrismSelection(frozenset({"s1", "s2"}))},
                                  prisms={"G": (Prism(kind=kind, vertical_faces=(vf,)),)})

    low, high = config("corner:s1", 0, 1), config("corner:s1", 1, 2)
    assert config_order(low, high, {fid: d}) == "incomparable"
    assert config_order(high, low, {fid: d}) == "incomparable"
    other = config("corner:s2", 0, 1)
    assert config_order(low, other, {fid: d}) == "incomparable"
    assert config_order(low, config("corner:s1", 0, 2), {fid: d}) == "less-equal"
    # a slot off the face, or a face without dividing data, contains nothing
    off = PrismConfiguration(selections=low.selections, prisms={"G": (Prism(
        "corner:s1", (VerticalFace(face=fid, bottom=(99, 1), top=chords[1]),)),)})
    assert config_order(low, off, {fid: d}) == "incomparable"
    assert config_order(low, low, {}) == "incomparable"


def test_equal_holonomy_reports_hash_alike(tetra):
    t, _ = tetra
    h = fixtures.holonomy_all_minus_one(t)
    a, b = validate_holonomy(h, t), validate_holonomy(h, t)
    assert a == b
    assert hash(a) == hash(b)
    assert isinstance(a.findings, tuple)
