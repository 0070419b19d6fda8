import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsurf import fixtures
from bsurf.surface import RuleError
from bsurf.dividing import (DividingSet, FaceModel, HalfDiskSite, InvalidFaceCertificate,
                            PieceKind, PieceRole, Side, SquareSite,
                            boundary_parallel_arcs, bypass_surgery, classify_pieces,
                            edge_parallel_extremal_report, extremal_components,
                            rotated_site, tb_edge, tb_from_intersections,
                            tb_triangulation)


# ---------------------------------------------------------------------------
# tb arithmetic


@pytest.mark.parametrize("count,expected", [(2, -1), (0, 0), (4, -2), (6, -3)])
def test_tb_from_intersections(count, expected):
    assert tb_from_intersections(count) == Fraction(expected)


def test_tb_rejects_negative():
    with pytest.raises(ValueError):
        tb_from_intersections(-2)


# ---------------------------------------------------------------------------
# construction invariants


def test_crossing_matching_rejected():
    fm = FaceModel(face="F", edge_slots=((0, 1), (2, 3), ()))
    with pytest.raises(ValueError, match="non-planar"):
        DividingSet(face=fm, arcs=((0, 2), (1, 3)))


def test_every_slot_used_exactly_once():
    fm = FaceModel(face="F", edge_slots=((0, 1), (2, 3), ()))
    with pytest.raises(ValueError, match="slot"):
        DividingSet(face=fm, arcs=((0, 1),))


def test_duplicate_slot_declaration_rejected():
    with pytest.raises(ValueError):
        FaceModel(face="F", edge_slots=((0, 1), (1, 2), ()))


def test_the_first_slot_declared_twice_is_named():
    with pytest.raises(ValueError) as exc:
        FaceModel(face="F", edge_slots=((0, 1), (2, 1), (3, 2)))
    assert str(exc.value) == "slot 1 declared twice on face F"


@pytest.mark.parametrize("edge_slots", [(), ((0, 1),), ((0, 1), (2, 3)),
                                        ((0, 1), (2, 3), (), (4, 5))],
                         ids=["none", "one", "two", "four"])
def test_a_face_has_three_edges(edge_slots):
    with pytest.raises(ValueError) as exc:
        FaceModel(face="X", edge_slots=edge_slots)
    assert str(exc.value) == "three edges required"


@pytest.mark.parametrize("arcs, message", [
    (((0, 5), (1, 1), (2, 3)), "malformed arc (1, 1)"),
    (((0, 5), (1, 2, 3), (4, 4)), "malformed arc (1, 2, 3)"),
    (((0,),), "malformed arc (0,)"),
    (((0, 5), (1, 2)), "face F: every slot must be used by exactly one arc"),
    (((0, 5), (1, 2), (3, 5)), "face F: every slot must be used by exactly one arc"),
    (((0, 5), (1, 2), (3, 9)), "face F: every slot must be used by exactly one arc"),
    (((0, 5), (1, 2), (3, 4), (6, 7)), "face F: every slot must be used by exactly one arc"),
    (((2, 3), (0, 4), (1, 5)), "non-planar dividing set: arcs (0, 4) and (1, 5) cross"),
    (((0, 2), (1, 4), (3, 5)), "non-planar dividing set: arcs (0, 2) and (1, 4) cross"),
], ids=["repeated-end", "three-ends", "one-end", "slot-unused", "slot-used-twice",
        "slot-off-face", "extra-arc", "crossing-late", "first-crossing-pair"])
def test_dividing_set_errors_keep_their_text(arcs, message):
    fm = FaceModel(face="F", edge_slots=((0, 1, 2, 3), (4, 5), ()))
    DividingSet(face=fm, arcs=((0, 5), (1, 2), (3, 4)))
    with pytest.raises(ValueError) as exc:
        DividingSet(face=fm, arcs=arcs)
    assert str(exc.value) == message


@settings(max_examples=80)
@given(st.integers(0, 10 ** 6))
def test_random_noncrossing_faces_are_valid(seed):
    rng = random.Random(seed)
    d = fixtures.random_noncrossing_face(rng)
    assert len(d.arcs) >= 1
    assert sorted(s for a in d.arcs for s in a) == sorted(d.face.slots)


# ---------------------------------------------------------------------------
# boundary-parallel arcs


def test_boundary_parallel_detection():
    d = fixtures.face_with_boundary_parallel()
    found = boundary_parallel_arcs(d)
    assert [(b.arc, b.edge, b.usable) for b in found] == [((1, 2), 0, True)]


def test_edge_to_edge_arcs_are_not_boundary_parallel():
    d = fixtures.parallel_face(3)
    assert boundary_parallel_arcs(d) == ()


def test_disk_single_arc_flagged_non_usable():
    d = fixtures.single_arc_disk()
    found = boundary_parallel_arcs(d)
    assert len(found) == 1
    assert not found[0].usable


# ---------------------------------------------------------------------------
# bypass surgery: interior squares


def parallel_site(d: DividingSet) -> SquareSite:
    tops = tuple(reversed(d.face.edge_slots[0]))
    return SquareSite(top_slots=tops[:3])


def test_square_rewriting_table():
    d = fixtures.parallel_face(3)
    # strands ordered along edge 0: tops (4, 2, 0), bottoms (5, 3, 1)
    out = bypass_surgery(d, SquareSite(top_slots=(4, 2, 0)), Side.POSITIVE)
    assert out.normal_form() == ((0, 5), (1, 3), (2, 4))
    out_neg = bypass_surgery(d, SquareSite(top_slots=(4, 2, 0)), Side.NEGATIVE)
    assert out_neg.normal_form() == ((0, 2), (1, 4), (3, 5))


def test_up_then_down_is_identity():
    d = fixtures.parallel_face(4)
    site = SquareSite(top_slots=(6, 4, 2))
    once = bypass_surgery(d, site, Side.POSITIVE)
    back = bypass_surgery(once, rotated_site(d, site), Side.NEGATIVE)
    assert back.normal_form() == d.normal_form()


def test_square_requires_distinct_arcs():
    d = fixtures.parallel_face(2)
    with pytest.raises(ValueError, match="distinct"):
        bypass_surgery(d, SquareSite(top_slots=(2, 3, 0)))


def test_square_rejects_separated_strands():
    # strands 1 and 3 of a 4-stack are not consecutive: strand 2 separates them
    d = fixtures.parallel_face(4)
    with pytest.raises(ValueError, match="square"):
        bypass_surgery(d, SquareSite(top_slots=(6, 2, 0)))


def test_square_preserves_slot_count_parity():
    d = fixtures.parallel_face(3)
    out = bypass_surgery(d, SquareSite(top_slots=(4, 2, 0)))
    for e in range(3):
        assert len(out.face.edge_slots[e]) == len(d.face.edge_slots[e])


def _arcs_by_sorting(d: DividingSet, site: SquareSite, side: Side):
    """The arcs of a square surgery as ``bypass_surgery`` once built them: it
    dropped every arc whose sorted slots matched a strand's."""
    (t1, b1), (t2, b2), (t3, b3) = [(t, a[1] if a[0] == t else a[0])
                                    for t in site.top_slots for a in [d.arc_of(t)]]
    old = {tuple(sorted((t1, b1))), tuple(sorted((t2, b2))), tuple(sorted((t3, b3)))}
    new = ([(t1, t2), (b1, t3), (b2, b3)] if side is Side.POSITIVE
           else [(b1, b2), (t1, b3), (t2, t3)])
    return tuple([a for a in d.arcs if tuple(sorted(a)) not in old] + new)


@settings(max_examples=80, deadline=None)
@given(sizes=st.tuples(*[st.integers(0, 12)] * 3),
       picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 40), st.booleans(),
                                st.sampled_from(Side)), min_size=1, max_size=12))
def test_square_surgery_keeps_the_arc_order(sizes, picks):
    # consecutive slots along an edge, read either way, on a face that
    # earlier surgeries have reordered; invalid sites are skipped
    d = fixtures.stack_face(*sizes)
    for edge, i, backwards, side in picks:
        slots = d.face.edge_slots[edge][::-1 if backwards else 1]
        if len(slots) < 3:
            continue
        i %= len(slots) - 2
        site = SquareSite(top_slots=tuple(slots[i:i + 3]))
        try:
            out = bypass_surgery(d, site, side)
        except ValueError:
            continue
        assert out.arcs == _arcs_by_sorting(d, site, side)
        assert out.face is d.face
        d = out


# ---------------------------------------------------------------------------
# bypass surgery: boundary half-disks


def test_halfdisk_surgery_raises_edge_tb_by_one():
    d = fixtures.face_with_boundary_parallel()
    before = tb_edge(d, 0)
    out = bypass_surgery(d, HalfDiskSite(arc=(1, 2)))
    assert tb_edge(out, 0) == before + 1
    assert out.normal_form() == ((0, 5), (3, 4))


def test_halfdisk_site_must_be_boundary_parallel():
    d = fixtures.parallel_face(2)
    with pytest.raises(ValueError, match="boundary-parallel"):
        bypass_surgery(d, HalfDiskSite(arc=(0, 1)))


@pytest.mark.parametrize("site, slots, rule, message", [
    (SquareSite, (1, 3, 6, 7), "square-site", "strands site needs three top slots"),
    (SquareSite, (1, 3), "square-site", "strands site needs three top slots"),
    (HalfDiskSite, (1, 2, 3), "halfdisk-site", "halfdisk site needs the two slots of the arc"),
    (HalfDiskSite, (1,), "halfdisk-site", "halfdisk site needs the two slots of the arc"),
])
def test_a_site_has_its_number_of_slots(site, slots, rule, message):
    with pytest.raises(RuleError) as exc:
        site(slots)
    assert (exc.value.rule, str(exc.value)) == (rule, message)


# ---------------------------------------------------------------------------
# pieces


def test_parallel_stack_pieces():
    rep = classify_pieces(fixtures.parallel_face(4))
    assert {k: len(v) for k, v in rep.stacks.items()} == {(0, 1): 3}
    assert sorted(p.role for p in rep.outside) == [PieceRole.CORNER, PieceRole.CORNER]
    assert rep.total == 5


def test_three_stack_configuration_pieces():
    rep = classify_pieces(fixtures.stack_face(3, 3, 3))
    assert {k: len(v) for k, v in rep.stacks.items()} == {
        (0, 1): 2, (1, 2): 2, (0, 2): 2}
    roles = sorted(p.role.value for p in rep.outside)
    assert roles.count("central") == 1
    assert roles.count("half_disk") == 0
    assert len(rep.outside) <= 7


def test_empty_dividing_set_is_one_hexagon_piece():
    fm = FaceModel(face="E", edge_slots=((), (), ()))
    rep = classify_pieces(DividingSet(face=fm, arcs=()))
    assert rep.total == 1
    assert rep.pieces[0].kind is PieceKind.EXTRAORDINARY
    assert rep.pieces[0].role is PieceRole.HEXAGON


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_piece_partition_property(seed):
    rng = random.Random(seed)
    rep = classify_pieces(fixtures.random_noncrossing_face(rng))
    in_stacks = sum(len(v) for v in rep.stacks.values())
    assert in_stacks + len(rep.outside) == rep.total


# ---------------------------------------------------------------------------
# extremal components


def test_stack_outermost_arcs_are_extremal():
    d = fixtures.parallel_face(3)
    per_end, arcs = extremal_components(d)
    assert set(arcs) == {(0, 1), (4, 5)}
    assert per_end[(0, 0)] == (4, 5)
    assert per_end[(0, 1)] == (0, 1)


def test_empty_dividing_set_has_no_extremal_arcs():
    fm = FaceModel(face="E", edge_slots=((), (), ()))
    per_end, arcs = extremal_components(DividingSet(face=fm, arcs=()))
    assert per_end == {}
    assert arcs == ()


def test_interior_boundary_parallel_arc_is_a_minimality_certificate():
    d = fixtures.face_with_boundary_parallel()
    assert edge_parallel_extremal_report(d) == ((1, 2),)
    surgered = bypass_surgery(d, HalfDiskSite(arc=(1, 2)))
    assert edge_parallel_extremal_report(surgered) == ()


# ---------------------------------------------------------------------------
# tb_triangulation


def test_tb_triangulation_sum():
    faces = [fixtures.parallel_face(1, face=f"F{i}") for i in range(4)]
    assert tb_triangulation(faces) == 4


def test_tb_triangulation_at_least_face_count():
    faces = [fixtures.stack_face(2, 1, 1, face="A"), fixtures.parallel_face(3, face="B")]
    assert tb_triangulation(faces) >= 2


def test_tb_triangulation_rejects_empty_face():
    fm = FaceModel(face="E", edge_slots=((), (), ()))
    faces = [fixtures.parallel_face(1), DividingSet(face=fm, arcs=())]
    with pytest.raises(InvalidFaceCertificate, match="E"):
        tb_triangulation(faces)
