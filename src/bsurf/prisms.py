"""Tetrahedra, fibered-prism selections and combinatorial holonomy.

A tetrahedron carries four hexagon face models; each of its six edges
is shared by two of them and the slot counts along the shared edge
segment must agree.  Prism selections follow the family structure: four
corner prisms plus at most one of three diagonal prisms.  Holonomy is
the composed index shift of the order-preserving matchings transporting
singular-line endpoints around a vertex corner; the validator accepts
exactly the circuits composing to -1.

``admissible`` and ``coverage_report`` share one walk over the vertical
faces that classifies each named face once; ``admissible_each`` keeps
those reports across the configurations of one complex.  Every piece of a
``classify_pieces`` stack is ordinary, so a vertical face whose arcs
bound a run of one stack holds only ordinary pieces.  The walk gives a
vertical face as the index range of those pieces, read from the report's
regions and stack ranges, so it builds no ``Piece``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .dividing import DividingSet, FaceModel, PieceReport, classify_pieces, tb_triangulation


@dataclass(frozen=True)
class EdgeData:
    """One tetrahedron edge: its two adjacent faces and their local edges."""

    index: int
    vertices: tuple[str, str]
    faces: tuple[str, str]            # face ids
    face_edges: tuple[int, int]       # local edge index (0..2) within each face


@dataclass(frozen=True)
class Tetrahedron:
    index: str
    vertices: tuple[str, str, str, str]
    faces: tuple[str, str, str, str]
    edges: tuple[EdgeData, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != 4:
            raise ValueError(f"tetrahedron {self.index}: four distinct vertices required")
        if len(self.edges) != 6:
            raise ValueError(f"tetrahedron {self.index}: six edges required")

    def faces_at(self, vertex: str) -> tuple[str, ...]:
        out = []
        for e in self.edges:
            if vertex in e.vertices:
                out.extend(e.faces)
        return tuple(sorted(set(out)))

    def edges_at(self, vertex: str) -> tuple[EdgeData, ...]:
        return tuple(e for e in self.edges if vertex in e.vertices)


def validate_tetrahedron(t: Tetrahedron, face_models: dict[str, FaceModel]) -> list[str]:
    """Face/edge incidence and slot-count agreement along shared edges."""
    problems = []
    for f in t.faces:
        if f not in face_models:
            problems.append(f"tetrahedron {t.index}: face {f} has no model")
    if sorted(e.index for e in t.edges) != list(range(len(t.edges))):
        problems.append(f"tetrahedron {t.index}: edge indices must be 0 to {len(t.edges) - 1}, "
                        "each once")
    for e in t.edges:
        for f in e.faces:
            if f not in t.faces:
                problems.append(f"tetrahedron {t.index} edge {e.index}: face {f} not on this tetrahedron")
        if len(set(e.faces)) != 2:
            problems.append(f"tetrahedron {t.index} edge {e.index}: needs two distinct faces")
            continue
        if not all(k in (0, 1, 2) for k in e.face_edges):
            problems.append(f"tetrahedron {t.index} edge {e.index}: face edges must be 0, 1 or 2")
            continue
        if all(f in face_models for f in e.faces):
            n0 = len(face_models[e.faces[0]].edge_slots[e.face_edges[0]])
            n1 = len(face_models[e.faces[1]].edge_slots[e.face_edges[1]])
            if n0 != n1:
                problems.append(
                    f"tetrahedron {t.index} edge {e.index}: slot counts disagree ({n0} vs {n1})")
    return problems


# ---------------------------------------------------------------------------
# Prism selections


@dataclass(frozen=True)
class PrismSelection:
    """Subset of the five-prism family: corner prisms plus one diagonal."""

    corners: frozenset
    diagonal: Optional[int] = None    # one of 0, 1, 2 or None

    def __post_init__(self):
        if self.diagonal is not None and self.diagonal not in (0, 1, 2):
            raise ValueError("diagonal prism must be 0, 1, 2 or None")

    @property
    def size(self) -> int:
        return len(self.corners) + (0 if self.diagonal is None else 1)

    def subsumed_by(self, other: "PrismSelection") -> bool:
        if not self.corners <= other.corners:
            return False
        return self.diagonal is None or self.diagonal == other.diagonal


def enumerate_prism_selections(t: Tetrahedron) -> tuple[PrismSelection, ...]:
    """All 64 selections: 2^4 corner subsets times {none, d0, d1, d2}."""
    out = []
    verts = t.vertices
    for r in range(5):
        for corners in itertools.combinations(verts, r):
            for diag in (None, 0, 1, 2):
                out.append(PrismSelection(corners=frozenset(corners), diagonal=diag))
    return tuple(sorted(out, key=lambda s: (s.size, sorted(s.corners),
                                            -1 if s.diagonal is None else s.diagonal)))


def maximal_selections(t: Tetrahedron) -> tuple[PrismSelection, ...]:
    sels = enumerate_prism_selections(t)
    return tuple(s for s in sels if s.size == 5)


def _order(le: bool, ge: bool) -> str:
    """The verdict on p <= q and q <= p."""
    if le:
        return "equal" if ge else "less-equal"
    return "greater" if ge else "incomparable"


def selection_order(p: PrismSelection, q: PrismSelection) -> str:
    return _order(p.subsumed_by(q), q.subsumed_by(p))


# ---------------------------------------------------------------------------
# Prism configurations


@dataclass(frozen=True)
class VerticalFace:
    """A vertical prism face, as a span of pieces on a triangulation face.

    The quadrilateral is the region between two dividing arcs of the
    same stack; both arcs are given by their slot pairs.
    """

    face: str
    bottom: tuple[int, int]
    top: tuple[int, int]


@dataclass(frozen=True)
class Prism:
    kind: str                         # "corner:<vertex>" or "diagonal:<i>"
    vertical_faces: tuple[VerticalFace, ...]


@dataclass(frozen=True)
class PrismConfiguration:
    selections: dict
    prisms: dict                      # tet id -> tuple[Prism, ...]

    def __post_init__(self):
        # a document saves prisms under their tetrahedron's selection
        unselected = sorted(self.prisms.keys() - self.selections.keys())
        if unselected:
            raise ValueError(f"prisms on tetrahedra without a selection: {', '.join(unselected)}")

    def all_prisms(self):
        for tet, prisms in sorted(self.prisms.items()):
            for p in prisms:
                yield tet, p


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    certificate: Optional[str] = None

    def __bool__(self):
        return self.admissible


def validate_configuration(config: PrismConfiguration,
                           dividing: dict[str, DividingSet]) -> list[str]:
    """Pairwise prism intersections: a shared vertical quadrilateral with the
    same fibration, an arc in an edge, or empty.

    Within one tetrahedron the selected prisms come from one family and are
    disjoint by construction; across tetrahedra, vertical faces on a common
    triangulation face must either coincide exactly or not overlap at all.
    """
    problems = []
    for tid, sel in config.selections.items():
        kinds = [p.kind for p in config.prisms.get(tid, ())]
        if len(kinds) != len(set(kinds)):
            problems.append(f"tetrahedron {tid}: duplicate prism kinds {sorted(kinds)}")
        if len(kinds) > sel.size:
            problems.append(f"tetrahedron {tid}: {len(kinds)} prisms exceed the "
                            f"declared selection of size {sel.size}")
    items = list(config.all_prisms())
    for i, (ta, pa) in enumerate(items):
        for tb, pb in items[i + 1:]:
            if ta == tb:
                continue
            for va in pa.vertical_faces:
                for vb in pb.vertical_faces:
                    if va.face != vb.face or va.face not in dividing:
                        continue
                    d = dividing[va.face]
                    sa, sb = _interval_span(d, va), _interval_span(d, vb)
                    # a slot off the face is an arc ``admissible`` names
                    if sa is None or sb is None or set(sa) != set(sb):
                        continue
                    overlap = all(not (sa[e][1] < sb[e][0] or sb[e][1] < sa[e][0])
                                  for e in sa)
                    if overlap and sa != sb:
                        problems.append(
                            f"prisms {pa.kind}@{ta} and {pb.kind}@{tb} overlap on "
                            f"face {va.face} without matching fibrations")
    return problems


def _stack_between(report: PieceReport, bottom, top) -> Optional[range]:
    """Indices of the pieces between two arcs of one stack, or None.

    A stack runs innermost piece first and each region lists its own arc
    first, so its arcs in nesting order are the innermost region's inner
    arc, then each region's own arc; piece k of the stack lies between
    arcs k and k+1.  Reads the report's regions and builds no ``Piece``.
    """
    b, t = tuple(sorted(bottom)), tuple(sorted(top))
    regions = report.regions
    for _, r in report.stack_ranges:
        chords = [regions[r.start][0][1], *(regions[i][0][0] for i in r)]
        arcs = [(x, y) if x < y else (y, x) for x, y in chords]
        if b in arcs and t in arcs:
            lo, hi = sorted((arcs.index(b), arcs.index(t)))
            return range(r.start + lo, r.start + hi)
    return None


def _face_walk(config: PrismConfiguration, dividing: dict[str, DividingSet],
               reports: dict[str, PieceReport]):
    """Each vertical face in order, with its face's piece report (None without
    dividing data) and the index range of its pieces (None unless its arcs
    bound a run of one stack).  Each named face is classified once, by
    ``classify_pieces``, and its report kept in ``reports``."""
    for _, prism in config.all_prisms():
        for vf in prism.vertical_faces:
            if vf.face not in dividing:
                yield vf, None, None
                continue
            report = reports.get(vf.face)
            if report is None:
                report = reports[vf.face] = classify_pieces(dividing[vf.face])
            yield vf, report, _stack_between(report, vf.bottom, vf.top)


def admissible(config: PrismConfiguration,
               dividing: dict[str, DividingSet]) -> AdmissibilityReport:
    """Every vertical prism face must be a run of one stack: stack pieces are
    ordinary and off the corners.  The certificate names the first vertical
    face that fails, in ``config.all_prisms()`` order."""
    return _admissible(config, dividing, {})


def admissible_each(configs: dict[str, PrismConfiguration],
                    dividing: dict[str, DividingSet]) -> dict[str, AdmissibilityReport]:
    """``admissible`` for each configuration of one complex, by name; a face
    that several configurations name is classified once for all of them."""
    reports: dict[str, PieceReport] = {}
    return {name: _admissible(cfg, dividing, reports) for name, cfg in configs.items()}


def _admissible(config: PrismConfiguration, dividing: dict[str, DividingSet],
                reports: dict[str, PieceReport]) -> AdmissibilityReport:
    for vf, report, between in _face_walk(config, dividing, reports):
        if report is None:
            return AdmissibilityReport(False, f"face {vf.face}: no dividing data")
        if between is not None:
            continue                  # both arcs are arcs of a stack
        known = {tuple(sorted(a)) for a in dividing[vf.face].arcs}
        for arc in (vf.bottom, vf.top):
            if tuple(sorted(arc)) not in known:
                return AdmissibilityReport(
                    False, f"face {vf.face}: arc {arc} is not a dividing component")
        ends = {tuple(sorted(vf.bottom)), tuple(sorted(vf.top))}
        lam = any(any(corners) for chords, corners in report.regions
                  if ends & {tuple(sorted(c)) for c in chords})
        where = "a safety triangle" if lam else "an extraordinary piece"
        return AdmissibilityReport(
            False, f"face {vf.face}: vertical face {vf.bottom}..{vf.top} meets {where}")
    return AdmissibilityReport(True)


def _interval_span(d: DividingSet, vf: VerticalFace):
    """Slot interval of a vertical face on each of its two edges, or None if
    one of its slots is not on the face."""
    f = d.face
    spans = {}
    for arc in (vf.bottom, vf.top):
        for s in arc:
            try:
                e, i, _ = f.locate(s)
            except KeyError:
                return None
            spans.setdefault(e, []).append(i)
    return {e: (min(v), max(v)) for e, v in spans.items()}


def config_order(p: PrismConfiguration, q: PrismConfiguration,
                 dividing: dict[str, DividingSet]) -> str:
    """Containment up to the slot normal form: every prism of p inside one of q."""

    def le(c1: PrismConfiguration, c2: PrismConfiguration) -> bool:
        return all(any(o.kind == prism.kind and _prism_inside(prism, o, dividing)
                       for o in c2.prisms.get(tet, ()))
                   for tet, prism in c1.all_prisms())

    return _order(le(p, q), le(q, p))


def _prism_inside(p: Prism, q: Prism, dividing) -> bool:
    if len(p.vertical_faces) != len(q.vertical_faces):
        return False
    for vf_p, vf_q in zip(sorted(p.vertical_faces, key=lambda v: v.face),
                          sorted(q.vertical_faces, key=lambda v: v.face)):
        if vf_p.face != vf_q.face or vf_p.face not in dividing:
            return False
        d = dividing[vf_p.face]
        sp, sq = _interval_span(d, vf_p), _interval_span(d, vf_q)
        if sp is None or sq is None or set(sp) != set(sq):
            return False
        for e in sp:
            (alo, ahi), (blo, bhi) = sp[e], sq[e]
            if not (blo <= alo and ahi <= bhi):
                return False
    return True


def tb_aggregate(dividing: dict[str, DividingSet]) -> int:
    """Complex-level total twisting number; delegates to the face calculus."""
    return tb_triangulation([dividing[fid] for fid in sorted(dividing)])


@dataclass(frozen=True)
class CoverageReport:
    """Pieces left outside the configuration, against tunable thresholds.

    The bounds on outside pieces and on the minimum stack thickness per
    vertical face are existence constants without stated values, so they
    are report inputs rather than constants.
    """

    outside_pieces: int
    thin_faces: tuple[tuple[str, int], ...]
    max_outside: int
    min_pieces_per_face: int

    @property
    def within_bounds(self) -> bool:
        return self.outside_pieces <= self.max_outside and not self.thin_faces


def coverage_report(config: PrismConfiguration, dividing: dict[str, DividingSet],
                    max_outside: int = 64, min_pieces_per_face: int = 20) -> CoverageReport:
    # Only the faces a vertical face names are classified.  Every face has
    # len(d.arcs) + 1 pieces, one inside each arc and the root.
    covered: dict[str, set] = {}
    thin = []
    for vf, report, between in _face_walk(config, dividing, {}):
        if report is None:
            raise KeyError(vf.face)
        between = between or range(0)
        covered.setdefault(vf.face, set()).update(between)
        if len(between) < min_pieces_per_face:
            thin.append((vf.face, len(between)))
    outside = sum(len(d.arcs) + 1 for d in dividing.values()) - sum(map(len, covered.values()))
    return CoverageReport(outside_pieces=outside, thin_faces=tuple(thin),
                          max_outside=max_outside,
                          min_pieces_per_face=min_pieces_per_face)


# ---------------------------------------------------------------------------
# Holonomy


@dataclass(frozen=True)
class Crossing:
    """Transport across one edge between two faces, as an index shift."""

    edge: int
    face_from: str
    face_to: str
    shift: int


@dataclass(frozen=True)
class HolonomyData:
    tet: str
    crossings: tuple[Crossing, ...]

    def shift(self, edge: int, face_from: str, face_to: str) -> int:
        for c in self.crossings:
            if (c.edge, c.face_from, c.face_to) == (edge, face_from, face_to):
                return c.shift
        raise KeyError(f"no matching data for edge {edge}, {face_from} -> {face_to}")


@dataclass(frozen=True)
class Circuit:
    """Corner circuit: ordered (face, edge) pairs around a vertex.

    The last edge is the measuring edge; the circuit closes iff that
    edge is also adjacent to the first face.
    """

    vertex: str
    corners: tuple[tuple[str, int], ...]


def _circuit_walk(h: HolonomyData, circuit: Circuit):
    """(edge, next face, index shift) at each corner of the circuit, in order."""
    corners = circuit.corners
    for i, (face, edge) in enumerate(corners):
        nxt = corners[(i + 1) % len(corners)][0]
        yield edge, nxt, h.shift(edge, face, nxt)


def holonomy(h: HolonomyData, circuit: Circuit, t: Tetrahedron) -> int:
    """Composed index shift of the matchings around the circuit."""
    if not circuit.corners:
        raise ValueError(f"circuit around {circuit.vertex} has no corners")
    first, last = circuit.corners[0][0], circuit.corners[-1][1]
    if first not in {e.index: e for e in t.edges}[last].faces:
        raise ValueError(f"circuit around {circuit.vertex} does not close up: "
                         f"edge {last} does not return to face {first}")
    return sum(shift for _, _, shift in _circuit_walk(h, circuit))


def canonical_circuits(t: Tetrahedron) -> tuple[Circuit, ...]:
    """One corner circuit per vertex, walking the three adjacent faces."""
    out = []
    for v in t.vertices:
        faces = list(t.faces_at(v))
        edges = t.edges_at(v)
        if len(faces) != 3 or len(edges) != 3:
            continue
        corners, face, used = [], faces[0], set()
        for _ in range(3):
            e = next((e for e in edges if e.index not in used and face in e.faces), None)
            if e is None:
                break
            corners.append((face, e.index))
            used.add(e.index)
            face = e.faces[0] if e.faces[1] == face else e.faces[1]
        if len(corners) == 3:
            out.append(Circuit(vertex=v, corners=tuple(corners)))
    return tuple(out)


@dataclass(frozen=True)
class HolonomyFinding:
    circuit: Circuit
    value: Optional[int]
    verdict: str                      # "ok", "bennequin-violation", "non-minimal", "excluded", "incomplete"
    detail: str = ""


@dataclass(frozen=True)
class HolonomyReport:
    ok: bool
    findings: tuple[HolonomyFinding, ...]

    def __bool__(self):
        return self.ok


def validate_holonomy(h: HolonomyData, t: Tetrahedron,
                      extra_circuits: Sequence[Circuit] = ()) -> HolonomyReport:
    """Pass iff every corner circuit composes to -1.

    Zero holonomy certifies a twisting violation; other values certify
    that the triangulation was not minimal.  Circuits whose etale arc
    approaches the measuring edge twice from the same face are excluded
    and flagged.
    """
    findings = []
    circuits = list(canonical_circuits(t)) + list(extra_circuits)
    if not circuits:
        findings.append(HolonomyFinding(Circuit("", ()), None, "incomplete",
                                        "no corner circuits available"))
    for c in circuits:
        if c.corners and c.corners[0][0] == c.corners[-1][0]:
            findings.append(HolonomyFinding(c, None, "excluded",
                                            "etale arc meets the measuring edge twice "
                                            "from the same face"))
            continue
        try:
            val = holonomy(h, c, t)
        except (KeyError, ValueError) as exc:   # missing data, or a circuit that does not close
            findings.append(HolonomyFinding(c, None, "incomplete", str(exc)))
            continue
        if val == -1:
            findings.append(HolonomyFinding(c, val, "ok"))
        elif val == 0:
            findings.append(HolonomyFinding(c, val, "bennequin-violation",
                                            "holonomy 0 contradicts the twisting bound"))
        else:
            findings.append(HolonomyFinding(c, val, "non-minimal",
                                            f"holonomy {val} certifies a non-minimal triangulation"))
    ok = all(f.verdict == "ok" for f in findings)
    return HolonomyReport(ok=ok, findings=tuple(findings))


@dataclass(frozen=True)
class CornerTransport:
    start_index: int
    landing_index: int

    @property
    def adjacent(self) -> bool:
        return abs(self.landing_index - self.start_index) == 1


def corner_transport(h: HolonomyData, circuit: Circuit, t: Tetrahedron,
                     start_index: int, stack_sizes: Optional[dict] = None) -> CornerTransport:
    """Transport a singular-line endpoint index around a corner circuit.

    With holonomy -1 the transported endpoint lands next to its start:
    the constructive adjacency behind the prism-extension argument.
    """
    idx = start_index
    for edge, nxt_face, shift in _circuit_walk(h, circuit):
        idx += shift
        if stack_sizes is not None:
            size = stack_sizes.get((edge, nxt_face))
            if size is not None and not 0 <= idx < size:
                raise ValueError(f"index {idx} out of matching range on edge {edge}")
    return CornerTransport(start_index=start_index, landing_index=idx)
