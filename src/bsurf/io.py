"""One self-describing JSON document format for the whole pipeline.

Every entity is named; cross-references resolve eagerly at load time and
all module-level invariants are checked with location-bearing
diagnostics.  Saving is canonical (sorted keys, fixed indentation) so
load/save round-trips are byte-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import dividing, domain, prisms, surface

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """Parse, reference or invariant failure with a location."""

    def __init__(self, kind: str, location: str, message: str):
        self.kind = kind
        self.location = location
        super().__init__(f"{kind} at {location}: {message}")


@dataclass
class ComplexDocument:
    version: int = FORMAT_VERSION
    surfaces: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)           # name -> (surface name, vector)
    domains: dict = field(default_factory=dict)
    faces: dict = field(default_factory=dict)             # face id -> FaceModel
    dividing_sets: dict = field(default_factory=dict)     # face id -> DividingSet
    tetrahedra: dict = field(default_factory=dict)
    holonomy: dict = field(default_factory=dict)          # tet id -> HolonomyData
    ensembles: dict = field(default_factory=dict)         # name -> (domain name, structures)
    prism_configs: dict = field(default_factory=dict)

    def weight_vector(self, spec: str, surface_name: Optional[str] = None):
        """Resolve a CLI weight argument: comma-separated entries or a name."""
        if spec in self.weights:
            sname, vec = self.weights[spec]
            if surface_name and sname != surface_name:
                raise DocumentError("reference error", f"weight {spec}",
                                    f"weight belongs to surface {sname}, not {surface_name}")
            return vec
        try:
            return tuple(int(x) for x in spec.split(","))
        except ValueError:
            raise DocumentError("reference error", f"weight {spec}",
                                "not a named weight or a comma-separated integer vector")


def _req(obj: dict, key: str, where: str):
    if key not in obj:
        raise DocumentError("parse error", where, f"missing field {key!r}")
    return obj[key]


def _load_surface(data: dict, where: str) -> surface.BranchedSurface:
    sectors = []
    for sd in _req(data, "sectors", where):
        cycles = []
        for cyc in sd.get("boundary_cycles", ()):
            cycles.append(tuple(
                surface.CycleRef(arc=int(r["arc"]), side=surface.Side(r["side"]),
                                 along=int(r.get("along", 1)))
                for r in cyc))
        sectors.append(surface.Sector(
            index=int(_req(sd, "index", where)),
            euler_char=int(_req(sd, "euler_char", where)),
            boundary_cycles=tuple(cycles),
            orientable=bool(sd.get("orientable", True)),
            name=sd.get("name", "")))
    arcs = []
    for ad in data.get("branch_arcs", ()):
        ep = ad.get("endpoints", "closed")
        endpoints = surface.CLOSED if ep == "closed" else (int(ep[0]), int(ep[1]))
        arcs.append(surface.BranchArc(
            index=int(_req(ad, "index", where)),
            merged_sector=int(_req(ad, "merged_sector", where)),
            upper_sector=int(_req(ad, "upper_sector", where)),
            lower_sector=int(_req(ad, "lower_sector", where)),
            endpoints=endpoints,
            reversed_upper=bool(ad.get("reversed_upper", False)),
            reversed_lower=bool(ad.get("reversed_lower", False))))
    tps = tuple(surface.TriplePoint(index=int(td["index"]),
                                    arcs=(int(td["arcs"][0]), int(td["arcs"][1])))
                for td in data.get("triple_points", ()))
    b = surface.BranchedSurface(sectors=tuple(sectors), branch_arcs=tuple(arcs),
                                triple_points=tps, name=data.get("name", ""))
    report = surface.validate(b)
    if not report.ok:
        v = report.violations[0]
        raise DocumentError("invariant violation", f"{where} ({v.location})",
                            f"branched_surface_core rule {v.rule}: {v.detail}")
    return b


def _dump_surface(b: surface.BranchedSurface) -> dict:
    return {
        "name": b.name,
        "sectors": [
            {"index": s.index, "euler_char": s.euler_char, "orientable": s.orientable,
             "name": s.name,
             "boundary_cycles": [
                 [{"arc": r.arc, "side": r.side.value, "along": r.along} for r in cyc]
                 for cyc in s.boundary_cycles]}
            for s in b.sectors],
        "branch_arcs": [
            {"index": a.index, "merged_sector": a.merged_sector,
             "upper_sector": a.upper_sector, "lower_sector": a.lower_sector,
             "endpoints": "closed" if a.is_closed else list(a.endpoints),
             "reversed_upper": a.reversed_upper, "reversed_lower": a.reversed_lower}
            for a in b.branch_arcs],
        "triple_points": [{"index": t.index, "arcs": list(t.arcs)}
                          for t in b.triple_points],
    }


def load(path) -> ComplexDocument:
    """Parse and validate a document; diagnostics carry their location."""
    text = Path(path).read_text(encoding="utf-8")
    return loads(text)


def loads(text: str) -> ComplexDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("parse error", f"line {exc.lineno} column {exc.colno}",
                            exc.msg)
    if not isinstance(raw, dict):
        raise DocumentError("parse error", "document", "top level must be an object")
    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise DocumentError("parse error", "format_version",
                            f"expected {FORMAT_VERSION}, got {version!r}")
    doc = ComplexDocument(version=version)

    for sd in raw.get("branched_surfaces", ()):
        name = sd.get("name") or f"surface{len(doc.surfaces)}"
        doc.surfaces[name] = _load_surface(sd, f"branched_surface {name}")

    for wd in raw.get("weights", ()):
        name = _req(wd, "name", "weights")
        sname = _req(wd, "surface", f"weight {name}")
        if sname not in doc.surfaces:
            raise DocumentError("reference error", f"weight {name}",
                                f"surface {sname} is not declared")
        vec = tuple(int(x) for x in _req(wd, "entries", f"weight {name}"))
        b = doc.surfaces[sname]
        if len(vec) != len(b.sectors):
            raise DocumentError("invariant violation", f"weight {name}",
                                f"length {len(vec)} != sector count {len(b.sectors)}")
        if not surface.satisfies_switch(b, vec):
            raise DocumentError("invariant violation", f"weight {name}",
                                "branched_surface_core rule switch-equations: "
                                "entries violate a switch equation")
        doc.weights[name] = (sname, vec)

    for fdd in raw.get("fibered_domains", ()):
        name = fdd.get("name") or f"domain{len(doc.domains)}"
        sname = _req(fdd, "surface", f"fibered_domain {name}")
        if sname not in doc.surfaces:
            raise DocumentError("reference error", f"fibered_domain {name}",
                                f"surface {sname} is not declared")
        annuli = tuple(
            domain.VerticalAnnulus(index=int(ad["index"]),
                                   arcs=tuple(int(a) for a in ad.get("arcs", ())),
                                   concave=tuple(bool(c) for c in ad.get("concave", (True, True))))
            for ad in fdd.get("vertical_annuli", ()))
        fd = domain.FiberedDomain(quotient=doc.surfaces[sname],
                                  vertical_annuli=annuli,
                                  boundary_sectors=frozenset(int(s) for s in
                                                             fdd.get("boundary_sectors", ())),
                                  name=name)
        report = domain.validate_domain(fd)
        if not report.ok:
            v = report.violations[0]
            raise DocumentError("invariant violation", f"fibered_domain {name} ({v.location})",
                                f"fibered_domain rule {v.rule}: {v.detail}")
        doc.domains[name] = fd

    for fd_ in raw.get("faces", ()):
        fid = _req(fd_, "face", "faces")
        slots = _req(fd_, "edge_slots", f"face {fid}")
        if len(slots) != 3:
            raise DocumentError("invariant violation", f"face {fid}",
                                "dividing_set_calculus rule hexagon-edges: three edges required")
        try:
            doc.faces[fid] = dividing.FaceModel(
                face=fid, edge_slots=tuple(tuple(int(s) for s in e) for e in slots),
                oriented_ccw=bool(fd_.get("oriented_ccw", True)))
        except ValueError as exc:
            raise DocumentError("invariant violation", f"face {fid}",
                                f"dividing_set_calculus rule slot-order: {exc}")

    for dd in raw.get("dividing_sets", ()):
        fid = _req(dd, "face", "dividing_sets")
        if fid not in doc.faces:
            raise DocumentError("reference error", f"dividing_set on {fid}",
                                f"face {fid} is not declared")
        try:
            doc.dividing_sets[fid] = dividing.DividingSet(
                face=doc.faces[fid],
                arcs=tuple(tuple(int(s) for s in a) for a in _req(dd, "arcs", f"dividing_set {fid}")))
        except ValueError as exc:
            msg = str(exc)
            rule = "non-planar dividing set" if "non-planar" in msg else "slot-matching"
            raise DocumentError("invariant violation", f"dividing_set on {fid}",
                                f"dividing_set_calculus rule {rule}: {msg}")

    for td in raw.get("tetrahedra", ()):
        tid = _req(td, "index", "tetrahedra")
        edges = tuple(
            prisms.EdgeData(index=int(ed["index"]),
                            vertices=tuple(ed["vertices"]),
                            faces=tuple(ed["faces"]),
                            face_edges=tuple(int(x) for x in ed["face_edges"]))
            for ed in _req(td, "edges", f"tetrahedron {tid}"))
        t = prisms.Tetrahedron(index=tid,
                               vertices=tuple(_req(td, "vertices", f"tetrahedron {tid}")),
                               faces=tuple(_req(td, "faces", f"tetrahedron {tid}")),
                               edges=edges)
        problems = prisms.validate_tetrahedron(t, doc.faces)
        if problems:
            raise DocumentError("invariant violation", f"tetrahedron {tid}",
                                f"triangulation_complex rule edge-slot-agreement: {problems[0]}")
        doc.tetrahedra[tid] = t

    for hd in raw.get("holonomy", ()):
        tid = _req(hd, "tet", "holonomy")
        if tid not in doc.tetrahedra:
            raise DocumentError("reference error", f"holonomy for {tid}",
                                f"tetrahedron {tid} is not declared")
        crossings = tuple(
            prisms.Crossing(edge=int(cd["edge"]), face_from=cd["face_from"],
                            face_to=cd["face_to"], shift=int(cd["shift"]))
            for cd in hd.get("crossings", ()))
        doc.holonomy[tid] = prisms.HolonomyData(tet=tid, crossings=crossings)

    for ed in raw.get("ensembles", ()):
        name = _req(ed, "name", "ensembles")
        dname = _req(ed, "domain", f"ensemble {name}")
        if dname not in doc.domains:
            raise DocumentError("reference error", f"ensemble {name}",
                                f"fibered_domain {dname} is not declared")
        fd = doc.domains[dname]
        structures = []
        for sd in ed.get("structures", ()):
            label = sd.get("label", f"{name}[{len(structures)}]")
            try:
                angles = domain.make_angles(_req(sd, "angles", label))
                structures.append(domain.AdjustedStructure(domain=fd, angle=angles,
                                                           label=label))
            except (ValueError, ZeroDivisionError) as exc:
                raise DocumentError("invariant violation", f"structure {label}",
                                    f"fibered_domain rule positive-angles: {exc}")
        for x in structures[1:]:
            try:
                domain.check_adjacency(structures[0], x)
            except ValueError as exc:
                raise DocumentError("invariant violation",
                                    f"ensemble {name} structure {x.label}",
                                    f"fibered_domain rule adjacency-coherence: {exc}")
        doc.ensembles[name] = (dname, tuple(structures))

    for pd in raw.get("prism_configurations", ()):
        name = _req(pd, "name", "prism_configurations")
        selections = {}
        prisms_by_tet = {}
        for tid, sd in _req(pd, "tets", f"prism_configuration {name}").items():
            if tid not in doc.tetrahedra:
                raise DocumentError("reference error", f"prism_configuration {name}",
                                    f"tetrahedron {tid} is not declared")
            diag = sd.get("diagonal")
            selections[tid] = prisms.PrismSelection(
                corners=frozenset(sd.get("corners", ())),
                diagonal=None if diag is None else int(diag))
            plist = []
            for pr in sd.get("prisms", ()):
                vfs = tuple(
                    prisms.VerticalFace(face=v["face"],
                                        bottom=tuple(int(x) for x in v["bottom"]),
                                        top=tuple(int(x) for x in v["top"]))
                    for v in pr.get("vertical_faces", ()))
                plist.append(prisms.Prism(kind=pr.get("kind", "corner:?"),
                                          vertical_faces=vfs))
            prisms_by_tet[tid] = tuple(plist)
        doc.prism_configs[name] = prisms.PrismConfiguration(selections=selections,
                                                            prisms=prisms_by_tet)

    return doc


def _surface_name(doc: ComplexDocument, fd, domain_name: str) -> str:
    for k, v in doc.surfaces.items():
        if v is fd.quotient or v == fd.quotient:
            return k
    raise DocumentError("reference error", f"fibered_domain {domain_name}",
                        "its quotient surface is not declared in the document")


def dumps(doc: ComplexDocument) -> str:
    raw = {
        "format_version": doc.version,
        "branched_surfaces": [_dump_surface(b) for _, b in sorted(doc.surfaces.items())],
        "weights": [{"name": n, "surface": s, "entries": list(v)}
                    for n, (s, v) in sorted(doc.weights.items())],
        "fibered_domains": [
            {"name": name, "surface": _surface_name(doc, fd, name),
             "vertical_annuli": [{"index": a.index, "arcs": list(a.arcs),
                                  "concave": list(a.concave)} for a in fd.vertical_annuli],
             "boundary_sectors": sorted(fd.boundary_sectors)}
            for name, fd in sorted(doc.domains.items())],
        "faces": [{"face": f.face, "edge_slots": [list(e) for e in f.edge_slots],
                   "oriented_ccw": f.oriented_ccw}
                  for _, f in sorted(doc.faces.items())],
        "dividing_sets": [{"face": fid, "arcs": [list(a) for a in d.arcs]}
                          for fid, d in sorted(doc.dividing_sets.items())],
        "tetrahedra": [
            {"index": t.index, "vertices": list(t.vertices), "faces": list(t.faces),
             "edges": [{"index": e.index, "vertices": list(e.vertices),
                        "faces": list(e.faces), "face_edges": list(e.face_edges)}
                       for e in t.edges]}
            for _, t in sorted(doc.tetrahedra.items())],
        "holonomy": [
            {"tet": tid, "crossings": [
                {"edge": c.edge, "face_from": c.face_from, "face_to": c.face_to,
                 "shift": c.shift} for c in h.crossings]}
            for tid, h in sorted(doc.holonomy.items())],
        "ensembles": [
            {"name": name, "domain": dname,
             "structures": [{"label": x.label,
                             "angles": [str(a) for a in x.angle.values]}
                            for x in xs]}
            for name, (dname, xs) in sorted(doc.ensembles.items())],
        "prism_configurations": [
            {"name": name,
             "tets": {tid: {"corners": sorted(cfg.selections[tid].corners),
                            "diagonal": cfg.selections[tid].diagonal,
                            "prisms": [
                                {"kind": p.kind,
                                 "vertical_faces": [
                                     {"face": v.face, "bottom": list(v.bottom),
                                      "top": list(v.top)} for v in p.vertical_faces]}
                                for p in cfg.prisms.get(tid, ())]}
                      for tid in sorted(cfg.selections)}}
            for name, cfg in sorted(doc.prism_configs.items())],
    }
    return json.dumps(raw, indent=1, sort_keys=True) + "\n"


def save(doc: ComplexDocument, path) -> None:
    Path(path).write_text(dumps(doc), encoding="utf-8")
