"""One self-describing JSON document format for the whole pipeline.

Each entity's fields are declared once, in the tables below, for both
``loads`` and ``dumps``.  Loading checks JSON types strictly, rejects unknown
keys, keys repeated in one object and duplicate names, resolves
cross-references and checks module invariants, stopping at the first fault
with a located ``DocumentError``.  List items are decoded under their
indexed paths; only lists of scalar lists are type-checked whole first.
The tables name the classes of ``dividing``, ``domain`` and ``prisms`` as
``"layer.Class"``; a codec imports its layer the first time it decodes an
entity, so a document whose face, domain and prism sections are empty loads
with ``surface`` alone.

Saving is canonical, so round-trips are byte-exact: ``dumps`` writes the
text of ``json.dumps(value, indent=1, sort_keys=True)``.  It has its own
writer, because ``indent`` sends ``json`` to its pure-Python encoder; the
tests keep ``json.dumps`` as the oracle.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from . import surface

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


# ---------------------------------------------------------------------------
# Codecs: ``int``, ``bool`` or ``str``, whose JSON value must have exactly
# that type, or a pair (decode(value, where, path), encode(value)), where
# ``where`` names the entity and ``path`` is the JSON path inside it.


def _at(where: str, path: str) -> str:
    return f"{where} {path}" if path else where


class _Repeated(dict):
    """A JSON object in which the key ``self.key`` appears more than once;
    every codec rejects it, and ``_fail`` names the key."""


def _object(pairs: list) -> dict:
    """The ``object_pairs_hook`` of ``loads``: without it ``json`` keeps the
    last value under a repeated key and drops the others silently."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        obj = _Repeated(obj)
        obj.key = next(k for k, _ in pairs if k in seen or seen.add(k))
    return obj


def _fail(want: str, v, where: str, path: str):
    if type(v) is _Repeated:
        raise DocumentError("parse error", _at(where, path), f"repeated key {v.key!r}")
    got = (f"a list of {len(v)}" if type(v) is list else "an object" if type(v) is dict
           else json.dumps(v))
    got = got if len(got) <= 40 else got[:36] + " ..."
    raise DocumentError("parse error", _at(where, path), f"expected {want}, got {got}")


def _list(item, n=None, make=tuple, save=list):
    """A list of ``item``: ``make`` builds it, ``save`` saves scalars, ``n`` fixes its length.

    Items are decoded one by one under their indexed paths.  A list of
    scalar lists (arcs, edge slots) is first type-checked whole in C-level
    passes, and is read item by item only to name a fault."""
    scalar = item.__class__ is type
    rows = None if scalar else getattr(item[0], "rows", None)    # a list of scalar lists

    def dec(v, where, path):
        if type(v) is not list or n is not None and len(v) != n:
            _fail("list" if n is None else f"{n} items", v, where, path)
        if scalar:
            for i, x in enumerate(v):
                if type(x) is not item:
                    _fail(item.__name__, x, where, f"{path}[{i}]")
            return make(v)
        if rows is not None:
            kind, size, build = rows
            if (set(map(type, v)) <= {list} and (size is None or set(map(len, v)) <= {size})
                    and set(map(type, itertools.chain.from_iterable(v))) <= {kind}):
                return make(map(build, v))
        return make(item[0](x, where, f"{path}[{i}]") for i, x in enumerate(v))
    if scalar:
        dec.rows = item, n, make
    return dec, (save if scalar else lambda v: [item[1](x) for x in v])


def _map(item):
    """An object of ``item`` values under any keys, decoded to a dict."""
    def dec(v, where, path):
        if type(v) is not dict:
            _fail("object", v, where, path)
        return {k: item[0](x, where, f"{path}.{k}") for k, x in v.items()}
    return dec, lambda m: {k: item[1](x) for k, x in m.items()}


def _angle(v, where, path):
    """An exact angle: an int, or a str of the integer or p/q form that ``str`` writes."""
    from .domain import exact_angle
    if type(v) is not str and type(v) is not int:
        _fail("str or int", v, where, path)
    try:
        return exact_angle(v)
    except (ValueError, ZeroDivisionError):
        _fail("integer or p/q", v, where, path)


def _angles(memo: dict):
    """A list of ``_angle``; ``memo`` maps each literal already read to its
    Fraction, so a repeated literal is read once."""
    def dec(v, where, path):
        if type(v) is not list:
            _fail("list", v, where, path)
        out = []
        for i, x in enumerate(v):
            # the type test comes first: True == 1 == 1.0 as keys
            a = memo.get(x) if type(x) is str or type(x) is int else None
            if a is None:
                a = memo[x] = _angle(x, where, f"{path}[{i}]")
            out.append(a)
        return tuple(out)
    return dec, lambda v: [str(x) for x in v]


def _entity(make, *fields):
    """An object of fields (key, codec[, default]), built by ``make``: a callable,
    or a ``"layer.Class"`` name that the first decode imports.  A ValueError it
    raises is an invariant violation.  Encoding reads attributes or dict items."""
    fields = {f[0]: (*f[1:], ...)[:2] for f in fields}     # ... marks a required field

    def dec(v, where, path):
        nonlocal make
        if type(v) is not dict:
            _fail("object", v, where, path)
        if not fields.keys() >= v.keys():
            unknown = min(v.keys() - fields.keys())
            raise DocumentError("parse error", _at(where, path), f"unknown field {unknown!r}")
        kw = {}
        for key, (codec, default) in fields.items():
            x = v.get(key, default)
            if x is ...:
                raise DocumentError("parse error", _at(where, path), f"missing field {key!r}")
            if x is not default:    # an absent key (or null for a None default) is not checked
                sub = f"{path}.{key}" if path else key
                if codec.__class__ is not type:
                    x = codec[0](x, where, sub)
                elif type(x) is not codec:
                    _fail(codec.__name__, x, where, sub)
            kw[key] = x
        if make.__class__ is str:
            layer, name = make.split(".")
            make = getattr(__import__(f"{__package__}.{layer}", fromlist=[name]), name)
        try:
            return make(**kw)
        except ValueError as exc:
            raise DocumentError("invariant violation", _at(where, path), str(exc))

    def enc(obj):
        get = obj.__getitem__ if type(obj) is dict else obj.__getattribute__
        return {key: get(key) if codec.__class__ is type else codec[1](get(key))
                for key, (codec, _) in fields.items()}
    return dec, enc


_PAIR = _list(int, 2)
_ENDPOINTS = ((lambda v, where, path: v if v == surface.CLOSED else _PAIR[0](v, where, path)),
              lambda e: e if e == surface.CLOSED else list(e))
_SLOTS = _list(_list(int))
_SIDES = tuple(s.value for s in surface.Side)
_SIDE = ((lambda v, where, path: surface.Side(v) if v in _SIDES
          else _fail(" or ".join(_SIDES), v, where, path)), lambda s: s.value)
_CYCLE_REF = _entity(surface.CycleRef, ("arc", int), ("side", _SIDE), ("along", int, 1))
_SECTOR = _entity(surface.Sector, ("index", int), ("euler_char", int),
                  ("boundary_cycles", _list(_list(_CYCLE_REF)), ()),
                  ("orientable", bool, True), ("name", str, ""))
_BRANCH_ARC = _entity(surface.BranchArc, ("index", int), ("merged_sector", int),
                      ("upper_sector", int), ("lower_sector", int),
                      ("endpoints", _ENDPOINTS, surface.CLOSED),
                      ("reversed_upper", bool, False), ("reversed_lower", bool, False))
_TRIPLE_POINT = _entity(surface.TriplePoint, ("index", int), ("arcs", _PAIR))
_SURFACE = _entity(surface.BranchedSurface, ("name", str, ""), ("sectors", _list(_SECTOR)),
                   ("branch_arcs", _list(_BRANCH_ARC), ()),
                   ("triple_points", _list(_TRIPLE_POINT), ()))
_WEIGHT = _entity(dict, ("name", str), ("surface", str), ("entries", _list(int)))
_ANNULUS = _entity("domain.VerticalAnnulus", ("index", int), ("arcs", _list(int), ()),
                   ("concave", _list(bool, 2), (True, True)))
_DOMAIN = _entity(dict, ("name", str, ""), ("surface", str),
                  ("vertical_annuli", _list(_ANNULUS), ()),
                  ("boundary_sectors", _list(int, make=frozenset, save=sorted), frozenset()))
_FACE = _entity(dict, ("face", str), ("edge_slots", _SLOTS), ("oriented_ccw", bool, True))
_DIVIDING_SET = _entity(dict, ("face", str), ("arcs", _SLOTS))
_EDGE = _entity("prisms.EdgeData", ("index", int), ("vertices", _list(str, 2)),
                ("faces", _list(str, 2)), ("face_edges", _PAIR))
_TETRAHEDRON = _entity("prisms.Tetrahedron", ("index", str), ("vertices", _list(str)),
                       ("faces", _list(str)), ("edges", _list(_EDGE)))
_CROSSING = _entity("prisms.Crossing", ("edge", int), ("face_from", str), ("face_to", str),
                    ("shift", int))
_HOLONOMY = _entity("prisms.HolonomyData", ("tet", str), ("crossings", _list(_CROSSING), ()))


def _structures(memo: dict):
    return _list(_entity(dict, ("label", str, None), ("angles", _angles(memo))))


# The structures of an ensemble differ by whole turns, so their angle literals
# repeat: each decode reads them through a fresh memo, dropped when it returns.
_STRUCTURES = (lambda v, where, path: _structures({})[0](v, where, path),
               _structures({})[1])
_ENSEMBLE = _entity(dict, ("name", str), ("domain", str), ("structures", _STRUCTURES, ()))
_VERTICAL_FACE = _entity("prisms.VerticalFace", ("face", str), ("bottom", _PAIR), ("top", _PAIR))
_PRISM = _entity("prisms.Prism", ("kind", str, "corner:?"),
                 ("vertical_faces", _list(_VERTICAL_FACE), ()))


def _tet_prisms(corners, diagonal, prisms):
    """One tetrahedron of a prism configuration: its PrismSelection and its prisms."""
    from .prisms import PrismSelection
    return PrismSelection(corners, diagonal), prisms


_TET_PRISMS = _entity(
    _tet_prisms, ("corners", _list(str, make=frozenset, save=sorted), frozenset()),
    ("diagonal", int, None), ("prisms", _list(_PRISM), ()))
_PRISM_CONFIG = _entity(dict, ("name", str), ("tets", _map(_TET_PRISMS)))


def _section(word: str, key: str, stem: Optional[str], entity):
    """Named entities, decoded to {name: (location, value)} and saved sorted by
    name under ``key``; names default to ``stem`` + index, or are required if it is None.
    With a stem the empty name is not saved, since it would load back as stem + index."""
    def dec(v, _, section):     # located by the section key, then by entity name
        if type(v) is not list:
            _fail("list", v, section, "")
        out = {}
        for i, item in enumerate(v):
            if type(item) is not dict:
                _fail("object", item, f"{section}[{i}]", "")
            if not stem and key not in item:
                raise DocumentError("parse error", section, f"missing field {key!r}")
            name = (item.get(key) or f"{stem}{i}") if stem else item[key]
            loc = f"{word} {name}" if type(name) is str else f"{section}[{i}]"
            value = entity[0](item, loc, "")
            if name in out:
                raise DocumentError("parse error", loc, "declared twice")
            out[name] = loc, value
        return out

    def enc(named):
        if stem and "" in named:
            raise DocumentError("invariant violation", f"{word} ''",
                                f"an empty name loads back as {stem}<index>")
        return [entity[1]({**(x if type(x) is dict else vars(x)), key: name})
                for name, x in sorted(named.items())]
    return dec, enc


# Sections are resolved in this order, so each refers only to earlier ones.
_DOCUMENT = _entity(
    dict, ("format_version", int),
    ("branched_surfaces", _section("branched_surface", "name", "surface", _SURFACE), {}),
    ("weights", _section("weight", "name", None, _WEIGHT), {}),
    ("fibered_domains", _section("fibered_domain", "name", "domain", _DOMAIN), {}),
    ("faces", _section("face", "face", None, _FACE), {}),
    ("dividing_sets", _section("dividing_set on", "face", None, _DIVIDING_SET), {}),
    ("tetrahedra", _section("tetrahedron", "index", None, _TETRAHEDRON), {}),
    ("holonomy", _section("holonomy for", "tet", None, _HOLONOMY), {}),
    ("ensembles", _section("ensemble", "name", None, _ENSEMBLE), {}),
    ("prism_configurations", _section("prism_configuration", "name", None, _PRISM_CONFIG), {}))


def _ref(declared: dict, name: str, where: str, what: str):
    if name not in declared:
        raise DocumentError("reference error", where, f"{what} {name} is not declared")
    return declared[name]


def load(path) -> ComplexDocument:
    """Parse and validate a document; diagnostics carry their location."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError("parse error", f"byte {exc.start}", f"invalid UTF-8 ({exc.reason})")
    return loads(text)


def _first_violation(report, where: str, module: str):
    if not report.ok:
        v = report.violations[0]
        raise DocumentError("invariant violation", f"{where} ({v.location})",
                            f"{module} rule {v.rule}: {v.detail}")


def loads(text: str) -> ComplexDocument:
    try:
        raw = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise DocumentError("parse error", f"line {exc.lineno} column {exc.colno}", exc.msg)
    except (ValueError, RecursionError) as exc:    # an integer too long, or nesting too deep
        raise DocumentError("parse error", "document", str(exc))
    if not isinstance(raw, dict):
        raise DocumentError("parse error", "document", "top level must be an object")
    version = raw.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DocumentError("parse error", "format_version",
                            f"expected {FORMAT_VERSION}, got {version!r}")
    raw = _DOCUMENT[0](raw, "document", "")
    doc = ComplexDocument(version=version)
    # a layer is imported only for the non-empty sections that use it
    if raw["fibered_domains"] or raw["ensembles"]:
        from . import domain
    if raw["faces"] or raw["dividing_sets"]:
        from . import dividing
    if raw["tetrahedra"] or raw["prism_configurations"]:
        from . import prisms

    for name, (where, b) in raw["branched_surfaces"].items():
        _first_violation(surface.validate(b), where, "branched_surface_core")
        doc.surfaces[name] = b if b.name == name else replace(b, name=name)

    for name, (where, w) in raw["weights"].items():
        b, vec = _ref(doc.surfaces, w["surface"], where, "surface"), w["entries"]
        if len(vec) != len(b.sectors):
            raise DocumentError("invariant violation", where,
                                f"length {len(vec)} != sector count {len(b.sectors)}")
        for i, x in enumerate(vec):
            if x < 0:
                raise DocumentError("invariant violation", where,
                                    "branched_surface_core rule nonnegative-entries: "
                                    f"entry {x} on sector {i} is negative")
        if not surface.satisfies_switch(b, vec):
            raise DocumentError("invariant violation", where,
                                "branched_surface_core rule switch-equations: "
                                "entries violate a switch equation")
        doc.weights[name] = (w["surface"], vec)

    for name, (where, d) in raw["fibered_domains"].items():
        fd = domain.FiberedDomain(quotient=_ref(doc.surfaces, d["surface"], where, "surface"),
                                  vertical_annuli=d["vertical_annuli"],
                                  boundary_sectors=d["boundary_sectors"], name=name)
        _first_violation(domain.validate_domain(fd), where, "fibered_domain")
        doc.domains[name] = fd

    for fid, (where, f) in raw["faces"].items():
        if len(f["edge_slots"]) != 3:
            raise DocumentError("invariant violation", where,
                                "dividing_set_calculus rule hexagon-edges: three edges required")
        try:
            doc.faces[fid] = dividing.FaceModel(**f)
        except ValueError as exc:
            raise DocumentError("invariant violation", where,
                                f"dividing_set_calculus rule slot-order: {exc}")

    for fid, (where, d) in raw["dividing_sets"].items():
        face = _ref(doc.faces, fid, where, "face")
        try:
            doc.dividing_sets[fid] = dividing.DividingSet(face=face, arcs=d["arcs"])
        except ValueError as exc:
            msg = str(exc)
            rule = "non-planar dividing set" if "non-planar" in msg else "slot-matching"
            raise DocumentError("invariant violation", where,
                                f"dividing_set_calculus rule {rule}: {msg}")

    for tid, (where, t) in raw["tetrahedra"].items():
        problems = prisms.validate_tetrahedron(t, doc.faces)
        if problems:
            raise DocumentError("invariant violation", where,
                                f"triangulation_complex rule edge-slot-agreement: {problems[0]}")
        doc.tetrahedra[tid] = t

    for tid, (where, h) in raw["holonomy"].items():
        _ref(doc.tetrahedra, tid, where, "tetrahedron")
        doc.holonomy[tid] = h

    for name, (where, e) in raw["ensembles"].items():
        fd = _ref(doc.domains, e["domain"], where, "fibered_domain")
        structures = []
        for i, sd in enumerate(e["structures"]):
            label = f"{name}[{i}]" if sd["label"] is None else sd["label"]
            try:
                structures.append(domain.AdjustedStructure(
                    domain=fd, angle=domain.AngleFunction(sd["angles"]), label=label))
            except ValueError as exc:
                raise DocumentError("invariant violation", f"structure {label}",
                                    f"fibered_domain rule positive-angles: {exc}")
        fault = domain.first_incoherent(structures)
        if fault is not None:
            raise DocumentError("invariant violation",
                                f"ensemble {name} structure {structures[fault[0]].label}",
                                f"fibered_domain rule adjacency-coherence: {fault[1]}")
        doc.ensembles[name] = (e["domain"], tuple(structures))

    for name, (where, pc) in raw["prism_configurations"].items():
        for tid in pc["tets"]:
            _ref(doc.tetrahedra, tid, where, "tetrahedron")
        doc.prism_configs[name] = prisms.PrismConfiguration(
            selections={tid: sel for tid, (sel, _) in pc["tets"].items()},
            prisms={tid: ps for tid, (_, ps) in pc["tets"].items()})

    return doc


def _surface_name(doc: ComplexDocument, fd, domain_name: str) -> str:
    """The key of the domain's quotient: the identical surface, else an equal one."""
    names = [k for k, v in doc.surfaces.items() if v is fd.quotient]
    for k in names or [k for k, v in doc.surfaces.items() if v == fd.quotient]:
        return k
    raise DocumentError("reference error", f"fibered_domain {domain_name}",
                        "its quotient surface is not declared in the document")


# ---------------------------------------------------------------------------
# The canonical writer: the text of ``json.dumps(v, indent=1, sort_keys=True)``
# without its pure-Python encoder.  A list of ints, or of equal-length int
# lists (arcs, edge slots), is written by one ``%d`` template filled in C.

_STR = json.encoder.encode_basestring_ascii


def _scalar(v) -> str:
    if isinstance(v, str):
        return _STR(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return json.dumps(v)
    raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if isinstance(k, str):
        return _STR(k)
    if k is None or isinstance(k, (int, float)):
        return _STR(_scalar(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _text(v, indent: str) -> str:
    """``v`` as ``json.dumps`` writes it with ``indent=1, sort_keys=True``, at ``indent``."""
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = indent + " "
        body = (",\n" + inner).join(f"{_key(k)}: {_text(x, inner)}"
                                    for k, x in sorted(v.items()))
        return f"{{\n{inner}{body}\n{indent}}}"
    if not isinstance(v, (list, tuple)):
        return _scalar(v)
    if not v:
        return "[]"
    inner = indent + " "
    sep = ",\n" + inner
    types = set(map(type, v))
    if types == {int}:
        body = sep.join(["%d"] * len(v)) % tuple(v)
    elif types <= {list, tuple} and len(sizes := set(map(len, v))) == 1 \
            and set(map(type, itertools.chain.from_iterable(v))) == {int}:
        deeper = inner + " "
        row = f"[\n{deeper}" + (",\n" + deeper).join(["%d"] * sizes.pop()) + f"\n{inner}]"
        body = sep.join([row] * len(v)) % tuple(itertools.chain.from_iterable(v))
    else:
        body = sep.join(_text(x, inner) for x in v)
    return f"[\n{inner}{body}\n{indent}]"


def _raw(doc: ComplexDocument) -> dict:
    """The JSON value that ``dumps`` writes; cross-references fill fields the values lack."""
    return _DOCUMENT[1](dict(
        format_version=doc.version, branched_surfaces=doc.surfaces, faces=doc.faces,
        dividing_sets=doc.dividing_sets, tetrahedra=doc.tetrahedra, holonomy=doc.holonomy,
        weights={n: dict(surface=s, entries=v) for n, (s, v) in doc.weights.items()},
        fibered_domains={n: dict(vars(fd), surface=_surface_name(doc, fd, n))
                         for n, fd in doc.domains.items()},
        ensembles={n: dict(domain=dn, structures=[dict(vars(x), angles=x.angle.values)
                                                  for x in xs])
                   for n, (dn, xs) in doc.ensembles.items()},
        prism_configurations={
            n: dict(tets={tid: dict(vars(sel), prisms=cfg.prisms.get(tid, ()))
                          for tid, sel in cfg.selections.items()})
            for n, cfg in doc.prism_configs.items()}))


def dumps(doc: ComplexDocument) -> str:
    """Canonical text: ``json.dumps(_raw(doc), indent=1, sort_keys=True) + "\\n"``."""
    return _text(_raw(doc), "") + "\n"


def save(doc: ComplexDocument, path) -> None:
    Path(path).write_text(dumps(doc), encoding="utf-8")
