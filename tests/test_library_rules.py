"""Rules the library source keeps."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import bsurf

SOURCES = sorted(pathlib.Path(bsurf.__file__).parent.glob("*.py"))


def test_no_assert_in_library():
    # python -O strips asserts, so invariants must raise exceptions instead
    assert any(p.name == "dividing.py" for p in SOURCES)
    found = [f"{p.name}:{node.lineno}" for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


# ---------------------------------------------------------------------------
# The package surface.  ``bsurf`` resolves its exports on first use, so
# ``import bsurf`` and ``import bsurf.cli`` load no layer module.

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the names ``bsurf/__init__.py`` imported eagerly before its exports were lazy
EXPORTS = {
    "surface": ("BranchArc", "BranchedSurface", "CarriedSurface", "Classification",
                "Component", "CycleRef", "Sector", "Side", "TriplePoint", "carried_surface",
                "fully_carried", "klein_double", "satisfies_switch", "switch_system",
                "validate"),
    "hilbert": ("ConeSystem", "MinimalGenerators", "brute_force_minimals", "decompose",
                "membership", "minimal_generators"),
    "lutz": ("GeneratorInfo", "LutzPlan", "RebaseRequired", "classify_generators",
             "enumerate_structures", "plan_for", "realize"),
}


def test_package_exports_keep_their_names():
    # the 28 names the eager imports bound, and the three layer modules they bound too
    names = [n for names in EXPORTS.values() for n in names]
    assert len(names) == 28
    assert bsurf.__all__ == sorted([*EXPORTS, *names])


def test_each_export_is_its_layer_attribute():
    for layer, names in EXPORTS.items():
        module = importlib.import_module(f"bsurf.{layer}")
        assert getattr(bsurf, layer) is module
        for name in names:
            assert getattr(bsurf, name) is getattr(module, name), name


def test_package_dir_lists_every_export():
    assert set(bsurf.__all__) <= set(dir(bsurf))


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        bsurf.no_such_name
    assert not hasattr(bsurf, "no_such_name")


def test_package_imports_by_name_and_by_star():
    ns = {}
    exec("from bsurf import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == bsurf.__all__
    exec("from bsurf import cli, fixtures, io", ns)
    for name in ("cli", "fixtures", "io"):
        assert ns[name] is sys.modules[f"bsurf.{name}"]


def _spawn(code: str, *args: str) -> subprocess.CompletedProcess:
    src = str(pathlib.Path(bsurf.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, check=False)


_LOADED = "print(*sorted(m for m in sys.modules if m.startswith('bsurf')), file=sys.stderr)"


def test_import_loads_no_layer():
    out = _spawn(f"import sys, bsurf, bsurf.cli; {_LOADED}")
    assert out.returncode == 0, out.stderr
    assert out.stderr.split() == ["bsurf", "bsurf.cli"]


@pytest.mark.parametrize("argv,absent", [
    ("carry documents/theta.json --surface theta --weight 1,1,2",
     ("prisms", "dividing", "domain", "hilbert", "lutz")),
    ("hilbert documents/theta.json --surface theta", ("prisms", "dividing", "domain")),
    ("lutz plan documents/theta.json --surface theta --target 1,1,2",
     ("prisms", "dividing", "domain")),
])
def test_command_loads_only_its_layers(argv, absent, capsys, monkeypatch):
    out = _spawn(f"import sys; from bsurf import cli; rc = cli.main(sys.argv[1:]); {_LOADED}; "
                 "sys.exit(rc)", *argv.split())
    assert out.returncode == 0, out.stderr
    loaded = set(out.stderr.split())
    assert {"bsurf.io", "bsurf.surface"} <= loaded
    assert loaded.isdisjoint(f"bsurf.{layer}" for layer in absent)
    # the same text as the command run where every layer is already loaded
    from bsurf import cli, dividing, domain, prisms    # noqa: F401
    monkeypatch.chdir(ROOT)
    assert cli.main(argv.split()) == 0
    assert out.stdout == capsys.readouterr().out
