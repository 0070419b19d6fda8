"""Exact combinatorics of branched surfaces and their weight cones.

The exports below resolve on first use (PEP 562), so ``import bsurf`` loads
no layer module and each command imports only the layers it runs.
"""

_EXPORTS = {
    "surface": ("BranchArc", "BranchedSurface", "CarriedSurface", "Classification",
                "Component", "CycleRef", "Sector", "Side", "TriplePoint", "carried_surface",
                "fully_carried", "klein_double", "satisfies_switch", "switch_system",
                "validate"),
    "hilbert": ("ConeSystem", "MinimalGenerators", "brute_force_minimals", "decompose",
                "membership", "minimal_generators"),
    "lutz": ("GeneratorInfo", "LutzPlan", "RebaseRequired", "classify_generators",
             "enumerate_structures", "plan_for", "realize"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_LAYER_OF])


def __getattr__(name):
    layer = name if name in _EXPORTS else _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib, whose imports -X importtime does not list
    module = __import__(f"{__name__}.{layer}", fromlist=[name])
    if name == layer:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
