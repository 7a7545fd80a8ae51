"""The public surface: each module's __all__, and attkit's union of them."""

import importlib
import pkgutil

import attkit


def test_attkit_exports_the_sorted_union_of_the_module_lists():
    names = [m.name for m in pkgutil.iter_modules(attkit.__path__)]
    modules = [importlib.import_module(f"attkit.{name}") for name in names]
    union = []
    for mod in (mod for mod in modules if hasattr(mod, "__all__")):
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert obj.__module__ == mod.__name__, f"{mod.__name__} lists {name}, defined elsewhere"
            assert getattr(attkit, name) is obj, f"attkit.{name} is not {mod.__name__}.{name}"
            union.append(name)
    assert len(union) == len(set(union)), "a name appears in two modules' lists"
    assert attkit.__all__ == sorted(union)
