"""The public API has no dangling names."""

import importlib
import pkgutil

import amorphic as am

# command-line entry points, public in amorphic.cli but not re-exported
CLI_ONLY = {"run_command", "main", "entrypoint"}


def test_public_api_has_no_dangling_names():
    """Every name a submodule exports is bound there, and every library
    name, exceptions included, is exported by the package as well."""
    exported = set(am.__all__)
    assert sorted(n for n in exported if not hasattr(am, n)) == []
    for info in pkgutil.iter_modules(am.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"amorphic.{info.name}")
        if hasattr(mod, "__all__"):
            names = set(mod.__all__)
        else:  # errors.py: its exception classes
            names = {n for n, obj in vars(mod).items()
                     if isinstance(obj, type) and obj.__module__ == mod.__name__}
        assert sorted(n for n in names if not hasattr(mod, n)) == [], mod.__name__
        if info.name == "cli":
            names -= CLI_ONLY
        assert sorted(names - exported) == [], mod.__name__
