"""The public API has no dangling names, and the benchmark's tracer still
finds every binding it wraps."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_benchmark_bindings_and_manifest():
    """bench/selftest.py's fast checks: tracing patches every module binding
    of the wrapped functions (``generators.validate_scheme`` among them),
    and BENCHMARK.json names exactly the metrics the benchmark prints."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "bench/selftest.py", "Bindings", "Manifest"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
