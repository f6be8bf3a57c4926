"""The names users and the pipeline benchmark look up resolve.

The benchmark (`pipebench/`) wraps library functions by module and name
and reads `_kernels.USE_NUMBA`; it is parsed here, not imported, so a
name the library drops fails this suite with the name, not only the
benchmark's self-check.
"""

import ast
import importlib
from pathlib import Path

import pytest

import asyncsep

PIPEBENCH = Path(__file__).resolve().parents[1] / "pipebench"


def _traced():
    """The (module, function) pairs of `pipebench/tracing._TRACED`."""
    tree = ast.parse((PIPEBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_TRACED"
                for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("pipebench/tracing.py defines no _TRACED")


def _dotted(node) -> list[str] | None:
    """["a", "b", "c"] for the expression a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _benchmark_lookups() -> list[str]:
    """The dotted library names the benchmark's sources read: every
    `from asyncsep... import name`, and every attribute read through
    `asyncsep` or a library module imported under a name."""
    found = set()
    for path in sorted(PIPEBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> the dotted library name it holds
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "asyncsep":
                        bound[a.asname or "asyncsep"] = (
                            a.name if a.asname else "asyncsep")
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    (node.module or "").split(".")[0] == "asyncsep":
                for a in node.names:
                    bound[a.asname or a.name] = f"{node.module}.{a.name}"
                    found.add(f"{node.module}.{a.name}")
        for node in ast.walk(tree):
            chain = _dotted(node)
            if chain and len(chain) > 1 and chain[0] in bound:
                found.add(".".join([bound[chain[0]], *chain[1:]]))
    return sorted(found)


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i in range(1, len(parts)):
        try:
            obj = getattr(obj, parts[i])
        except AttributeError:
            try:  # a submodule not imported yet
                obj = importlib.import_module(".".join(parts[:i + 1]))
            except ModuleNotFoundError:
                return False
    return True


def test_traced_functions_resolve():
    traced = _traced()
    assert traced
    missing = [f"{m}.{f}" for m, f in traced
               if not callable(getattr(importlib.import_module(m), f, None))]
    assert not missing, f"pipebench/tracing.py wraps missing names {missing}"


def test_benchmark_lookups_resolve():
    lookups = _benchmark_lookups()
    assert "asyncsep._kernels.USE_NUMBA" in lookups  # read by run.py
    missing = [name for name in lookups if not _resolves(name)]
    assert not missing, f"pipebench/ uses missing names {missing}"


@pytest.mark.parametrize("name", asyncsep.__all__)
def test_public_name_resolves(name):
    assert hasattr(asyncsep, name)
