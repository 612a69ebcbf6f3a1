"""Every ringleader name the benchmark under ``perfbench/`` uses must resolve.

perfbench's own smoke tests sit outside the default test paths, so a rename
or deletion in the library could break the benchmark unnoticed.  This test
only parses the perfbench sources; it runs none of them.
"""
import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_ringleader(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "ringleader"


def ringleader_references(tree: ast.AST):
    """``(module, name)`` for each ``from ringleader... import name``, each
    ``ringleader.name`` read, and ``(module, None)`` for each plain import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_ringleader(node.module):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_ringleader(alias.name):
                    yield alias.name, None
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "ringleader"
        ):
            yield "ringleader", node.attr


def test_perfbench_ringleader_names_resolve():
    sources = sorted(PERFBENCH.glob("*.py"))
    assert sources, f"no perfbench sources under {PERFBENCH}"
    refs = set()
    for path in sources:
        refs.update(ringleader_references(ast.parse(path.read_text(), str(path))))
    # the benchmark's entry points must be among what was found
    assert ("ringleader", "run") in refs
    assert ("ringleader.harness", "run_orientation_sweep") in refs
    missing = []
    for module, name in sorted(refs, key=str):
        imported = importlib.import_module(module)  # raises if the module is gone
        if name is not None and not hasattr(imported, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"perfbench uses names ringleader no longer has: {missing}"
