"""The benchmark's tracer wraps package functions by name from outside the
package; every name it needs must still resolve, to the function it traces.

Reads ``TRACED`` from ``mfbench/child.py`` (loaded, never run) and the
required ``BINDINGS`` from ``mfbench/tests/test_mfbench.py`` (parsed, not
imported), so the check costs no benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "mfbench"


def _resolve(dotted: str):
    """massart_forge.<module>.<attr>[.<attr>] -> the object it names."""
    module, *path = dotted.split(".")
    owner = importlib.import_module(f"massart_forge.{module}")
    for part in path:
        owner = getattr(owner, part)
    return owner


def _traced():
    spec = importlib.util.spec_from_file_location("mfbench_child", BENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.TRACED


def _bindings():
    tree = ast.parse((BENCH / "tests" / "test_mfbench.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "BINDINGS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no BINDINGS list in mfbench/tests/test_mfbench.py")


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    for _, module, path, _ in traced:
        assert callable(_resolve(f"{module}.{path}")), f"{module}.{path}"


def test_required_bindings_are_traced_functions():
    # the tracer replaces a module binding only when it is the traced
    # function itself, so a binding must resolve to that very object
    traced = {id(_resolve(f"{module}.{path}")) for _, module, path, _ in _traced()}
    bindings = _bindings()
    assert bindings
    for name in bindings:
        assert id(_resolve(name)) in traced, name
