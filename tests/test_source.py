"""Checks on the package source itself, read with ast."""

import ast
import pathlib

import hollowlat

SOURCE = pathlib.Path(hollowlat.__file__).parent


def test_every_private_function_is_referenced():
    # A private helper that nothing in the package names any more is stale.
    defined, referenced = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.setdefault(node.name, path.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert defined, f"no private functions found under {SOURCE}"
    stale = sorted(f"{module}:{fn}" for fn, module in defined.items() if fn not in referenced)
    assert stale == []
