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


def test_every_imported_name_is_used():
    # An import that nothing in its module names any more is a leftover.
    # __init__.py imports only to re-export, so it is left out.
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}:{name}" for name in names if name not in named]
    assert unused == []
