"""Checks on the package's source that need no lint tool: the standard library's ast alone."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "fanspectra"


def _defined(statement):
    """The names a module-level statement defines: a function's, a class's, or each
    name an assignment stores."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [
            node.id
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        ]
    return []


def _loaded(statement):
    """Every name the statement loads, as a name or as an attribute."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_private_module_level_name_is_loaded_outside_its_definition():
    # a helper with one leading underscore that nothing reads is dead code
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    statements = [statement for path in paths for statement in ast.parse(path.read_text(), str(path)).body]
    loads = [_loaded(statement) for statement in statements]
    unused = [
        name
        for statement in statements
        for name in _defined(statement)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in seen for other, seen in zip(statements, loads) if other is not statement)
    ]
    assert unused == []


def test_every_name_a_module_imports_is_used_in_that_module():
    # a fold that drops the last use of an import leaves the import behind; the package's
    # __init__ imports names only to re-export them
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []
