import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "freqsynth"

# (module, name) pairs imported without a use in the module itself.
ALLOWED = {
    # bench/spans.py wraps synthesis.maximize_margin in that namespace.
    ("synthesis", "maximize_margin"),
}


def test_every_import_is_used():
    # __init__.py imports to re-export, so only the other modules are scanned.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in sorted(bound.items())
            if name not in used and (path.stem, name) not in ALLOWED
        ]
    assert not unused, unused


def test_no_assert_statements():
    # Invariants raise real errors: `python -O` strips `assert` statements.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_imports_are_at_module_top():
    # A function-local import hides a dependency; none avoids a cycle here.
    found = [
        f"{path.relative_to(SRC)}:{inner.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not found, found
