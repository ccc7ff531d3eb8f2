import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "freqsynth"


def test_every_import_is_used():
    # Every import in src is used where it is made, so the package
    # re-exports nothing (see test_the_package_loads_no_module).
    unused = []
    for path in sorted(SRC.glob("*.py")):
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
            if name not in used
        ]
    assert not unused, unused


PACKAGE_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return sorted(name for name in sys.modules if name.startswith("freqsynth"))

import freqsynth
print(freqsynth.__version__, *loaded())
import freqsynth.simplex
print(*loaded())
"""


def test_the_package_loads_no_module():
    # Each name has one import path, its defining module: importing the
    # package loads none of its modules, and importing one module loads only
    # what that module imports.  Run in a fresh interpreter, since other
    # tests have loaded every module here.
    proc = subprocess.run(
        [sys.executable, "-B", "-c", PACKAGE_SCRIPT, str(SRC.parent)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0.1.0 freqsynth", "freqsynth freqsynth.simplex"]


STARTUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import freqsynth.cli
print(*sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every fresh process pays for what ``freqsynth.cli`` imports: its
    # classes are written out, so no class is built by ``dataclasses``,
    # which also imports ``inspect``.  ``-S`` keeps a site hook from
    # importing either first and hiding a regression.
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", STARTUP_SCRIPT, str(SRC.parent)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


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


def test_boolfn_models_are_read_only_in_boolfn():
    # Other modules ask ``BoolFn.implies``, so the minimal-model form can be
    # replaced (say, by a BDD) in boolfn.py alone.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.attr}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "boolfn.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("models", "holds_under")
    ]
    assert not found, found


def test_the_lp_path_holds_no_fractions():
    # ``solve_lp`` returns int numerators over one denominator, and witness
    # choices keep the flows as integer weights: simplex.py imports nothing
    # from fractions, and mecanalysis.py never reads ``weights_of``.
    found = []
    for node in ast.walk(ast.parse((SRC / "simplex.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = [node.module] if isinstance(node, ast.ImportFrom) else []
        if any(m.split(".")[0] == "fractions" for m in modules):
            found.append(f"simplex.py:{node.lineno} fractions")
    for node in ast.walk(ast.parse((SRC / "mecanalysis.py").read_text(encoding="utf-8"))):
        names = [getattr(node, "id", None), getattr(node, "attr", None)]
        if isinstance(node, ast.ImportFrom):
            names += [alias.name for alias in node.names]
        if "weights_of" in names:
            found.append(f"mecanalysis.py:{node.lineno} weights_of")
    assert not found, found


def test_no_module_imports_a_private_name():
    # A name that another module needs is public in its home module, so a
    # leading underscore keeps meaning "used here only".  Modules bound by
    # ``from . import name`` are checked for private attribute reads too.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                if node.module is None:
                    modules.update(alias.asname or alias.name for alias in node.names)
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
        found += [
            f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id in modules
        ]
    assert not found, found


def test_benchmark_hooks_resolve():
    # bench/spans.py wraps each HOOKS name in its module when it traces a
    # run; a renamed or removed function, or a name that no longer refers to
    # a function of the package, must fail here and not only at hook install
    # in the traced benchmark.  The file is executed from its source text,
    # so nothing is written next to it.
    path = ROOT / "bench" / "spans.py"
    namespace = {"__name__": "spans"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    hooks = namespace["HOOKS"]
    bad = []
    for module, attr, _, _ in hooks:
        fn = getattr(importlib.import_module(module), attr, None)
        source = callable(fn) and inspect.getsourcefile(inspect.unwrap(fn))
        if not source or not Path(source).resolve().is_relative_to(SRC):
            bad.append(f"{module}.{attr}")
    assert hooks and not bad, bad


def _functions(tree):
    """Each function definition with the name of the function it is in."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                yield node.name, inner


def test_only_the_parser_and_the_product_build_mdps_unchecked():
    # Parts and end components are index sets of the product, never copied
    # sub-MDPs: ``Mdp._trusted`` skips the distribution check for the parsed
    # model and the product alone, and no ``induced`` copy exists in src/.
    callers, induced = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for outer, node in _functions(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_trusted":
                if isinstance(node.ctx, ast.Load) and outer != "_trusted":
                    callers.add(outer)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "induced":
                    induced.append(f"{path.name}:{node.lineno}")
    assert callers == {"parse_mdp", "product_mdp"}
    assert not induced, induced
