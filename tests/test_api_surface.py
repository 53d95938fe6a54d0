"""The package surface is what the CLI runs.

Every public top-level ``def`` or ``class`` in ``src/outail`` must be reached
from what runs: the package's module-level code (``cli.main`` is named
there), the benchmark (``perfbench/*.py``, which rebinds functions by name)
or the acceptance suite, following the names each reached definition
mentions.  Imports are not references.  A name that only the unit tests
call belongs in the tests.  ``ALLOWED`` lists the few that stay anyway,
each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "outail"

ALLOWED = {
    "simulate_path": "reference implementation: records one path in full; the batch kernel "
                     "is tested against it path by path",
    "Trajectory": "reference implementation: the record simulate_path returns",
    "fd_gradient": "reference implementation: the closed gradients are tested against it",
    "beta_probe": "ROADMAP item 4 promotes it to a run-time certificate",
}


def _names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Every name and attribute ``tree`` mentions; with ``strings``, also
    string constants that are identifiers (``setattr(module, "name", ...)``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def _surface() -> tuple[dict[str, list[str]], set[str]]:
    """(top-level definition name -> defining modules, names reached)."""
    bodies: dict[str, list[ast.AST]] = {}
    modules: dict[str, list[str]] = {}
    roots = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
                modules.setdefault(node.name, []).append(path.stem)
            else:
                roots |= _names(node)
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        roots |= _names(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    reached, todo = set(), [name for name in roots if name in bodies]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [ref for node in bodies[name] for ref in _names(node) if ref in bodies]
    return modules, reached


def test_every_public_definition_is_reached():
    modules, reached = _surface()
    unreached = sorted(
        f"{'/'.join(modules[name])}.{name}" for name in modules
        if not name.startswith("_") and name not in reached and name not in ALLOWED
    )
    assert unreached == [], "reached only from unit tests: " + ", ".join(unreached)


def test_allowlist_is_live():
    """Each entry names a definition that still exists and that nothing
    reaches, with a reason."""
    modules, reached = _surface()
    for name, reason in ALLOWED.items():
        assert name in modules and name not in reached, name
        assert reason.strip(), name
