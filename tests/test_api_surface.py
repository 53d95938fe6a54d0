"""The package surface is what the CLI runs.

Every public top-level ``def`` or ``class`` in ``src/outail`` must be reached
from what runs: the package's module-level code (``cli.main`` is named
there), the benchmark (``perfbench/*.py``, which rebinds functions by name)
or the acceptance suite, following the names each reached definition
mentions.  Imports are not references.  The same holds one level down: every
public method, property, annotated (dataclass or NamedTuple) field and plain
class attribute (``closed_tail = None``) of a reached class must be read as an
attribute (``x.name``) somewhere in that reached code; an allowed class is
not reached, so its members are not checked.  A name that only the unit
tests call belongs in the tests.
``ALLOWED`` lists the few that stay anyway, each with its reason.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "outail"

ALLOWED = {
    "fd_gradient": "reference implementation: the closed gradients are tested against it",
    "beta_probe": "ROADMAP item 4 promotes it to a run-time certificate",
}


def _names(tree: ast.AST, strings: bool = False) -> tuple[set[str], set[str]]:
    """(every name and attribute ``tree`` mentions, the attributes alone);
    with ``strings``, string constants that are identifiers count as both
    (``setattr(module, "name", ...)``)."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            attrs.add(node.value)
    return names | attrs, attrs


def _members(cls: ast.ClassDef) -> list[str]:
    """The public methods, properties, annotated fields and plain class
    attributes of a class."""
    out = []
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            out.append(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
        elif isinstance(node, ast.Assign):
            out += [target.id for target in node.targets if isinstance(target, ast.Name)]
    return [name for name in out if not name.startswith("_")]


def _surface() -> tuple[dict[str, list[str]], set[str], dict[str, str], set[str]]:
    """(top-level definition name -> defining modules, names reached,
    ``Class.member`` of every reached class -> defining module, attributes
    read by reached code)."""
    bodies: dict[str, list[ast.AST]] = {}
    modules: dict[str, list[str]] = {}
    roots, attrs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
                modules.setdefault(node.name, []).append(path.stem)
            else:
                found, read = _names(node)
                roots |= found
                attrs |= read
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        found, read = _names(ast.parse(path.read_text(encoding="utf-8")), strings=True)
        roots |= found
        attrs |= read
    reached, todo = set(), [name for name in roots if name in bodies]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in bodies[name]:
                found, read = _names(node)
                attrs |= read
                todo += [ref for ref in found if ref in bodies]
    members = {
        f"{node.name}.{member}": module
        for name in reached for node, module in zip(bodies[name], modules[name])
        if isinstance(node, ast.ClassDef) for member in _members(node)
    }
    return modules, reached, members, attrs


def test_every_public_definition_is_reached():
    modules, reached, _, _ = _surface()
    unreached = sorted(
        f"{'/'.join(modules[name])}.{name}" for name in modules
        if not name.startswith("_") and name not in reached and name not in ALLOWED
    )
    assert unreached == [], "reached only from unit tests: " + ", ".join(unreached)


def test_every_public_member_is_read():
    _, _, members, attrs = _surface()
    unread = sorted(
        f"{module}.{qualified}" for qualified, module in members.items()
        if qualified.split(".")[1] not in attrs and qualified not in ALLOWED
    )
    assert unread == [], "read only from unit tests: " + ", ".join(unread)


def test_allowlist_is_live():
    """Each entry names a definition or member that still exists and that
    nothing reaches or reads, with a reason."""
    modules, reached, members, attrs = _surface()
    for name, reason in ALLOWED.items():
        if "." in name:
            assert name in members and name.split(".")[1] not in attrs, name
        else:
            assert name in modules and name not in reached, name
        assert reason.strip(), name


def test_the_cli_does_not_import_a_root_finder():
    """Importing the CLI and the checks leaves ``scipy.optimize`` unloaded:
    no module of the package needs it, and its import costs startup time and
    resident memory on every run."""
    code = ("import sys, outail.cli, outail.verify; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"
