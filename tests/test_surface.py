"""Every public name the library defines is reached from outside the unit
tests.

A public top-level function, class or assigned name (a constant such as
`MAX_DEGREE`), or a public method, counts as reached when code refers to
its name somewhere besides its own definition: in another part of
`src/gl2aut`, in `scripts/`, in `bench/` or in the acceptance suite.  A
method counts only through an attribute (`x.name`) or a dotted string, so
a local variable of the same name does not keep it.
The CLI's handlers count when their command is in its table, since `main`
looks each one up by name.
A name that only unit tests reach is dead weight in the library; it is
deleted, or moved to `tests/helpers.py` when a test uses it as an oracle.
"""

import ast
import re

import helpers
from gl2aut.cli import _COMMANDS

ROOT = helpers.SRC.parent
LIB = helpers.SRC / "gl2aut"

# cli.main finds the handler of a command in _COMMANDS as cmd_<command>
DISPATCHED = {"cmd_" + command.replace("-", "_") for command in _COMMANDS}


def _assigned_names(node):
    """The names a top-level assignment binds, unpacked tuples included."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                yield sub.id


def _public_defs(tree):
    """(qualified name, name, first line, last line) of each public
    top-level function, class and assigned name and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in _assigned_names(node):
                if not name.startswith("_"):
                    yield name, name, node.lineno, node.end_lineno
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield (f"{node.name}.{item.name}", item.name,
                               item.lineno, item.end_lineno)


_NAME_RE = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\*?")


def _references(tree):
    """(name, line, dotted) of every name the code refers to: identifiers,
    attributes, imported names, and the parts of a string that is one
    dotted name (bench/tracing.py patches "Poly.__mul__" by name).
    `dotted` is true for an attribute and for a part of a dotted string.
    Docstrings, comments and messages do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _NAME_RE.fullmatch(node.value)):
            parts = node.value.rstrip("*").split(".")
            for part in parts:
                yield part, node.lineno, len(parts) > 1


def unreached() -> list:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(LIB.glob("*.py"))}
    uses = {mod: list(_references(tree)) for mod, tree in trees.items()}
    outside = {(name, dotted) for path in [*(ROOT / "scripts").glob("*.py"),
                                           *(ROOT / "bench").glob("*.py"),
                                           ROOT / "tests" / "test_acceptance.py"]
               for name, _line, dotted in _references(ast.parse(path.read_text()))}
    found = []
    for mod, tree in trees.items():
        for qualname, name, first, last in _public_defs(tree):
            # a method is reached only as an attribute or a dotted string
            kinds = (True,) if "." in qualname else (False, True)
            if any((name, dotted) in outside for dotted in kinds) \
                    or (mod == "cli" and name in DISPATCHED):
                continue
            if any(used == name and dotted in kinds
                   and not (other == mod and first <= line <= last)
                   for other, ids in uses.items() for used, line, dotted in ids):
                continue
            found.append(f"{mod}.{qualname}")
    return found


def test_every_public_name_is_reached():
    found = unreached()
    assert not found, "reached only from unit tests: " + ", ".join(found)
