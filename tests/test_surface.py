"""Every public name the library defines is reached from outside the unit
tests.

A public top-level function, class or assigned name (a constant such as
`MAX_DEGREE`), or a public method, counts as reached when code refers to
it somewhere besides its own definition: in another part of `src/gl2aut`,
in `scripts/`, in `bench/` or in the acceptance suite.

A reference is resolved to the definition it names, not matched by its
bare name, so one function does not keep another of the same name alive:

- a top-level name is reached through the module it comes from: its own
  module, `from .nagao import x`, `nagao.x` (a module imported or assigned
  to a name, as `cosets = lib.cosets` in `bench/`) or `lib.nagao.x`, where
  `lib` and `gl2aut` stand for the package;
- `Class.method` reaches that class's method only;
- `x.method` on any other receiver (an instance, `self`) reaches every
  method of that name, since the receiver's class is not known; a local
  name that shadows a top-level one of its module is taken for it;
- a string that is one name reaches every top-level definition of that
  name (the bench looks up "reiner_apply" with getattr), and a dotted
  "Class.method" reaches that class's method and the class
  (bench/tracing.py patches "Mat2.__mul__"); a string never reaches a
  method by its bare name, so a label such as "identity" keeps nothing.

The CLI's handlers count when their command is in its table, since `main`
looks each one up by name.  A name that only unit tests reach is dead
weight in the library; it is deleted, or moved to `tests/helpers.py` when
a test uses it as an oracle.

The converse is checked too: every library name the bench workloads use
exists, since the bench is a separate checkout that fails only when run.
"""

import ast
import functools
import importlib
import re

import helpers
from gl2aut.cli import _COMMANDS

ROOT = helpers.SRC.parent
LIB = helpers.SRC / "gl2aut"
MODULES = {path.stem for path in LIB.glob("*.py")}

# cli.main finds the handler of a command in _COMMANDS as cmd_<command>
DISPATCHED = {"cmd_" + command.replace("-", "_") for command in _COMMANDS}

# names that stand for the package: `import gl2aut.x` binds gl2aut, and the
# bench hands its workloads the imported modules as attributes of lib
PACKAGE_NAMES = {"gl2aut", "lib"}


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


def _top_level_names(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names.update(_assigned_names(node))
    return names


_NAME_RE = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\*?")


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of a module, function or class body, nested scopes
    themselves included but not their insides."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


class _Resolver:
    """Resolves the names of one file, scope by scope, to what they stand
    for: ("package",), ("module", m) or ("object", m, name), m a module of
    the library.  A name a scope binds to anything else stands for nothing
    there."""

    def __init__(self, module, classes):
        self.module = module
        self.classes = classes  # {class name: module}

    def credits(self, tree):
        """(key, line) for every definition the file refers to.  A key is
        (module, qualified name) for a resolved reference, ("method", name)
        for a method on an unknown receiver and ("top", name) for a string
        that names a top-level definition of any module."""
        outer = {name: {("package",)} for name in PACKAGE_NAMES}
        yield from self._scope(tree, self.scope_names(tree, outer))

    def scope_names(self, scope, outer) -> dict:
        bound = dict(outer)
        own = list(_own_nodes(scope))
        for node in own:
            if isinstance(node, _SCOPES) and not isinstance(node, ast.Lambda):
                bound[node.name] = set()
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound[node.id] = set()
            # the bench passes the package as lib, and a module as an
            # argument named after it: _count_run(cosets, ...)
            elif isinstance(node, ast.arg) and node.arg not in PACKAGE_NAMES:
                outside = self.module is None and node.arg in MODULES
                bound[node.arg] = {("module", node.arg)} if outside else set()
        if isinstance(scope, ast.Module) and self.module:
            for name in _top_level_names(scope):
                bound[name] = {("object", self.module, name)}
        for node in own:
            if isinstance(node, ast.ImportFrom):
                source = self._import_source(node)
                for alias in node.names:
                    local = alias.asname or alias.name
                    if source == "package" and alias.name in MODULES:
                        bound[local] = {("module", alias.name)}
                    elif source in MODULES:
                        bound[local] = {("object", source, alias.name)}
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == "gl2aut" and alias.asname and len(parts) == 2:
                        bound[alias.asname] = {("module", parts[1])}
        # module aliases such as `cosets = lib.cosets` or
        # `nagao, reiner = lib.nagao, lib.reiner`
        for node in own:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (zip(target.elts, value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                         else [(target, value)])
                for name, expr in pairs:
                    if isinstance(name, ast.Name):
                        bound[name.id] |= {meaning for meaning in self.resolve(expr, bound)
                                           if meaning[0] == "module"}
        return bound

    def _import_source(self, node):
        """"package", a module name, or None for an import from elsewhere."""
        if node.level == 1 and self.module:
            return node.module or "package"
        if node.level == 0 and node.module:
            parts = node.module.split(".")
            if parts[0] == "gl2aut":
                return parts[1] if len(parts) == 2 else "package"
        return None

    def resolve(self, expr, bound) -> set:
        if isinstance(expr, ast.Name):
            return bound.get(expr.id, set())
        if isinstance(expr, ast.Attribute):
            out = set()
            for meaning in self.resolve(expr.value, bound):
                if meaning[0] == "package" and expr.attr in MODULES:
                    out.add(("module", expr.attr))
                elif meaning[0] == "module":
                    out.add(("object", meaning[1], expr.attr))
            return out
        return set()

    def _scope(self, scope, bound):
        for node in _own_nodes(scope):
            if isinstance(node, _SCOPES):
                yield from self._scope(node, self.scope_names(node, bound))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                for meaning in self.resolve(node, bound):
                    if meaning[0] == "object":
                        yield meaning[1:], node.lineno
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    for meaning in bound.get(alias.asname or alias.name, ()):
                        if meaning[0] == "object":
                            yield meaning[1:], node.lineno
            elif isinstance(node, ast.Attribute):
                receivers = self.resolve(node.value, bound)
                for meaning in receivers:
                    if meaning[0] == "module":
                        yield (meaning[1], node.attr), node.lineno
                    elif meaning[0] == "object" and meaning[2] in self.classes:
                        yield (meaning[1], f"{meaning[2]}.{node.attr}"), node.lineno
                if not receivers:
                    yield ("method", node.attr), node.lineno
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _NAME_RE.fullmatch(node.value)):
                parts = node.value.rstrip("*").split(".")
                if len(parts) == 2 and parts[0] in self.classes:
                    owner = self.classes[parts[0]]
                    yield (owner, parts[0]), node.lineno
                    yield (owner, node.value), node.lineno
                else:
                    for part in parts:
                        yield ("top", part), node.lineno


def _library():
    """The syntax tree of each library module and the module of each class."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(LIB.glob("*.py"))}
    classes = {node.name: mod for mod, tree in trees.items() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    return trees, classes


def unreached() -> list:
    trees, classes = _library()
    # (key, module, line) of every credit; module is None outside the library
    credits = [(key, mod, line) for mod, tree in trees.items()
               for key, line in _Resolver(mod, classes).credits(tree)]
    for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        tree = ast.parse(path.read_text())
        credits += [(key, None, line)
                    for key, line in _Resolver(None, classes).credits(tree)]
    found = []
    for mod, tree in trees.items():
        for qualname, name, first, last in _public_defs(tree):
            keys = {(mod, qualname), ("method" if "." in qualname else "top", name)}
            if mod == "cli" and name in DISPATCHED:
                continue
            if any(key in keys and not (other == mod and first <= line <= last)
                   for key, other, line in credits):
                continue
            found.append(f"{mod}.{qualname}")
    return found


def test_every_public_name_is_reached():
    found = unreached()
    assert not found, "reached only from unit tests: " + ", ".join(found)


# names the bench reaches only through getattr: wl_normal_form looks up
# reiner_apply and reiner_inverse by name, and wl_cusp clears
# cosets._CTX_CACHE before each cold-context operation; were it missing,
# _drop_contexts would do nothing and every cold operation would be a
# cache hit
BENCH_GETATTR = {("reiner", "reiner_apply"), ("reiner", "reiner_inverse"),
                 ("cosets", "_CTX_CACHE")}


def test_every_library_name_the_bench_uses_exists():
    _trees, classes = _library()
    used = set(BENCH_GETATTR)
    sources = [*(ROOT / "bench").glob("wl_*.py"), ROOT / "bench" / "common.py"]
    for path in sources:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "lib"):
                assert node.attr in MODULES, f"{path.name}: lib.{node.attr}"
        used |= {key for key, _line in _Resolver(None, classes).credits(tree)
                 if key[0] in MODULES}
    bench_text = "".join(path.read_text() for path in sources)
    for mod, name in BENCH_GETATTR:
        assert f'"{name}"' in bench_text, f"the bench no longer names {name}"
    assert {("cosets", "SubgroupSpec.from_matrices"), ("curves", "class_data"),
            ("matgroup", "Mat2")} <= used
    missing = []
    for mod, path in sorted(used):
        module = importlib.import_module(f"gl2aut.{mod}")
        try:
            functools.reduce(getattr, path.split("."), module)
        except AttributeError:
            missing.append(f"{mod}.{path}")
    assert not missing, "the bench uses names the library lacks: " + ", ".join(missing)
