"""Every public name in the library is reached by library or benchmark code.

Public top-level functions, classes and constants of src/hypmix, and the
public methods, properties and fields of those classes (dataclass fields and
the attributes __init__ sets on self), must be used somewhere in src/hypmix
or bench/: as a name or an attribute, or as a string constant where code
reads a member by that name (emit reads ResultRow by column name). A read
inside a __repr__ only prints the value, so it is no use. Unit tests do not
count as users: code or data that only a test reaches is either wired into
an experiment or deleted. The independent references
that tests compare the library against live in tests/reference.py; the
exceptions below are fields that only tests read.

Every name a src/hypmix module imports is also used in that module, unless
its import line says `# noqa: F401` (the package's re-exports).

No src/hypmix module imports another module's private name (`from .x
import _y`) or reads one: neither `x._y` on a package module x, nor
`obj._y` where the reading module defines no `_y` itself. What a module
keeps private, only that module reads.

Every private top-level function, class and constant of src/hypmix, and
every private method of its classes, is loaded somewhere in src/hypmix
outside its own definition, so a helper whose last caller is gone is
deleted with it. Every private attribute a class stores on self or lists
in __slots__ is loaded somewhere in src/hypmix too, so a cache nothing
reads any more is deleted with its last reader. A top-level function that selftest's `@_criterion(...)`
registers counts as used; any other decorator, such as a memo, does not.
"""

import ast
from collections import Counter
from pathlib import Path

import hypmix

SRC = Path(hypmix.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"

REFERENCES = {
    "depth": "tests compare the depth a DepthCapExceeded reports with the reference refinement's",
    "field_name": "tests check which config field a ConfigError names",
}


def _defined_name(node):
    """The name a function, class, field or constant definition binds, if any."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None


def _public(nodes):
    return {name for name in map(_defined_name, nodes) if name and not name.startswith("_")}


def _instance_fields(cls):
    """Public attributes a class's __init__ assigns on self."""
    return {
        node.attr
        for init in cls.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        for node in ast.walk(init)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and not node.attr.startswith("_")
    }


def _is_str(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _walk_outside_repr(tree):
    """ast.walk without the bodies of __repr__ methods."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not (isinstance(node, ast.FunctionDef) and node.name == "__repr__"):
            stack.extend(ast.iter_child_nodes(node))


def _member_reads(tree):
    """Member names a module reads outside a __repr__: attribute loads, the
    constant name of a getattr call, and the entries of a module-level tuple
    of names (such as harness.CSV_COLUMNS, by which emit reads ResultRow).
    Any other string constant reads nothing, even one that spells a member's
    name."""
    reads = set()
    for node in _walk_outside_repr(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and _is_str(node.args[1])
        ):
            reads.add(node.args[1].value)
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            entries = node.value.elts
            if entries and all(_is_str(e) and e.value.isidentifier() for e in entries):
                reads.update(e.value for e in entries)
    return reads


def _scan():
    """(public top-level names, public class members, names used in
    src/hypmix or bench/).

    A top-level name is used when it appears as a name or is read as a
    member. A class member (method, property, field) is used only when read
    as a member, since an assignment, a local variable or a keyword argument
    of the same name reads nothing from it.
    """
    top, members, names, reads = set(), set(), set(), set()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent == SRC:
            top |= _public(tree.body)
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    members |= _public(node.body) | _instance_fields(node)
        names |= {
            node.id
            for node in _walk_outside_repr(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        reads |= _member_reads(tree)
    used = (top & (names | reads)) | (members & reads)
    return top, members, used


def test_no_public_name_is_reached_only_from_tests():
    top, members, used = _scan()
    unreached = sorted((top | members) - used - REFERENCES.keys())
    assert not unreached, f"public names no library or benchmark code uses: {unreached}"


def test_every_reference_is_still_defined():
    top, members, used = _scan()
    assert REFERENCES.keys() <= members - top, sorted(REFERENCES.keys() - (members - top))
    assert not REFERENCES.keys() & used, sorted(REFERENCES.keys() & used)


def test_member_reads_see_strings_only_where_a_member_is_read():
    text = (
        'COLUMNS = ("kept", "also")\n'
        'PATHS = ("a.b",)\n'
        'getattr(row, "read")\n'
        'row.attr\n'
        'label = "plain"\n'
        'def f():\n    local = ("inner",)\n'
    )
    assert _member_reads(ast.parse(text)) == {"kept", "also", "read", "attr"}


def test_repr_read_check_sees_one():
    text = (
        "class Shown:\n"
        "    def __repr__(self):\n        return f'{self.size()} {self.kept}'\n"
        "    def __str__(self):\n        return str(self.kept)\n"
    )
    assert _member_reads(ast.parse(text)) == {"kept"}


def _unused_imports(tree, lines):
    """Names the module imports but never loads, skipping `# noqa: F401` lines."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in loaded)


def test_every_import_is_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        found = _unused_imports(ast.parse(text, filename=str(path)), text.splitlines())
        if found:
            unused[path.name] = found
    assert not unused, f"imported but never used: {unused}"


def test_unused_import_check_sees_one():
    text = "import os\nfrom .freegroup import invert, multiply  # comment\nfrom . import rng  # noqa: F401\ninvert(())\n"
    assert _unused_imports(ast.parse(text), text.splitlines()) == ["line 1: os", "line 2: multiply"]


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_imports(tree):
    """Private names a module imports from another module of the package."""
    return sorted(
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "hypmix")
        for alias in node.names
        if _is_private(alias.name)
    )


def test_no_private_name_is_imported():
    imported = {}
    for path in sorted(SRC.glob("*.py")):
        found = _private_imports(ast.parse(path.read_text(), filename=str(path)))
        if found:
            imported[path.name] = found
    assert not imported, f"private names imported from another module: {imported}"


def test_private_import_check_sees_one():
    text = (
        "from __future__ import annotations\n"
        "from .stallings import SubgroupAutomaton, _follow\n"
        "from hypmix.rng import _trial_fn\n"
        "from numpy.random import _pickle\n"
        "from . import rng\n"
        "def f():\n    from .walks import _reduce\n"
    )
    assert _private_imports(ast.parse(text)) == ["line 2: _follow", "line 3: _trial_fn", "line 7: _reduce"]


def _package_modules(tree, modules):
    """Names a module binds to package modules: `from . import x` and
    `from hypmix import x`."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 and not node.module or node.module == "hypmix")
        for alias in node.names
        if alias.name in modules
    }


def _own_names(tree):
    """Every name a module defines or assigns, at any depth: functions,
    classes, assignment targets, attributes it stores and the entries of a
    __slots__ tuple."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            names |= {e.value for e in ast.walk(node.value) if _is_str(e)}
    return names


def _private_reads(tree, modules):
    """Private attributes a module reads that another module keeps: any on
    a package module, and any the module does not define itself."""
    bound, own = _package_modules(tree, modules), _own_names(tree)
    return sorted(
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and _is_private(node.attr)
        and ((isinstance(node.value, ast.Name) and node.value.id in bound) or node.attr not in own)
    )


def test_no_private_name_is_read():
    modules = {path.stem for path in SRC.glob("*.py")}
    read = {}
    for path in sorted(SRC.glob("*.py")):
        found = _private_reads(ast.parse(path.read_text(), filename=str(path)), modules)
        if found:
            read[path.name] = found
    assert not read, f"private names read from another module: {read}"


def test_private_read_check_sees_one():
    text = (
        "from . import cantor, rng\n"
        "from hypmix import walks as w\n"
        "from .stallings import SubgroupAutomaton\n"
        "class Own:\n    __slots__ = ('_slot',)\n"
        "    def __init__(self):\n        self._field = 1\n"
        "    def _method(self):\n        return self._field + self._slot\n"
        "def _children(label):\n    return label\n"
        "def f(obj):\n"
        "    obj._method()\n"
        "    _children(obj)\n"
        "    cantor._children(obj)\n"
        "    rng.__name__\n"
        "    w._reduce\n"
        "    SubgroupAutomaton._core(obj)\n"
        "    obj._rows\n"
    )
    assert _private_reads(ast.parse(text), {"cantor", "rng", "stallings", "walks"}) == [
        "line 15: cantor._children",
        "line 17: w._reduce",
        "line 18: SubgroupAutomaton._core",
        "line 19: obj._rows",
    ]


def _registered(node):
    """Whether selftest's `@_criterion(...)` decorates the definition."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_criterion"
        for d in getattr(node, "decorator_list", ())
    )


def _private_attributes(cls):
    """{name: node} of each private attribute a class stores on self or
    lists in __slots__; the node stores the name and loads nothing."""
    found = {}
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and _is_private(node.attr)
        ):
            found.setdefault(node.attr, node)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            found.update({e.value: e for e in ast.walk(node.value) if _is_str(e) and _is_private(e.value)})
    return found


def _private_definitions(tree):
    """(label, name, node) for each private top-level definition of a module
    that `@_criterion(...)` does not register, and each private method and
    attribute of its classes."""
    found = []
    for node in tree.body:
        name = _defined_name(node)
        if name and _is_private(name) and not _registered(node):
            found.append((name, name, node))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (f"{node.name}.{member.name}", member.name, member)
                for member in node.body
                if isinstance(member, ast.FunctionDef) and _is_private(member.name)
            )
            found.extend((f"{node.name}.{name}", name, attr) for name, attr in _private_attributes(node).items())
    return found


def _loads(node):
    """Names and attribute names loaded inside node, with multiplicity."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    )


def _unloaded_private(trees):
    """Private definitions that no code outside their own body loads; trees
    maps a module's file name to its parsed source."""
    total = sum(map(_loads, trees.values()), Counter())
    return sorted(
        f"{module}: {label}"
        for module, tree in trees.items()
        for label, name, node in _private_definitions(tree)
        if total[name] == _loads(node)[name]
    )


def test_every_private_helper_is_loaded():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    unloaded = _unloaded_private(trees)
    assert not unloaded, f"private helpers and attributes nothing in src/hypmix loads: {unloaded}"


def test_private_helper_check_sees_one():
    text = (
        "def _dead(n):\n    return _dead(n - 1)\n"
        "def _live():\n    return 1\n"
        "class _Kept:\n    @classmethod\n    def _unused(cls):\n        pass\n    def _used(self):\n        return 1\n"
        "@_criterion(1)\ndef _registered():\n    pass\n"
        "@functools.lru_cache(maxsize=8)\ndef _memo(x):\n    return x\n"
        "_TABLE = {1: _live}\n"
        "_Kept()._used()\n"
        "class Cached:\n"
        "    __slots__ = ('_rows', '_cache', '_dead_cache', '_dead_slot', 'public')\n"
        "    def __init__(self, rows):\n        self._rows = rows\n        self._dead_cache = None\n"
        "    def fill(self, other):\n        self._cache = len(self._rows)\n        other._elsewhere = 1\n"
        "    def get(self):\n        return self._cache\n"
    )
    assert _unloaded_private({"m.py": ast.parse(text)}) == [
        "m.py: Cached._dead_cache",
        "m.py: Cached._dead_slot",
        "m.py: _Kept._unused",
        "m.py: _TABLE",
        "m.py: _dead",
        "m.py: _memo",
    ]

