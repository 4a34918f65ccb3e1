"""No library function that only tests call.

Every function, method and class defined in ``src/sympderiv`` must be
referenced from ``src/sympderiv`` itself, by name, attribute or import,
outside its own body.  The match is by name, so a method counts as
referenced when any attribute of that name is read.  Left out: dunder
methods, which Python calls, and the independent oracles, which exist so
that tests can check the library against code it does not share."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sympderiv"
ORACLES = {"derivation_bracket", "witt_dimension"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree):
    """Every name a tree reads: names, attributes and imported names."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
    return found


def unreferenced(src):
    """The definitions under src with no reference outside their bodies,
    as "module.py:line name"."""
    modules = {path.name: ast.parse(path.read_text(), str(path))
               for path in sorted(src.glob("*.py"))}
    used = sum((references(tree) for tree in modules.values()), Counter())
    out = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name in ORACLES or (name.startswith("__")
                                   and name.endswith("__")):
                continue
            if used[name] - references(node)[name] == 0:
                out.append("%s:%d %s" % (module, node.lineno, name))
    return out


def test_every_src_definition_has_a_src_reference():
    assert unreferenced(SRC) == []


def test_a_definition_only_tests_call_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def only_itself(n):\n    return only_itself(n - 1) if n else 0\n\n\n"
        "class Thing:\n    def __init__(self):\n        self.x = used()\n\n"
        "    def lonely(self):\n        return self.x\n")
    (tmp_path / "b.py").write_text("from .a import used\n\nused()\n")
    assert unreferenced(tmp_path) == ["a.py:9 only_itself", "a.py:13 Thing",
                                      "a.py:17 lonely"]


# functools' memo decorators: every derived value is cached through
# ``intlin.cached``, the one memo rule, so none of these appears elsewhere
MEMOS = {"lru_cache", "cache", "cached_property"}


def memo_uses(src):
    """Every use of a functools memo under src outside the body of
    ``intlin.cached``, as "module.py:line name": an import of one from
    functools, an attribute of that name read from ``functools``, or the
    name ``lru_cache`` or ``cached_property`` read.  intlin's own import of
    ``lru_cache`` for ``cached`` is allowed."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "intlin.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "cached":
                    allowed.update(map(id, ast.walk(node)))
                elif (isinstance(node, ast.ImportFrom)
                      and node.module == "functools"):
                    allowed.update(id(a) for a in node.names
                                   if a.name == "lru_cache")
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [a.name for a in node.names
                         if a.name in MEMOS and id(a) not in allowed]
            elif (isinstance(node, ast.Attribute) and node.attr in MEMOS
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                names = [node.attr]
            elif (isinstance(node, ast.Name)
                  and node.id in MEMOS - {"cache"}):
                names = [node.id]
            else:
                continue
            out += ["%s:%d %s" % (path.name, node.lineno, name)
                    for name in names]
    return out


def test_src_memoizes_only_through_intlin_cached():
    assert memo_uses(SRC) == []


def test_a_memo_outside_intlin_cached_is_found(tmp_path):
    (tmp_path / "intlin.py").write_text(
        "from functools import lru_cache, wraps\n\n\n"
        "def cached(fn):\n    return lru_cache(maxsize=None)(wraps(fn)(fn))\n\n\n"
        "@lru_cache(maxsize=None)\ndef table():\n    return 1\n")
    (tmp_path / "a.py").write_text(
        "import functools\nfrom functools import cache, cached_property\n\n\n"
        "@functools.lru_cache(maxsize=None)\ndef f():\n    return 1\n\n\n"
        "class T:\n    @cached_property\n    def x(self):\n        return 1\n")
    assert memo_uses(tmp_path) == [
        "a.py:2 cache", "a.py:2 cached_property", "a.py:5 lru_cache",
        "a.py:11 cached_property", "intlin.py:8 lru_cache"]
