"""Every library function, class and method has a caller outside the tests.

The guard reads the syntax trees of ``src/wildcat`` (less ``__init__``, whose
imports only re-export) and of ``bench``.  A definition in the library is
used when its name appears, as a Name or as an Attribute, outside its own
body and inside no library definition that is itself unused; a method counts
only as an Attribute, so the builtin ``sum`` does not use a method ``sum``.
An Attribute read off a library class by name, ``Matrix.zero`` or
``linalg.Matrix.zero``, counts only for that class's method, so it keeps no
other ``zero`` in use.
The used definitions are the least fixpoint of that rule, so code that only
other unused code names (or a cycle of such code) is unused too.  Dunder
methods are called by the language, and the allowed names below keep what
their bodies name in use; the code only they keep in use is pinned, so that
set changes only on purpose.  A name that only tests call is test-only API:
delete it, give it a caller, or, where the tests check a law the library
relies on, allow it below with the reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "wildcat").glob("*.py") if p.name != "__init__.py")
CALLERS = LIBRARY + sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {}

# Library code that only the allowed names keep in use: pinned, so that a
# change which leaves code reachable only from test-only API says so here.
REACHED_ONLY_FROM_ALLOWED = set()

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _owner(node, classes):
    """The library class an Attribute is read off by name, or None."""
    value = node.value
    name = value.id if isinstance(value, ast.Name) else \
        value.attr if isinstance(value, ast.Attribute) else None
    return name if name in classes else None


def _walk(node, enclosing, classes, defs, uses):
    """Record (qualified name, node, its class or None) of each definition
    under node, and each name read: (name, as an Attribute, the library
    class it is read off or None, the enclosing defs)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            qual = enclosing[-1][0] + "." + child.name if enclosing else child.name
            defs.append((qual, child, node.name if isinstance(node, ast.ClassDef) else None))
            _walk(child, enclosing + [(qual, child)], classes, defs, uses)
            continue
        if isinstance(child, ast.Name):
            uses.append((child.id, False, None, {id(d) for _, d in enclosing}))
        elif isinstance(child, ast.Attribute):
            uses.append((child.attr, True, _owner(child, classes),
                         {id(d) for _, d in enclosing}))
        _walk(child, enclosing, classes, defs, uses)


def _is_dunder(node) -> bool:
    return node.name.startswith("__") and node.name.endswith("__")


def unused_definitions(allowed=ALLOWED):
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    classes = {node.name for path in LIBRARY for node in ast.walk(trees[path])
               if isinstance(node, ast.ClassDef)}
    defs, uses = [], []
    for path, tree in trees.items():
        found = []
        _walk(tree, [], classes, found, uses)
        if path in LIBRARY:
            defs += [(f"{path.stem}.{qual}", node, cls) for qual, node, cls in found]
    library = {id(node) for _, node, _ in defs}
    live = {id(node) for qual, node, _ in defs if _is_dunder(node) or qual in allowed}
    used = set()
    while True:
        context = live | used
        grown = {id(node) for _, node, cls in defs
                 if id(node) not in used
                 and any(name == node.name and (attr or cls is None) and id(node) not in inside
                         and (owner is None or owner == cls)
                         and inside & library <= context
                         for name, attr, owner, inside in uses)}
        if not grown:
            break
        used |= grown
    return sorted(qual for qual, node, _ in defs if not _is_dunder(node) and id(node) not in used)


def test_no_library_code_is_test_only():
    unused = [qual for qual in unused_definitions() if qual not in ALLOWED]
    assert unused == [], "named only by tests or by nothing: " + ", ".join(unused)


def test_every_allowed_name_still_needs_its_entry():
    stale = sorted(set(ALLOWED) - set(unused_definitions()))
    assert stale == [], "allowed but used elsewhere: " + ", ".join(stale)


def test_code_reached_only_from_allowed_names_is_pinned():
    reached = set(unused_definitions(allowed=())) - set(unused_definitions())
    assert reached == REACHED_ONLY_FROM_ALLOWED, \
        "in use only through allowed names: " + ", ".join(sorted(reached))
