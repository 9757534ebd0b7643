"""Import hygiene: every name a module of `decomp` imports is used there,
every top-level definition is read by another or kept for a named reason,
only `presheaf` reads how a table is stored or reads one by key, no
docstring says a table is kept as ids, lists of positions are composed by
`presheaf._gather`, and only `presheaf.pullback_failure` calls the
counting kernel.

Two kinds of import are exempt: the re-exports of `decomp/__init__.py`, and
the bindings that perfbench/tracer.py's PLAN wraps, which a module may
import only so that the tracer can count calls through it.  An import
marked `# noqa: F401` must be such a binding, and one its module does not
use: a marker on a used name is stale.  Every PLAN binding must in turn be
bound, or the traced benchmark run fails to install its tracer.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "decomp"


def _plan_bindings() -> set:
    """The (module, name) pairs that PLAN lists, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    plan = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "PLAN" for t in node.targets))
    return {(owner, attr) for owner, attr, _, _ in ast.literal_eval(plan)}


def _faults(source: str, module: str, plan: set) -> list:
    """Each import of source that is never used and not a PLAN binding,
    and each `# noqa: F401` import that is not a PLAN binding or is used."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    lines = source.splitlines()
    faults = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            traced = (module, name) in plan
            if name not in used and not traced:
                faults.append(f"{module} imports {name} and never uses it")
            if "# noqa: F401" in lines[alias.lineno - 1]:
                if not traced:
                    faults.append(f"{module} marks {name} noqa but PLAN does not wrap it")
                if name in used:
                    faults.append(f"{module} marks {name} noqa but uses it")
    return faults


def test_every_import_is_used_or_traced():
    plan = _plan_bindings()
    faults = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            faults += _faults(path.read_text(encoding="utf-8"), f"decomp.{path.stem}", plan)
    assert faults == []


def test_every_plan_binding_is_bound():
    """Tracer.install reads each PLAN binding from its module or class, so a
    refactor that drops a traced import must drop its PLAN entry as well."""
    missing = []
    for owner, attr in sorted(_plan_bindings()):
        try:
            target = importlib.import_module(owner)
        except ModuleNotFoundError:
            module, _, cls = owner.rpartition(".")
            target = getattr(importlib.import_module(module), cls)
        if attr not in vars(target):
            missing.append(f"{owner}.{attr}")
    assert missing == []


def test_unused_and_stray_noqa_imports_are_named():
    source = ("from .presheaf import (\n"
              "    SSetMap,\n"
              "    validate,  # noqa: F401\n"
              "    sset_action,  # noqa: F401\n"
              ")\n"
              "from .presheaf import dec_bot, dec_top  # noqa: F401\n"
              "dec_bot(X)\n")
    assert _faults(source, "decomp.axioms", _plan_bindings()) == [
        "decomp.axioms imports SSetMap and never uses it",
        "decomp.axioms imports validate and never uses it",
        "decomp.axioms marks validate noqa but PLAN does not wrap it",
        "decomp.axioms marks dec_bot noqa but uses it",
    ]


# The top-level definitions of `src/decomp` that no other code there reads,
# each with the reason it stays in the library.
KEPT_UNREAD = {
    "formats.write_smap": "writes the SMAP format that `decomp check culf` reads",
    "incidence.culf_pushforward": "a user's call on the user's own culf map, the abstract's "
                                  "headline theorem",
    "incidence.verify_inversion": "perfbench's certify workload runs it, and PLAN wraps it",
    "interval.extend_interval": "perfbench/tracer.py's PLAN wraps it",
    "interval.isomorphic": "a user's call on the user's own objects",
    "registry.build_fragment": "perfbench's classify workload runs it, and PLAN wraps it",
    "registry.fragment_square_report": "perfbench's classify workload runs it, and PLAN "
                                       "wraps it",
}


def _unread(sources: dict) -> list:
    """module.name of each top-level function or class in sources ({module:
    text}) that no other top-level statement of any module reads, by name
    or as an attribute; imports, strings and its own body do not count."""
    defs, readers = [], {}
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None:
                defs.append((module, own))
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None:
                    readers.setdefault(name, set()).add((module, own))
    return sorted(f"{module}.{name}" for module, name in defs
                  if not readers.get(name, set()) - {(module, name)})


def test_every_definition_is_read_in_src_or_kept_for_a_reason():
    """The library is what the pipeline runs: a function or class that no
    command and no other code of `src/` reads belongs with the tests that
    check it, unless KEPT_UNREAD gives its reason.  The `__init__`
    re-exports do not count as readers, and a kept name that some code
    comes to read must leave the list."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert _unread(sources) == sorted(KEPT_UNREAD)


def test_unread_definitions_are_named():
    sources = {
        "a": ("import b\nfrom .c import gone  # noqa: F401\n"
              "def used():\n    return b.helper() + Kind.X\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "def gone():\n    'read only here: used'\n"
              "class Kind:\n    X = 1\n"
              "def main():\n    return used()\n"
              "if __name__ == '__main__':\n    main()\n"),
        "b": "def helper():\n    return 0\ndef lonely():\n    return helper()\n",
    }
    assert _unread(sources) == ["a.gone", "a.recursive", "b.lonely"]


def test_only_presheaf_reads_the_stored_form():
    """A table is stored once, as the position list `index` holds; how
    `_Tables` keeps anything else, the id view it has made (`ids`) or a
    second form of a table (`stored`), stays inside `presheaf`: every other
    module reads `index` or the id view, never an attribute of those
    names."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "presheaf.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            readers += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and node.attr in ("stored", "ids")]
    assert readers == []


def test_no_docstring_says_kept_as_ids():
    """The constructor decides shape, so no stored table is an id table, and
    no docstring of `src/` says that one is "kept as ids"."""
    sayers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False) or ""
                if "kept as ids" in " ".join(doc.split()):
                    sayers.append(f"{path.stem}:{getattr(node, 'name', '<module>')}")
    assert sayers == []


def _reads_by_key(node) -> bool:
    """Does node subscript an attribute named `faces`, `degens` or
    `components`, or call `items`, `values`, `keys` or `get` on one?"""
    if isinstance(node, ast.Subscript):
        table = node.value
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in ("items", "values", "keys", "get")):
        table = node.func.value
    else:
        return False
    return isinstance(table, ast.Attribute) and table.attr in ("faces", "degens", "components")


def test_only_presheaf_reads_tables_by_key():
    """Only `presheaf` names a face or degeneracy table or a map component
    in ids: every other module reads its positions through `index`, or calls
    presheaf's own naming functions (`sset_action`, `fibres`,
    `nondegenerate`).  Every table has positions, so the writers read them
    through `index` as well."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "presheaf.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            readers += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                        if _reads_by_key(node)]
    assert readers == []


def test_reads_by_key_are_named():
    source = ("X.faces[(1, 0)]\nX.degens.get((0, 0))\nT.faces.items()\nF.components[1]\n"
              "X.faces.index[(1, 0)]\nX.degens.index.items()\nfaces[(1, 0)]\n"
              "F.components.index[1]\n")
    assert [node.lineno for node in ast.walk(ast.parse(source))
            if _reads_by_key(node)] == [1, 2, 3, 4]


def _maps_getitem(node) -> bool:
    """Is node a call of `map` whose first argument is an attribute named
    `__getitem__`?"""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "map" and bool(node.args)
            and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "__getitem__")


def _enclosing(tree, match=_maps_getitem) -> list:
    """The innermost function around each node of tree that match accepts
    (by default a mapped `__getitem__`), by name, or '' for one outside any
    function."""
    names = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if match(child):
                names.append(name)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else name)

    visit(tree, "")
    return names


def test_position_lists_are_gathered():
    """No module maps a `__getitem__` over a list: a composition or lookup
    of position lists is one `presheaf._gather` call.  Two stream instead:
    `labeling`, which colours integer systems and imports nothing from the
    package, and `formats._table`, which looks each target id up as
    `str.removeprefix` makes it; gathered, all of a table's ids are held at
    once, and d120's parse at cap 8 took 337 ms where streaming took 312."""
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "labeling":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            callers += [f"{path.stem}.{name}" for name in _enclosing(tree)]
    assert [c for c in callers if c != "formats._table"] == []


def test_mapped_getitems_are_named():
    source = ("list(map(at.__getitem__, xs))\nmap(get, xs)\nsorted(xs, key=at.__getitem__)\n"
              "def f():\n    def g():\n        return tuple(map(X.levels[1].__getitem__, m))\n"
              "    return _gather(at, xs), map(str.strip, xs), map(o.__getitem__, xs)\n")
    assert _enclosing(ast.parse(source)) == ["", "g", "f"]


def _calls_counted_pullback(node) -> bool:
    """Is node a call of `_counted_pullback`, by name or as an attribute?"""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "_counted_pullback"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "_counted_pullback")


def test_only_pullback_failure_calls_the_counting_kernel():
    """Every square a check decides goes through `presheaf.pullback_failure`,
    which perfbench's tracer wraps, so `presheaf.pullback_checks` counts the
    squares decided: no other function calls `_counted_pullback`."""
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers += [f"{path.stem}.{name}"
                    for name in _enclosing(tree, _calls_counted_pullback)]
    assert callers == ["presheaf.pullback_failure"]


def test_counting_kernel_calls_are_named():
    source = ("def pullback_failure():\n    return _counted_pullback(p, q, f, g)\n"
              "def check():\n    return presheaf._counted_pullback(p, q, f, g)\n"
              "_counted_pullback\n")
    assert _enclosing(ast.parse(source), _calls_counted_pullback) == [
        "pullback_failure", "check"]
