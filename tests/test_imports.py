"""Import hygiene: every name a module of `decomp` imports is used there,
every function, class and method is reached from `cli.main` or kept for a
named reason, `src/` stays under its line ceiling,
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


# The definitions of `src/decomp` that no walk from `cli.main` reaches, each
# with the reason it stays in the library.
KEPT_UNREACHED = dict.fromkeys([
    "incidence.verify_inversion",
    "interval.extend_interval",
    "registry.Fragment",
    "registry.build_fragment",
    "registry.fragment_square_report",
], "perfbench binds it until ROADMAP item 1a")

# `wc -l src/decomp/*.py` may not exceed this; a change that adds lines
# raises it and says why.
SRC_LINE_CEILING = 3390


def _read_names(node) -> set:
    """Every name node loads and every attribute it reads, at any depth."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            or isinstance(sub, ast.Attribute)}


def _unreached(sources: dict, root: str = "cli.main") -> list:
    """The definitions in sources ({module: text}) that a walk by name from
    root does not reach: module.name of a top-level function or class,
    module.class.name of a method.  A reached definition reaches every
    definition, in any module, whose name it loads or reads as an
    attribute; imports and strings read nothing.  A class's bases,
    decorators and body statements other than its methods go with the
    class, and each method is reached on its own.  Module-level statements
    and dunder methods, which Python runs unasked, read as root does."""
    defs, starts = {}, []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            if isinstance(top, ast.ClassDef):
                methods = [n for n in top.body if isinstance(n, ast.FunctionDef)]
                defs[f"{module}.{top.name}"] = (top.name, [
                    *top.bases, *top.keywords, *top.decorator_list,
                    *(n for n in top.body if n not in methods)])
                defs.update((f"{module}.{top.name}.{m.name}", (m.name, [m])) for m in methods)
            elif isinstance(top, ast.FunctionDef):
                defs[f"{module}.{top.name}"] = (top.name, [top])
            else:
                starts.append(top)
    by_name: dict = {}
    for qualified, (name, _) in defs.items():
        by_name.setdefault(name, []).append(qualified)
    reached = {q for q, (name, _) in defs.items()
               if q == root or name.startswith("__") and name.endswith("__")}
    todo = starts + [node for q in reached for node in defs[q][1]]
    seen: set = set()
    while todo:
        for name in _read_names(todo.pop()) - seen:
            seen.add(name)
            for qualified in set(by_name.get(name, ())) - reached:
                reached.add(qualified)
                todo += defs[qualified][1]
    return sorted(set(defs) - reached)


def test_every_definition_is_reached_from_main_or_kept_for_a_reason():
    """The library is what a command runs: a function, class or method that
    no walk from `cli.main` reaches belongs with the tests that run it,
    unless KEPT_UNREACHED gives its reason, and a kept name that a command
    comes to reach must leave the list."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreached(sources) == sorted(KEPT_UNREACHED)


def test_unreached_definitions_are_named():
    """An unreached method, a name read only by an unreached function, a
    name only imported or only in a string: unreached.  A module-level
    statement, a dunder method and a class body reach what they read."""
    sources = {
        "cli": ("from .b import helper, imported_only\n"
                "def main():\n    return Store().put(helper())\n"
                "def lonely():\n    return only_lonely_reads()\n"),
        "b": ("def helper():\n    return 'in_a_string'\n"
              "def only_lonely_reads():\n    return 1\n"
              "def imported_only():\n    return 2\n"
              "def in_a_string():\n    return 3\n"
              "class Store:\n    size = field_default()\n"
              "    def __init__(self):\n        self.items = set_up()\n"
              "    def put(self, x):\n        return x\n"
              "    def unused(self):\n        return 4\n"
              "def field_default():\n    return 5\n"
              "def set_up():\n    return []\n"
              "def at_import():\n    return 6\n"
              "TABLE = at_import()\n"),
    }
    assert _unreached(sources) == ["b.Store.unused", "b.imported_only", "b.in_a_string",
                                   "b.only_lonely_reads", "cli.lonely"]


def test_src_lines_stay_under_the_ceiling():
    """`src/` should shrink, not grow: its lines, counted as `wc -l` counts
    them, stay at or under SRC_LINE_CEILING."""
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= SRC_LINE_CEILING


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
