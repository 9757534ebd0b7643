"""Import hygiene: every name a module of `decomp` imports is used there.

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
