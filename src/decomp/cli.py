"""Command-line surface: nerves, checks, decalage, intervals, Mobius
vectors, coalgebra tables, classification, and the interval registry.

Exit codes: 0 pass, 1 fail, 2 inconclusive or input error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import axioms, incidence
from .formats import ParseError, load, load_smap, save
from .ingest import SpecError, nerve
from .interval import AlgebraicInterval, IntervalError, factorisation_interval
from .presheaf import (
    CapError,
    FinSSet,
    FinXiSet,
    dec_bot,
    dec_top,
    validate,
    validate_map,
)
from .registry import Registry, RegistryError


def _print(report) -> int:
    for line in report.lines():
        print(line)
    return report.exit_code()


def cmd_nerve(args) -> int:
    spec = load(args.input)
    if isinstance(spec, (FinSSet, FinXiSet)):
        print("FAIL nerve note=input-is-already-a-presheaf")
        return 2
    X = nerve(spec, args.cap)
    rep = validate(X)
    if not rep.ok:
        return _print(rep)
    save(X, args.output)
    print(f"PASS nerve degree={X.cap}")
    return 0


def _load_sset(path: str, command: str) -> FinSSet | None:
    """The valid SSET stored at path, or None after printing why it is not
    one.  The verdict stays in the object's memo for later checks."""
    X = load(path)
    if not isinstance(X, FinSSet):
        print(f"FAIL {command} note=input-is-not-an-SSET")
        return None
    rep = validate(X)
    if not rep.ok:
        _print(rep)
        return None
    return X


def cmd_dec(args) -> int:
    X = _load_sset(args.input, "dec")
    if X is None:
        return 2
    D, _counit = (dec_top if args.which == "top" else dec_bot)(X)
    save(D, args.output)
    print(f"PASS dec_{args.which} degree={D.cap}")
    return 0


def cmd_check(args) -> int:
    code = 0
    for path in args.files:
        code = max(code, _check_one(args.what, path))
    return code


def _check_one(what: str, path: str) -> int:
    if what == "culf":
        M = load_smap(path)
        base = validate_map(M)
        if not base.ok:
            return _print(base)
        return _print(axioms.check_map_class(M, "culf"))
    obj = load(path)
    kind, refusal = ((FinXiSet, "check_flanked note=input-is-not-an-XISET")
                     if what == "flanked" else (FinSSet, "check note=input-is-not-an-SSET"))
    if not isinstance(obj, kind):
        print(f"FAIL {refusal}")
        return 2
    base = validate(obj)
    if not base.ok:
        return _print(base)
    if what == "complete":
        ok = axioms.check_complete(obj)
        print(("PASS" if ok else "FAIL") + " check_complete degree=0")
        return 0 if ok else 1
    check = {"flanked": axioms.check_flanked, "segal": axioms.check_segal,
             "decomp": lambda X: axioms.check_decomposition(X, "both"),
             "mobius": axioms.check_mobius}[what]
    return _print(check(obj))


def cmd_interval(args) -> int:
    X = _load_sset(args.input, "interval")
    if X is None:
        return 2
    iv, _embed = factorisation_interval(X, args.arrow)
    save(iv.data, args.output)
    print(f"PASS interval degree={iv.data.cap} witness={args.arrow}")
    return 0


def _fraction(q) -> str:
    return f"{q.numerator}/{q.denominator}"


def cmd_mobius(args) -> int:
    X = _load_sset(args.input, "mobius")
    if X is None:
        return 2
    if args.arrow is not None and args.arrow not in X.levels[1]:
        raise IntervalError(f"{args.arrow!r} is not an arrow of the input")
    mu = incidence.mobius(X)
    for a in sorted(X.levels[1]) if args.arrow is None else [args.arrow]:
        print(f"{a}\t{_fraction(mu[a])}")
    return 0


def cmd_coalg_table(args) -> int:
    X = _load_sset(args.input, "coalg-table")
    if X is None:
        return 2
    table = incidence.comult(X)
    for a in sorted(table.pairs):
        for (l, r), mult in sorted(table.pairs[a].items()):
            print(f"{a}\t{l}\t{r}\t{mult}")
    return 0


def cmd_classify(args) -> int:
    X = _load_sset(args.input, "classify")
    if X is None:
        return 2
    reg = Registry.load(args.registry)
    mapping, rep = incidence.classify(X, reg)
    for a in sorted(mapping):
        print(f"{a}\t{mapping[a]}")
    for line in rep.lines():
        print(line)
    return rep.exit_code()


def cmd_registry(args) -> int:
    if args.action == "add":
        # A damaged registry must stop the command: starting empty would
        # rewrite index.tsv with the new entries only.
        if os.path.exists(os.path.join(args.dir, "index.tsv")):
            reg = Registry.load(args.dir)
        else:
            reg = Registry()
        for path in args.files:
            data = load(path)
            if not isinstance(data, FinXiSet):
                print("FAIL registry-add note=input-is-not-an-XISET")
                return 2
            digest = reg.insert(AlgebraicInterval(data))
            print(f"{digest}\t{reg.entries[digest].name}")
        reg.save(args.dir)
        return 0
    reg = Registry.load(args.dir)
    if args.action == "close":
        before = len(reg.entries)
        reg.close()
        reg.save(args.dir)
        print(f"PASS registry-close note=entries:{before}->{len(reg.entries)}")
        return 0
    if args.action == "list":
        for row in reg.index_rows():
            print(row)
        return 0
    if args.action == "mu":
        mu, rep = incidence.universal_mobius(reg)
        for digest in sorted(reg.entries):
            name = reg.entries[digest].name
            print(f"{digest}\t{name}\t{_fraction(mu[digest])}")
        for line in rep.lines():
            print(line)
        return rep.exit_code()
    raise AssertionError(args.action)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="decomp",
        description="Finite decomposition sets: checks, intervals, "
                    "incidence coalgebras and Mobius inversion.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("nerve", help="build the nerve of a poset/monoid/category")
    q.add_argument("input")
    q.add_argument("--cap", type=int, default=None)
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_nerve)

    q = sub.add_parser("check", help="run an axiom checker")
    q.add_argument("what", choices=["segal", "decomp", "complete",
                                    "flanked", "mobius", "culf"])
    q.add_argument("files", nargs="+")
    q.set_defaults(func=cmd_check)

    q = sub.add_parser("dec", help="lower or upper decalage")
    q.add_argument("which", choices=["top", "bot"])
    q.add_argument("input")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_dec)

    q = sub.add_parser("interval", help="factorisation interval of an arrow")
    q.add_argument("input")
    q.add_argument("--arrow", required=True)
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_interval)

    q = sub.add_parser("mobius", help="Mobius vector of a certified object")
    q.add_argument("input")
    q.add_argument("--arrow", default=None)
    q.set_defaults(func=cmd_mobius)

    q = sub.add_parser("coalg-table", help="comultiplication table as TSV")
    q.add_argument("input")
    q.set_defaults(func=cmd_coalg_table)

    q = sub.add_parser("classify", help="classify arrows into a registry")
    q.add_argument("input")
    q.add_argument("--registry", required=True)
    q.set_defaults(func=cmd_classify)

    q = sub.add_parser("registry", help="manage an interval registry")
    q.add_argument("action", choices=["add", "close", "list", "mu"])
    q.add_argument("dir")
    q.add_argument("files", nargs="*")
    q.set_defaults(func=cmd_registry)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SpecError, CapError, IntervalError, RegistryError,
            incidence.NotCertified, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
