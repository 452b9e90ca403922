"""Command-line interface: evaluate terms, list and check laws, hunt for
counterexamples, and canonicalize serialized values.

Exit codes: 0 success / all laws as declared; 1 law failed or
counterexample found; 2 usage error; 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dsl import _INFIX, Cmp, env_from_json, env_to_json, evaluate, parse, value_names
from .errors import (
    CapExceeded,
    ShapeMismatch,
    TermSyntaxError,
    UnboundVariable,
    UnknownLaw,
)
from .laws import Law, LawReport, Slot, check
from .mrel import MRel
from .registry import law_by_id, registry
from .rel import Rel


def _value_json(v):
    if isinstance(v, bool):
        return v
    return v.to_json()


def _number(kind, ok, wants: str):
    """An argparse type: a number of ``kind`` for which ``ok`` holds."""
    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expects {wants}, not {text!r}")
    return parse


_DENSITY = _number(float, lambda d: 0 <= d <= 1, "a number from 0 to 1")
_COUNT = _number(int, lambda n: n >= 1, "a positive integer")
_SIZES = _number(lambda text: tuple(map(int, text.split(","))),
                 lambda sizes: len(sizes) == 2 and min(sizes) >= 1,
                 "two positive integers joined by a comma")


# What loading a value or an environment file raises on malformed input
# (``json.load`` raises RecursionError on a document nested too deeply);
# a value past a size cap is left to main, which exits 3.
_LOAD_ERRORS = (OSError, ValueError, KeyError, TypeError, IndexError, RecursionError)


def _write(path: str, text: str) -> int:
    """Writes ``text`` to ``path``: exit 0, or 2 if it cannot be written."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2
    return 0


def _cmd_eval(args) -> int:
    try:
        with open(args.env) as fh:
            env = env_from_json(json.load(fh))
    except _LOAD_ERRORS as e:
        print(f"error: cannot load environment: {e}", file=sys.stderr)
        return 2
    value = evaluate(args.expr, env)
    text = json.dumps(_value_json(value), indent=2) + "\n"
    if args.out:
        return _write(args.out, text)
    sys.stdout.write(text)
    return 0


def _cmd_laws(args) -> int:
    for law in registry():
        if args.filter and not law.id.startswith(args.filter):
            continue
        print(f"{law.id:44s} {law.kind:10s} {law.anchor}")
        line = f"    claim: {law.claim}"
        if law.guard:
            line += f"   [given {law.guard}]"
        if law.kind != "theorem":
            line += f"   [expected to {law.expected}]"
        print(line)
    return 0


def _report_lines(rep: LawReport) -> str:
    status = "as declared" if rep.as_declared else "NOT as declared"
    line = (
        f"{rep.law:44s} {rep.verdict:7s} (expected {rep.expected}; {status}; "
        f"mode {rep.mode}; checked {rep.checked}"
    )
    if rep.skipped_by_condition:
        line += f"; {rep.skipped_by_condition} skipped by side condition"
    line += ")"
    if rep.reason:
        line += f"\n    reason: {rep.reason}"
    for cex in rep.counterexamples[:1]:
        line += f"\n    witness: {json.dumps(cex, sort_keys=True)}"
    return line


def _cmd_check(args) -> int:
    kwargs = dict(sizes=args.sizes, seed=args.seed)
    if args.random is not None:
        kwargs["count"] = args.random
    if args.density is not None:
        kwargs["density"] = args.density
    if args.law:
        rep = check(law_by_id(args.law), **kwargs)
        if args.json:
            print(json.dumps(rep.to_json(timing=args.timing), indent=2))
        else:
            print(_report_lines(rep))
        if rep.verdict == "skipped":
            return 3
        return 0 if rep.verdict == "pass" else 1
    reports = [check(law, **kwargs) for law in registry()]
    ok = all(r.as_declared for r in reports)
    if args.json:
        payload = {
            "seed": args.seed,
            "sizes": list(args.sizes or (2, 2)),
            "all_as_declared": ok,
            "reports": [r.to_json(timing=args.timing) for r in reports],
        }
        print(json.dumps(payload, indent=2))
    else:
        for rep in reports:
            if not rep.as_declared or args.verbose:
                print(_report_lines(rep))
        declared = sum(r.as_declared for r in reports)
        print(f"{declared}/{len(reports)} laws behaved as declared")
    return 0 if ok else 1


def _cmd_find_cex(args) -> int:
    claim = f"({args.lhs}) {args.rel} ({args.rhs})"
    names = value_names(Cmp(args.rel, parse(args.lhs), parse(args.rhs)))
    sorts: dict[str, str] = {}
    for piece in args.vars.split(",") if args.vars else ():
        name, _, sort = (part.strip() for part in piece.partition("="))
        if sort not in ("rel", "mrel"):
            print(f"error: bad --vars entry {piece!r}", file=sys.stderr)
            return 2
        if name not in names:
            print(f"error: --vars names {name!r}, which the claim does not use", file=sys.stderr)
            return 2
        if name in sorts:
            print(f"error: --vars names {name!r} twice", file=sys.stderr)
            return 2
        sorts[name] = sort
    slots = tuple(Slot(name, sorts.get(name)) for name in names)
    law = Law(
        id="adhoc",
        kind="neg",
        anchor=claim,
        claim=claim,
        slots=slots,
        expected="fail",
        size_cap=max(args.sizes),
        count=args.random if args.random is not None else 2000,
        density=args.density if args.density is not None else 0.5,
    )
    rep = check(law, sizes=args.sizes, seed=args.seed, collect=1)
    if rep.verdict == "skipped":
        print(f"skipped: {rep.reason}", file=sys.stderr)
        return 3
    if rep.counterexamples:
        print(json.dumps(rep.counterexamples[0], sort_keys=True, indent=2))
        return 1
    print(
        f"no counterexample found ({rep.mode} search, {rep.checked} instances)"
    )
    return 0


def _cmd_convert(args) -> int:
    try:
        with open(args.infile) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        print(f"error: cannot read input: {e}", file=sys.stderr)
        return 2
    try:
        out = _canonicalize(data)
    except _LOAD_ERRORS as e:
        print(f"error: malformed value file: {e}", file=sys.stderr)
        return 2
    return _write(args.outfile, json.dumps(out, indent=2) + "\n")


def _canonicalize(data):
    if isinstance(data, dict) and "pairs" in data:
        return Rel.from_json(data).to_json()
    if isinstance(data, dict) and "rows" in data:
        return MRel.from_json(data).to_json()
    return env_to_json(env_from_json(data))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="multirel",
        description="finite-model workbench for the algebra of binary multirelations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a term against an environment file")
    p.add_argument("--env", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--out")

    p = sub.add_parser("laws", help="list the law registry")
    p.add_argument("--filter", default=None, help="id prefix filter")

    p = sub.add_parser("check", help="check one law or the whole registry")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--law")
    g.add_argument("--all", action="store_true")
    p.add_argument("--sizes", type=_SIZES, default=None, help="carrier sizes, e.g. 2,2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=_COUNT, default=None, help="random tuples per law")
    p.add_argument("--density", type=_DENSITY, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true", help="include elapsed_ms in JSON")
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("find-cex", help="search for a counterexample to lhs REL rhs")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--rel", required=True, choices=_INFIX[0].tokens)  # comparisons
    p.add_argument("--sizes", type=_SIZES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=_COUNT, default=None)
    p.add_argument("--density", type=_DENSITY, default=None)
    p.add_argument("--vars", default=None, help="override sorts, e.g. R=rel,S=mrel")

    p = sub.add_parser("convert", help="canonicalize a value or environment file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)

    args = ap.parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "laws":
            return _cmd_laws(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "find-cex":
            return _cmd_find_cex(args)
        if args.command == "convert":
            return _cmd_convert(args)
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ShapeMismatch, TermSyntaxError, UnboundVariable, UnknownLaw) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
