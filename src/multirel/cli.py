"""Command-line interface: evaluate terms, list and check laws, hunt for
counterexamples, and canonicalize serialized values.

Exit codes: 0 success / all laws as declared; 1 law failed or
counterexample found; 2 usage error, or output that cannot be written (an
unwritable ``--out``, a closed stdout, a full disk), with ``error: cannot
write output: ...``; 3 size cap exceeded.  No input ends in a traceback.
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


class _Usage(Exception):
    """A usage error: ``main`` prints it and exits 2."""


class _Skipped(Exception):
    """A search that a cap ended: ``main`` prints its reason and exits 3."""


class _Parser(argparse.ArgumentParser):
    """argparse, whose ``_print_message`` writes every stderr line: its own
    usage errors, and ``main``'s ``error:`` and ``skipped:`` lines.  A
    stream that cannot be written loses the line, and the exit code stands.
    Help that cannot be written to stdout exits 2, as other output does."""

    def _print_message(self, message, file=None):
        file = file or sys.stderr
        try:
            file.write(message)
            file.flush()
        except OSError as e:
            if file is not sys.stderr:
                self.exit(2, f"error: cannot write output: {e}\n")


# What reading a value or an environment file raises on malformed input
# (``json.load`` raises RecursionError on a document nested too deeply);
# a value past a size cap is left to main, which exits 3.
_LOAD_ERRORS = (OSError, ValueError, RecursionError)


def _load(path: str, read, what: tuple[str, str]):
    """``read`` applied to the JSON document at ``path``.  A file that cannot
    be read as JSON is a usage error headed ``what[0]``; a document that
    ``read`` refuses is one headed ``what[1]``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except _LOAD_ERRORS as e:
        raise _Usage(f"{what[0]}: {e}") from None
    try:
        return read(data)
    except _LOAD_ERRORS as e:
        raise _Usage(f"{what[1]}: {e}") from None


def _cmd_eval(args):
    env = _load(args.env, env_from_json, ("cannot load environment",) * 2)
    return 0, json.dumps(_value_json(evaluate(args.expr, env)), indent=2) + "\n"


def _cmd_laws(args):
    text = ""
    for law in registry():
        if args.filter and not law.id.startswith(args.filter):
            continue
        text += f"{law.id:44s} {law.kind:10s} {law.anchor}\n    claim: {law.claim}"
        if law.guard:
            text += f"   [given {law.guard}]"
        if law.kind != "theorem":
            text += f"   [expected to {law.expected}]"
        text += "\n"
    return 0, text


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


def _cmd_check(args):
    laws = [law_by_id(args.law)] if args.law else registry()
    reports = [check(law, sizes=args.sizes, seed=args.seed, count=args.random,
                     density=args.density) for law in laws]
    if args.law:
        rep = reports[0]
        text = (json.dumps(rep.to_json(timing=args.timing), indent=2) if args.json
                else _report_lines(rep))
        return {"pass": 0, "skipped": 3}.get(rep.verdict, 1), text + "\n"
    ok = all(r.as_declared for r in reports)
    if args.json:
        payload = {
            "seed": args.seed,
            "sizes": list(args.sizes),
            "all_as_declared": ok,
            "reports": [r.to_json(timing=args.timing) for r in reports],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "".join(_report_lines(rep) + "\n" for rep in reports
                       if not rep.as_declared or args.verbose)
        text += f"{sum(r.as_declared for r in reports)}/{len(reports)} laws behaved as declared\n"
    return 0 if ok else 1, text


def _cmd_find_cex(args):
    claim = f"({args.lhs}) {args.rel} ({args.rhs})"
    names = value_names(Cmp(args.rel, parse(args.lhs), parse(args.rhs)))
    sorts: dict[str, str] = {}
    for piece in args.vars.split(",") if args.vars else ():
        name, _, sort = (part.strip() for part in piece.partition("="))
        if sort not in ("rel", "mrel"):
            raise _Usage(f"bad --vars entry {piece!r}")
        if name not in names:
            raise _Usage(f"--vars names {name!r}, which the claim does not use")
        if name in sorts:
            raise _Usage(f"--vars names {name!r} twice")
        sorts[name] = sort
    slots = tuple(Slot(name, sorts.get(name)) for name in names)
    law = Law(id="adhoc", kind="neg", anchor=claim, claim=claim, slots=slots,
              expected="fail", size_cap=max(args.sizes), count=2000)
    rep = check(law, sizes=args.sizes, seed=args.seed, count=args.random,
                density=args.density, collect=1)
    if rep.verdict == "skipped":
        raise _Skipped(rep.reason)
    if rep.counterexamples:
        return 1, json.dumps(rep.counterexamples[0], sort_keys=True, indent=2) + "\n"
    return 0, f"no counterexample found ({rep.mode} search, {rep.checked} instances)\n"


def _cmd_convert(args):
    out = _load(args.infile, _canonicalize, ("cannot read input", "malformed value file"))
    return 0, json.dumps(out, indent=2) + "\n"


def _canonicalize(data):
    if isinstance(data, dict) and "pairs" in data:
        return Rel.from_json(data).to_json()
    if isinstance(data, dict) and "rows" in data:
        return MRel.from_json(data).to_json()
    return env_to_json(env_from_json(data))


def _emit(text: str, path: str | None) -> None:
    """Writes ``text`` to the file at ``path``, or to stdout if it is None."""
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as e:
        raise _Usage(f"cannot write output: {e}") from None


def main(argv: list[str] | None = None) -> int:
    """Runs one command.  Each command returns its exit code and its text
    (None for none); only here is output written and an error mapped to
    its ``error:`` line and exit code."""
    ap = _Parser(
        prog="multirel",
        description="finite-model workbench for the algebra of binary multirelations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a term against an environment file")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--env", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--out")

    p = sub.add_parser("laws", help="list the law registry")
    p.set_defaults(run=_cmd_laws)
    p.add_argument("--filter", default=None, help="id prefix filter")

    p = sub.add_parser("check", help="check one law or the whole registry")
    p.set_defaults(run=_cmd_check)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--law")
    g.add_argument("--all", action="store_true")
    p.add_argument("--sizes", type=_SIZES, default=(2, 2), help="carrier sizes (default 2,2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=_COUNT, default=None, help="random tuples per law")
    p.add_argument("--density", type=_DENSITY, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true", help="include elapsed_ms in JSON")
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("find-cex", help="search for a counterexample to lhs REL rhs")
    p.set_defaults(run=_cmd_find_cex)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--rel", required=True, choices=_INFIX[0].tokens)  # comparisons
    p.add_argument("--sizes", type=_SIZES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=_COUNT, default=None)
    p.add_argument("--density", type=_DENSITY, default=None)
    p.add_argument("--vars", default=None, help="override sorts, e.g. R=rel,S=mrel")

    p = sub.add_parser("convert", help="canonicalize a value or environment file")
    p.set_defaults(run=_cmd_convert)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    args = ap.parse_args(argv)
    try:
        code, text = args.run(args)
        if text is not None:
            _emit(text, getattr(args, "out", None))
        return code
    except _Skipped as e:
        code, line = 3, f"skipped: {e}"
    except CapExceeded as e:
        code, line = 3, f"error: {e}"
    except (_Usage, ShapeMismatch, TermSyntaxError, UnboundVariable, UnknownLaw) as e:
        code, line = 2, f"error: {e}"
    ap._print_message(f"{line}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
