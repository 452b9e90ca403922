"""Law checking engine: run registry entries over generated instances,
shrink counterexamples, and report deterministically.

A law's claim (and optional guard) are boolean terms over named slots;
slots are filled from the instance generators, honoring per-slot property
requirements through the constructive generators where available.  Reports
are canonical: given the same law, sizes and seed, two runs produce
byte-identical JSON.  ``_plan`` settles how a law is swept before its
first tuple: it returns the one sweep that ``check`` runs, with its
streams and any cap met on the way, and that sweep shrinks and collects
its own witnesses and reports its own caps.  A sweep is plain, tuple by
tuple, or fast: it runs the first slot over orbit representatives, the
last slot a row at a time, or both; or, where claim and guard read a role
of the slots' source row by row, it is factored: the law is swept at one
element of that role, and its counts are raised to the power of the
role's size.
"""

from __future__ import annotations

import copy
import operator
import time
from dataclasses import dataclass, replace
from itertools import product, repeat
from math import prod
from collections import namedtuple
from typing import Iterator, Mapping, Sequence

from .dsl import (
    Sig, Typed, _id_row, _typecheck, env_from_json, env_types, eval_term, infer_slots, parse,
)
from .errors import CapExceeded, ShapeMismatch, UnknownLaw
from .generate import GenSpec, _group, _orbits, instances, mix64, space_size
from .mrel import MRel
from .rel import Carrier, Rel, bits

BUDGET = 1 << 16  # exhaustive tuple budget before degrading to random


@dataclass(frozen=True)
class Slot:
    """One generated operand: its sort, carrier roles and required flags.

    A sort, src or dst left None is inferred from the law's claim and guard
    when the law is checked (see ``dsl.infer_slots``); one that is given is
    kept."""

    name: str
    sort: str | None = None  # "rel" | "mrel"
    src: str | None = None  # carrier role name
    dst: str | None = None
    needs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Law:
    """An executable property with a stable id.

    ``kind`` is "theorem" (expected to hold), "neg" (expected to fail on
    some generated instance) or "regression" (evaluated on a pinned
    environment).  ``anchor`` states the checked result symbolically.
    ``roles`` names the carrier roles that neither the claim nor a slot
    names, in order of first use over the slots; X, Y, Z, W, ... name the
    rest.
    """

    id: str
    kind: str
    anchor: str
    claim: str
    slots: tuple[Slot, ...] = ()
    roles: tuple[str, ...] = ("X", "Y")
    guard: str | None = None
    pinned: dict | None = None
    expected: str = "pass"
    size_cap: int = 3
    count: int = 200  # random tuples when degraded
    density: float = 0.5
    note: str = ""


class _Terms:
    """A law's claim and guard, parsed once and typed once per carrier sizes,
    and the law with its slots' sorts and roles inferred from them (``law``).
    ``roles_given`` tells whether a slot of the law as written gave a role,
    and ``local`` names the law's row-local role (see ``dsl._row_local``),
    or is None.

    Sub-terms over values of small shapes look their values up in operator
    tables over value ids, and sub-terms that read no slot are evaluated
    as they are typed (see ``dsl._compile``), by one rule for every law,
    slot-less and pinned ones included.  The tables are this object's,
    shared by claim, guard and every carrier size, so they last one check,
    shrinking included."""

    def __init__(self, law: Law):
        self.claim = parse(law.claim)
        self.guard = parse(law.guard) if law.guard else None
        self.roles_given = any(s.src or s.dst for s in law.slots)
        self.local = None
        if law.kind != "regression":  # a pinned law has no slots and no roles
            given = [(s.name, s.sort, s.src, s.dst) for s in law.slots]
            roles, ends, self.local = infer_slots((self.claim, self.guard), given, law.roles)
            slots = tuple(Slot(s.name, *end, s.needs) for s, end in zip(law.slots, ends))
            law = replace(law, slots=slots, roles=roles)
        self.law = law
        self.typed: dict[tuple[int, ...], tuple | Exception] = {}
        self.tables: dict = {}

    def at(self, carriers: Mapping[str, Carrier]) -> tuple[Typed, Typed | None]:
        """Raises ShapeMismatch where the sizes make the claim ill-shaped, and
        CapExceeded where a constant of claim or guard is too large to build;
        a kept error is raised as a fresh copy, so that no traceback grows."""
        key = tuple(carriers[r].size for r in self.law.roles)
        if key not in self.typed:
            types = {r: c.size for r, c in carriers.items()}
            types.update((s.name, Sig(s.sort, types[s.src], types[s.dst])) for s in self.law.slots)
            try:
                guard = self.guard and self.boolean("guard", types)
                self.typed[key] = (self.boolean("claim", types), guard)
            except (ShapeMismatch, CapExceeded) as e:
                self.typed[key] = e.with_traceback(None)
        if isinstance(self.typed[key], Exception):
            raise copy.copy(self.typed[key])
        return self.typed[key]

    def boolean(self, what: str, types: Mapping) -> Typed:
        """The "claim" or the "guard", typed with this object's tables (see
        ``at``); raises ShapeMismatch unless it is a boolean."""
        typed = _typecheck(getattr(self, what), types, self.tables)
        if typed.sort != "bool":
            text = f"the {what} {getattr(self.law, what)}"
            raise ShapeMismatch(f"{self.law.id}: {text} is a {typed.sort}, not a boolean")
        return typed


@dataclass
class LawReport:
    law: str
    kind: str
    mode: str
    sizes: dict[str, int]
    checked: int
    skipped_by_condition: int
    verdict: str  # pass | fail | skipped
    reason: str | None
    expected: str
    as_declared: bool
    counterexamples: list[dict]
    seed: int
    elapsed_ms: int

    def to_json(self, timing: bool = False) -> dict:
        out = dict(vars(self), sizes=dict(sorted(self.sizes.items())))
        if not timing:
            del out["elapsed_ms"]
        return out


def _fnv1a(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h ^= byte
        h = (h * 0x100000001B3) & ((1 << 64) - 1)
    return h


def law_seed(global_seed: int, law_id: str) -> int:
    return mix64(global_seed ^ _fnv1a(law_id))


def _counterexample_json(carriers: dict[str, Carrier], values: dict[str, Rel | MRel]) -> dict:
    return {
        "carriers": {k: carriers[k].size for k in sorted(carriers)},
        "slots": {k: values[k].to_json() for k in sorted(values)},
    }


def _resolve_sizes(law: Law, sizes: Sequence[int] | None) -> dict[str, int]:
    out = {}
    for i, role in enumerate(law.roles):
        if sizes is None:
            v = 2
        elif i == 0:
            v = sizes[0]
        else:
            v = sizes[1] if len(sizes) > 1 else sizes[0]
        out[role] = max(1, min(v, law.size_cap))
    return out


def _stream_args(slot: Slot, sizes: dict[str, int], mode="exhaustive", seed=0, count=0,
                 density=0.5) -> tuple[str, GenSpec]:
    """A slot's ``(kind, spec)``, as ``instances`` and ``space_size`` take them."""
    shape = (sizes[slot.src], sizes[slot.dst])
    return slot.sort, GenSpec(shape, mode, count, density, seed, frozenset(slot.needs))


def check(
    law: Law,
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    count: int | None = None,
    density: float | None = None,
    collect: int = 3,
) -> LawReport:
    """Evaluate one law and report; never raises for cap overruns."""
    started = time.monotonic()
    terms = _Terms(law)
    law = terms.law
    resolved = _resolve_sizes(law, sizes)

    def finish(mode, checked, skipped, verdict, reason, cex):
        return LawReport(
            law=law.id,
            kind=law.kind,
            mode=mode,
            sizes=resolved,
            checked=checked,
            skipped_by_condition=skipped,
            verdict=verdict,
            reason=reason,
            expected=law.expected,
            as_declared=verdict == law.expected,
            counterexamples=cex,
            seed=seed,
            elapsed_ms=int((time.monotonic() - started) * 1000),
        )

    if law.kind == "regression":
        env = env_from_json(law.pinned or {})
        resolved = {name: value.size for name, value in env.items() if isinstance(value, Carrier)}
        try:  # typing builds the claim's constants
            ok = eval_term(terms.boolean("claim", env_types(env)), env)
        except CapExceeded as e:
            return finish("pinned", 0, 0, "skipped", str(e), [])
        cex = [] if ok else [_pinned_json(law.pinned or {})]
        return finish("pinned", 1, 0, "pass" if ok else "fail", None, cex)

    run = _plan(terms, resolved, law_seed(seed, law.id), law.count if count is None else count,
                law.density if density is None else density)
    if run.capped is not None:
        return finish(run.mode, 0, 0, "skipped", run.capped, [])
    # The report up to the ``collect``-th witness or the first cap.  A row
    # sweep counts a row whose claim holds wherever its guard does, and
    # checks any other place by place.  Each count, of g of c tuples
    # checked, is reported to ``run.power``: ``checked`` g^power and
    # ``skipped_by_condition`` c^power - g^power.
    names = [s.name for s in law.slots]
    rows, power = run.row, run.power
    env = {}
    checked = skipped = 0
    failures: list[dict] = []
    capped = None
    try:
        claim, guard = terms.at(run.carriers)
        for weight, tup in _tuples(run):
            tups = (tup,)
            if rows:
                env.update(zip(names, tup))
                env[names[-1]] = rows
                held, ok = _cells(guard, env, len(rows)), _cells(claim, env, len(rows))
                if any(map(operator.gt, held, ok)):  # the claim fails where the guard holds
                    tups = [(*tup, last) for last in instances(*run.phases[0][-1])]
                else:
                    checked += weight * held.count(1)
                    skipped += weight * held.count(0)
                    continue
            for tup in tups:
                env.update(zip(names, tup))
                if guard is not None and not eval_term(guard, env):
                    skipped += weight
                    continue
                checked += weight
                if not eval_term(claim, env):
                    small = shrink(law, run.carriers, dict(zip(names, tup)), terms)
                    failures.append(_counterexample_json(*small))
                    if len(failures) >= collect:
                        break
            if len(failures) >= collect:
                break
    except CapExceeded as e:
        capped, failures = str(e), []
    failures = sorted({_stable_key(c): c for c in failures}.values(), key=_stable_key)
    verdict = "skipped" if capped is not None else "fail" if failures else "pass"
    checked, skipped = checked**power, (checked + skipped)**power - checked**power
    return finish(run.mode, checked, skipped, verdict, capped, failures)


def _cells(typed: Typed | None, env: dict, n: int) -> bytes:
    """``typed``'s booleans over a row of ``n`` places, one byte each (see
    ``dsl.Typed``); all true for no guard."""
    held = 1 if typed is None else typed.rows(env)
    return held if type(held) is bytes else bytes([held]) * n


# A sweep: its ``mode``, the message of a cap met in planning or None,
# ``phases``, lists of each slot's ``(kind, spec)``, the ``carriers`` it runs
# at, the symmetry ``group`` of its first slot and the id ``row`` of its last
# (see ``_plan``), and the ``power`` its counts are raised to.
_Sweep = namedtuple("_Sweep", "mode capped phases carriers group row power",
                    defaults=(None, None, 1))


def _tuples(run: _Sweep) -> Iterator[tuple[int, tuple]]:
    """Each tuple of ``run``'s slots to check, the last one left out where
    it runs by ``run.row``, and the number of tuples it stands for, phase
    by phase: random streams zipped, exhaustive ones by their product.  With
    a ``run.group``, the first slot runs over the values first in their
    orbits under it, each standing for its orbit."""
    for phase in run.phases:
        args = phase[:-1] if run.row else phase
        if args and args[0][1].mode == "random":
            yield from zip(repeat(1), zip(*(instances(*a) for a in args)))
        elif run.group is None:
            yield from zip(repeat(1), product(*(instances(*a) for a in args)))
        else:
            others = [tuple(instances(*a)) for a in args[1:]]
            for first, weight in _orbits(instances(*args[0]), run.group):
                yield from zip(repeat(weight), product((first,), *others))


def _plan(terms: _Terms, sizes: dict[str, int], seed: int, count: int, density: float) -> _Sweep:
    """The one sweep that ``check`` runs of ``terms.law`` at ``sizes``.  It
    is fast where it has a reduction (an orbit ``group``, an id ``row`` or
    a ``power`` over 1), else plain: the per-tuple sweep.  Its ``mode`` is
    "exhaustive" where the slots' streams have at most BUDGET tuples, swept
    as one phase.  Else it is "random": a phase of ``count`` tuples at
    ``density``, slot i of phase p drawn from the sub-seed
    ``mix64(seed ^ (1000 * p + i + 1))``; a NEG entry hunts for a witness
    in one more phase at each of 0.15, 0.5 and 0.75 that is not
    ``density``.  Its ``capped`` is the message of a cap met here, by a
    stream that cannot be sized or a constant too large to build (see
    ``_Terms.at``), under the mode chosen by then.  Raises ShapeMismatch
    where the claim is ill-shaped.

    A fast sweep runs only for an exhaustive law expected to pass: a law
    expected to fail stops at its last witness, which the per-tuple sweep
    meets without first filling the tables of a whole row.  Its last slot,
    where it has one, runs by ``row``, the ids of that slot's whole stream,
    where claim and guard evaluate over rows (see ``dsl.Typed``) and its
    values are of a small shape.  Two reductions need the law's roles to
    be its own: no slot of the law as written gives a role
    (``_Terms.roles_given``), so ``dsl.infer_slots`` named every role and
    claim and guard type with each role a carrier of its own (slots given
    roles may type only because two roles have one size, as ``R * S`` does
    over two slots X -> Y); and no slot needs ``test``, which reads the row
    index, between two roles.

    - Where the law has a row-local role X (``_Terms.local``) of n > 1
      elements, it is factored: the sweep is its own plan's at |X| = 1
      with ``power`` n, so that its terms are never typed at n.  Each
      slot's stream at n is the product of n copies of its stream at 1, as
      its filters are row tests, and claim and guard hold on a tuple
      exactly when they hold on each row.  So where g of c tuples pass the
      guard at 1, g^n of c^n do at n, and a row value u that fails gives
      the failing tuple (u, ..., u): the sweep reports u, shrunk at 1.
    - Otherwise the first slot runs over the orbits of ``group``, the
      permutations of that slot's roles (see ``generate._group``), where the
      law has two or more slots.  Every operation and constant of the term
      language is defined from the elements' sets alone, so claim and guard
      give the same verdict on a tuple and on its image under the group;
      and a permutation maps each slot's stream onto itself, since its
      filters are row tests.  So each first value's tuples count as often
      as the values of its orbit, and the first witness is the plain
      sweep's: the first value with a failing tuple is first in its orbit."""
    law = terms.law
    carriers = {role: Carrier(n) for role, n in sizes.items()}
    args = [_stream_args(s, sizes) for s in law.slots]
    run = _Sweep("exhaustive", None, [args], carriers)
    try:
        spaces = [space_size(*a) for a in args]
        if prod(spaces) > BUDGET:
            hunt = [d for d in (0.15, 0.5, 0.75) if law.kind == "neg" and d != density]
            run = run._replace(mode="random", phases=[
                [_stream_args(s, sizes, "random", mix64(seed ^ (1000 * p + i + 1)), count, d)
                 for i, s in enumerate(law.slots)] for p, d in enumerate([density, *hunt])])
        eligible = run.mode == "exhaustive" and law.expected == "pass"
        own = eligible and not terms.roles_given and not any(
            "test" in s.needs and s.src != s.dst for s in law.slots)
        if own and sizes.get(terms.local, 1) > 1:
            one = _plan(terms, {**sizes, terms.local: 1}, seed, count, density)
            return one._replace(power=sizes[terms.local])
        claim, guard = terms.at(carriers)
    except CapExceeded as e:
        return run._replace(capped=str(e))
    if not eligible:
        return run
    row = group = None
    if args and claim.rows and (guard is None or guard.rows):
        inner = list(instances(*args[-1]))
        row = _id_row(inner) if inner else None
    if len(law.slots) >= 2 and own:
        first = law.slots[0]
        group = _group((sizes[first.src], sizes[first.dst]), first.src == first.dst)
    return run._replace(group=group, row=row)


def _stable_key(cex: dict) -> str:
    import json

    return json.dumps(cex, sort_keys=True)


def _pinned_json(pinned: dict) -> dict:
    out = {"carriers": dict(pinned.get("carriers") or {}), "slots": {}}
    for name, data in (pinned.get("rels") or {}).items():
        out["slots"][name] = data
    for name, data in (pinned.get("mrels") or {}).items():
        out["slots"][name] = data
    return out


# ---------------------------------------------------------------------------
# Shrinking


def _still_fails(law: Law, terms: _Terms, carriers: dict[str, Carrier], values: dict) -> bool:
    try:
        if not all(values[s.name].has_flags(s.needs) for s in law.slots if s.needs):
            return False
        claim, guard = terms.at(carriers)
        if guard is not None and not eval_term(guard, values):
            return False
        return not eval_term(claim, values)
    except (ShapeMismatch, CapExceeded):
        return False


def _smaller(law: Law, carriers: dict[str, Carrier], values: dict) -> Iterator[tuple[dict, dict]]:
    """Every one-step reduction ``(carriers, values)`` of an instance, in
    the order the shrinker tries them: drop one pair; clear one bit of a
    multirelation's mask, low bit first, unless the smaller mask is already
    in its row; drop the top element of a carrier role that no pair uses.
    Each candidate edits the rows of a valid value, so none is validated."""
    for slot in law.slots:
        v = values[slot.name]
        for a, x in v.pairs():  # x is an element of a relation's row, or a mask
            row = v.rows[a]
            row = row & ~(1 << x) if isinstance(v, Rel) else tuple(m for m in row if m != x)
            yield carriers, {**values, slot.name: _with_row(v, a, row)}
    for slot in law.slots:
        v = values[slot.name]
        if not isinstance(v, MRel):
            continue
        for a, m in v.pairs():
            row = v.rows[a]
            for b in bits(m):
                smaller = m & ~(1 << b)
                if smaller not in row:
                    edited = tuple(sorted(smaller if x == m else x for x in row))
                    yield carriers, {**values, slot.name: _with_row(v, a, edited)}
    for role in law.roles:
        size = carriers[role].size - 1
        if size < 1:
            continue
        fewer = {**carriers, role: Carrier(size)}
        cand = {}
        for slot in law.slots:
            v, src, dst = values[slot.name], fewer[slot.src], fewer[slot.dst]
            rows = v.rows[: src.size]
            # a relation's rows, or each row's largest mask, must fit in dst
            ends = rows if isinstance(v, Rel) else [row[-1] for row in rows if row]
            if any(v.rows[src.size :]) or any(x >> dst.size for x in ends):
                break
            cand[slot.name] = v._trusted(src, dst, rows)
        else:
            yield fewer, cand


def _with_row(v: Rel | MRel, a: int, row) -> Rel | MRel:
    return v._trusted(v.src, v.dst, v.rows[:a] + (row,) + v.rows[a + 1 :])


def shrink(
    law: Law, carriers: dict[str, Carrier], values: dict, terms: _Terms | None = None
) -> tuple[dict[str, Carrier], dict]:
    """Greedy reduction: move to the first of ``_smaller``'s candidates that
    still fails the law, and start again from there until none does.
    ``terms`` passes on a check's parsed and typed claim and guard."""
    terms = terms or _Terms(law)
    law = terms.law
    carriers, values = dict(carriers), dict(values)
    while True:
        for cand in _smaller(law, carriers, values):
            if _still_fails(law, terms, *cand):
                carriers, values = cand
                break
        else:
            return carriers, values
