"""Law checking engine: run registry entries over generated instances,
shrink counterexamples, and report deterministically.

A law's claim (and optional guard) are boolean terms over named slots;
slots are filled from the instance generators, honoring per-slot property
requirements through the constructive generators where available.  Reports
are canonical: given the same law, sizes and seed, two runs produce
byte-identical JSON.  ``_plan`` settles how a law is swept before its
first tuple, fast sweeps and caps met on the way included.  A fast sweep
runs the first slot over orbit representatives, the last slot a row at a
time, or both; it only counts, and where it meets a failing tuple or a
cap, the plain per-tuple sweep runs, which alone shrinks and collects
witnesses and reports caps.  So every report is the plain sweep's.
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
    ``roles_given`` tells whether a slot of the law as written gave a role.

    Sub-terms over values of small shapes look their values up in operator
    tables over value ids, and sub-terms that read no slot are evaluated
    as they are typed (see ``dsl._compile``).  The tables are this object's, shared by
    claim, guard and every carrier size, so they last one check, shrinking
    included.  A law with no slots keeps nothing and has no tables: it is
    evaluated once."""

    def __init__(self, law: Law):
        self.claim = parse(law.claim)
        self.guard = parse(law.guard) if law.guard else None
        self.roles_given = any(s.src or s.dst for s in law.slots)
        if law.kind != "regression":  # a pinned law has no slots and no roles
            given = [(s.name, s.sort, s.src, s.dst) for s in law.slots]
            roles, ends = infer_slots((self.claim, self.guard), given, law.roles)
            slots = tuple(Slot(s.name, *end, s.needs) for s, end in zip(law.slots, ends))
            law = replace(law, slots=slots, roles=roles)
        self.law = law
        self.typed: dict[tuple[int, ...], tuple | Exception] = {}
        self.tables: dict | None = {} if law.slots else None

    def at(self, carriers: Mapping[str, Carrier]) -> tuple[Typed, Typed | None]:
        """Raises ShapeMismatch where the sizes make the claim ill-shaped, and
        CapExceeded where a constant of claim or guard is too large to build;
        a kept error is raised as a fresh copy, so that no traceback grows."""
        key = tuple(carriers[r].size for r in self.law.roles)
        if key not in self.typed:
            # kept if typing raises ShapeMismatch
            self.typed[key] = ShapeMismatch(f"{self.law.id} is ill-shaped at sizes {key}")
            types = {r: c.size for r, c in carriers.items()}
            types.update((s.name, Sig(s.sort, types[s.src], types[s.dst])) for s in self.law.slots)
            try:
                guard = self.guard and self.boolean("guard", types, self.tables)
                self.typed[key] = (self.boolean("claim", types, self.tables), guard)
            except CapExceeded as e:  # a constant too large to build
                self.typed[key] = e.with_traceback(None)
        if isinstance(self.typed[key], Exception):
            raise copy.copy(self.typed[key])
        return self.typed[key]

    def boolean(self, what: str, types: Mapping, tables: dict | None = None) -> Typed:
        """The "claim" or the "guard", typed; raises ShapeMismatch unless
        it is a boolean."""
        typed = _typecheck(getattr(self, what), types, tables)
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
    base_seed = law_seed(seed, law.id)
    terms = _Terms(law)
    law = terms.law
    resolved = _resolve_sizes(law, sizes)
    density = law.density if density is None else density

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
        claim = terms.boolean("claim", env_types(env))
        try:
            ok = eval_term(claim, env)
        except CapExceeded as e:
            return finish("pinned", 0, 0, "skipped", str(e), [])
        cex = [] if ok else [_pinned_json(law.pinned or {})]
        return finish("pinned", 1, 0, "pass" if ok else "fail", None, cex)

    carriers = {role: Carrier(resolved[role]) for role in law.roles}
    mode, args, group, row, capped = _plan(terms, resolved, carriers)
    if capped is not None:
        return finish(mode, 0, 0, "skipped", capped, [])
    n_random = count if count is not None else law.count

    # NEG entries hunt for a witness: in random mode they sweep several
    # densities (deterministically) before reporting none found
    hunt = mode == "random" and law.kind == "neg"
    densities = [density] + [d for d in (0.15, 0.5, 0.75) if hunt and d != density]

    def tuples(group: list | None, slots: int) -> Iterator[tuple[int, tuple]]:
        """Each tuple of the first ``slots`` slots to check and the number of
        tuples it stands for: with a ``group``, the first slot runs over the
        values first in their orbits under it, each standing for its orbit
        (see ``_plan``)."""
        if mode == "exhaustive" and group is None:
            yield from zip(repeat(1), product(*(instances(*a) for a in args[:slots])))
        elif mode == "exhaustive":
            others = [tuple(instances(*a)) for a in args[1:slots]]
            for first, weight in _orbits(instances(*args[0]), group):
                yield from zip(repeat(weight), product((first,), *others))
        else:
            for phase, d in enumerate(densities):
                streams = [
                    instances(*_stream_args(
                        s, resolved, "random", mix64(base_seed ^ (1000 * phase + i + 1)),
                        n_random, d,
                    ))
                    for i, s in enumerate(law.slots)
                ]
                yield from zip(repeat(1), zip(*streams))

    claim, guard = terms.at(carriers)
    names = [s.name for s in law.slots]

    def sweep(group: list | None, rows: bytes | None) -> LawReport | None:
        """The report of a check whose first slot runs over ``group``'s
        orbits, or over every value without one, and whose last slot runs
        over ``rows`` at once where they are given.  Such a fast sweep only
        counts: it gives None where a tuple fails or a cap is hit, and the
        plain sweep, with neither, reports."""
        fast = bool(group or rows)
        env = {}
        checked = 0
        skipped = 0
        failures: list[dict] = []
        try:
            for weight, tup in tuples(group, len(names) - bool(rows)):
                env.update(zip(names, tup))
                if rows:
                    env[names[-1]] = rows
                    held, ok = _cells(guard, env, len(rows)), _cells(claim, env, len(rows))
                    if any(map(operator.gt, held, ok)):  # the claim fails where the guard holds
                        return None
                    taken = held.count(1)
                    checked += weight * taken
                    skipped += weight * (len(rows) - taken)
                elif guard is not None and not eval_term(guard, env):
                    skipped += weight
                else:
                    checked += weight
                    if not eval_term(claim, env):
                        if fast:
                            return None
                        small = shrink(law, carriers, dict(zip(names, tup)), terms)
                        failures.append(_counterexample_json(*small))
                        if len(failures) >= collect:
                            break
        except CapExceeded as e:
            if fast:
                return None
            return finish(mode, checked, skipped, "skipped", str(e), [])
        failures = sorted({_stable_key(c): c for c in failures}.values(), key=_stable_key)
        verdict = "fail" if failures else "pass"
        return finish(mode, checked, skipped, verdict, None, failures)

    return ((group or row) and sweep(group, row)) or sweep(None, None)


def _cells(typed: Typed | None, env: dict, n: int) -> bytes:
    """``typed``'s booleans over a row of ``n`` places, one byte each (see
    ``dsl.Typed``); all true for no guard."""
    held = 1 if typed is None else typed.rows(env)
    return held if type(held) is bytes else bytes([held]) * n


_Plan = namedtuple("_Plan", "mode args group row capped")


def _plan(terms: _Terms, sizes: dict[str, int], carriers: dict[str, Carrier]) -> _Plan:
    """How ``check`` sweeps ``terms.law`` at ``sizes``.  The ``mode`` is
    "exhaustive" where the slots' streams, from their ``(kind, spec)`` in
    ``args``, have at most BUDGET tuples, else "random".  ``capped`` is the
    message of a cap met here, by a stream that cannot be sized or a
    constant too large to build (see ``_Terms.at``), under the mode chosen
    by then.  Raises ShapeMismatch where the claim is ill-shaped.

    A fast sweep runs only for an exhaustive law expected to pass, so that
    one which fails is the rare case.  Its last slot runs by ``row``, the
    ids of that slot's whole stream, where claim and guard evaluate over
    rows (see ``dsl.Typed``) and its values are of a small shape.  Its first
    slot runs over the orbits of ``group``, the permutations of that slot's
    roles (see ``generate._group``), only where all of these hold, each of
    them observable from the law:

    - it has two or more slots, and the other slots have at least as many
      tuples as the group has elements, so that finding the orbits costs
      no more than the sweep they save;
    - no slot of the law as written gives a role (``_Terms.roles_given``),
      so ``dsl.infer_slots`` named every role, and claim and guard type
      with each role a carrier of its own: slots given roles may type only
      because two roles have one size, as ``R * S`` does over two slots
      X -> Y;
    - no slot needs ``test`` between two roles, which a permutation of one
      of them would not keep.

    Every operation and constant of the term language is defined from the
    elements' sets alone, so then claim and guard give the same verdict on
    a tuple and on its image under the group; and a permutation maps each
    slot's stream onto itself, since its filters are row tests.  So each
    first value's tuples count as often as the values of its orbit."""
    law = terms.law
    args = [_stream_args(s, sizes) for s in law.slots]
    mode = "exhaustive"
    try:
        spaces = [space_size(*a) for a in args]
        mode = "exhaustive" if prod(spaces) <= BUDGET else "random"
        claim, guard = terms.at(carriers)
    except CapExceeded as e:
        return _Plan(mode, args, None, None, str(e))
    if mode == "random" or law.expected != "pass":
        return _Plan(mode, args, None, None, None)
    row = group = None
    if claim.rows and (guard is None or guard.rows):
        inner = list(instances(*args[-1]))
        row = _id_row(inner) if inner else None
    if len(law.slots) >= 2 and not terms.roles_given and not any(
            "test" in s.needs and s.src != s.dst for s in law.slots):
        first = law.slots[0]
        group = _group((sizes[first.src], sizes[first.dst]), first.src == first.dst)
        group = group if len(group) <= prod(spaces[1:]) else None
    return _Plan(mode, args, group, row, None)


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
