"""Operator tables over value ids (``dsl._table``).

Where a law is checked, each term node whose operands and value are of
small shapes looks its value up by operand ids instead of calling the
kernel.  These tests hold the table path to direct kernel calls, for every
operation at every small shape it types at, and check that the tables live
for one check only."""

from __future__ import annotations

import gc
import random
import sys
from array import array
from itertools import product

import pytest

from multirel import GenSpec, check, instances, mrel, peleg
from multirel import laws as laws_module
from multirel.dsl import _LEVEL, _OPS, Pw, Sig, _typecheck, parse
from multirel.laws import Law, Slot
from multirel.mrel import mrel_to_rel, rel_to_mrel
from multirel.registry import law_by_id
from multirel.rel import Rel, pow_carrier
from conftest import C

SIZES = (1, 2)
ALL_PAIRS = 4096  # binary operations see every pair up to this many
SOME_PAIRS = 2000  # and this many seeded pairs beyond


def _text(name: str, arity: int) -> str:
    if name == "^":
        return "R^"
    if name == "-":
        return "-R"
    if name in _LEVEL:
        return f"R {name} S"
    return f"{name}(R)" if arity == 1 else f"{name}(R, S)"


def _cells(sort: str, src: int, dst: int) -> int:
    return src * (1 << dst if sort == "mrel" else dst)


def _signatures():
    """``(name, impl, operand sorts, operand sizes)`` for every operation
    and every assignment of sizes 1 and 2 to its letters at which its
    operands and value are of small shapes."""
    for name, spec in sorted(_OPS.items()):
        letters = sorted({tok[-1] for op in spec.operands for tok in op[1:]} | set(spec.letters))
        impls = spec.impl if isinstance(spec.impl, tuple) else (spec.impl,)
        for as_mrel, impl in enumerate(impls):
            if len(impls) == 2:
                sorts = ("mrel" if as_mrel else "rel",) * len(spec.views)
            else:
                sorts = tuple("mrel" if v == "m" else "rel" for v in spec.views)
            for sizes in product(SIZES, repeat=len(letters)):
                size = dict(zip(letters, sizes))
                ends = [(size[s], size[d]) for _, s, d in spec.operands]
                small = all(_cells(so, *e) <= 8 for so, e in zip(sorts, ends))
                if spec.sort != "bool":
                    src, dst = (_token_size(t, size) for t in spec.result)
                    sort = sorts[0] if spec.sort == "same" else spec.sort
                    small = small and _cells(sort, src, dst) <= 8
                if small:
                    yield name, impl, sorts, ends


def _token_size(token: str, size: dict) -> int:
    n = size[token[-1]]
    for _ in token[:-1]:
        n = 1 << n
    return n


SIGNATURES = list(_signatures())


def _values(sort: str, shape: tuple[int, int]) -> list:
    return list(instances(sort, GenSpec(shape)))


def _operand_tuples(pools: list[list], seed: int):
    if len(pools) == 1:
        return [(v,) for v in pools[0]]
    if len(pools[0]) * len(pools[1]) <= ALL_PAIRS:
        return list(product(*pools))
    rng = random.Random(seed)
    return [(rng.choice(pools[0]), rng.choice(pools[1])) for _ in range(SOME_PAIRS)]


def _same(out, direct) -> bool:
    """Equal values of one type, on the same carriers (a powerset carrier
    included), or the same boolean."""
    if type(out) is not type(direct) or out != direct:
        return False
    return isinstance(out, bool) or (out.src == direct.src and out.dst == direct.dst)


@pytest.mark.parametrize("name", sorted(_OPS))
def test_table_path_equals_the_kernel(name):
    # one set of tables for every shape of the operation, as a check that
    # meets several shapes has: a table must not mix them up
    tables: dict = {}
    cases = [s for s in SIGNATURES if s[0] == name]
    assert cases, f"{name} types at no small shape"
    for seed, (_, impl, sorts, ends) in enumerate(cases):
        names = "RS"[: len(sorts)]
        types = {n: Sig(so, *e) for n, so, e in zip(names, sorts, ends)}
        typed = _typecheck(parse(_text(name, len(sorts))), types, tables)
        pools = [_values(so, e) for so, e in zip(sorts, ends)]
        for operands in _operand_tuples(pools, seed):
            out = typed.run(dict(zip(names, operands)))
            direct = impl(*operands)
            assert _same(out, direct), (name, sorts, ends, operands, out, direct)
        assert any(key[0] is impl for key in tables), (name, sorts, ends)


def _into_powerset(r: Rel) -> Rel:
    return Rel(r.src, pow_carrier(C(r.dst.size.bit_length() - 1)), r.rows)


@pytest.mark.parametrize("text,types,direct", [
    # a multirelation where a relation is asked for
    ("cnv(R)", {"R": Sig("mrel", 2, 1)}, lambda r: _OPS["cnv"].impl(mrel_to_rel(r))),
    # a relation into a powerset where a multirelation is asked for
    ("up(T)", {"T": Sig("rel", 2, Pw(1))}, lambda t: _OPS["up"].impl(rel_to_mrel(t))),
    # both, under an operation of either sort
    ("R & T", {"R": Sig("mrel", 2, 1), "T": Sig("rel", 2, Pw(1))},
     lambda r, t: _OPS["&"].impl[0](mrel_to_rel(r), t)),
])
def test_converted_operands_equal_the_kernel(text, types, direct):
    tables: dict = {}
    typed = _typecheck(parse(text), types, tables)
    pools = []
    for sig in types.values():
        dst = 1 if isinstance(sig.dst, Pw) else sig.dst
        values = _values(sig.sort, (sig.src, dst))
        if isinstance(sig.dst, Pw):
            values = [_into_powerset(r) for r in _values("rel", (sig.src, 2))]
        pools.append(values)
    for operands in product(*pools):
        out = typed.run(dict(zip(types, operands)))
        assert _same(out, direct(*operands)), (text, operands)
    assert len(tables) >= 2  # the operation's table and a conversion's


def _reachable_from_modules() -> set[int]:
    """The ids of every object reachable from the package's modules."""
    seen: set[int] = set()
    stack = [m for name, m in sys.modules.items() if name.split(".")[0] == "multirel"]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        for ref in gc.get_referents(obj):
            if type(ref).__name__ == "module" and not ref.__name__.startswith("multirel"):
                continue
            stack.append(ref)
    return seen


def test_tables_last_one_check(monkeypatch):
    made = []
    terms = laws_module._Terms

    class Recorded(terms):
        def __init__(self, law):
            super().__init__(law)
            made.append(self)

    monkeypatch.setattr(laws_module, "_Terms", Recorded)
    rep = check(law_by_id("L2.2-icap-comm"), sizes=(2, 2))
    assert rep.verdict == "pass" and rep.checked == 65536
    (owner,) = made
    tables = list(owner.tables.values())
    # icap(R, S) and icap(S, R) share one table, and == has its own
    assert len(tables) == 2
    assert {type(t) for t in tables} == {array, bytearray}
    made.clear()
    del owner
    gc.collect()
    reachable = _reachable_from_modules()
    assert not any(id(t) in reachable for t in tables)


def test_kernel_calls_fall_but_do_not_vanish(monkeypatch):
    calls = []
    compose = peleg.peleg_compose
    monkeypatch.setattr(peleg, "peleg_compose", lambda r, s: calls.append(1) or compose(r, s))
    law = law_by_id("L3.4-fission-subdistributive")
    # the claim evaluated without tables: two Peleg compositions per tuple
    typed = _typecheck(law.parsed_claim(), {"X": 2, "Y": 2, "Z": 2, "R": Sig("mrel", 2, 2),
                                            "S": Sig("mrel", 2, 2)}, None)
    values = _values("mrel", (2, 2))
    for r, s in product(values[::16], values):
        assert typed.run({"R": r, "S": s})
    assert len(calls) == 2 * 16 * 256
    calls.clear()
    rep = check(law, sizes=(2, 2))
    assert rep.verdict == "pass" and rep.checked == 65536
    # R runs over its 88 orbits under the permutations of X and Y, each
    # standing for its orbit's tuples; with tables, every pair (R, S) met is
    # composed once, and di(R) * di(S) mostly finds its pair already there
    pairs = 88 * 256
    assert pairs <= len(calls) < 2 * pairs


def test_a_node_over_one_slot_read_twice_takes_a_table(monkeypatch):
    # icup(R, R) reads one slot for its two operands; its table meets at
    # most the 256 diagonal pairs of its 65,536, and icup(S, S) shares it
    calls = []
    inner_bool = mrel.inner_bool

    def counted(op, r, s=None):
        if op == "icup" and r == s:
            calls.append(r)
        return inner_bool(op, r, s)

    monkeypatch.setattr(mrel, "inner_bool", counted)
    law = Law("dev-icup", "theorem", "", "(R <= icup(R, R)) == (S <= icup(S, S))",
              (Slot("R"), Slot("S")))
    rep = check(law, sizes=(2, 2))
    assert rep.verdict == "pass" and rep.checked == 65536
    assert len(calls) <= 256
