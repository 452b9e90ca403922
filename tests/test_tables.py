"""Operator tables over value ids (``dsl._table``).

Where a law is checked, each term node whose operands and value are of
small shapes looks its value up by operand ids instead of calling the
kernel, and fills a missing entry from one-row values where the operation
reads an operand row by row; ``==`` is a table node like any other.
These tests hold the table path to direct kernel calls, for every
operation at every small shape it types at, check the row-by-row marks,
that ids are bit codes, and that the tables live for one check only."""

from __future__ import annotations

import gc
import operator
import random
import sys
from itertools import product

import pytest

from multirel import GenSpec, check, dsl, instances, mrel, peleg
from multirel import laws as laws_module
from multirel.determinise import fission
from multirel.dsl import _BOOLS, _LEVEL, _OPS, Pw, Sig, _OneRow, _small, _table, _typecheck, parse
from multirel.generate import _group, _orbits
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


@pytest.mark.parametrize("name", sorted(set(_OPS) - {"=="}))
def test_table_path_equals_the_kernel(name, monkeypatch):
    # one set of tables for every shape of the operation, as a check that
    # meets several shapes has: a table must not mix them up; the shapes
    # start empty, so a table also builds values new to their shape
    monkeypatch.setattr(dsl, "_SHAPES", {})
    tables: dict = {}
    cases = [s for s in SIGNATURES if s[0] == name]
    assert cases, f"{name} types at no small shape"
    _hold_to_the_kernel(name, cases, tables)
    for _, impl, sorts, ends in cases:
        assert any(key[0] is impl for key in tables), (name, sorts, ends)


def _hold_to_the_kernel(name: str, cases: list, tables: dict) -> None:
    """Runs ``name`` through the tables at each of ``cases`` (items of
    ``SIGNATURES``) against a direct call of the case's kernel function."""
    for seed, (_, impl, sorts, ends) in enumerate(cases):
        names = "RS"[: len(sorts)]
        types = {n: Sig(so, *e) for n, so, e in zip(names, sorts, ends)}
        typed = _typecheck(parse(_text(name, len(sorts))), types, tables)
        pools = [_values(so, e) for so, e in zip(sorts, ends)]
        for operands in _operand_tuples(pools, seed):
            out = typed.run(dict(zip(names, operands)))
            direct = impl(*operands)
            assert _same(out, direct), (name, sorts, ends, operands, out, direct)


def _into_powerset(r: Rel) -> Rel:
    return Rel(r.src, pow_carrier(C(r.dst.size.bit_length() - 1)), r.rows)


def _small_shapes():
    """``(sig, values)`` for each small shape of relations, multirelations
    and relations into a powerset, with carriers of 1 to 3 elements, its
    values in exhaustive stream order."""
    for src, dst in product((1, 2, 3), repeat=2):
        if src * dst <= 8:
            yield Sig("rel", src, dst), _values("rel", (src, dst))
        if src << dst <= 8:
            yield Sig("mrel", src, dst), _values("mrel", (src, dst))
            into = [_into_powerset(r) for r in _values("rel", (src, 1 << dst))]
            yield Sig("rel", src, Pw(dst)), into


SMALL_SHAPES = list(_small_shapes())
SHAPE_IDS = [f"{s.sort}-{s.src}-" + (f"pw{s.dst.arg}" if isinstance(s.dst, Pw) else f"{s.dst}")
             for s, _ in SMALL_SHAPES]


def _shape_of(sig: Sig):
    dst = Pw(sig.dst) if sig.sort == "mrel" else sig.dst
    return _small(sig.sort, sig.src, dst)


@pytest.mark.parametrize("sig,values", SMALL_SHAPES, ids=SHAPE_IDS)
def test_ids_are_bit_codes(sig, values):
    # the id of a value is its rows' words, row a at bit a * w; a stream
    # with no filter runs through them in order, and the id gives the value
    # back, on the same carriers
    shape = _shape_of(sig)
    assert shape is not None and shape.size == len(values)
    assert [shape.id(v) for v in values] == list(range(shape.size))
    assert all(_same(shape.values[i], v) for i, v in enumerate(values))
    width = 1 << sig.dst if sig.sort == "mrel" else values[0].dst.size
    for i, v in enumerate(values):
        words = [row if isinstance(row, int) else sum(1 << m for m in row) for row in v.rows]
        assert i == sum(word << a * width for a, word in enumerate(words))


@pytest.mark.parametrize("sig,values", SMALL_SHAPES, ids=SHAPE_IDS)
def test_eq_on_ids_equals_operator_eq(sig, values):
    # == between values of one small shape, over single values and over
    # rows of ids
    typed = _typecheck(parse("R == S"), {"R": sig, "S": sig}, {})
    pairs = _operand_tuples([values, values], len(values)) + [(v, v) for v in values]
    for r, s in pairs:
        assert typed.run({"R": r, "S": s}) == operator.eq(r, s), (r, s)
    row = dsl._id_row(values)
    backwards = row[::-1]
    for r in values[:: max(1, len(values) // 16)]:
        assert typed.rows({"R": r, "S": row}) == bytes(r == s for s in values)
        assert typed.rows({"R": row, "S": r}) == bytes(s == r for s in values)
    assert typed.rows({"R": row, "S": backwards}) == bytes(map(operator.eq, values, values[::-1]))
    assert typed.rows({"R": values[0], "S": values[-1]}) == (values[0] == values[-1])


def test_eq_on_ids_over_booleans():
    # every pair of booleans meets, as the ids 0 and 1
    rel = Sig("rel", 1, 2)
    tables: dict = {}
    typed = _typecheck(parse("(R <= S) == (S <= R)"), {"R": rel, "S": rel}, tables)
    assert [key[0] for key in tables] == [_OPS["<="].impl[0], operator.eq]
    below = _OPS["<="].impl[0]
    met = set()
    values = _values("rel", (1, 2))
    for r, s in product(values, values):
        met.add((below(r, s), below(s, r)))
        assert typed.run({"R": r, "S": s}) == operator.eq(below(r, s), below(s, r))
    assert met == set(product((False, True), repeat=2))


def test_eq_between_two_shapes_takes_the_table():
    # values of two shapes may share an id and differ: id 1 is the relation
    # 1 -> 2 with pair (0, 0), and the multirelation 1 -> P(1) with (0, {0})
    rel, mrel_ = _small("rel", 1, 2), _small("mrel", 1, Pw(1))
    assert rel.values[1] != mrel_.values[1]
    ids = _table(operator.eq, [(lambda b: b["R"], rel), (lambda b: 1, mrel_)],
                 (True, True), _BOOLS, {})
    assert not ids({"R": 1})
    # over a row of every relation id, each place gives that id's answer
    row = bytes(range(rel.size))
    assert ids({"R": row}) == bytes(ids({"R": i}) for i in row)
    assert ids({"R": row})[1] == 0


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


# The operations that read no operand row by row: each of these puts a row
# of its value at another source (the converse, the residuals, the
# symmetric quotient, dom's diagonal, the powerset lifts), or, as dsup,
# enumerates choices across all rows under a cap that counts them all.
UNMARKED = ("^", "cnv", "dom", "Pf", "kl", "pl", "dsup", "syq", "\\", "/")
MARKED = sorted(name for name, spec in _OPS.items() if any(spec.by_row))


def test_marks_leave_the_listed_operations_unmarked():
    assert not any(any(_OPS[name].by_row) for name in UNMARKED)
    assert sorted(set(_OPS) - set(UNMARKED)) == MARKED


@pytest.mark.parametrize("name", [*MARKED, "_TO_REL", "_TO_MREL"])
def test_marked_operands_share_the_source_of_the_value(name):
    spec = _OPS[name] if name in _OPS else getattr(dsl, name)
    sources = {src for (_, src, _), by_row in zip(spec.operands, spec.by_row) if by_row}
    assert len(sources) == 1
    assert spec.sort == "bool" or spec.result[0] in sources


def _recording(impl, calls: list):
    """``impl`` (or each of a pair), appending each call's operands to ``calls``."""
    if isinstance(impl, tuple):
        return tuple(_recording(i, calls) for i in impl)
    return lambda *xs: calls.append(xs) or impl(*xs)


def _one_row_calls(calls: list, rows: tuple) -> bool:
    """Whether every call took a one-row value for each marked operand."""
    return all(x.src.size == 1 for xs in calls for x, by_row in zip(xs, rows) if by_row)


@pytest.mark.parametrize("name", MARKED)
def test_row_wise_marks_hold_at_two_rows(name, monkeypatch):
    # every operand marked row by row has a source of 2 elements: the
    # table is filled from one-row values, and equals the kernel's value
    spec = _OPS[name]
    calls: list = []
    monkeypatch.setitem(_OPS, name, spec._replace(impl=_recording(spec.impl, calls)))
    cases = [case for case in SIGNATURES if case[0] == name
             and all(src == 2 for (src, _), by_row in zip(case[3], spec.by_row) if by_row)]
    assert cases, f"{name} types at no small shape whose marked source has 2 elements"
    _hold_to_the_kernel(name, cases, {})
    assert calls and _one_row_calls(calls, spec.by_row)


@pytest.mark.parametrize("attr,text,types,direct", [
    ("_TO_REL", "cnv(R)", {"R": Sig("mrel", 2, 1)}, lambda r: _OPS["cnv"].impl(mrel_to_rel(r))),
    ("_TO_MREL", "up(T)", {"T": Sig("rel", 2, Pw(1))},
     lambda t: _OPS["up"].impl(rel_to_mrel(t))),
])
def test_conversions_are_filled_from_rows(attr, text, types, direct, monkeypatch):
    spec, calls = getattr(dsl, attr), []
    monkeypatch.setattr(dsl, attr, spec._replace(impl=_recording(spec.impl, calls)))
    typed = _typecheck(parse(text), types, {})
    ((name, sig),) = types.items()
    if isinstance(sig.dst, Pw):
        values = [_into_powerset(r) for r in _values("rel", (2, 2))]
    else:
        values = _values(sig.sort, (2, 1))
    for v in values:
        assert _same(typed.run({name: v}), direct(v)), (text, v)
    assert calls and _one_row_calls(calls, spec.by_row)


def test_booleans_compared_with_eq_are_not_split():
    # == over two comparisons shares operator.eq with == over values, and
    # its operands are booleans, which have no rows
    typed = _typecheck(parse("(R <= S) == (S <= R)"),
                       {"R": Sig("rel", 2, 2), "S": Sig("rel", 2, 2)}, {})
    below = _OPS["<="].impl[0]
    values = _values("rel", (2, 2))
    for r, s in product(values, values):
        assert typed.run({"R": r, "S": s}) is (below(r, s) == below(s, r))


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
    # icap(R, S) and icap(S, R) share one table, and == has one beside it,
    # each with its flags of filled entries and its one-row table
    assert [key[0] for key in owner.tables] == [_OPS["icap"].impl, operator.eq]
    tables = [t for triple in owner.tables.values() for t in triple]
    assert sorted(map(type, tables), key=str) == [bytearray] * 4 + [_OneRow] * 2
    for _, known, one_row in owner.tables.values():
        assert one_row and any(known)  # entries were filled
    made.clear()
    del owner
    gc.collect()
    reachable = _reachable_from_modules()
    assert not any(id(t) in reachable for t in tables)


def test_kernel_calls_fall_but_do_not_vanish(monkeypatch):
    calls = []
    compose = peleg.peleg_compose
    monkeypatch.setattr(peleg, "peleg_compose", lambda r, s: calls.append((r, s)) or compose(r, s))
    law = law_by_id("L3.4-fission-subdistributive")
    # the claim evaluated without tables: two Peleg compositions per tuple
    typed = _typecheck(parse(law.claim), {"X": 2, "Y": 2, "Z": 2, "R": Sig("mrel", 2, 2),
                                            "S": Sig("mrel", 2, 2)}, None)
    values = _values("mrel", (2, 2))
    for r, s in product(values[::16], values):
        assert typed.run({"R": r, "S": s})
    assert len(calls) == 2 * 16 * 256
    calls.clear()
    rep = check(law, sizes=(2, 2))
    assert rep.verdict == "pass" and rep.checked == 65536
    # R runs over the first values of its 88 orbits under the permutations
    # of X and Y; with tables, * reads its left operand row by row, so each
    # pair of a row of R (or of di(R)) and a value of S (or of di(S)) met is
    # composed once, on a one-row R
    firsts = [r for r, _ in _orbits(iter(values), _group((2, 2), False))]
    assert len(firsts) == 88
    met = {(row, s.rows) for r, s in product(firsts, values) for row in r.rows}
    met |= {(row, fission(s).rows) for r, s in product(firsts, values)
            for row in fission(r).rows}
    assert all(r.src.size == 1 for r, _ in calls)
    assert sorted((r.rows[0], s.rows) for r, s in calls) == sorted(met)
    # every one of the 16 rows of an MRel(2,2) is met, beside each of S's
    # 256 values
    assert len(calls) == 16 * 256


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
