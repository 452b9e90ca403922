"""Finite carriers and the relational core.

A relation between finite carriers is stored as one bitmask row per source
element: bit ``b`` of ``rows[a]`` means the pair ``(a, b)`` is present.
All boolean structure, composition, converse, residuals, the symmetric
quotient, the domain map and the basic classification predicates live here.

Carrier elements are 0-based indices.  Display names, when present, are
presentation only: they never affect semantics, equality or serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, make_dataclass
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

from .errors import (
    POW_CAP,
    CapExceeded,
    IdentityShapeMismatch,
    PowersetTooLarge,
    ShapeMismatch,
)


_new = object.__new__


def full_mask(n: int) -> int:
    return (1 << n) - 1


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Carrier:
    """A finite set of ``size`` elements, optionally labelled.

    ``base`` is set when this carrier is the materialized powerset of
    another carrier; the subsets are ordered by increasing numeric mask
    (binary counting), and that order is part of the serialization
    contract.
    """

    size: int
    names: tuple[str, ...] | None = None
    base: "Carrier | None" = None

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("carrier size must be non-negative")
        if self.names is not None:
            if len(self.names) != self.size:
                raise ValueError("names length must equal carrier size")
            if len(set(self.names)) != self.size:
                raise ValueError("names must be pairwise distinct")
        if self.base is not None and self.size != 1 << self.base.size:
            raise ValueError("powerset carrier size must be 2^base.size")


def require_object(data, what: str, required: tuple[str, ...],
                   optional: tuple[str, ...] | None) -> None:
    """Raises ValueError unless ``data`` is a JSON object (a dict) with
    every key of ``required`` and no key outside ``required`` and
    ``optional``; an ``optional`` of None allows any other key, as in a
    map of names.  This is the one place that refuses a document's keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} has no {key!r} key")
    unknown = [] if optional is None else sorted(set(data).difference(required, optional))
    if unknown:
        raise ValueError(f"{what} has an unknown key {unknown[0]!r}: "
                         f"expected one of {', '.join(map(repr, required + optional))}")


def require_array(data, what: str) -> list:
    """``data``, or ValueError unless it is a JSON array (a list)."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON array, not {type(data).__name__}")
    return data


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def require_index(i: int, carrier: Carrier, role: str) -> None:
    """Raises ValueError unless ``i`` is an element of ``carrier``; a
    negative index would otherwise pick a row from the end, or shift by a
    negative count."""
    if not _is_int(i):
        raise ValueError(f"{role} index {i!r} is not an integer")
    if not 0 <= i < carrier.size:
        raise ValueError(f"{role} index {i} is outside 0..{carrier.size - 1}")


def require_size(n, what: str) -> int:
    """``n``, or ValueError unless it is a non-negative integer.  A size past
    2^POW_CAP, the largest carrier the program builds itself, raises
    CapExceeded before anything of that size is allocated."""
    if not _is_int(n) or n < 0:
        raise ValueError(f"{what} must be a non-negative integer, not {n!r}")
    if n > 1 << POW_CAP:
        raise CapExceeded(f"{what} is {n}, past the size cap 2^{POW_CAP} = {1 << POW_CAP}")
    return n


def _require_pow_ok(carrier: Carrier) -> None:
    """The one check of POW_CAP, for a powerset carrier or a row's masks."""
    if carrier.size > POW_CAP:
        raise PowersetTooLarge(
            f"cannot materialize powerset of carrier of size {carrier.size} (cap {POW_CAP})"
        )


def pow_carrier(base: Carrier) -> Carrier:
    """The materialized powerset of ``base``, in numeric mask order."""
    _require_pow_ok(base)
    return Carrier(1 << base.size, base=base)


def _require_carriers(m: int, n: int, what: str) -> None:
    """ShapeMismatch unless the two carriers that ``what`` joins agree."""
    if m != n:
        raise ShapeMismatch(f"{what} carriers {m} and {n} differ")


# A property flag is a test of one row: ``flag(a, row, width)`` says whether
# row ``a`` of an arrow into a carrier of ``width`` elements passes, and an
# arrow has the flag when every row passes.  ``test`` is the one flag that
# reads the index; it also needs src and dst of one size.
RowFlag = Callable[[int, Any, int], bool]


def row_test(
    flags: dict[str, RowFlag], names: Collection[str], src: int, dst: int
) -> Callable[[int, Any], bool] | None:
    """Whether row ``a`` passes every flag of ``flags`` named in ``names``,
    for arrows of ``src`` x ``dst``; None when no arrow of that shape has
    them all."""
    if "test" in names and src != dst:
        return None
    tests = [flags[name] for name in names]
    return lambda a, row: all(t(a, row, dst) for t in tests)


@dataclass(frozen=True, eq=False)
class _Arrow:
    """An arrow with one row per source element: a ``Rel``, or an ``MRel``,
    which is a relation into a powerset.  Equality is the class, carrier
    sizes and rows; names and powerset tags are presentation/metadata.
    Each class's ``_SHAPE`` formats its carrier sizes for messages, and its
    ``FLAGS`` tables its property flags."""

    src: Carrier
    dst: Carrier
    rows: tuple

    @classmethod
    def _trusted(cls, src: Carrier, dst: Carrier, rows: tuple):
        """A kernel result, built without validation; public constructors validate."""
        self = _new(cls)
        d = self.__dict__
        d["src"], d["dst"], d["rows"] = src, dst, rows
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.src.size == other.src.size and self.dst.size == other.dst.size
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.src.size, self.dst.size, self.rows))

    def _require_same_shape(self, other: "_Arrow | None", op: str) -> None:
        """Raises unless ``other`` is given and has this arrow's carrier sizes."""
        if other is None:
            raise ValueError(f"{op} needs a second operand")
        if self.src.size != other.src.size or self.dst.size != other.dst.size:
            shapes = (a._SHAPE.format(a.src.size, a.dst.size) for a in (self, other))
            raise ShapeMismatch(f"{op}: shapes {' and '.join(shapes)} differ")

    def has_flags(self, names: Collection[str]) -> bool:
        """Whether every row passes every flag named in ``names``."""
        passes = row_test(self.FLAGS, names, self.src.size, self.dst.size)
        return passes is not None and all(passes(a, row) for a, row in enumerate(self.rows))

    def _permuted(self, p: Sequence[int], q: Sequence[int]):
        """This arrow with source element ``a`` renamed ``p[a]`` and target
        element ``b`` renamed ``q[b]``: a relation's row, or each mask of a
        multirelation's row, is a set of targets."""
        rows = [None] * len(self.rows)
        for a, row in zip(p, self.rows):
            rows[a] = (_renamed(row, q) if isinstance(row, int)
                       else tuple(sorted(_renamed(m, q) for m in row)))
        return self._trusted(self.src, self.dst, tuple(rows))


def _renamed(mask: int, q: Sequence[int]) -> int:
    """The set ``mask`` with each element ``b`` renamed ``q[b]``."""
    out = 0
    for b in bits(mask):
        out |= 1 << q[b]
    return out


def _univalent(a: int, row: int, width: int) -> bool:
    return row.bit_count() <= 1


def _total(a: int, row: int, width: int) -> bool:
    return row != 0


# The flags of ``classify_rel``.
REL_ROW_FLAGS: dict[str, RowFlag] = {
    "univalent": _univalent,
    "total": _total,
    "deterministic": lambda a, row, w: _univalent(a, row, w) and _total(a, row, w),
    "test": lambda a, row, w: row & ~(1 << a) == 0,
}


@dataclass(frozen=True, eq=False)
class Rel(_Arrow):
    """A relation src <-> dst as a packed bit matrix: ``rows`` holds one
    bitmask per source element."""

    _SHAPE = "{}x{}"
    FLAGS = REL_ROW_FLAGS

    def __post_init__(self):
        if len(self.rows) != self.src.size:
            raise ValueError("row count must equal source carrier size")
        top = full_mask(self.dst.size)
        for r in self.rows:
            if r < 0 or r & ~top:
                raise ValueError("row mask exceeds destination carrier")

    def __repr__(self) -> str:
        return f"Rel({self.src.size}x{self.dst.size}, {sorted(self.pairs())})"

    def pairs(self) -> Iterator[tuple[int, int]]:
        for a, row in enumerate(self.rows):
            for b in bits(row):
                yield (a, b)

    def has(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def to_json(self) -> dict:
        return {
            "src": self.src.size,
            "dst": self.dst.size,
            "pairs": [[a, b] for a, b in sorted(self.pairs())],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Rel":
        require_object(data, "a relation", ("src", "dst", "pairs"), ())
        src, dst = (Carrier(require_size(data[k], f"a relation's {k!r}")) for k in ("src", "dst"))
        pairs = require_array(data["pairs"], "a relation's 'pairs'")
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"pair {pair!r} is not [source, target]")
        return cls.from_pairs(src, dst, pairs)

    @classmethod
    def from_pairs(cls, src: Carrier, dst: Carrier, pairs: Iterable[tuple[int, int]]) -> "Rel":
        rows = [0] * src.size
        for a, b in pairs:
            require_index(a, src, "source")
            require_index(b, dst, f"pair {[a, b]}: target")
            rows[a] |= 1 << b
        return cls(src, dst, tuple(rows))


# One field per flag, in table order; before Python 3.12 make_dataclass
# names the module ``types`` unless the namespace names it.
RelFlags = make_dataclass("RelFlags", [(name, bool) for name in REL_ROW_FLAGS], frozen=True,
                          namespace={"__module__": __name__})


def rel_const(kind: str, src: Carrier, dst: Carrier) -> Rel:
    """The named constant: ``identity``, ``empty`` or ``universal``."""
    if kind == "identity":
        if src.size != dst.size:
            raise IdentityShapeMismatch(
                f"identity needs equal carriers, got {src.size} and {dst.size}"
            )
        return Rel._trusted(src, dst, tuple(1 << a for a in range(src.size)))
    if kind == "empty":
        return Rel._trusted(src, dst, (0,) * src.size)
    if kind == "universal":
        return Rel._trusted(src, dst, (full_mask(dst.size),) * src.size)
    raise ValueError(f"unknown relation constant {kind!r}")


def rel_bool(op: str, r: Rel, s: Rel | None = None) -> Rel:
    """Pointwise boolean combination of relations of equal shape."""
    if op == "complement":
        top = full_mask(r.dst.size)
        return Rel._trusted(r.src, r.dst, tuple(row ^ top for row in r.rows))
    r._require_same_shape(s, op)
    if op == "union":
        rows = tuple(x | y for x, y in zip(r.rows, s.rows))
    elif op == "inter":
        rows = tuple(x & y for x, y in zip(r.rows, s.rows))
    elif op == "minus":
        rows = tuple(x & ~y for x, y in zip(r.rows, s.rows))
    else:
        raise ValueError(f"unknown boolean operation {op!r}")
    return Rel._trusted(r.src, r.dst, rows)


def rel_compose(r: Rel, s: Rel) -> Rel:
    """Relational composition: (a,c) iff some b with r(a,b) and s(b,c)."""
    _require_carriers(r.dst.size, s.src.size, "compose: inner")
    out = []
    for row in r.rows:
        acc = 0
        for b in bits(row):
            acc |= s.rows[b]
        out.append(acc)
    return Rel._trusted(r.src, s.dst, tuple(out))


def rel_converse(r: Rel) -> Rel:
    cols = [0] * r.dst.size
    for a, row in enumerate(r.rows):
        for b in bits(row):
            cols[b] |= 1 << a
    return Rel._trusted(r.dst, r.src, tuple(cols))


def is_subrel(r: Rel, s: Rel) -> bool:
    r._require_same_shape(s, "inclusion")
    return all(x & ~y == 0 for x, y in zip(r.rows, s.rows))


def residual(side: str, t: Rel, s: Rel) -> Rel:
    """Left residual t/s or right residual t\\s.

    left:  t: X<->Y, s: Z<->Y, result X<->Z, (x,z) iff s(z) subset of t(x);
    right: t: Z<->X, s: Z<->Y, result X<->Y, (x,y) iff column x of t is a
    subset of column y of s.  Both agree with the complement formulas
    -( -t ; s~ ) and -( t~ ; -s ).
    """
    if side == "left":
        _require_carriers(t.dst.size, s.dst.size, "left residual: target")
        rows = tuple(
            _subset_row(s.rows, trow) for trow in t.rows
        )
        return Rel._trusted(t.src, s.src, rows)
    if side == "right":
        _require_carriers(t.src.size, s.src.size, "right residual: source")
        tc = rel_converse(t)
        sc = rel_converse(s)
        rows = tuple(_superset_row(sc.rows, tcol) for tcol in tc.rows)
        return Rel._trusted(t.dst, s.dst, rows)
    raise ValueError(f"unknown residual side {side!r}")


def _subset_row(candidates: tuple[int, ...], bound: int) -> int:
    acc = 0
    for i, c in enumerate(candidates):
        if c & ~bound == 0:
            acc |= 1 << i
    return acc


def _superset_row(candidates: tuple[int, ...], bound: int) -> int:
    acc = 0
    for i, c in enumerate(candidates):
        if bound & ~c == 0:
            acc |= 1 << i
    return acc


def symmetric_quotient(t: Rel, s: Rel) -> Rel:
    """syq(t, s): (x, y) present iff column x of t equals column y of s.

    t: Z<->X and s: Z<->Y give a result X<->Y.  Computed by direct column
    comparison; agreement with (t\\s) & (t~/s~) is checked in the law suite.
    """
    _require_carriers(t.src.size, s.src.size, "syq: source")
    tc = rel_converse(t)
    sc = rel_converse(s)
    rows = []
    for col_t in tc.rows:
        acc = 0
        for y, col_s in enumerate(sc.rows):
            if col_t == col_s:
                acc |= 1 << y
        rows.append(acc)
    return Rel._trusted(t.dst, s.dst, tuple(rows))


def domain(r: Rel) -> Rel:
    """The domain test: (a,a) for every a related to something."""
    return Rel._trusted(r.src, r.src, tuple(1 << a if row else 0 for a, row in enumerate(r.rows)))


def classify_rel(r: Rel) -> RelFlags:
    return RelFlags(**{name: r.has_flags((name,)) for name in REL_ROW_FLAGS})
