"""Multirelations and their inner structure.

A multirelation relates each source element to a set of subsets of the
destination carrier.  Per source element we keep a strictly ascending
tuple of subset masks; this canonical form makes equality cheap and
serialization deterministic.

The inner operations (union, intersection, complement) act on the subset
masks; the outer boolean operations act on the pair set itself, exactly as
for ordinary relations.
"""

from __future__ import annotations

from dataclasses import dataclass, make_dataclass
from typing import Iterable, Iterator, Sequence

from .errors import MASK_CAP, MaskTooWide, ShapeMismatch
from .rel import Carrier, Rel, RowFlag, _Arrow, _require_pow_ok, bits, full_mask
from .rel import pow_carrier, require_array, require_index, require_object, require_size


def _outer_total(a: int, row: tuple[int, ...], width: int) -> bool:
    return len(row) > 0


def _outer_univalent(a: int, row: tuple[int, ...], width: int) -> bool:
    return len(row) <= 1


def _inner_total(a: int, row: tuple[int, ...], width: int) -> bool:
    return 0 not in row


def _inner_univalent(a: int, row: tuple[int, ...], width: int) -> bool:
    return all(m.bit_count() <= 1 for m in row)


# One-step checks suffice for closedness: adding or removing a single
# element at a time reaches every super-/submask.
def _up_closed(a: int, row: tuple[int, ...], width: int) -> bool:
    present = set(row)
    return all((m | 1 << b) in present for m in row for b in range(width) if not m >> b & 1)


def _down_closed(a: int, row: tuple[int, ...], width: int) -> bool:
    present = set(row)
    return all((m ^ 1 << b) in present for m in row for b in range(width) if m >> b & 1)


def _union_closed(a: int, row: tuple[int, ...], width: int) -> bool:
    present = set(row)
    return all((m | n) in present for i, m in enumerate(row) for n in row[i + 1:])


# The flags of ``classify_mrel``.
MREL_ROW_FLAGS: dict[str, RowFlag] = {
    "outer_total": _outer_total,
    "outer_univalent": _outer_univalent,
    "outer_deterministic":
        lambda a, row, w: _outer_total(a, row, w) and _outer_univalent(a, row, w),
    "inner_total": _inner_total,
    "inner_univalent": _inner_univalent,
    "inner_deterministic":
        lambda a, row, w: _inner_total(a, row, w) and _inner_univalent(a, row, w),
    "up_closed": _up_closed,
    "down_closed": _down_closed,
    "union_closed": _union_closed,
}


@dataclass(frozen=True, eq=False)
class MRel(_Arrow):
    """A multirelation src <-> P(dst): ``rows`` holds, per source element,
    a strictly ascending tuple of subset masks."""

    _SHAPE = "{}<->P{}"
    FLAGS = MREL_ROW_FLAGS

    def __post_init__(self):
        _require_mask_ok(self.dst)
        if len(self.rows) != self.src.size:
            raise ValueError("row count must equal source carrier size")
        top = full_mask(self.dst.size)
        for row in self.rows:
            if any(m < 0 or m & ~top for m in row):
                raise ValueError("subset mask exceeds destination carrier")
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError("row masks must be strictly ascending")

    def __repr__(self) -> str:
        body = ", ".join(
            f"({a},{{{','.join(str(b) for b in bits(m))}}})" for a, m in self.pairs()
        )
        return f"MRel({self.src.size}<->P{self.dst.size}, [{body}])"

    @classmethod
    def make(cls, src: Carrier, dst: Carrier, rows: Sequence[Iterable[int]]) -> "MRel":
        return cls(src, dst, tuple(tuple(sorted(set(row))) for row in rows))

    @classmethod
    def _from_sets(cls, src: Carrier, dst: Carrier, rows: Iterable[Iterable[int]]) -> "MRel":
        """``_trusted`` for rows of distinct in-range masks in any order."""
        return cls._trusted(src, dst, tuple(tuple(sorted(row)) for row in rows))

    @classmethod
    def from_pairs(
        cls, src: Carrier, dst: Carrier, pairs: Iterable[tuple[int, int]]
    ) -> "MRel":
        rows: list[set[int]] = [set() for _ in range(src.size)]
        for a, m in pairs:
            require_index(a, src, "source")
            rows[a].add(m)
        return cls.make(src, dst, rows)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for a, row in enumerate(self.rows):
            for m in row:
                yield (a, m)

    def has(self, a: int, m: int) -> bool:
        return m in self.rows[a]

    def count(self) -> int:
        return sum(len(row) for row in self.rows)

    def to_json(self) -> dict:
        return {
            "src": self.src.size,
            "dst": self.dst.size,
            "rows": [[[b for b in bits(m)] for m in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MRel":
        require_object(data, "a multirelation", ("src", "dst", "rows"), ())
        src, dst = (Carrier(require_size(data[k], f"a multirelation's {k!r}"))
                    for k in ("src", "dst"))
        rows = []
        for a, row in enumerate(require_array(data["rows"], "a multirelation's 'rows'")):
            masks = set()
            for elems in require_array(row, f"row {a}"):
                require_array(elems, f"row {a}: subset {elems!r}")
                m = 0
                for b in elems:
                    require_index(b, dst, f"row {a}: element")
                    m |= 1 << b
                masks.add(m)
            rows.append(masks)
        return cls.make(src, dst, rows)


PropertyFlags = make_dataclass("PropertyFlags", [(name, bool) for name in MREL_ROW_FLAGS],
                               frozen=True, namespace={"__module__": __name__})


def _require_mask_ok(dst: Carrier):
    if dst.size > MASK_CAP:
        raise MaskTooWide(
            f"destination carrier of size {dst.size} exceeds mask cap {MASK_CAP}"
        )


def mrel_const(kind: str, x: Carrier, y: Carrier) -> MRel:
    """Named constant multirelations over x <-> P(y).

    ``universal`` materializes the full powerset per row and is therefore
    guarded by POW_CAP.
    """
    _require_mask_ok(y)
    if kind == "inner_unit":
        return MRel._trusted(x, y, ((0,),) * x.size)
    if kind == "inner_counit":
        return MRel._trusted(x, y, ((full_mask(y.size),),) * x.size)
    if kind == "atoms":
        row = tuple(1 << b for b in range(y.size))
        return MRel._trusted(x, y, (row,) * x.size)
    if kind == "coatoms":
        top = full_mask(y.size)
        row = tuple(sorted(top ^ (1 << b) for b in range(y.size)))
        return MRel._trusted(x, y, (row,) * x.size)
    if kind == "empty":
        return MRel._trusted(x, y, ((),) * x.size)
    if kind == "universal":
        _require_pow_ok(y)
        row = tuple(range(1 << y.size))
        return MRel._trusted(x, y, (row,) * x.size)
    raise ValueError(f"unknown multirelation constant {kind!r}")


def inner_bool(op: str, r: MRel, s: MRel | None = None) -> MRel:
    """Inner union/intersection of rows, or per-mask complement."""
    if op not in ("icomp", "icup", "icap"):
        raise ValueError(f"unknown inner operation {op!r}")
    if op == "icomp":
        # complementing reverses the order of an ascending row
        top = full_mask(r.dst.size)
        return MRel._trusted(
            r.src, r.dst, tuple(tuple(m ^ top for m in reversed(row)) for row in r.rows)
        )
    r._require_same_shape(s, op)
    both = zip(r.rows, s.rows)
    if op == "icup":
        rows = [{m | n for m in row_r for n in row_s} for row_r, row_s in both]
    else:
        rows = [{m & n for m in row_r for n in row_s} for row_r, row_s in both]
    return MRel._from_sets(r.src, r.dst, rows)


_OUTER = {"union": set.union, "inter": set.intersection, "minus": set.difference}


def mrel_bool(op: str, r: MRel, s: MRel | None = None) -> MRel:
    """Outer boolean structure: multirelations are relations into a powerset."""
    if op != "complement" and op not in _OUTER:
        raise ValueError(f"unknown boolean operation {op!r}")
    if op == "complement":
        _require_pow_ok(r.dst)
        everything = range(1 << r.dst.size)
        return MRel._trusted(r.src, r.dst, tuple(
            tuple(m for m in everything if m not in present) for present in map(set, r.rows)
        ))
    r._require_same_shape(s, op)
    combine = _OUTER[op]
    return MRel._from_sets(r.src, r.dst, [combine(set(a), b) for a, b in zip(r.rows, s.rows)])


def is_submrel(r: MRel, s: MRel) -> bool:
    r._require_same_shape(s, "inclusion")
    return all(set(a) <= set(b) for a, b in zip(r.rows, s.rows))


def closure(mode: str, r: MRel) -> MRel:
    """Up-, down- or convex closure at the mask level.

    Materializes super-/submasks, so the destination is POW_CAP bounded.
    """
    if mode == "convex":
        return mrel_bool("inter", closure("up", r), closure("down", r))
    if mode not in ("up", "down"):
        raise ValueError(f"unknown closure mode {mode!r}")
    _require_pow_ok(r.dst)
    top = full_mask(r.dst.size)
    rows = []
    for row in r.rows:
        out: set[int] = set()
        for m in row:
            if mode == "up":
                free = top ^ m
                s = free
                while True:
                    out.add(m | s)
                    if s == 0:
                        break
                    s = (s - 1) & free
            else:
                s = m
                while True:
                    out.add(s)
                    if s == 0:
                        break
                    s = (s - 1) & m
        rows.append(out)
    return MRel._from_sets(r.src, r.dst, rows)


def preorder(mode: str, r: MRel, s: MRel) -> bool:
    """The Smyth, Hoare and Egli-Milner preorders.

    Checked pointwise without materializing closures: r is Smyth-below s
    iff every pair of s dominates some pair of r, and Hoare-below iff
    every pair of r is dominated by some pair of s.
    """
    r._require_same_shape(s, "preorder")
    if mode == "smyth":
        return all(
            all(any(m & ~a == 0 for m in row_r) for a in row_s)
            for row_r, row_s in zip(r.rows, s.rows)
        )
    if mode == "hoare":
        return all(
            all(any(a & ~m == 0 for m in row_s) for a in row_r)
            for row_r, row_s in zip(r.rows, s.rows)
        )
    if mode == "egli_milner":
        return preorder("smyth", r, s) and preorder("hoare", r, s)
    raise ValueError(f"unknown preorder mode {mode!r}")


def classify_mrel(r: MRel) -> PropertyFlags:
    return PropertyFlags(**{name: r.has_flags((name,)) for name in MREL_ROW_FLAGS})


def split_terminal(r: MRel) -> tuple[MRel, MRel]:
    """Partition into the non-terminal part (non-empty sets) and the
    terminal part (empty sets)."""
    nu_rows = [tuple(m for m in row if m != 0) for row in r.rows]
    tau_rows = [tuple(m for m in row if m == 0) for row in r.rows]
    return (
        MRel._trusted(r.src, r.dst, tuple(nu_rows)),
        MRel._trusted(r.src, r.dst, tuple(tau_rows)),
    )


def inner_dual(r: MRel) -> MRel:
    """Duality between inner and outer structure: outer complement of the
    inner complement."""
    return mrel_bool("complement", inner_bool("icomp", r))


def mrel_to_rel(r: MRel) -> Rel:
    """The same arrow viewed as a relation into the materialized powerset."""
    pdst = pow_carrier(r.dst)
    rows = []
    for row in r.rows:
        acc = 0
        for m in row:
            acc |= 1 << m
        rows.append(acc)
    return Rel._trusted(r.src, pdst, tuple(rows))


def rel_to_mrel(r: Rel) -> MRel:
    """Inverse of the powerset view; the destination must be a powerset
    carrier so the subset decoding is unambiguous."""
    if r.dst.base is None:
        raise ShapeMismatch(
            "relation destination is not a materialized powerset carrier"
        )
    return MRel._trusted(r.src, r.dst.base, tuple(tuple(bits(row)) for row in r.rows))
