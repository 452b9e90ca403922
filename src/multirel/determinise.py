"""Determinisation maps: fusion and fission approximate a multirelation by
an outer or inner deterministic one, co-fusion and co-fission are their
conjugates under inner complement.

All four are computed directly at the mask level here; their compositional
and closure characterizations are laws, not definitions, so the two
readings check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mrel import MRel, classify_mrel, closure, is_submrel, mrel_bool, preorder
from .power import _union
from .rel import full_mask


def fusion(r: MRel) -> MRel:
    """Outer determinisation: every source element to the union of its sets.

    Elements related to nothing are sent to the empty set, so the result
    is always outer deterministic.
    """
    return MRel._trusted(r.src, r.dst, tuple((_union(row),) for row in r.rows))


def fission(r: MRel) -> MRel:
    """Inner determinisation: one singleton pair per reachable element."""
    rows = []
    for row in r.rows:
        acc = _union(row)
        rows.append(tuple(1 << b for b in range(r.dst.size) if acc >> b & 1))
    return MRel._trusted(r.src, r.dst, tuple(rows))


def cofusion(r: MRel) -> MRel:
    """Each source element to the intersection of its sets; an element with
    no sets gets the whole carrier (the empty intersection), which is what
    conjugating fusion under inner complement yields."""
    top = full_mask(r.dst.size)
    rows = []
    for row in r.rows:
        acc = top
        for m in row:
            acc &= m
        rows.append((acc,))
    return MRel._trusted(r.src, r.dst, tuple(rows))


def cofission(r: MRel) -> MRel:
    """One co-atom pair (a, Y - {b}) for every b missed by some set of a."""
    top = full_mask(r.dst.size)
    rows = []
    for row in r.rows:
        missed = 0
        for m in row:
            missed |= top ^ m
        rows.append(tuple(sorted(top ^ (1 << b) for b in range(r.dst.size) if missed >> b & 1)))
    return MRel._trusted(r.src, r.dst, tuple(rows))


def closed_repr(mode: str, r: MRel) -> MRel:
    """Down- or up-closed representation: the closure of the fusion."""
    if mode not in ("down", "up"):
        raise ValueError(f"unknown representation mode {mode!r}")
    return closure(mode, fusion(r))


_ORDERS = ("subset", "smyth", "hoare", "egli_milner")


def _below(order: str, r: MRel, s: MRel) -> bool:
    if order == "subset":
        return is_submrel(r, s)
    return preorder(order, r, s)


@dataclass(frozen=True)
class FixpointReport:
    """Where a multirelation sits relative to its fusion and fission.

    ``prefixpoints[(map, order)]`` records map(R) below R and
    ``postfixpoints[(map, order)]`` records R below map(R), for each of
    the four orders.
    """

    is_fix_fusion: bool
    is_fix_fission: bool
    prefixpoints: dict[tuple[str, str], bool]
    postfixpoints: dict[tuple[str, str], bool]


def fixpoint_class(r: MRel) -> FixpointReport:
    fo = fusion(r)
    fi = fission(r)
    pre = {}
    post = {}
    for name, image in (("fusion", fo), ("fission", fi)):
        for order in _ORDERS:
            pre[(name, order)] = _below(order, image, r)
            post[(name, order)] = _below(order, r, image)
    return FixpointReport(
        is_fix_fusion=fo == r,
        is_fix_fission=fi == r,
        prefixpoints=pre,
        postfixpoints=post,
    )


def agrees_with_classification(r: MRel) -> bool:
    """Fixpoints of fusion/fission coincide with the deterministic classes."""
    flags = classify_mrel(r)
    report = fixpoint_class(r)
    return (
        report.is_fix_fusion == flags.outer_deterministic
        and report.is_fix_fission == flags.inner_deterministic
    )
