"""Determinisation maps: fusion and fission approximate a multirelation by
an outer or inner deterministic one, co-fusion and co-fission are their
conjugates under inner complement.

All four are computed directly at the mask level here; their compositional
and closure characterizations are laws, not definitions, so the two
readings check each other.
"""

from __future__ import annotations

from .mrel import MRel
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
