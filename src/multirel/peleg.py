"""Peleg and Kleisli liftings and compositions, and the decomposition of a
multirelation into its univalent same-domain parts.

The direct composition folds choice functions per pair, keeping distinct
unions only, and ENUM_CAP bounds each step of that fold; pairs whose sets
share their lowest elements share those steps within one call.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .errors import ENUM_CAP, EnumerationTooLarge
from .mrel import MRel, inner_bool
from .power import _image_rows, _union, alpha
from .rel import Rel, _require_carriers, bits, pow_carrier


def _dom_mask(r: MRel) -> int:
    """The source elements with a non-empty row, as a mask."""
    acc = 0
    for a, row in enumerate(r.rows):
        if row:
            acc |= 1 << a
    return acc


def d_subrelations(r: MRel) -> Iterator[MRel]:
    """All univalent parts of ``r`` with the same domain, in lexicographic
    selection order.  Their union is ``r``."""
    dom = list(bits(_dom_mask(r)))
    size = 1
    for a in dom:
        size *= len(r.rows[a])
        if size > ENUM_CAP:
            raise EnumerationTooLarge(
                f"{size}+ univalent parts exceed cap {ENUM_CAP}", size
            )
    for choice in product(*(r.rows[a] for a in dom)):
        rows: list[tuple[int, ...]] = [()] * r.src.size
        for a, m in zip(dom, choice):
            rows[a] = (m,)
        yield MRel._trusted(r.src, r.dst, tuple(rows))


def kleisli_lift(r: MRel) -> Rel:
    """P(src) <-> P(dst): each subset to the union of the images of its
    elements under the flattening of ``r``, which is the image of the
    subset without its top element joined with one flattened row.
    Deterministic."""
    px = pow_carrier(r.src)
    py = pow_carrier(r.dst)
    return Rel._trusted(px, py, _image_rows(alpha(r).rows))


def peleg_lift(r: MRel) -> Rel:
    """P(src) <-> P(dst): (A, B) present iff B is the union of one chosen
    set per element of A; requires every element of A to have a choice.
    Subsets come in numeric order, so each one's unions extend those of
    the subset without its top element, kept in the call's own table
    within the bound ``_choice_unions`` sets."""
    px = pow_carrier(r.src)
    py = pow_carrier(r.dst)
    dom_mask = _dom_mask(r)
    unions: dict[int, set[int]] = {0: {0}}
    rows = []
    for a_mask in range(px.size):
        acc = 0
        if not a_mask & ~dom_mask:
            for c in _choice_unions(r, a_mask, unions):
                acc |= 1 << c
        rows.append(acc)
    return Rel._trusted(px, py, tuple(rows))


def _choice_unions(s: MRel, b_mask: int, unions: dict[int, set[int]],
                   a: int | None = None) -> set[int]:
    """All unions of one chosen mask per element of ``b_mask``; {0} when
    the mask is empty.

    ``unions`` maps subsets of ``s``'s source to their unions; the caller
    owns it, seeds it with ``{0: {0}}`` for one call and must not change
    its sets.  The unions of ``b_mask`` extend those of its longest prefix
    (its lowest elements) found there, one element at a time.  A step is
    kept while the entries kept, times the 2^dst unions one entry can
    hold, stay within ENUM_CAP, so the table holds at most twice ENUM_CAP
    unions; a step past that is done again whenever a later subset needs
    it.  These are the steps of an ascending fold over ``b_mask``; the fold
    keeps distinct unions only, so the cap bounds each step's work (kept
    unions times choices), not the product of all choices.  A cap error
    names the pair ``(a, b_mask)``, or the subset ``b_mask`` when ``a``
    is None."""
    prefix, todo = b_mask, []
    acc = unions.get(prefix)
    while acc is None:
        top = prefix.bit_length() - 1
        todo.append(top)
        prefix ^= 1 << top
        acc = unions.get(prefix)
    for b in reversed(todo):
        row = s.rows[b]
        work = len(acc) * len(row)
        if work > ENUM_CAP:
            what = f"subset {b_mask}" if a is None else f"pair ({a},{b_mask})"
            raise EnumerationTooLarge(
                f"{what}: {work} choice unions in one step exceed cap {ENUM_CAP}", work
            )
        acc = {c | m for c in acc for m in row}
        prefix |= 1 << b
        if len(unions) << s.dst.size <= ENUM_CAP:
            unions[prefix] = acc
    return acc


def peleg_compose(r: MRel, s: MRel) -> MRel:
    """Compose through choice functions over each intermediate set.

    A pair (a, B) of ``r`` contributes every union of one ``s``-choice per
    element of B, provided each element of B has a non-empty ``s``-row;
    B empty contributes (a, empty).  The unions of each B, and of each
    prefix of B on the way, are kept for the call within the bound
    ``_choice_unions`` sets and reused by every later pair whose set has
    that prefix.
    """
    _require_carriers(r.dst.size, s.src.size, "peleg compose: inner")
    dom = _dom_mask(s)
    unions: dict[int, set[int]] = {0: {0}}
    out_rows: list[set[int]] = []
    for a, row in enumerate(r.rows):
        acc: set[int] = set()
        for b_mask in row:
            if b_mask & ~dom:
                continue
            acc |= _choice_unions(s, b_mask, unions, a)
        out_rows.append(acc)
    return MRel._from_sets(r.src, s.dst, out_rows)


def kleisli_compose(r: MRel, s: MRel) -> MRel:
    """Compose with the Kleisli lifting of the second factor, computed
    row-wise without materializing the powerset of the source."""
    _require_carriers(r.dst.size, s.src.size, "kleisli compose: inner")
    fused = [_union(row) for row in s.rows]
    out_rows = []
    for row in r.rows:
        acc = set()
        for b_mask in row:
            c = 0
            for b in bits(b_mask):
                c |= fused[b]
            acc.add(c)
        out_rows.append(acc)
    return MRel._from_sets(r.src, s.dst, out_rows)


def odot(r: MRel, s: MRel) -> MRel:
    """The inner-complement conjugate of Peleg composition."""
    return inner_bool("icomp", peleg_compose(r, inner_bool("icomp", s)))
