"""Powerset machinery: membership, power transpose, approximation, the
relational image functor and the powerset-monad constants.

Constants that live over materialized powersets (membership, subset order,
complementation, the monad multiplication) are computed directly from
subset semantics; their residual/quotient characterizations are verified
in the law suite rather than used as definitions.
"""

from __future__ import annotations

from .mrel import MRel, _require_mask_ok
from .rel import Carrier, Rel, full_mask, pow_carrier, rel_converse


def member_rel(y: Carrier) -> Rel:
    """The membership relation y <-> P(y): (b, A) present iff b in A."""
    py = pow_carrier(y)
    rows = []
    for b in range(y.size):
        acc = 0
        for a in range(py.size):
            if a >> b & 1:
                acc |= 1 << a
        rows.append(acc)
    return Rel._trusted(y, py, tuple(rows))


def has_element_rel(y: Carrier) -> Rel:
    """The converse of membership: P(y) <-> y."""
    return rel_converse(member_rel(y))


def power_transpose(r: Rel) -> MRel:
    """Each source element is sent to its single image set."""
    _require_mask_ok(r.dst)
    return MRel._trusted(r.src, r.dst, tuple((row,) for row in r.rows))


def alpha(m: MRel) -> Rel:
    """Flatten a multirelation to the relation 'b lies in some related set'."""
    return Rel._trusted(m.src, m.dst, tuple(_union(row) for row in m.rows))


def _union(masks) -> int:
    acc = 0
    for m in masks:
        acc |= m
    return acc


def _image_rows(masks) -> tuple[int, ...]:
    """For every subset A of the indices of ``masks``, in numeric order, the
    row holding only the union of the masks A picks.  Each subset's union
    is the union of the same subset without its top element, plus one mask.
    The unions become rows in place, so no second list of them is held."""
    out = [0]
    for m in masks:
        out += [u | m for u in out]
    for i, u in enumerate(out):
        out[i] = 1 << u
    return tuple(out)


def image_functor(r: Rel) -> Rel:
    """P(r): maps every subset to its relational image; deterministic.
    Each subset's image is the image of the subset without its top element
    joined with one row of ``r``."""
    px = pow_carrier(r.src)
    py = pow_carrier(r.dst)
    return Rel._trusted(px, py, _image_rows(r.rows))


def eta(x: Carrier) -> MRel:
    """Unit of the powerset monad: each element to its singleton."""
    _require_mask_ok(x)
    return MRel._trusted(x, x, tuple((1 << a,) for a in range(x.size)))


def mu(x: Carrier) -> Rel:
    """Multiplication of the powerset monad: union-flattening P^2(x) -> P(x).
    Each family's union is that of the family without its largest subset,
    joined with that subset."""
    px = pow_carrier(x)
    ppx = pow_carrier(px)
    return Rel._trusted(ppx, px, _image_rows(range(px.size)))


def omega(y: Carrier) -> Rel:
    """The subset order on P(y)."""
    py = pow_carrier(y)
    top = full_mask(y.size)
    rows = []
    for a in range(py.size):
        acc = 1 << a
        free = top ^ a
        s = free
        while s:
            acc |= 1 << (a | s)
            s = (s - 1) & free
        rows.append(acc)
    return Rel._trusted(py, py, tuple(rows))


def ccomp(y: Carrier) -> Rel:
    """The complementation bijection on P(y)."""
    py = pow_carrier(y)
    top = full_mask(y.size)
    return Rel._trusted(py, py, tuple(1 << (a ^ top) for a in range(py.size)))
