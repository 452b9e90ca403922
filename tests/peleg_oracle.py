"""Peleg composition by decomposition and lifting, an oracle for
``peleg.peleg_compose``.

The kernel folds choice functions per pair.  This computes the same
composition as r composed with the union of the liftings of the univalent
parts of s, through materialized powersets and relational composition, so
the two share no code path and can be played against each other.
"""

from __future__ import annotations

from multirel import (
    MRel,
    Rel,
    alpha,
    d_subrelations,
    image_functor,
    mrel_to_rel,
    pow_carrier,
    rel_bool,
    rel_compose,
    rel_to_mrel,
)


def peleg_compose_oracle(r: MRel, s: MRel) -> MRel:
    py = pow_carrier(s.src)
    pz = pow_carrier(s.dst)
    dom_mask = 0
    for b, row in enumerate(s.rows):
        if row:
            dom_mask |= 1 << b
    lift_union = Rel(py, pz, (0,) * py.size)
    for t in d_subrelations(s):
        t_p = image_functor(alpha(t))
        rows = tuple(
            t_p.rows[a_mask] if a_mask & ~dom_mask == 0 else 0
            for a_mask in range(py.size)
        )
        lift_union = rel_bool("union", lift_union, Rel(py, pz, rows))
    return rel_to_mrel(rel_compose(mrel_to_rel(r), lift_union))
