from __future__ import annotations

from multirel import Carrier, MRel, Rel


def C(n: int) -> Carrier:
    return Carrier(n)


def R(ns: int, nd: int, pairs) -> Rel:
    return Rel.from_pairs(C(ns), C(nd), pairs)


def mask(*elems: int) -> int:
    out = 0
    for e in elems:
        out |= 1 << e
    return out


def M(ns: int, nd: int, pairs) -> MRel:
    """Build an MRel from (source, iterable-of-elements) pairs."""
    return MRel.from_pairs(C(ns), C(nd), [(a, mask(*elems)) for a, elems in pairs])


# The environment file that the CLI tests load; `convert` leaves it as it is.
ENV_DOC = {
    "carriers": {"X": 2, "Y": 2},
    "mrels": {"R": {"src": 2, "dst": 2, "rows": [[[0, 1]], []]}},
    "rels": {"T": {"src": 2, "dst": 2, "pairs": [[0, 1]]}},
}
