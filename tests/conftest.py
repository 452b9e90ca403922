from __future__ import annotations

import pytest

from multirel import Carrier, MRel, Rel, laws


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


# The fast sweeps ``laws._plan`` may choose: the symmetry group of the first
# slot, the row of the last, and the row-local role of a factored sweep.
SWEEPS = ("group", "row", "local")


def plan_of(law, sizes, factored: bool = True):
    """``laws._plan``'s result for ``law`` at ``sizes``; unless ``factored``,
    as if the law had no row-local role, so that it names the sweeps that
    ``check`` runs at those sizes where it does not factor."""
    terms = laws._Terms(law)
    terms.local = terms.local if factored else None
    resolved = laws._resolve_sizes(terms.law, sizes)
    return laws._plan(terms, resolved, {role: C(n) for role, n in resolved.items()})


def report_by(law, sizes, *sweeps: str, **kw) -> dict:
    """The report of ``laws.check`` at seed 7 where ``laws._plan`` chooses
    only the fast sweeps named in ``sweeps`` (see ``SWEEPS``): with none,
    every fast-sweep field of its result is cleared, and the plain
    per-tuple sweep reports."""
    plan = laws._plan

    def only(terms, *args):
        terms.local = terms.local if "local" in sweeps else None
        return plan(terms, *args)._replace(**{f: None for f in SWEEPS if f not in sweeps})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "_plan", only)
        return laws.check(law, sizes=sizes, seed=7, **kw).to_json()
