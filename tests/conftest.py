from __future__ import annotations

import pytest

from multirel import Carrier, GenSpec, MRel, Rel, instances, laws


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


def every(kind: str, ns: int, nd: int) -> list:
    """Every value of ``kind`` from ``ns`` to ``nd`` elements, in the order
    of the exhaustive stream."""
    return list(instances(kind, GenSpec((ns, nd))))


def seeded(kind: str, ns: int, nd: int, *, count: int, seed: int, density: float,
           where=()) -> list:
    """The ``count`` values of ``kind`` from ``ns`` to ``nd`` elements that
    the random stream draws from ``seed`` at ``density``, each passing the
    flags ``where``."""
    spec = GenSpec((ns, nd), "random", count, density, seed, frozenset(where))
    return list(instances(kind, spec))


# The environment file that the CLI tests load; `convert` leaves it as it is.
ENV_DOC = {
    "carriers": {"X": 2, "Y": 2},
    "mrels": {"R": {"src": 2, "dst": 2, "rows": [[[0, 1]], []]}},
    "rels": {"T": {"src": 2, "dst": 2, "pairs": [[0, 1]]}},
}


def plan_of(law, sizes, factored: bool = True):
    """``laws._plan``'s result for ``law`` at ``sizes``; unless ``factored``,
    as if the law had no row-local role, so that its ``fast`` sweep is the
    one that ``check`` runs at those sizes where it does not factor."""
    terms = laws._Terms(law)
    terms.local = terms.local if factored else None
    law = terms.law
    sizes = laws._resolve_sizes(law, sizes)
    return laws._plan(terms, sizes, laws.law_seed(7, law.id), law.count, law.density)


def report_by(law, sizes, *kept: str, **kw) -> dict:
    """The report of ``laws.check`` at seed 7 where ``laws._plan`` does not
    factor the law and its fast sweep keeps only the fields named in
    ``kept``, "group" (the orbits of the first slot) and "row" (the last
    slot by rows): with neither, there is no fast sweep, and the plain
    per-tuple sweep reports."""
    plan = laws._plan

    def only(terms, *args):
        terms.local = None
        made = plan(terms, *args)
        fast = made.fast and made.fast._replace(
            **{f: None for f in ("group", "row") if f not in kept})
        return made._replace(fast=fast if fast and (fast.group or fast.row) else None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "_plan", only)
        return laws.check(law, sizes=sizes, seed=7, **kw).to_json()
