from __future__ import annotations

import pytest

from multirel import Carrier, GenSpec, MRel, Rel, instances, laws
from multirel.dsl import eval_term


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
    """``laws._plan``'s sweep for ``law`` at ``sizes``; unless ``factored``,
    as if the law had no row-local role, so that it is the sweep that
    ``check`` runs at those sizes where it does not factor."""
    terms = laws._Terms(law)
    terms.local = terms.local if factored else None
    law = terms.law
    sizes = laws._resolve_sizes(law, sizes)
    return laws._plan(terms, sizes, laws.law_seed(7, law.id), law.count, law.density)


def report_by(law, sizes, *kept: str, **kw) -> dict:
    """The report of ``laws.check`` at seed 7 where ``laws._plan`` does not
    factor the law and its sweep keeps only the reductions named in
    ``kept``, "group" (the orbits of the first slot) and "row" (the last
    slot by rows): with neither, the plain per-tuple sweep reports."""
    plan = laws._plan

    def only(terms, *args):
        terms.local = None
        return plan(terms, *args)._replace(**{f: None for f in ("group", "row") if f not in kept})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "_plan", only)
        return laws.check(law, sizes=sizes, seed=7, **kw).to_json()


def counts(report: dict) -> tuple[int, int]:
    return report["checked"], report["skipped_by_condition"]


def but_counts(report: dict) -> dict:
    """``report`` without ``checked`` and ``skipped_by_condition``."""
    return {k: v for k, v in report.items() if k not in ("checked", "skipped_by_condition")}


def counted_to_stop(law, sizes, collect: int = 3) -> tuple[int, int]:
    """``checked`` and ``skipped_by_condition`` of ``law`` at ``sizes``, its
    first slot over the orbits that ``check`` reduces it by where it does
    not factor it: each tuple up to the ``collect``-th that fails, claim
    and guard evaluated on it alone, counts as often as its first value's
    orbit is large."""
    run = plan_of(law, sizes, factored=False)._replace(row=None)
    terms = laws._Terms(law)
    claim, guard = terms.at(run.carriers)
    counted, failed = [0, 0], 0
    for weight, tup in laws._tuples(run):
        env = dict(zip((s.name for s in terms.law.slots), tup))
        held = guard is None or eval_term(guard, env)
        counted[not held] += weight
        failed += held and not eval_term(claim, env)
        if failed == collect:
            break
    return tuple(counted)
