"""A deliberately naive set-of-frozensets model of multirelations.

Used as an independent oracle: everything here follows the defining
set comprehensions directly, shares no code with the package internals,
and is written for clarity, not speed.
"""

from __future__ import annotations

from itertools import combinations, product

from multirel import MRel, Rel


def rel_pairs(r: Rel) -> set[tuple[int, int]]:
    return set(r.pairs())


def mrel_sets(m: MRel) -> set[tuple[int, frozenset[int]]]:
    out = set()
    for a, row in enumerate(m.rows):
        for mk in row:
            out.add((a, frozenset(b for b in range(m.dst.size) if mk >> b & 1)))
    return out


def compose(r: set, s: set) -> set:
    return {(a, c) for a, b in r for b2, c in s if b == b2}


def alpha(m: set) -> set:
    return {(a, b) for a, big in m for b in big}


def peleg(r: set, s: set) -> set:
    """Choice-function composition, straight from the definition."""
    out = set()
    s_rows: dict[int, list[frozenset[int]]] = {}
    for b, big in s:
        s_rows.setdefault(b, []).append(big)
    for a, big in r:
        elems = sorted(big)
        if any(b not in s_rows for b in elems):
            continue
        for choice in product(*(s_rows[b] for b in elems)):
            union: frozenset[int] = frozenset()
            for c in choice:
                union |= c
            out.add((a, union))
    return out


def kleisli(r: set, s: set) -> set:
    out = set()
    flat = alpha(s)
    for a, big in r:
        union = frozenset(c for b in big for b2, c in flat if b2 == b)
        out.add((a, union))
    return out


def members(mask: int) -> frozenset[int]:
    """The elements of a subset mask, as a set."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def lifted_pairs(r: Rel) -> set[tuple[frozenset[int], frozenset[int]]]:
    """A relation between powersets, with each end as a set of elements."""
    return {(members(a), members(b)) for a, b in r.pairs()}


def subsets(n: int) -> list[frozenset[int]]:
    """Every subset of range(n)."""
    return [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]


def image(r: set, src_size: int) -> set:
    """P(r): each subset of the source to its image under r."""
    return {(a, frozenset(b for x, b in r if x in a)) for a in subsets(src_size)}


def mu(n: int) -> set:
    """Each family of subsets of range(n) to its union."""
    families = [frozenset(f) for k in range(2**n + 1) for f in combinations(subsets(n), k)]
    return {(f, frozenset(b for big in f for b in big)) for f in families}


def kleisli_lift(m: set, src_size: int) -> set:
    """Each subset A to the union of every set that m relates to an element of A."""
    return {(a, frozenset(b for x, big in m if x in a for b in big)) for a in subsets(src_size)}


def choices(m: set, a: frozenset[int]) -> list[dict[int, frozenset[int]]]:
    """Every function from ``a`` that picks, for each x, a set m relates to x."""
    opts = [[big for x2, big in m if x2 == x] for x in sorted(a)]
    return [dict(zip(sorted(a), pick)) for pick in product(*opts)]


def peleg_lift(m: set, src_size: int) -> set:
    """(A, B) for every choice over A whose chosen sets have union B."""
    return {
        (a, frozenset(b for big in f.values() for b in big))
        for a in subsets(src_size)
        for f in choices(m, a)
    }


def dsup(m: set) -> set:
    """The union of the graphs of the choices over the domain of m."""
    return {(x, big) for f in choices(m, frozenset(x for x, _ in m)) for x, big in f.items()}


def fusion(m: set, src_size: int) -> set:
    out = set()
    for a in range(src_size):
        union = frozenset(b for a2, big in m if a2 == a for b in big)
        out.add((a, union))
    return out


def fission(m: set, src_size: int) -> set:
    out = set()
    for a in range(src_size):
        for b in {b for a2, big in m if a2 == a for b in big}:
            out.add((a, frozenset([b])))
    return out


def convex(m: set, dst_size: int) -> set:
    """Every (a, C) with C between two sets that m relates a to."""
    return {(a, c) for a, low in m for a2, high in m if a2 == a
            for c in subsets(dst_size) if low <= c <= high}


def inner_dual(m: set, src_size: int, dst_size: int) -> set:
    """Every (a, B) such that m does not relate a to the complement of B."""
    every = frozenset(range(dst_size))
    return {(a, b) for a in range(src_size) for b in subsets(dst_size) if (a, every - b) not in m}


def odot(r: set, s: set, dst_size: int) -> set:
    """For each (a, B) in r and each choice of a set s relates each element
    of B to, the intersection of the chosen sets: all of the target when B
    is empty."""
    every = frozenset(range(dst_size))
    return {(a, every.intersection(*f.values())) for a, big in r for f in choices(s, big)}


def rel_flags(r: Rel) -> dict[str, bool]:
    """The flags of ``classify_rel``, from the pair set."""
    pairs = rel_pairs(r)
    images = [{b for a2, b in pairs if a2 == a} for a in range(r.src.size)]
    univalent = all(len(image) <= 1 for image in images)
    total = all(images)
    return {
        "univalent": univalent,
        "total": total,
        "deterministic": univalent and total,
        "test": r.src.size == r.dst.size and all(a == b for a, b in pairs),
    }


def mrel_flags(m: MRel) -> dict[str, bool]:
    """The flags of ``classify_mrel``, from the set of pairs; closedness
    quantifies over every superset, subset or pair of sets."""
    sets = mrel_sets(m)
    dst = range(m.dst.size)
    subsets = [frozenset(b for b in dst if k >> b & 1) for k in range(1 << m.dst.size)]
    images = [[big for a2, big in sets if a2 == a] for a in range(m.src.size)]
    outer_total = all(images)
    outer_univalent = all(len(image) <= 1 for image in images)
    inner_total = all(big for _, big in sets)
    inner_univalent = all(len(big) <= 1 for _, big in sets)
    return {
        "outer_total": outer_total,
        "outer_univalent": outer_univalent,
        "outer_deterministic": outer_total and outer_univalent,
        "inner_total": inner_total,
        "inner_univalent": inner_univalent,
        "inner_deterministic": inner_total and inner_univalent,
        "up_closed": all((a, c) in sets for a, big in sets for c in subsets if big <= c),
        "down_closed": all((a, c) in sets for a, big in sets for c in subsets if c <= big),
        "union_closed": all((a, b | c) in sets for a, b in sets for a2, c in sets if a == a2),
    }
