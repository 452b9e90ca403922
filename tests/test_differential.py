"""The subset kernels against their set-comprehension definitions in
``setmodel``: the image functor, mu, the Kleisli and Peleg lifts, dsup,
the convex closure, the inner dual, Peleg composition and its conjugate
odot.  Every value is compared at shapes whose roles have 1 or 2 elements,
and seeded values at 3,3 and at 2,4 and 4,3, sparse enough that some rows
are empty."""

from __future__ import annotations

from functools import cache
from itertools import product

import pytest

import setmodel
from multirel import (
    GenSpec,
    closure,
    image_functor,
    inner_dual,
    instances,
    kleisli_lift,
    mu,
    odot,
    peleg_compose,
    peleg_lift,
)
from multirel.dsl import _OPS
from conftest import C
from peleg_oracle import peleg_compose_oracle

SMALL = [(1, 1), (1, 2), (2, 1), (2, 2)]
SEEDED = [(3, 3), (2, 4), (4, 3)]


def every(kind, ns, nd):
    return list(instances(kind, GenSpec((ns, nd))))


def seeded(kind, ns, nd, count=30, seed=13):
    return list(instances(kind, GenSpec((ns, nd), "random", count=count, seed=seed, density=0.3)))


def seeded_values(kind):
    return [v for seed, (ns, nd) in enumerate(SEEDED) for v in seeded(kind, ns, nd, seed=seed)]


def values(kind):
    """Every value at each small shape, then seeded values at the larger ones."""
    return [v for ns, nd in SMALL for v in every(kind, ns, nd)] + seeded_values(kind)


def seeded_pairs(x, y, z):
    return list(zip(seeded("mrel", x, y, seed=x), seeded("mrel", y, z, seed=z + 10)))


COMPOSED = [(3, 3, 3), (2, 4, 3), (4, 3, 3), (2, 4, 4)]


def test_seeded_values_have_empty_rows():
    assert any(not row for m in seeded_values("mrel") for row in m.rows)
    assert any(not row for shape in COMPOSED for _, s in seeded_pairs(*shape) for row in s.rows)


def test_image_functor():
    for r in values("rel"):
        got = setmodel.lifted_pairs(image_functor(r))
        assert got == setmodel.image(setmodel.rel_pairs(r), r.src.size), r


@pytest.mark.parametrize("n", range(4))
def test_mu(n):
    got = {
        (frozenset(map(setmodel.members, setmodel.members(f))), setmodel.members(a))
        for f, a in mu(C(n)).pairs()
    }
    assert got == setmodel.mu(n)


def test_kleisli_lift():
    for m in values("mrel"):
        got = setmodel.lifted_pairs(kleisli_lift(m))
        assert got == setmodel.kleisli_lift(setmodel.mrel_sets(m), m.src.size), m


def test_peleg_lift():
    for m in values("mrel"):
        got = setmodel.lifted_pairs(peleg_lift(m))
        assert got == setmodel.peleg_lift(setmodel.mrel_sets(m), m.src.size), m


def test_dsup():
    dsup = _OPS["dsup"].impl
    for m in values("mrel"):
        assert setmodel.mrel_sets(dsup(m)) == setmodel.dsup(setmodel.mrel_sets(m)), m


def test_convex_closure():
    for m in values("mrel"):
        got = setmodel.mrel_sets(closure("convex", m))
        assert got == setmodel.convex(setmodel.mrel_sets(m), m.dst.size), m


def test_inner_dual():
    for m in values("mrel"):
        got = setmodel.mrel_sets(inner_dual(m))
        assert got == setmodel.inner_dual(setmodel.mrel_sets(m), m.src.size, m.dst.size), m


sets = cache(setmodel.mrel_sets)


def agree(r, s, oracle=True):
    got = peleg_compose(r, s)
    assert setmodel.mrel_sets(got) == setmodel.peleg(sets(r), sets(s))
    assert not oracle or got == peleg_compose_oracle(r, s), (r, s)


@pytest.mark.parametrize("x, y, z", list(product((1, 2), repeat=3)))
def test_peleg_compose_every_pair(x, y, z):
    # the oracle takes 7 s over all 65,536 pairs at 2,2,2, so there it sees
    # one pair in 16, with every r and every s among them
    stride = 16 if (x, y, z) == (2, 2, 2) else 1
    rs, ss = every("mrel", x, y), every("mrel", y, z)
    for (i, r), (j, s) in product(enumerate(rs), enumerate(ss)):
        agree(r, s, oracle=(i - j) % stride == 0)


@pytest.mark.parametrize("x, y, z", COMPOSED)
def test_peleg_compose_seeded(x, y, z):
    for r, s in seeded_pairs(x, y, z):
        agree(r, s)


def odot_agrees(r, s):
    got = setmodel.mrel_sets(odot(r, s))
    assert got == setmodel.odot(sets(r), sets(s), s.dst.size), (r, s)


@pytest.mark.parametrize("x, y, z", list(product((1, 2), repeat=3)))
def test_odot_every_pair(x, y, z):
    # at 2,2,2 one pair in 4, with every r and every s among them
    stride = 4 if (x, y, z) == (2, 2, 2) else 1
    rs, ss = every("mrel", x, y), every("mrel", y, z)
    for (i, r), (j, s) in product(enumerate(rs), enumerate(ss)):
        if (i - j) % stride == 0:
            odot_agrees(r, s)


@pytest.mark.parametrize("x, y, z", COMPOSED)
def test_odot_seeded(x, y, z):
    for r, s in seeded_pairs(x, y, z):
        odot_agrees(r, s)
