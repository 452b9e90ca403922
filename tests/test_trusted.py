"""Kernel operations build their results without validation
(``MRel._trusted``, ``Rel._trusted``), and every public constructor still
validates.  These tests put kernel results through the validating
constructors, and check that the boundaries reject malformed values."""

from __future__ import annotations

import random
from itertools import product

import pytest

from multirel import (
    CapExceeded, Carrier, GenSpec, MaskTooWide, MRel, Rel, eta, instances, mrel_const,
    power_transpose, rel_const,
)
from multirel.dsl import _CONSTS, _OPS
from conftest import C


def _revalidated(v):
    return (MRel if isinstance(v, MRel) else Rel)(v.src, v.dst, v.rows)


def _value_ops():
    """``(name, impl, operand kinds)`` for every implementation of a
    term-language operation that returns a relation or multirelation."""
    for name, spec in sorted(_OPS.items()):
        if spec.sort == "bool":
            continue
        if isinstance(spec.impl, tuple):  # one implementation per sort
            yield name, spec.impl[0], "r" * len(spec.views)
            yield name, spec.impl[1], "m" * len(spec.views)
        else:
            yield name, spec.impl, spec.views.replace("s", "r")


VALUE_OPS = list(_value_ops())


def _values(shape, seed=None, density=0.5):
    """All values of the shape, or 40 seeded random ones."""
    if seed is None:
        spec = GenSpec(shape)
    else:
        spec = GenSpec(shape, "random", count=40, seed=seed, density=density)
    return {"r": list(instances("rel", spec)), "m": list(instances("mrel", spec))}


def _assert_well_formed(impl, operands):
    try:
        out = impl(*operands)
    except CapExceeded:
        return
    assert type(out) in (Rel, MRel)
    assert _revalidated(out) == out, (impl, operands)


ALL_2X2 = _values((2, 2))


class TestKernelOutputs:
    @pytest.mark.parametrize(
        "name,impl,kinds", VALUE_OPS, ids=lambda x: x if isinstance(x, str) else ""
    )
    def test_every_result_revalidates(self, name, impl, kinds):
        if len(kinds) == 1:
            # unary: every 2,2 value
            for v in ALL_2X2[kinds]:
                _assert_well_formed(impl, (v,))
        else:
            rng = random.Random(5)
            left, right = ALL_2X2[kinds[0]], ALL_2X2[kinds[1]]
            for _ in range(300):
                _assert_well_formed(impl, (rng.choice(left), rng.choice(right)))
        # seeded values, and pairs of them: at 3,3 sparse and dense, and
        # at 4,4, the first shape where a set of masks can iterate out of
        # order, sparse
        for shape, density in (((3, 3), 0.1), ((3, 3), 0.5), ((4, 4), 0.1)):
            some = [_values(shape, seed, density) for seed in (1, 2)]
            for v, w in zip(some[0][kinds[0]], some[1][kinds[-1]]):
                _assert_well_formed(impl, (v, w)[: len(kinds)])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constants_revalidate(self, n):
        for name, spec in _CONSTS.items():
            impls = spec.impl if isinstance(spec.impl, tuple) else (spec.impl,)
            for impl in impls:
                _assert_well_formed(impl, (C(n),) * len(spec.letters))


class TestBoundaries:
    def test_mrel_constructor_validates(self):
        with pytest.raises(ValueError, match="ascending"):
            MRel(C(1), C(2), ((2, 1),))
        with pytest.raises(ValueError, match="exceeds destination"):
            MRel(C(1), C(2), ((4,),))
        with pytest.raises(ValueError, match="row count"):
            MRel(C(2), C(2), ((1,),))
        with pytest.raises(MaskTooWide):
            MRel(C(1), C(63), ((),))

    def test_make_and_from_json_validate(self):
        # both sort their rows, so order is not theirs to reject
        assert MRel.make(C(1), C(2), [[2, 1]]).rows == ((1, 2),)
        with pytest.raises(ValueError, match="exceeds destination"):
            MRel.make(C(1), C(2), [[4]])
        with pytest.raises(ValueError, match="row count"):
            MRel.make(C(2), C(2), [[1]])
        with pytest.raises(ValueError, match="element index 2 is outside"):
            MRel.from_json({"src": 1, "dst": 2, "rows": [[[2]]]})
        with pytest.raises(ValueError, match="row count"):
            MRel.from_json({"src": 2, "dst": 2, "rows": [[[0]]]})
        with pytest.raises(ValueError, match="exceeds destination"):
            MRel.from_pairs(C(1), C(2), [(0, 4)])

    def test_rel_constructors_validate(self):
        with pytest.raises(ValueError, match="exceeds destination"):
            Rel(C(1), C(2), (4,))
        with pytest.raises(ValueError, match="row count"):
            Rel(C(2), C(2), (1,))
        with pytest.raises(ValueError, match="target index 2 is outside"):
            Rel.from_pairs(C(1), C(2), [(0, 2)])
        with pytest.raises(ValueError, match="target index 2 is outside"):
            Rel.from_json({"src": 1, "dst": 2, "pairs": [[0, 2]]})

    def test_streams_keep_the_mask_cap(self):
        spec = GenSpec((1, 63), "random", count=1, where=frozenset(["inner_deterministic"]))
        message = "^destination carrier of size 63 exceeds mask cap 62$"
        with pytest.raises(MaskTooWide, match=message):
            next(instances("mrel", spec))
        # no value asked for, none built: nothing to reject
        assert list(instances("mrel", GenSpec((1, 63), "random", count=0, where=spec.where))) == []

    def test_constants_keep_the_mask_cap(self):
        message = "^destination carrier of size 63 exceeds mask cap 62$"
        for build in (lambda: mrel_const("empty", C(1), C(63)), lambda: eta(C(63)),
                      lambda: power_transpose(rel_const("empty", C(1), C(63)))):
            with pytest.raises(MaskTooWide, match=message):
                build()

    def test_trusted_values_equal_validated_ones(self):
        rows = ((0, 3), (1,))
        v = MRel._trusted(Carrier(2), Carrier(2), rows)
        assert v == MRel(C(2), C(2), rows) and hash(v) == hash(MRel(C(2), C(2), rows))
        assert MRel._from_sets(C(2), C(2), [{3, 0}, {1}]) == v
        r = Rel._trusted(C(2), C(3), (5, 2))
        assert r == Rel(C(2), C(3), (5, 2)) and repr(r) == repr(Rel(C(2), C(3), (5, 2)))

    def test_every_value_of_every_stream_shape_revalidates(self):
        for kind, shape in product(("rel", "mrel"), ((1, 1), (2, 3), (3, 2))):
            for v in instances(kind, GenSpec(shape)):
                assert _revalidated(v) == v
