"""Kernel operations build their results without validation
(``MRel._trusted``, ``Rel._trusted``), and every public constructor still
validates.  These tests put kernel results through the validating
constructors, and check that the boundaries reject malformed values."""

from __future__ import annotations

import random
from itertools import product

import pytest

from multirel import (
    CapExceeded, Carrier, GenSpec, MaskTooWide, MRel, PowersetTooLarge, Rel, ShapeMismatch,
    eta, instances, mrel, mrel_const, peleg, power_transpose, rel, rel_const, space_size,
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


class TestArrowCore:
    """``Rel`` and ``MRel`` share one base, ``rel._Arrow``: one equality,
    one same-shape check, one carrier check and one powerset-cap check."""

    def test_every_powerset_cap_reads_one_message(self):
        message = r"^cannot materialize powerset of carrier of size 17 \(cap 16\)$"
        wide = MRel(C(1), C(17), ((),))
        for build in (lambda: rel.pow_carrier(C(17)),
                      lambda: mrel.mrel_const("universal", C(1), C(17)),
                      lambda: mrel.mrel_bool("complement", wide),
                      lambda: mrel.closure("up", wide),
                      lambda: mrel.mrel_to_rel(wide),
                      lambda: space_size("mrel", GenSpec((1, 17))),
                      lambda: next(instances("mrel", GenSpec((1, 17), "random", count=1)))):
            with pytest.raises(PowersetTooLarge, match=message):
                build()

    @pytest.mark.parametrize("op, kind, message", [
        (rel.rel_compose, "rel", "compose: inner"),
        (lambda t, s: rel.residual("left", t, s), "rel", "left residual: target"),
        (lambda t, s: rel.residual("right", rel.rel_converse(t), s), "rel",
         "right residual: source"),
        (lambda t, s: rel.symmetric_quotient(rel.rel_converse(t), s), "rel", "syq: source"),
        (peleg.peleg_compose, "mrel", "peleg compose: inner"),
        (peleg.peleg_compose_oracle, "mrel", "peleg compose: inner"),
        (peleg.kleisli_compose, "mrel", "kleisli compose: inner"),
    ])
    def test_carrier_checks_keep_their_messages(self, op, kind, message):
        empty = rel.rel_const if kind == "rel" else mrel.mrel_const
        with pytest.raises(ShapeMismatch, match=f"^{message} carriers 3 and 2 differ$"):
            op(empty("empty", C(2), C(3)), empty("empty", C(2), C(2)))

    def test_binary_operations_need_two_operands_of_one_shape(self):
        r, m = rel_const("empty", C(2), C(2)), mrel_const("empty", C(2), C(2))
        for call in (lambda: rel.rel_bool("union", r), lambda: mrel.inner_bool("icup", m),
                     lambda: mrel.mrel_bool("inter", m)):
            with pytest.raises(ValueError, match="^(union|icup|inter) needs a second operand$"):
                call()
        with pytest.raises(ShapeMismatch, match="^union: shapes 2x2 and 2x3 differ$"):
            rel.rel_bool("union", r, rel_const("empty", C(2), C(3)))
        with pytest.raises(ShapeMismatch, match=r"^icap: shapes 2<->P2 and 2<->P3 differ$"):
            mrel.inner_bool("icap", m, mrel_const("empty", C(2), C(3)))

    def test_a_relation_never_equals_a_multirelation(self):
        r, m = Rel(C(0), C(2), ()), MRel(C(0), C(2), ())
        assert r.rows == m.rows and hash(r) == hash(m)
        assert r != m and m != r and len({r, m}) == 2
