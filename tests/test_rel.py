from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirel import (
    Carrier,
    IdentityShapeMismatch,
    Rel,
    ShapeMismatch,
    classify_rel,
    domain,
    is_subrel,
    rel_bool,
    rel_compose,
    rel_const,
    rel_converse,
    residual,
    symmetric_quotient,
)
from conftest import C, R, every, seeded


def brute_compose(r: Rel, s: Rel) -> Rel:
    pairs = [
        (a, c)
        for a in range(r.src.size)
        for c in range(s.dst.size)
        if any(r.has(a, b) and s.has(b, c) for b in range(r.dst.size))
    ]
    return Rel.from_pairs(r.src, s.dst, pairs)


def brute_left_residual(t: Rel, s: Rel) -> Rel:
    pairs = [
        (x, z)
        for x in range(t.src.size)
        for z in range(s.src.size)
        if all(not s.has(z, y) or t.has(x, y) for y in range(t.dst.size))
    ]
    return Rel.from_pairs(t.src, s.src, pairs)


def brute_right_residual(t: Rel, s: Rel) -> Rel:
    pairs = [
        (x, y)
        for x in range(t.dst.size)
        for y in range(s.dst.size)
        if all(not t.has(z, x) or s.has(z, y) for z in range(t.src.size))
    ]
    return Rel.from_pairs(t.dst, s.dst, pairs)


class TestConstants:
    def test_identity(self):
        assert rel_const("identity", C(2), C(2)) == R(2, 2, [(0, 0), (1, 1)])

    def test_empty(self):
        assert rel_const("empty", C(1), C(3)) == R(1, 3, [])

    def test_universal(self):
        assert rel_const("universal", C(1), C(2)) == R(1, 2, [(0, 0), (0, 1)])

    def test_identity_needs_square(self):
        with pytest.raises(IdentityShapeMismatch):
            rel_const("identity", C(2), C(3))


class TestBool:
    def test_complement_of_empty(self):
        assert rel_bool("complement", rel_const("empty", C(2), C(3))) == rel_const(
            "universal", C(2), C(3)
        )

    def test_minus_self_is_empty(self):
        u = rel_const("universal", C(2), C(2))
        assert rel_bool("minus", u, u) == rel_const("empty", C(2), C(2))

    def test_union(self):
        assert rel_bool("union", R(1, 2, [(0, 0)]), R(1, 2, [(0, 1)])) == R(
            1, 2, [(0, 0), (0, 1)]
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rel_bool("union", R(1, 2, []), R(2, 2, []))


class TestCompose:
    def test_identity_left(self):
        r = R(2, 2, [(0, 1)])
        assert rel_compose(rel_const("identity", C(2), C(2)), r) == r

    def test_single_pair(self):
        assert rel_compose(R(2, 2, [(0, 1)]), R(2, 2, [(1, 0)])) == R(2, 2, [(0, 0)])

    def test_matches_brute_force(self):
        rs = seeded("rel", 3, 3, count=12, seed=5, density=0.5)
        for r, s in zip(rs[::2], rs[1::2]):
            assert rel_compose(r, s) == brute_compose(r, s)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rel_compose(R(1, 2, []), R(3, 1, []))


class TestConverse:
    def test_single_pair(self):
        assert rel_converse(R(2, 2, [(0, 1)])) == R(2, 2, [(1, 0)])

    def test_identity_fixed(self):
        i = rel_const("identity", C(3), C(3))
        assert rel_converse(i) == i

    def test_contravariant_over_composition(self):
        rs = seeded("rel", 2, 2, count=10, seed=9, density=0.5)
        for r, s in zip(rs[::2], rs[1::2]):
            lhs = rel_converse(rel_compose(r, s))
            rhs = rel_compose(rel_converse(s), rel_converse(r))
            assert lhs == rhs


class TestResiduals:
    def test_left_top_absorbs(self):
        u = rel_const("universal", C(2), C(3))
        for s in every("rel", 2, 3):
            assert residual("left", u, s) == rel_const("universal", C(2), C(2))

    def test_identity_from_eta(self):
        from multirel import eta, mrel_to_rel

        one = mrel_to_rel(eta(C(2)))
        assert residual("left", one, one) == rel_const("identity", C(2), C(2))

    def test_subset_order_from_membership(self):
        from multirel import member_rel, omega

        mem = member_rel(C(2))
        assert residual("right", mem, mem) == omega(C(2))

    def test_left_matches_brute_force(self):
        rs = seeded("rel", 2, 3, count=8, seed=3, density=0.5)
        for t in rs:
            for s in seeded("rel", 2, 3, count=4, seed=17, density=0.5):
                got = residual("left", t, s)
                assert got == brute_left_residual(t, s)

    def test_right_matches_brute_force(self):
        for t in seeded("rel", 3, 2, count=6, seed=4, density=0.5):
            for s in seeded("rel", 3, 2, count=4, seed=21, density=0.5):
                assert residual("right", t, s) == brute_right_residual(t, s)

    def test_complement_formulas(self):
        # t/s = -(-t ; s~)  and  t\s = -(t~ ; -s)
        for t in seeded("rel", 2, 2, count=6, seed=11, density=0.5):
            for s in seeded("rel", 2, 2, count=4, seed=12, density=0.5):
                left = residual("left", t, s)
                via = rel_bool(
                    "complement",
                    rel_compose(rel_bool("complement", t), rel_converse(s)),
                )
                assert left == via
                right = residual("right", t, s)
                via = rel_bool(
                    "complement",
                    rel_compose(rel_converse(t), rel_bool("complement", s)),
                )
                assert right == via

    def test_residuation_galois_exhaustive(self):
        for r in every("rel", 2, 2):
            for s in every("rel", 2, 2):
                for t in every("rel", 2, 2):
                    left = is_subrel(rel_compose(r, s), t)
                    assert left == is_subrel(r, residual("left", t, s))
                    assert left == is_subrel(s, residual("right", r, t))

    def test_residuation_galois_sampled_3(self):
        rs = seeded("rel", 3, 3, count=30, seed=42, density=0.5)
        for r, s, t in zip(rs[::3], rs[1::3], rs[2::3]):
            left = is_subrel(rel_compose(r, s), t)
            assert left == is_subrel(r, residual("left", t, s))
            assert left == is_subrel(s, residual("right", r, t))

    def test_residual_conjugation(self):
        # t\s = (s~/t~)~ for all generated pairs
        for t in seeded("rel", 2, 3, count=8, seed=13, density=0.5):
            for s in seeded("rel", 2, 3, count=5, seed=14, density=0.5):
                lhs = residual("right", t, s)
                rhs = rel_converse(
                    residual("left", rel_converse(s), rel_converse(t))
                )
                assert lhs == rhs


class TestModularLaw:
    def test_exhaustive_2(self):
        for r in every("rel", 2, 2):
            for s in every("rel", 2, 2):
                for t in every("rel", 2, 2):
                    lhs = rel_bool("inter", rel_compose(r, s), t)
                    rhs = rel_compose(
                        rel_bool("inter", r, rel_compose(t, rel_converse(s))), s
                    )
                    assert is_subrel(lhs, rhs)

    def test_univalent_exchange(self):
        # p;q & s == (p & s;q~) ; q whenever q is univalent
        for q in every("rel", 2, 2):
            if not classify_rel(q).univalent:
                continue
            for p in every("rel", 2, 2):
                for s in every("rel", 2, 2):
                    lhs = rel_bool("inter", rel_compose(p, q), s)
                    rhs = rel_compose(
                        rel_bool("inter", p, rel_compose(s, rel_converse(q))), q
                    )
                    assert lhs == rhs


class TestSymmetricQuotient:
    def test_membership_columns_give_identity(self):
        from multirel import member_rel, pow_carrier

        mem = member_rel(C(2))
        expected = rel_const("identity", pow_carrier(C(2)), pow_carrier(C(2)))
        got = symmetric_quotient(mem, mem)
        assert got == expected
        # independent column-comparison oracle
        for a in range(4):
            for b in range(4):
                same = all(mem.has(z, a) == mem.has(z, b) for z in range(2))
                assert got.has(a, b) == same

    def test_membership_vs_complement_gives_swap(self):
        from multirel import ccomp, member_rel

        mem = member_rel(C(1))
        got = symmetric_quotient(mem, rel_bool("complement", mem))
        assert got == ccomp(C(1))
        assert sorted(got.pairs()) == [(0, 1), (1, 0)]

    def test_identity_vs_membership_gives_unit(self):
        from multirel import eta, member_rel, mrel_to_rel

        i = rel_const("identity", C(2), C(2))
        got = symmetric_quotient(rel_converse(i), member_rel(C(2)))
        assert got == mrel_to_rel(eta(C(2)))

    def test_formula_equivalence(self):
        # syq(t,s) == (t\s) & (t~/s~) on random operands
        for t in seeded("rel", 2, 2, count=8, seed=31, density=0.5):
            for s in seeded("rel", 2, 3, count=5, seed=32, density=0.5):
                lhs = symmetric_quotient(t, s)
                rhs = rel_bool(
                    "inter",
                    residual("right", t, s),
                    residual("left", rel_converse(t), rel_converse(s)),
                )
                assert lhs == rhs


class TestDomain:
    def test_empty(self):
        assert domain(rel_const("empty", C(2), C(3))) == rel_const("empty", C(2), C(2))

    def test_universal(self):
        assert domain(rel_const("universal", C(2), C(3))) == rel_const(
            "identity", C(2), C(2)
        )

    def test_single_pair(self):
        assert domain(R(2, 2, [(0, 1)])) == R(2, 2, [(0, 0)])

    def test_formula(self):
        for r in every("rel", 2, 3):
            via = rel_bool(
                "inter",
                rel_const("identity", C(2), C(2)),
                rel_compose(r, rel_converse(r)),
            )
            assert domain(r) == via


class TestClassify:
    def test_identity(self):
        flags = classify_rel(rel_const("identity", C(2), C(2)))
        assert flags.univalent and flags.total and flags.deterministic and flags.test

    def test_fork_is_total_only(self):
        flags = classify_rel(R(1, 2, [(0, 0), (0, 1)]))
        assert flags.total and not flags.univalent

    def test_empty_is_univalent_not_total(self):
        flags = classify_rel(R(1, 1, []))
        assert flags.univalent and not flags.total


class TestEmptyCarrier:
    def test_core_operations_tolerate_size_zero(self):
        from multirel import MRel, alpha, eta, member_rel, power_transpose

        z = Carrier(0)
        two = C(2)
        empty_src = rel_const("empty", z, two)
        assert rel_compose(empty_src, rel_const("universal", two, two)) == empty_src
        assert rel_converse(empty_src) == rel_const("empty", two, z)
        assert domain(empty_src) == rel_const("identity", z, z)
        assert classify_rel(rel_const("identity", z, z)).deterministic
        assert alpha(power_transpose(empty_src)) == empty_src
        assert eta(z) == MRel(z, z, ())
        assert sorted(member_rel(z).pairs()) == []


class TestJson:
    def test_round_trip_pinned(self):
        r = R(2, 3, [(0, 2), (1, 0), (0, 1)])
        data = json.loads(json.dumps(r.to_json()))
        assert Rel.from_json(data) == r
        assert data["pairs"] == [[0, 1], [0, 2], [1, 0]]

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_round_trip_random(self, ns, nd, data):
        pairs = data.draw(
            st.sets(st.tuples(st.integers(0, ns - 1), st.integers(0, nd - 1)))
        )
        r = Rel.from_pairs(Carrier(ns), Carrier(nd), pairs)
        assert Rel.from_json(r.to_json()) == r

    @pytest.mark.parametrize("a", [-1, -2, 2, 7])
    def test_source_index_out_of_range_is_rejected(self, a):
        with pytest.raises(ValueError, match="source index"):
            Rel.from_json({"src": 2, "dst": 2, "pairs": [[a, 0]]})
        with pytest.raises(ValueError, match="source index"):
            Rel.from_pairs(C(2), C(2), [(0, 1), (a, 0)])

    @pytest.mark.parametrize("b,message", [
        (-1, r"pair \[0, -1\]: target index -1 is outside 0..1"),
        (5, r"pair \[0, 5\]: target index 5 is outside 0..1"),
        (1.0, "target index 1.0 is not an integer"),
        (True, "target index True is not an integer"),
    ])
    def test_target_index_is_named(self, b, message):
        with pytest.raises(ValueError, match=message):
            Rel.from_json({"src": 2, "dst": 2, "pairs": [[0, b]]})
        with pytest.raises(ValueError, match=message):
            Rel.from_pairs(C(2), C(2), [(1, 1), (0, b)])

    @pytest.mark.parametrize("a", [False, 0.0, "0"])
    def test_source_index_must_be_an_integer(self, a):
        with pytest.raises(ValueError, match="source index .* is not an integer"):
            Rel.from_json({"src": 2, "dst": 2, "pairs": [[a, 0]]})

    @pytest.mark.parametrize("key", ["src", "dst"])
    @pytest.mark.parametrize("size", [2.7, -1, "2", True, None])
    def test_sizes_are_not_truncated(self, key, size):
        doc = {"src": 2, "dst": 2, "pairs": [[1, 1]], key: size}
        with pytest.raises(ValueError, match=f"'{key}' must be a non-negative integer"):
            Rel.from_json(doc)

    @pytest.mark.parametrize("carrier", [True, -1, {"size": 2.7}, {"size": "2"}, {"size": False}])
    def test_carrier_sizes_are_not_truncated(self, carrier):
        from multirel.dsl import env_from_json

        with pytest.raises(ValueError, match="must be a non-negative integer"):
            env_from_json({"carriers": {"X": carrier}})

    @pytest.mark.parametrize("doc", [[1, 2], "rel", 3, None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ValueError, match="must be a JSON object"):
            Rel.from_json(doc)

    def test_environment_must_be_an_object(self):
        from multirel.dsl import env_from_json

        for env in ([1, 2], {"rels": [1]}, {"rels": []}, {"mrels": None}, {"carriers": False},
                    {"carriers": {"X": [2]}}):
            with pytest.raises(ValueError, match="must be a JSON object"):
                env_from_json(env)
        pair = {"src": 2, "dst": 2, "pairs": [[-1, 0]]}
        with pytest.raises(ValueError, match="source index -1"):
            env_from_json({"rels": {"T": pair}})
