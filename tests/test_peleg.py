from __future__ import annotations

import pytest

import setmodel
from multirel import (
    ENUM_CAP,
    EnumerationTooLarge,
    GenSpec,
    MRel,
    alpha,
    classify_mrel,
    classify_rel,
    closure,
    d_subrelations,
    domain,
    eta,
    image_functor,
    instances,
    is_submrel,
    kleisli_compose,
    kleisli_lift,
    mrel_bool,
    mrel_const,
    mrel_to_rel,
    mu,
    omega,
    peleg,
    peleg_compose,
    peleg_lift,
    pow_carrier,
    rel_compose,
    rel_const,
    rel_converse,
    rel_to_mrel,
    split_terminal,
)
from conftest import C, M, R, every, mask, seeded
from peleg_oracle import peleg_compose_oracle


class TestDSubrelations:
    def test_two_choices(self):
        r = M(1, 2, [(0, [0]), (0, [1])])
        got = list(d_subrelations(r))
        assert got == [M(1, 2, [(0, [0])]), M(1, 2, [(0, [1])])]

    def test_univalent_yields_itself(self):
        r = M(2, 2, [(0, [0, 1]), (1, [])])
        assert list(d_subrelations(r)) == [r]

    def test_union_recovers_original(self):
        for r in seeded("mrel", 2, 2, count=20, seed=1, density=0.5):
            parts = list(d_subrelations(r))
            acc = mrel_const("empty", C(2), C(2))
            for p in parts:
                flags = classify_mrel(p)
                assert flags.outer_univalent
                assert domain(mrel_to_rel(p)) == domain(mrel_to_rel(r))
                assert is_submrel(p, r)
                acc = mrel_bool("union", acc, p)
            assert acc == r

    def test_cap(self):
        u = mrel_const("universal", C(6), C(4))
        with pytest.raises(EnumerationTooLarge):
            list(d_subrelations(u))


class TestKleisliLift:
    def test_unit_lifts_to_identity(self):
        p = pow_carrier(C(2))
        assert kleisli_lift(eta(C(2))) == rel_const("identity", p, p)

    def test_union_of_images(self):
        r = M(2, 2, [(0, [0, 1])])
        got = kleisli_lift(r)
        # union-of-image oracle: alpha(r) = {(0,0),(0,1)}, element 1 has none
        expected = {0: 0, 1: mask(0, 1), 2: 0, 3: mask(0, 1)}
        for a_mask, image in expected.items():
            assert got.rows[a_mask] == 1 << image

    def test_factors_through_image_functor_and_mu(self):
        for r in seeded("mrel", 2, 2, count=25, seed=2, density=0.5):
            lhs = kleisli_lift(r)
            rhs = rel_compose(image_functor(mrel_to_rel(r)), mu(C(2)))
            assert lhs == rhs

    def test_deterministic(self):
        for r in seeded("mrel", 2, 3, count=10, seed=3, density=0.5):
            assert classify_rel(kleisli_lift(r)).deterministic


class TestPelegLift:
    def test_lowered_unit_lifts_to_superset_order(self):
        lowered = closure("down", eta(C(2)))
        assert peleg_lift(lowered) == rel_converse(omega(C(2)))

    def test_peleg_equals_kleisli_on_deterministic(self):
        spec = GenSpec((2, 2), where=frozenset(["outer_deterministic"]))
        for r in instances("mrel", spec):
            assert peleg_lift(r) == kleisli_lift(r)

    def test_partial_unit_gives_partial_identity(self):
        r = M(2, 2, [(0, [0])])
        got = peleg_lift(r)
        assert sorted(got.pairs()) == [(0, 0), (1, 1)]  # only {} and {a} reachable

    def test_empty_to_empty_always_present(self):
        for r in seeded("mrel", 2, 2, count=10, seed=4, density=0.5):
            assert peleg_lift(r).has(0, 0)

    def test_univalent_factorization(self):
        # for univalent r the lift is the domain-restricted kleisli lift
        spec = GenSpec((2, 2), where=frozenset(["outer_univalent"]))
        for r in instances("mrel", spec):
            dom_mask = sum(1 << a for a, row in enumerate(r.rows) if row)
            kl = kleisli_lift(r)
            expected = tuple(
                kl.rows[a] if a & ~dom_mask == 0 else 0 for a in range(4)
            )
            assert peleg_lift(r).rows == expected


class TestPelegCompose:
    def test_alpha_strict_example(self):
        r = M(2, 2, [(0, [0, 1])])
        assert peleg_compose(r, r) == mrel_const("empty", C(2), C(2))
        a = alpha(r)
        assert rel_compose(a, a) == R(2, 2, [(0, 0), (0, 1)])

    def test_unit_laws_exhaustive(self):
        one = eta(C(2))
        for r in every("mrel", 2, 2):
            assert peleg_compose(one, r) == r
            assert peleg_compose(r, one) == r

    def test_nonassociative_triple(self):
        # both factors are inner and outer total, yet the bracketings differ
        r = M(3, 3, [(0, [0, 1]), (1, [0]), (2, [2])])
        s = M(3, 3, [(0, [0]), (0, [1]), (1, [0]), (1, [2]), (2, [2])])
        assert classify_mrel(r).inner_total and classify_mrel(r).outer_total
        assert classify_mrel(s).inner_total and classify_mrel(s).outer_total
        left = peleg_compose(peleg_compose(r, r), s)
        right = peleg_compose(r, peleg_compose(r, s))
        witness = mask(0, 1, 2)
        assert right.has(0, witness)
        assert not left.has(0, witness)

    def test_empty_second_factor_is_terminal_part(self):
        empty = mrel_const("empty", C(2), C(2))
        for r in seeded("mrel", 2, 2, count=20, seed=5, density=0.5):
            assert peleg_compose(r, empty) == split_terminal(r)[1]

    def test_matches_set_model(self):
        rs = seeded("mrel", 2, 2, count=30, seed=6, density=0.5)
        for r, s in zip(rs[::2], rs[1::2]):
            got = setmodel.mrel_sets(peleg_compose(r, s))
            expected = setmodel.peleg(setmodel.mrel_sets(r), setmodel.mrel_sets(s))
            assert got == expected

    def test_subassociativity(self):
        rs = seeded("mrel", 3, 3, count=45, seed=7, density=0.5)
        for r, s, t in zip(rs[::3], rs[1::3], rs[2::3]):
            left = peleg_compose(peleg_compose(r, s), t)
            right = peleg_compose(r, peleg_compose(s, t))
            assert is_submrel(left, right)

    def test_first_argument_union_distribution(self):
        rs = seeded("mrel", 2, 2, count=30, seed=8, density=0.5)
        for r, s, t in zip(rs[::3], rs[1::3], rs[2::3]):
            lhs = peleg_compose(mrel_bool("union", r, s), t)
            rhs = mrel_bool("union", peleg_compose(r, t), peleg_compose(s, t))
            assert lhs == rhs


    def test_cap_bounds_the_fold_not_the_choice_product(self):
        # 40^4 = 2.56M choice functions, yet over a 6-element carrier the
        # fold never keeps more than 64 distinct unions
        r = M(1, 4, [(0, [0, 1, 2, 3])])
        s = MRel.make(C(4), C(6), [range(40)] * 4)
        assert peleg_compose(r, s).rows[0] == tuple(range(64))
        assert peleg_lift(s).rows[0b1111] == (1 << 64) - 1
        # a step that would form 2048 * 2048 unions is still refused
        wide = MRel.make(C(2), C(12), [range(2048), range(2048, 4096)])
        with pytest.raises(EnumerationTooLarge):
            peleg_compose(M(1, 2, [(0, [0, 1])]), wide)

    def test_agrees_with_oracle_on_wider_carriers(self):
        rs = seeded("mrel", 2, 4, count=20, seed=21, density=0.3)
        ss = seeded("mrel", 4, 3, count=20, seed=22, density=0.3)
        for r, s in zip(rs, ss):
            assert peleg_compose(r, s) == peleg_compose_oracle(r, s)


class TestCapErrors:
    """The message and size of each choice-fold cap error, as recorded
    from the unshared ascending fold: the first step past ENUM_CAP names
    the same pair or subset, with the same work."""

    # 256 unions of row 0, then 65,536 with row 1, then 65,536 * 17 work
    DEEP = MRel.make(C(3), C(16), [range(256), [m << 8 for m in range(256)], range(17)])
    WIDE = MRel.make(C(2), C(12), [range(2048), range(2048, 4096)])

    @staticmethod
    def raised(f, *args):
        with pytest.raises(EnumerationTooLarge) as e:
            f(*args)
        return str(e.value), e.value.size

    def test_compose_second_step(self):
        assert self.raised(peleg_compose, M(1, 2, [(0, [0, 1])]), self.WIDE) == (
            "pair (0,3): 4194304 choice unions in one step exceed cap 1048576", 4194304)

    def test_lift_second_step(self):
        assert self.raised(peleg_lift, self.WIDE) == (
            "subset 3: 4194304 choice unions in one step exceed cap 1048576", 4194304)

    def test_compose_third_step_after_pairs_sharing_its_prefix(self):
        # (0,{0,1}) and (1,{0,1}) pass and share the failing pair's prefix
        r = M(2, 3, [(0, [0, 1]), (1, [0, 1]), (1, [0, 1, 2])])
        assert self.raised(peleg_compose, r, self.DEEP) == (
            "pair (1,7): 1114112 choice unions in one step exceed cap 1048576", 1114112)

    def test_compose_third_step_with_its_prefix_not_kept(self):
        # over a 20-element target a call keeps {0}'s unions only, so the
        # 65,536 unions of {0,1} are found again for each pair
        deep = MRel.make(C(3), C(20), self.DEEP.rows)
        r = M(2, 3, [(0, [0, 1]), (1, [0, 1]), (1, [0, 1, 2])])
        assert self.raised(peleg_compose, r, deep) == (
            "pair (1,7): 1114112 choice unions in one step exceed cap 1048576", 1114112)

    def test_compose_fails_on_the_first_pair_past_the_cap(self):
        # (0,{0,1,2}) fails before (1,{0,1}) is reached
        r = M(2, 3, [(0, [0, 1, 2]), (1, [0, 1])])
        assert self.raised(peleg_compose, r, self.DEEP) == (
            "pair (0,7): 1114112 choice unions in one step exceed cap 1048576", 1114112)

    def test_lift_third_step_after_subsets_sharing_its_prefix(self):
        assert self.raised(peleg_lift, self.DEEP) == (
            "subset 7: 1114112 choice unions in one step exceed cap 1048576", 1114112)


class TestUnionTable:
    """A call keeps a subset's unions while the entries kept, times the
    2^dst unions one entry can hold, stay within ENUM_CAP: over an 18-element
    target that is 4 entries besides {0}, so later steps are done again."""

    S = MRel.make(C(5), C(18), [[0, 1 << b, 3 << (3 * b)] for b in range(5)])

    def test_keeps_at_most_its_bound(self):
        unions = {0: {0}}
        for b_mask in range(32):
            peleg._choice_unions(self.S, b_mask, unions)
        assert len(unions) == 1 + (ENUM_CAP >> 18)

    def test_steps_done_again_agree_with_the_definition(self):
        r = MRel.make(C(1), C(5), [range(32)])
        got = setmodel.mrel_sets(peleg_compose(r, self.S))
        assert got == setmodel.peleg(setmodel.mrel_sets(r), setmodel.mrel_sets(self.S))

    def test_lift_past_its_bound_agrees_with_the_definition(self):
        # over a 16-element target 16 entries are kept, of the 32 subsets
        s = MRel.make(C(5), C(16), [[0, 1 << b, 3 << (3 * b)] for b in range(5)])
        expected = [0] * 32
        for a, big in setmodel.peleg_lift(setmodel.mrel_sets(s), 5):
            expected[mask(*a)] |= 1 << mask(*big)
        assert list(peleg_lift(s).rows) == expected


class TestUnivalentLaws:
    def test_extension_law(self):
        # (s * f)_lift == s_lift ; f_lift for univalent f
        fs = list(
            instances("mrel", GenSpec((2, 2), where=frozenset(["outer_univalent"])))
        )
        for f in fs:
            for s in seeded("mrel", 2, 2, count=6, seed=9, density=0.5):
                lhs = peleg_lift(peleg_compose(s, f))
                rhs = rel_compose(peleg_lift(s), peleg_lift(f))
                assert lhs == rhs

    def test_unit_lift_is_identity(self):
        p = pow_carrier(C(2))
        assert peleg_lift(eta(C(2))) == rel_const("identity", p, p)

    def test_associativity_with_univalent_third(self):
        fs = list(
            instances("mrel", GenSpec((2, 2), where=frozenset(["outer_univalent"])))
        )
        rs = seeded("mrel", 2, 2, count=16, seed=10, density=0.5)
        for f in fs:
            for r, s in zip(rs[::2], rs[1::2]):
                lhs = peleg_compose(peleg_compose(r, s), f)
                rhs = peleg_compose(r, peleg_compose(s, f))
                assert lhs == rhs

    def test_closure_of_univalent_and_deterministic(self):
        uni = list(
            instances("mrel", GenSpec((2, 2), where=frozenset(["outer_univalent"])))
        )
        for r in uni:
            for s in uni:
                flags = classify_mrel(peleg_compose(r, s))
                assert flags.outer_univalent
        det = [r for r in uni if classify_mrel(r).outer_deterministic]
        for r in det:
            for s in det:
                assert classify_mrel(peleg_compose(r, s)).outer_deterministic

    def test_inner_and_outer_total_closure(self):
        total = [r for r in every("mrel", 2, 2) if classify_mrel(r).outer_total]
        for r in total[:24]:
            for s in total[:24]:
                assert classify_mrel(peleg_compose(r, s)).outer_total
        inner_total = [r for r in every("mrel", 2, 2) if classify_mrel(r).inner_total]
        for r in inner_total[:24]:
            for s in inner_total[:24]:
                assert classify_mrel(peleg_compose(r, s)).inner_total


class TestOracle:
    def test_agreement_seeded_3x3(self):
        rs = seeded("mrel", 3, 3, count=40, seed=11, density=0.3)
        for r, s in zip(rs[::2], rs[1::2]):
            assert peleg_compose(r, s) == peleg_compose_oracle(r, s)

    def test_agreement_on_pinned_examples(self):
        r = M(2, 2, [(0, [0, 1])])
        assert peleg_compose_oracle(r, r) == peleg_compose(r, r)
        r3 = M(3, 3, [(0, [0, 1]), (1, [0]), (2, [2])])
        s3 = M(3, 3, [(0, [0, 1]), (1, [0, 2]), (2, [2])])
        assert peleg_compose_oracle(r3, s3) == peleg_compose(r3, s3)

    def test_terminal_projection(self):
        empty = mrel_const("empty", C(2), C(2))
        for r in seeded("mrel", 2, 2, count=10, seed=12, density=0.5):
            got = peleg_compose_oracle(r, empty)
            assert got == mrel_bool("inter", r, mrel_const("inner_unit", C(2), C(2)))


class TestKleisliCompose:
    def test_associative_on_arbitrary(self):
        rs = seeded("mrel", 3, 3, count=30, seed=13, density=0.5)
        for r, s, t in zip(rs[::3], rs[1::3], rs[2::3]):
            lhs = kleisli_compose(kleisli_compose(r, s), t)
            rhs = kleisli_compose(r, kleisli_compose(s, t))
            assert lhs == rhs

    def test_right_unit(self):
        for r in seeded("mrel", 2, 2, count=15, seed=14, density=0.5):
            assert kleisli_compose(r, eta(C(2))) == r

    def test_left_unit_only_on_outer_deterministic(self):
        # checker-found left-unit failure, kept as a regression
        r = M(1, 1, [(0, []), (0, [0])])
        assert kleisli_compose(eta(C(1)), r) != r
        assert kleisli_compose(eta(C(1)), r) == M(1, 1, [(0, [0])])
        spec = GenSpec((2, 2), where=frozenset(["outer_deterministic"]))
        for r in instances("mrel", spec):
            assert kleisli_compose(eta(C(2)), r) == r

    def test_matches_lift_composition(self):
        for r in seeded("mrel", 2, 2, count=16, seed=15, density=0.5):
            for s in seeded("mrel", 2, 2, count=4, seed=16, density=0.5):
                lhs = mrel_to_rel(kleisli_compose(r, s))
                rhs = rel_compose(mrel_to_rel(r), kleisli_lift(s))
                assert lhs == rhs

    def test_matches_set_model(self):
        rs = seeded("mrel", 2, 2, count=20, seed=17, density=0.5)
        for r, s in zip(rs[::2], rs[1::2]):
            got = setmodel.mrel_sets(kleisli_compose(r, s))
            assert got == setmodel.kleisli(
                setmodel.mrel_sets(r), setmodel.mrel_sets(s)
            )


class TestBasisPelegLift:
    def test_lift_via_transpose_and_mu(self):
        # lift == (transpose of element-to-singletons, Peleg-composed with
        # the per-element boxed relation), flattened by mu
        from multirel import member_rel, power_transpose

        for n in (1, 2):
            x = C(n)
            for r in seeded("mrel", n, n, count=12, seed=18, density=0.5):
                boxed = rel_compose(
                    rel_converse(mrel_to_rel(eta(x))), mrel_to_rel(r)
                )
                boxed_m = rel_to_mrel(
                    rel_compose(boxed, mrel_to_rel(eta(pow_carrier(C(n)))))
                )
                sing = rel_to_mrel(
                    mrel_to_rel(
                        power_transpose(
                            rel_compose(rel_converse(member_rel(x)), mrel_to_rel(eta(x)))
                        )
                    )
                )
                got = rel_compose(
                    mrel_to_rel(peleg_compose(sing, boxed_m)), mu(C(n))
                )
                assert got == peleg_lift(r)
