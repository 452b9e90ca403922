from __future__ import annotations

import pytest

import setmodel
from multirel import (
    GenSpec,
    MaskTooWide,
    PowersetTooLarge,
    alpha,
    ccomp,
    classify_mrel,
    closure,
    eta,
    image_functor,
    instances,
    member_rel,
    mrel_to_rel,
    mu,
    omega,
    power_transpose,
    pow_carrier,
    rel_bool,
    rel_compose,
    rel_const,
    rel_converse,
)
from conftest import C, M, R, every, mask, seeded


class TestMemberRel:
    def test_size_1(self):
        assert sorted(member_rel(C(1)).pairs()) == [(0, 1)]

    def test_size_2(self):
        # subsets in mask order: {}, {0}, {1}, {0,1}
        assert sorted(member_rel(C(2)).pairs()) == [(0, 1), (0, 3), (1, 2), (1, 3)]

    def test_equals_up_closure_of_unit(self):
        assert member_rel(C(2)) == mrel_to_rel(closure("up", eta(C(2))))

    def test_cap(self):
        with pytest.raises(PowersetTooLarge):
            member_rel(C(17))


class TestPowerTranspose:
    def test_empty_goes_to_empty_set(self):
        got = power_transpose(R(1, 1, []))
        assert got == M(1, 1, [(0, [])])

    def test_singleton(self):
        assert power_transpose(R(1, 1, [(0, 0)])) == M(1, 1, [(0, [0])])

    def test_has_element_transposes_to_identity_view(self):
        # has-element, P(y) <-> y, is the converse of membership
        got = power_transpose(rel_converse(member_rel(C(2))))
        assert mrel_to_rel(got) == rel_const(
            "identity", pow_carrier(C(2)), pow_carrier(C(2))
        )

    def test_outer_deterministic(self):
        for r in seeded("rel", 2, 3, count=10, seed=2, density=0.5):
            assert classify_mrel(power_transpose(r)).outer_deterministic

    def test_cap(self):
        with pytest.raises(MaskTooWide):
            power_transpose(rel_const("empty", C(1), C(63)))


class TestAlpha:
    def test_flattens_pair(self):
        assert alpha(M(2, 2, [(0, [0, 1])])) == R(2, 2, [(0, 0), (0, 1)])

    def test_eta_flattens_to_identity(self):
        assert alpha(eta(C(3))) == rel_const("identity", C(3), C(3))

    def test_empty_set_contributes_nothing(self):
        assert alpha(M(1, 1, [(0, [])])) == R(1, 1, [])

    def test_round_trip_with_transpose(self):
        for ns in (1, 2, 3):
            for nd in (1, 2, 3):
                for r in every("rel", ns, nd):
                    assert alpha(power_transpose(r)) == r

    def test_matches_set_model(self):
        for m in every("mrel", 2, 2):
            got = set(alpha(m).pairs())
            assert got == setmodel.alpha(setmodel.mrel_sets(m))


class TestImageFunctor:
    def test_preserves_identity(self):
        i = rel_const("identity", C(2), C(2))
        pi = rel_const("identity", pow_carrier(C(2)), pow_carrier(C(2)))
        assert image_functor(i) == pi

    def test_singleton_table(self):
        got = image_functor(R(1, 1, [(0, 0)]))
        assert sorted(got.pairs()) == [(0, 0), (1, 1)]

    def test_functorial(self):
        rs = seeded("rel", 2, 2, count=10, seed=7, density=0.5)
        for r, s in zip(rs[::2], rs[1::2]):
            lhs = image_functor(rel_compose(r, s))
            rhs = rel_compose(image_functor(r), image_functor(s))
            assert lhs == rhs


class TestMonadConstants:
    def test_eta_table(self):
        assert eta(C(2)) == M(2, 2, [(0, [0]), (1, [1])])

    def test_omega_size_1(self):
        got = sorted(omega(C(1)).pairs())
        assert got == [(0, 0), (0, 1), (1, 1)]

    def test_mu_flattens_unions(self):
        # P^2(X) for |X|=1 has 4 families; {emptyset,{0}} has index 3
        m = mu(C(1))
        for fam in range(4):
            flat = 0
            for subset in (0, 1):
                if fam >> subset & 1:
                    flat |= subset
            assert sorted(b for b in range(2) if m.has(fam, b)) == [flat]
        assert m.has(0b11, 1)

    def test_ccomp_is_involutive_bijection(self):
        c = ccomp(C(2))
        p = pow_carrier(C(2))
        assert rel_compose(c, c) == rel_const("identity", p, p)


class TestLambdaAlphaLaws:
    def test_lambda_alpha_inverse_exhaustive(self):
        for ns in (1, 2, 3):
            for nd in (1, 2, 3):
                for r in every("rel", ns, nd):
                    assert alpha(power_transpose(r)) == r

    def test_alpha_lambda_on_outer_deterministic(self):
        spec = GenSpec((2, 2), where=frozenset(["outer_deterministic"]))
        seen = 0
        for f in instances("mrel", spec):
            assert power_transpose(alpha(f)) == f
            seen += 1
        assert seen == 16

    def test_lambda_compose_law(self):
        # transpose of a composition factors through the image functor
        for r in seeded("rel", 2, 2, count=8, seed=4, density=0.5):
            for s in seeded("rel", 2, 2, count=4, seed=5, density=0.5):
                lhs = mrel_to_rel(power_transpose(rel_compose(r, s)))
                rhs = rel_compose(mrel_to_rel(power_transpose(r)), image_functor(s))
                assert lhs == rhs

    def test_lambda_complement_conjugation(self):
        # postcomposing the transpose with set complementation is the
        # transpose of the complement
        for r in every("rel", 2, 2):
            lhs = rel_compose(mrel_to_rel(power_transpose(r)), ccomp(C(2)))
            rhs = mrel_to_rel(power_transpose(rel_bool("complement", r)))
            assert lhs == rhs

    def test_lambda_omega_gives_residual(self):
        for r in every("rel", 2, 2):
            lhs = rel_compose(mrel_to_rel(power_transpose(r)), omega(C(2)))
            from multirel import residual

            rhs = residual("right", rel_converse(r), member_rel(C(2)))
            assert lhs == rhs


class TestMonadAxioms:
    def test_unit_laws(self):
        for n in (1, 2):
            x = C(n)
            px = pow_carrier(x)
            ident = rel_const("identity", px, px)
            assert rel_compose(image_functor(mrel_to_rel(eta(x))), mu(x)) == ident
            assert rel_compose(mrel_to_rel(eta(px)), mu(x)) == ident

    def test_associativity(self):
        for n in (1, 2):
            x = C(n)
            lhs = rel_compose(image_functor(mu(x)), mu(x))
            rhs = rel_compose(mu(pow_carrier(x)), mu(x))
            assert lhs == rhs

    def test_naturality(self):
        for f_rel in every("rel", 2, 2):
            from multirel import classify_rel

            if not classify_rel(f_rel).deterministic:
                continue
            # eta ; P(f) == f ; eta
            lhs = rel_compose(mrel_to_rel(eta(C(2))), image_functor(f_rel))
            rhs = rel_compose(f_rel, mrel_to_rel(eta(C(2))))
            assert lhs == rhs
            # P^2(f) ; mu == mu ; P(f)
            lhs = rel_compose(image_functor(image_functor(f_rel)), mu(C(2)))
            rhs = rel_compose(mu(C(2)), image_functor(f_rel))
            assert lhs == rhs
