"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (discrete finite mathematics; zero tolerance).  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

from multirel import (
    GenSpec,
    alpha,
    classify_mrel,
    classify_rel,
    eta,
    fission,
    fusion,
    inner_bool,
    instances,
    is_subrel,
    is_submrel,
    mrel_bool,
    mrel_const,
    mrel_to_rel,
    peleg_compose,
    power_transpose,
    preorder,
    rel_bool,
    rel_compose,
    rel_const,
    rel_converse,
    rel_to_mrel,
    split_terminal,
)
from multirel.laws import check
from multirel.registry import law_by_id, registry
from conftest import C, M, R, every, mask
from peleg_oracle import peleg_compose_oracle


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    else:
        elapsed = time.monotonic() - started
        print(f"[criterion {number}] PASS: {description} ({elapsed:.1f}s)")


def test_criterion_1_round_trip_bijections():
    with criterion(1, "round-trip bijections under 1s"):
        started = time.monotonic()
        # alpha after transpose is the identity on every relation up to 3x3
        # (512 relations at 3x3 alone)
        for ns in (1, 2, 3):
            for nd in (1, 2, 3):
                for r in every("rel", ns, nd):
                    assert alpha(power_transpose(r)) == r
        # transpose after alpha fixes the 16 outer deterministic arrows at 2x2
        dets = list(
            instances("mrel", GenSpec((2, 2), where=frozenset(["outer_deterministic"])))
        )
        assert len(dets) == 16
        for f in dets:
            assert power_transpose(alpha(f)) == f
        # eta and alpha form a bijective pair with the inner deterministic class
        one = mrel_to_rel(eta(C(2)))
        for ns in (1, 2):
            for nd in (1, 2):
                inner_one = mrel_to_rel(eta(C(nd)))
                for r in every("rel", ns, nd):
                    assert alpha(rel_to_mrel(rel_compose(r, inner_one))) == r
        idets = [m for m in every("mrel", 2, 2) if classify_mrel(m).inner_deterministic]
        assert len(idets) == 16
        for m in idets:
            assert rel_to_mrel(rel_compose(alpha(m), one)) == m
        assert time.monotonic() - started < 1.0


def test_criterion_2_peleg_oracle_equivalence():
    with criterion(2, "direct Peleg composition equals the decomposition oracle under 60s"):
        started = time.monotonic()
        ms = every("mrel", 2, 2)
        for r in ms:
            for s in ms:
                assert peleg_compose(r, s) == peleg_compose_oracle(r, s)
        pairs = list(
            instances("mrel", GenSpec((3, 3), "random", count=2000, seed=2024))
        )
        for r, s in zip(pairs[::2], pairs[1::2]):
            assert peleg_compose(r, s) == peleg_compose_oracle(r, s)
        assert time.monotonic() - started < 60.0


def test_criterion_3_pinned_witnesses():
    with criterion(3, "pinned witnesses reproduce exactly"):
        # (a) strictness of the approximation under self-composition
        r = M(2, 2, [(0, [0, 1])])
        assert peleg_compose(r, r) == M(2, 2, [])
        ar = alpha(r)
        assert rel_compose(ar, ar) == R(2, 2, [(0, 0), (0, 1)])

        # (b) the non-associativity triple with witness (a, {a,b,c})
        r3 = M(3, 3, [(0, [0, 1]), (1, [0]), (2, [2])])
        s3 = M(3, 3, [(0, [0]), (0, [1]), (1, [0]), (1, [2]), (2, [2])])
        right = peleg_compose(r3, peleg_compose(r3, s3))
        left = peleg_compose(peleg_compose(r3, r3), s3)
        assert right.has(0, mask(0, 1, 2))
        assert not left.has(0, mask(0, 1, 2))

        # (c) the four inclusion-only Galois failures
        rm = M(1, 1, [(0, [])])
        s = R(1, 1, [(0, 0)])
        assert is_subrel(alpha(rm), s)
        assert not is_submrel(rm, power_transpose(s))
        rr = R(1, 1, [])
        sm = M(1, 1, [(0, [0])])
        assert is_subrel(rr, alpha(sm))
        assert not is_submrel(power_transpose(rr), sm)
        rm2 = M(1, 2, [(0, [0, 1])])
        s2 = R(1, 2, [(0, 0), (0, 1)])
        eta2 = mrel_to_rel(eta(C(2)))
        assert is_subrel(alpha(rm2), s2)
        assert not is_submrel(rm2, rel_to_mrel(rel_compose(s2, eta2)))
        assert is_subrel(s2, alpha(rm2))
        assert not is_submrel(rel_to_mrel(rel_compose(s2, eta2)), rm2)

        # (d) the non-terminal projection does not fix fusion's image
        rd = M(2, 2, [(0, [])])
        fo = fusion(rd)
        assert fo == M(2, 2, [(0, []), (1, [])])
        assert split_terminal(fo)[0] == M(2, 2, [])

        # (e) fission/fusion fail to split Peleg composition without totality
        re = M(2, 2, [(0, [0, 1])])
        se = M(2, 2, [(0, [0])])
        prod = peleg_compose(re, se)
        assert prod == M(2, 2, [])
        assert fission(prod) == M(2, 2, [])
        assert peleg_compose(fission(re), fission(se)) == M(2, 2, [(0, [0])])
        assert fusion(prod) == M(2, 2, [(0, []), (1, [])])
        assert peleg_compose(fusion(re), fusion(se)) == M(2, 2, [(0, [0]), (1, [])])

        # (f) empty-family quantaloid failures
        unit_low = mrel_const("inner_unit", C(1), C(1))
        empty = mrel_const("empty", C(1), C(1))
        assert peleg_compose(empty, unit_low) == empty != unit_low
        assert peleg_compose(unit_low, empty) == unit_low != empty

        # each failure is also a named registry regression
        for law_id in (
            "REG-alpha-strict",
            "REG-nonassoc-triple",
            "REG-galois-subset-alpha-lambda",
            "REG-galois-subset-lambda-alpha",
            "REG-galois-subset-alpha-eta",
            "REG-galois-subset-eta-alpha",
            "REG-nu-fusion",
            "REG-det-peleg-fission",
            "REG-det-peleg-fusion",
            "REG-quantaloid-union-empty",
            "REG-quantaloid-cup-empty",
        ):
            rep = check(law_by_id(law_id))
            assert rep.verdict == "fail" and rep.as_declared, law_id


def test_criterion_4_galois_connection_suite():
    with criterion(4, "downward-order Galois suite exhaustive at 2,2 under 30s"):
        started = time.monotonic()
        mrels = every("mrel", 2, 2)
        rels = every("rel", 2, 2)
        eta2 = mrel_to_rel(eta(C(2)))
        # item 1: the three Galois equivalences
        for m in mrels:
            am = alpha(m)
            for t in rels:
                assert is_subrel(am, t) == preorder("hoare", m, power_transpose(t))
        for t in rels:
            eta_t = rel_to_mrel(rel_compose(t, eta2))
            for s in mrels:
                assert preorder("hoare", eta_t, s) == is_subrel(t, alpha(s))
        fissions = [fission(m) for m in mrels]
        fusions = [fusion(m) for m in mrels]
        for i, m in enumerate(mrels):
            for j, s in enumerate(mrels):
                assert preorder("hoare", fissions[i], s) == preorder(
                    "hoare", m, fusions[j]
                )
        # item 2: alpha sends inner meets to intersections
        for m in mrels:
            am = alpha(m)
            for s in mrels:
                assert alpha(inner_bool("icap", m, s)) == rel_bool("inter", am, alpha(s))
        # item 3: monotonicity
        for t in rels:
            for v in rels:
                if is_subrel(t, v):
                    assert preorder("hoare", power_transpose(t), power_transpose(v))
                    assert preorder(
                        "hoare",
                        rel_to_mrel(rel_compose(t, eta2)),
                        rel_to_mrel(rel_compose(v, eta2)),
                    )
        for i, m in enumerate(mrels):
            for j, s in enumerate(mrels):
                if preorder("hoare", m, s):
                    assert is_subrel(alpha(m), alpha(s))
        # item 4: closure and interior
        for i, m in enumerate(mrels):
            assert preorder("hoare", m, fusions[i])
            assert preorder("hoare", fissions[i], m)
            assert fusion(fusions[i]) == fusions[i]
            assert fission(fissions[i]) == fissions[i]
        for i, m in enumerate(mrels):
            for j, s in enumerate(mrels):
                if preorder("hoare", m, s):
                    assert preorder("hoare", fusions[i], fusions[j])
                    assert preorder("hoare", fissions[i], fissions[j])
        assert time.monotonic() - started < 30.0


def _category_suite(items):
    """Closure, units and exhaustive associativity over an indexed class."""
    index = {m: i for i, m in enumerate(items)}
    n = len(items)
    table = [[0] * n for _ in range(n)]
    for i, a in enumerate(items):
        for j, b in enumerate(items):
            prod = peleg_compose(a, b)
            assert prod in index  # closure
            table[i][j] = index[prod]
    unit = index[eta(C(2))]
    for i in range(n):
        assert table[unit][i] == i
        assert table[i][unit] == i
    for i in range(n):
        ti = table[i]
        for j in range(n):
            tij = table[i][j]
            tj = table[j]
            for k in range(n):
                assert table[tij][k] == ti[tj[k]]


def test_criterion_5_category_suites():
    with criterion(5, "deterministic/univalent category suites under 5min"):
        started = time.monotonic()
        outer_det = list(
            instances("mrel", GenSpec((2, 2), where=frozenset(["outer_deterministic"])))
        )
        assert len(outer_det) == 16
        _category_suite(outer_det)
        inner_det = list(
            instances("mrel", GenSpec((2, 2), where=frozenset(["inner_deterministic"])))
        )
        assert len(inner_det) == 16
        _category_suite(inner_det)
        inner_univ = list(
            instances("mrel", GenSpec((2, 2), where=frozenset(["inner_univalent"])))
        )
        assert len(inner_univ) == 64
        _category_suite(inner_univ)
        assert time.monotonic() - started < 300.0


def test_criterion_6_fixpoint_suites():
    with criterion(6, "fixpoint characterisations agree with classification"):
        # mandatory exhaustive run at (2,2), full run at (2,3)
        for nd in (2, 3):
            at = mrel_const("atoms", C(2), C(nd))
            lo = mrel_const("inner_unit", C(2), C(nd))
            at_or_lo = mrel_bool("union", at, lo)
            one = mrel_to_rel(eta(C(nd)))
            one_conv = rel_converse(one)
            for m in instances("mrel", GenSpec((2, nd))):
                flags = classify_mrel(m)
                assert flags.inner_univalent == (mrel_bool("inter", m, at_or_lo) == m)
                assert flags.inner_total == (mrel_bool("minus", m, lo) == m)
                assert flags.inner_deterministic == (mrel_bool("inter", m, at) == m)
                view = mrel_to_rel(m)
                assert flags.inner_deterministic == (
                    rel_compose(rel_compose(view, one_conv), one) == view
                )
                assert (fusion(m) == m) == flags.outer_deterministic
                assert (fission(m) == m) == flags.inner_deterministic
        # pre/postfixpoint refinements, exhaustive at (2,2)
        for m in every("mrel", 2, 2):
            flags = classify_mrel(m)
            fo, fi = fusion(m), fission(m)
            assert is_submrel(m, fo) == flags.outer_univalent
            assert preorder("smyth", fo, m) == flags.outer_univalent
            for hyp in (
                is_submrel(fo, m),
                preorder("hoare", fo, m),
                preorder("smyth", m, fo),
            ):
                if hyp:
                    assert flags.outer_total
            assert preorder("egli_milner", m, fo) == preorder("smyth", m, fo)
            if preorder("egli_milner", fo, m):
                assert flags.outer_deterministic
            if flags.inner_univalent:
                assert is_submrel(fi, m)
                assert preorder("smyth", m, fi)
            if preorder("hoare", m, fi):
                assert flags.inner_univalent
            assert preorder("egli_milner", m, fi) == preorder("hoare", m, fi)
            assert preorder("smyth", fi, m) == flags.inner_total
            assert preorder("egli_milner", fi, m) == preorder("smyth", fi, m)
            if is_submrel(m, fi):
                assert flags.inner_deterministic


def test_criterion_7_basis_concordance():
    with criterion(7, "basis definitions match the direct implementations"):
        basis = [law for law in registry() if law.id.startswith("A-")]
        assert len(basis) >= 30
        for law in basis:
            rep = check(law, sizes=(2, 2), seed=5)
            assert rep.verdict == "pass", (law.id, rep.counterexamples[:1])
            assert rep.mode == "exhaustive" or not law.slots
        # at size 3 where the powerset caps allow (sampled when the space
        # is too large to enumerate)
        for law in basis:
            if law.size_cap < 3:
                continue
            rep = check(law, sizes=(3, 3), seed=5, count=60)
            assert rep.verdict == "pass", (law.id, rep.counterexamples[:1])
        # relative complement is not a term-language token; check directly
        for r in instances("rel", GenSpec((2, 2))):
            for s in instances("rel", GenSpec((2, 2))):
                assert rel_bool("minus", r, s) == rel_bool(
                    "inter", r, rel_bool("complement", s)
                )
        for m in every("mrel", 1, 2):
            for s in every("mrel", 1, 2):
                assert mrel_bool("minus", m, s) == mrel_bool(
                    "inter", m, mrel_bool("complement", s)
                )


def test_criterion_8_full_check_deterministic(capsys):
    with criterion(8, "check --all --sizes 2,2 exits 0 under 10min, byte-identical JSON"):
        from multirel.cli import main

        started = time.monotonic()
        rc1 = main(["check", "--all", "--sizes", "2,2", "--seed", "7", "--json"])
        out1 = capsys.readouterr().out
        assert rc1 == 0
        rc2 = main(["check", "--all", "--sizes", "2,2", "--seed", "7", "--json"])
        out2 = capsys.readouterr().out
        assert rc2 == 0
        assert out1 == out2
        # the bytes of every report are pinned: a change to them must come
        # with a new hash, and say why
        pinned = (Path(__file__).parent / "data" / "check_all_2x2_seed7.sha256").read_text()
        assert hashlib.sha256(out1.encode()).hexdigest() == pinned.strip()
        payload = json.loads(out1)
        assert payload["all_as_declared"] is True
        assert len(payload["reports"]) == len(registry())
        assert time.monotonic() - started < 600.0
