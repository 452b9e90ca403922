from __future__ import annotations

import dataclasses
import hashlib
import json
from itertools import combinations, islice, product

import pytest

from multirel import (
    EnumerationTooLarge,
    GenSpec,
    MRel,
    PropertyFlags,
    Rel,
    RelFlags,
    SplitMix64,
    classify_mrel,
    classify_rel,
    instances,
    mix64,
    space_size,
)
from multirel.generate import EXHAUSTIVE_BITS, _model, density_threshold
from multirel.mrel import MREL_ROW_FLAGS
from multirel.rel import REL_ROW_FLAGS, row_test
from conftest import C, M, R
from setmodel import mrel_flags, rel_flags


def _length(kind, spec):
    """The length of a stream, counted by drawing it."""
    return sum(1 for _ in instances(kind, spec))


class TestSplitMix:
    def test_known_stream(self):
        # reference values for seed 0 (first three splitmix64 outputs)
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_mix_is_pure(self):
        assert mix64(42) == mix64(42)
        assert mix64(1) != mix64(2)


class TestExhaustive:
    def test_mrel_1_1_instances(self):
        got = list(instances("mrel", GenSpec((1, 1))))
        assert got == [
            M(1, 1, []),
            M(1, 1, [(0, [])]),
            M(1, 1, [(0, [0])]),
            M(1, 1, [(0, []), (0, [0])]),
        ]

    def test_mrel_2_2_count(self):
        assert _length("mrel", GenSpec((2, 2))) == 256

    def test_rel_2_2_count(self):
        assert _length("rel", GenSpec((2, 2))) == 16

    def test_counts_match_closed_forms(self):
        for ns, nd in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert _length("rel", GenSpec((ns, nd))) == 1 << (ns * nd)
            assert _length("mrel", GenSpec((ns, nd))) == 1 << (ns * (1 << nd))

    def test_no_duplicates(self):
        seen = set(instances("mrel", GenSpec((2, 2))))
        assert len(seen) == 256

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge):
            list(instances("mrel", GenSpec((2, 4))))


class TestFilters:
    def test_inner_univalent_count(self):
        spec = GenSpec((2, 2), where=frozenset(["inner_univalent"]))
        assert _length("mrel", spec) == 64

    def test_outer_deterministic_count(self):
        spec = GenSpec((1, 2), where=frozenset(["outer_deterministic"]))
        assert _length("mrel", spec) == 4

    def test_inner_deterministic_count(self):
        # rows are subsets of the singleton masks; the empty multirelation
        # is vacuously inner deterministic, so (1,2) has 4 instances
        spec = GenSpec((1, 2), where=frozenset(["inner_deterministic"]))
        assert _length("mrel", spec) == 4

    def test_constructive_matches_rejection(self):
        for name in (
            "inner_univalent",
            "inner_deterministic",
            "outer_deterministic",
            "outer_univalent",
        ):
            constructive = set(
                instances("mrel", GenSpec((2, 2), where=frozenset([name])))
            )
            rejected = {
                m
                for m in instances("mrel", GenSpec((2, 2)))
                if getattr(classify_mrel(m), name)
            }
            assert constructive == rejected

    def test_filtered_instances_satisfy_filter(self):
        spec = GenSpec(
            (2, 2), "random", count=30, seed=9, where=frozenset(["inner_total"])
        )
        for m in instances("mrel", spec):
            assert classify_mrel(m).inner_total


class TestRowFlags:
    """``has_flags`` tests only the flags it is asked for, row by row; it
    must agree with ``classify_*`` and with the set model's definitions."""

    @staticmethod
    def _values():
        yield from instances("mrel", GenSpec((2, 2)))
        yield from instances("rel", GenSpec((3, 3)))
        yield from instances("rel", GenSpec((2, 3)))
        yield from instances("mrel", GenSpec((3, 2), "random", count=500, seed=3))

    def test_has_flags_matches_classify(self):
        seen = set()
        for v in self._values():
            if isinstance(v, Rel):
                flags, oracle = vars(classify_rel(v)), rel_flags(v)
            else:
                flags, oracle = vars(classify_mrel(v)), mrel_flags(v)
            assert flags == oracle, v
            names = sorted(flags)
            for i, f in enumerate(names):
                assert v.has_flags({f}) == flags[f], (v, f)
                seen.add((type(v).__name__, f, flags[f]))
                for g in names[i + 1:]:
                    assert v.has_flags({f, g}) == (flags[f] and flags[g]), (v, f, g)
        # every flag both holds and fails somewhere, so no comparison is vacuous
        assert len(seen) == 2 * (9 + 4)

    def test_every_table_entry_takes_index_row_and_width(self):
        for v in self._values():
            oracle = rel_flags(v) if isinstance(v, Rel) else mrel_flags(v)
            square = v.src.size == v.dst.size
            for name, flag in type(v).FLAGS.items():
                rows_pass = all(flag(a, row, v.dst.size) for a, row in enumerate(v.rows))
                assert (rows_pass and (square or name != "test")) == oracle[name], (v, name)

    @pytest.mark.parametrize("record, flags, name, module", [
        (RelFlags, REL_ROW_FLAGS, "RelFlags", "multirel.rel"),
        (PropertyFlags, MREL_ROW_FLAGS, "PropertyFlags", "multirel.mrel"),
    ])
    def test_flag_records_are_built_from_the_tables(self, record, flags, name, module):
        assert [f.name for f in dataclasses.fields(record)] == list(flags)
        assert (record.__name__, record.__qualname__, record.__module__) == (name, name, module)
        value = record(**dict.fromkeys(flags, False))
        assert repr(value) == f"{name}({', '.join(f'{f}=False' for f in flags)})"
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, next(iter(flags)), True)

    def test_test_flag_reads_the_row_index(self):
        assert R(3, 3, [(1, 1), (2, 2)]).has_flags({"test"})
        assert not R(3, 3, [(1, 0)]).has_flags({"test"})
        assert not R(3, 3, [(2, 1)]).has_flags({"test"})
        assert not R(2, 3, []).has_flags({"test"})  # carriers of two sizes
        assert not R(0, 1, []).has_flags({"test"})  # even with no rows

    @pytest.mark.parametrize("flags", [REL_ROW_FLAGS, {"test": lambda a, row, w: True}])
    def test_test_needs_square_carriers_whichever_table_holds_it(self, flags):
        assert row_test(flags, {"test"}, 2, 3) is None
        assert row_test(flags, {"test"}, 3, 3)(0, 1)
        assert row_test(flags, (), 2, 3)(0, 1)


class TestRandom:
    def test_same_seed_same_stream(self):
        spec = GenSpec((2, 3), "random", count=25, seed=123)
        a = list(instances("mrel", spec))
        b = list(instances("mrel", spec))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(instances("mrel", GenSpec((2, 3), "random", count=25, seed=1)))
        b = list(instances("mrel", GenSpec((2, 3), "random", count=25, seed=2)))
        assert a != b

    def test_chunked_prefix_stability(self):
        # instance k depends only on (seed, k): a longer run extends a
        # shorter one, which is what makes chunked consumption safe
        short = list(instances("rel", GenSpec((2, 2), "random", count=10, seed=77)))
        long = list(instances("rel", GenSpec((2, 2), "random", count=30, seed=77)))
        assert long[:10] == short

    @pytest.mark.parametrize(
        "kind,shape,where,density",
        [
            ("rel", (3, 3), "", 0.3),
            ("mrel", (3, 2), "", 0.5),
            ("mrel", (2, 3), "inner_univalent", 0.75),
            ("mrel", (3, 2), "outer_univalent", 0.5),
            ("mrel", (3, 3), "", 0.5),
            ("mrel", (3, 3), "", 0.3),
            ("mrel", (5, 4), "", 0.5),  # 80 lanes: rows 0-3, then row 4
            ("mrel", (1, 10), "", 0.5),  # one row of 1,024 lanes
            ("rel", (3, 3), "test", 0.5),  # a memo per row
            ("rel", (3, 3), "", 0.0),
            ("rel", (3, 3), "", 1.0),
            ("mrel", (3, 3), "", 0.0),
            ("mrel", (3, 3), "", 1.0),
            ("mrel", (3, 3), "inner_total", 0.3),
            ("mrel", (3, 3), "outer_total", 0.5),
            ("mrel", (3, 2), "up_closed", 0.5),
            ("mrel", (5, 4), "up_closed", 0.95),
            ("mrel", (3, 3), "outer_deterministic+inner_total", 0.5),
        ],
    )
    def test_inlined_draws_match_splitmix64(self, kind, shape, where, density):
        # candidate k draws its rows from SplitMix64(mix64(seed ^ k)): one
        # bernoulli per row candidate for a subset draw, one below(n) per
        # row for a pick draw; it is dropped at its first row that fails a
        # filter its rows are not built to pass
        spec = GenSpec(shape, "random", count=30, density=density, seed=4,
                       where=frozenset(where.split("+") if where else []))
        pick, candidates, residual = _model(kind, spec)
        make = Rel if kind == "rel" else MRel
        passes = row_test(make.FLAGS, residual, *shape)
        threshold = density_threshold(density)
        expected, k = [], 0
        while len(expected) < 30:
            rng = SplitMix64(mix64(4 ^ k))
            k += 1
            rows = []
            for a in range(shape[0]):
                if pick:
                    row = candidates[rng.below(len(candidates))]
                else:
                    taken = [c for c in candidates if rng.bernoulli(threshold)]
                    row = sum(taken) if kind == "rel" else tuple(taken)
                if not passes(a, row):
                    break
                rows.append(row)
            else:
                expected.append(make(C(shape[0]), C(shape[1]), tuple(rows)))
        assert list(instances(kind, spec)) == expected

    def test_output_at_the_threshold_is_not_taken(self):
        # bernoulli takes an output strictly below the threshold; a density
        # whose threshold is one of candidate 0's 24 outputs at 3,3 (one that
        # is a multiple of 2^11, so exact as a float) must leave it out
        def outputs(seed):
            rng = SplitMix64(mix64(seed))
            return [rng.next_u64() for _ in range(24)]

        seed, out, j = next((s, out, j) for s in range(10_000) for out in [outputs(s)]
                            for j, x in enumerate(out) if x % 2048 == 0)
        x = out[j]
        assert density_threshold(x / 2**64) == x
        spec = GenSpec((3, 3), "random", count=1, density=x / 2**64, seed=seed)
        (value,) = instances("mrel", spec)
        rows = tuple(tuple(m for m in range(8) if out[a * 8 + m] < x) for a in range(3))
        assert value == MRel(C(3), C(3), rows)
        assert j % 8 not in value.rows[j // 8]

    def test_density_extremes(self):
        full = list(instances("rel", GenSpec((2, 2), "random", count=5, seed=1, density=1.0)))
        assert all(r.count() == 4 for r in full)
        empty = list(instances("rel", GenSpec((2, 2), "random", count=5, seed=1, density=0.0)))
        assert all(r.count() == 0 for r in empty)


# sha256 (first 16 hex digits) of the JSON of the first 300 instances of
# each stream; random streams draw 20 instances at seed 11.  A key is
# ``(kind, where, mode, shape)``, with a fifth element for a density other
# than 0.5; ``where`` joins several filters with ``+``.  Stream order is part
# of the report contract: a changed digest changes which instances a law
# checks.  The first block was taken before the generators shared one row
# model, the second before random streams were drawn row by row.  Neither
# changed when a random candidate's splitmix64 outputs moved into the lanes
# of one wide int: the lanes hold the very outputs the scalar steps gave.
PINNED = {
    ("rel", "", "exhaustive", (2, 2)): "17152a7e47b49189",
    ("rel", "", "exhaustive", (2, 3)): "c66d80a5512be067",
    ("rel", "", "exhaustive", (3, 2)): "22c2c4146a587322",
    ("rel", "", "random", (2, 2)): "fef2611bcb53618f",
    ("rel", "", "random", (2, 3)): "3e2cedac279f7f32",
    ("rel", "", "random", (3, 2)): "2b89e7ffc52dbbbb",
    ("rel", "total", "exhaustive", (2, 2)): "c18dc2672225960e",
    ("rel", "total", "exhaustive", (2, 3)): "0ccf49bb9ca7c7f4",
    ("rel", "total", "exhaustive", (3, 2)): "b703b89288a90ee6",
    ("rel", "total", "random", (2, 2)): "64b53c04cf513f6c",
    ("rel", "total", "random", (2, 3)): "46398cbd79dfac90",
    ("rel", "total", "random", (3, 2)): "5af52ac1c8d94638",
    ("mrel", "", "exhaustive", (2, 2)): "95e7d2d636e59c5d",
    ("mrel", "", "exhaustive", (2, 3)): "974051d8afc5dcfe",
    ("mrel", "", "exhaustive", (3, 2)): "c8aeed63a1488102",
    ("mrel", "", "random", (2, 2)): "59d44254de31c99e",
    ("mrel", "", "random", (2, 3)): "3ded0061c912e79d",
    ("mrel", "", "random", (3, 2)): "408ce3501f1d4b9c",
    ("mrel", "inner_deterministic", "exhaustive", (2, 2)): "23f4776de196080b",
    ("mrel", "inner_deterministic", "exhaustive", (2, 3)): "a0c861f4abae1e63",
    ("mrel", "inner_deterministic", "exhaustive", (3, 2)): "10ed2697ed73c9ed",
    ("mrel", "inner_deterministic", "random", (2, 2)): "025ca1503c9729b8",
    ("mrel", "inner_deterministic", "random", (2, 3)): "a12ae36eea747424",
    ("mrel", "inner_deterministic", "random", (3, 2)): "88b36143b4fe50de",
    ("mrel", "inner_univalent", "exhaustive", (2, 2)): "b593ba0421afba75",
    ("mrel", "inner_univalent", "exhaustive", (2, 3)): "d9b56802502c20ca",
    ("mrel", "inner_univalent", "exhaustive", (3, 2)): "8fd60a467043d5ea",
    ("mrel", "inner_univalent", "random", (2, 2)): "8a6548b3bab870f1",
    ("mrel", "inner_univalent", "random", (2, 3)): "740aa1213a8fbfc3",
    ("mrel", "inner_univalent", "random", (3, 2)): "60f35d63431e1ec8",
    ("mrel", "outer_deterministic", "exhaustive", (2, 2)): "8c20c3e425ac2b67",
    ("mrel", "outer_deterministic", "exhaustive", (2, 3)): "0a646e7a1a2753cf",
    ("mrel", "outer_deterministic", "exhaustive", (3, 2)): "a406daa0bbdfe486",
    ("mrel", "outer_deterministic", "random", (2, 2)): "7d038c95f5f0827f",
    ("mrel", "outer_deterministic", "random", (2, 3)): "58fac05ee1942fb9",
    ("mrel", "outer_deterministic", "random", (3, 2)): "b995c106980dd501",
    ("mrel", "outer_univalent", "exhaustive", (2, 2)): "db0adf257ceea249",
    ("mrel", "outer_univalent", "exhaustive", (2, 3)): "b20a911c60fbed75",
    ("mrel", "outer_univalent", "exhaustive", (3, 2)): "4885d3b7ea792f96",
    ("mrel", "outer_univalent", "random", (2, 2)): "8f3b7108a3a38ea6",
    ("mrel", "outer_univalent", "random", (2, 3)): "ddcb0bc7321a5857",
    ("mrel", "outer_univalent", "random", (3, 2)): "dac2f6dbf94d18f3",
    ("mrel", "inner_total", "exhaustive", (2, 2)): "371fe93848701354",
    ("mrel", "inner_total", "exhaustive", (2, 3)): "cd1cfd201a469849",
    ("mrel", "inner_total", "exhaustive", (3, 2)): "218bb88f4df3611f",
    ("mrel", "inner_total", "random", (2, 2)): "49582b56903491e9",
    ("mrel", "inner_total", "random", (2, 3)): "524d9e38dff1a480",
    ("mrel", "inner_total", "random", (3, 2)): "721caabd90802c10",
    # taken before random streams were drawn row by row
    ("rel", "", "random", (3, 3)): "5492c9b04d4ffd5b",
    ("rel", "total", "random", (3, 3)): "5c2360ef91d46561",
    ("rel", "univalent", "random", (3, 3)): "f6af4b314d14ee0b",
    ("rel", "deterministic", "random", (3, 3)): "ff02885d1ed6ce89",
    ("rel", "test", "random", (3, 3)): "4650f71ba1c5e5dc",
    ("rel", "univalent", "exhaustive", (2, 2)): "df99c5242210b6b8",
    ("rel", "univalent", "exhaustive", (3, 2)): "74a7b5720cdf4b01",
    ("rel", "univalent", "exhaustive", (3, 3)): "8636d65ff06e0ea4",
    ("rel", "univalent", "random", (2, 2)): "7b9de92c63516589",
    ("rel", "univalent", "random", (3, 2)): "5ed63184a9ddc10f",
    ("rel", "deterministic", "exhaustive", (2, 2)): "86fd9dbea6ad73d6",
    ("rel", "deterministic", "exhaustive", (3, 2)): "416760d8bc274531",
    ("rel", "deterministic", "exhaustive", (3, 3)): "bad4f78b602ef010",
    ("rel", "deterministic", "random", (2, 2)): "a59f563243a159fe",
    ("rel", "deterministic", "random", (3, 2)): "db296a6ddc71157e",
    ("rel", "test", "exhaustive", (2, 2)): "2a24e268236c0b00",
    ("rel", "test", "exhaustive", (3, 2)): "4f53cda18c2baa0c",
    ("rel", "test", "exhaustive", (3, 3)): "1551716154c0147d",
    ("rel", "test", "random", (2, 2)): "1d5e4a0731321e50",
    ("mrel", "", "random", (3, 3)): "949f56273b71d456",
    ("mrel", "inner_total", "random", (3, 3)): "09f0d4d849051b06",
    ("mrel", "outer_total", "random", (3, 3)): "be74394ffe3a4aaa",
    ("mrel", "union_closed", "random", (3, 3)): "fa1ea325b6b73456",
    ("mrel", "outer_total", "exhaustive", (2, 2)): "eaf32a7e4b20c2d0",
    ("mrel", "outer_total", "random", (2, 2)): "67d8d5c11031fa89",
    ("mrel", "outer_total", "exhaustive", (2, 3)): "0ca3c2f0aa9a86b6",
    ("mrel", "outer_total", "random", (2, 3)): "22e36e66575d75af",
    ("mrel", "outer_total", "exhaustive", (3, 2)): "cb37cd0728b60352",
    ("mrel", "outer_total", "random", (3, 2)): "60244f8d154faa43",
    ("mrel", "union_closed", "exhaustive", (2, 2)): "c6315b3f76a99e3d",
    ("mrel", "union_closed", "random", (2, 2)): "fc8a6d17291d8c2c",
    ("mrel", "union_closed", "exhaustive", (2, 3)): "ef78366e8492a6fd",
    ("mrel", "union_closed", "random", (2, 3)): "9f525eec15f611ef",
    ("mrel", "union_closed", "exhaustive", (3, 2)): "b8bf2b872e02a25a",
    ("mrel", "union_closed", "random", (3, 2)): "6e0110a4454ec8be",
    ("mrel", "up_closed", "exhaustive", (2, 2)): "98a8e63218871f6d",
    ("mrel", "up_closed", "random", (2, 2)): "993e3e77c9f7fd38",
    ("mrel", "up_closed", "exhaustive", (2, 3)): "5068570f6d6b77c6",
    ("mrel", "up_closed", "random", (2, 3)): "0a690b229879cba6",
    ("mrel", "up_closed", "exhaustive", (3, 2)): "bba6735c0e678a92",
    ("mrel", "up_closed", "random", (3, 2)): "7bd32ade42f7f6a7",
    ("mrel", "down_closed", "exhaustive", (2, 2)): "4a2324d16545c8c4",
    ("mrel", "down_closed", "random", (2, 2)): "4e4b9a19e108b625",
    ("mrel", "down_closed", "exhaustive", (2, 3)): "d1460d3572ec918a",
    ("mrel", "down_closed", "random", (2, 3)): "2fe7ff759f3b48aa",
    ("mrel", "down_closed", "exhaustive", (3, 2)): "42830c184ad257f2",
    ("mrel", "down_closed", "random", (3, 2)): "d9d5638cd140a4b5",
    ("mrel", "inner_univalent+union_closed", "exhaustive", (2, 2)): "eb850ce1dca27399",
    ("mrel", "inner_univalent+union_closed", "random", (3, 3)): "c4f613891511b3e2",
    ("mrel", "outer_univalent+inner_total", "exhaustive", (2, 2)): "b8d5da87cfe29417",
    ("mrel", "outer_univalent+inner_total", "random", (3, 3)): "6a8e4b6a343b0787",
    ("mrel", "inner_deterministic+up_closed", "exhaustive", (2, 2)): "eb10880b386963ff",
    ("mrel", "inner_deterministic+up_closed", "random", (3, 3)): "1c27fa1084387dad",
    ("mrel", "outer_deterministic+down_closed", "exhaustive", (2, 2)): "3285b5fa6634afd1",
    ("mrel", "outer_deterministic+down_closed", "random", (3, 3)): "bb0ceeaa1b9514b7",
    ("rel", "", "random", (3, 3), 0.05): "ff53f73583404f6e",
    ("rel", "total", "random", (3, 3), 0.05): "76a55a627e82f806",
    ("mrel", "", "random", (3, 3), 0.05): "177e94b72c4064f0",
    ("mrel", "inner_total", "random", (3, 3), 0.05): "fae96114e4d49e1e",
    ("mrel", "union_closed", "random", (3, 3), 0.05): "b5acb2c3c137e5b2",
    ("mrel", "inner_univalent+union_closed", "random", (3, 3), 0.05): "49dbfb21218c0dd4",
    ("rel", "", "random", (3, 3), 0.3): "2f211a104f23c1c7",
    ("rel", "total", "random", (3, 3), 0.3): "cd6478894a0e118a",
    ("mrel", "", "random", (3, 3), 0.3): "6e1ae0c5e0849a0d",
    ("mrel", "inner_total", "random", (3, 3), 0.3): "fed4385595b1c6a9",
    ("mrel", "union_closed", "random", (3, 3), 0.3): "1d5b32e03e535761",
    ("mrel", "inner_univalent+union_closed", "random", (3, 3), 0.3): "332689b6df103d06",
    ("rel", "", "random", (3, 3), 0.75): "fcb07ac10ce793eb",
    ("rel", "total", "random", (3, 3), 0.75): "6fff96c830a2a2de",
    ("mrel", "", "random", (3, 3), 0.75): "580c91d93b751311",
    ("mrel", "inner_total", "random", (3, 3), 0.75): "ce319c572662d6ef",
    ("mrel", "union_closed", "random", (3, 3), 0.75): "a85ff295bcb6f0c6",
    ("mrel", "inner_univalent+union_closed", "random", (3, 3), 0.75): "93d60ee43b5618eb",
    ("mrel", "up_closed", "random", (3, 3), 0.3): "444d2c686c9a18d7",
    ("mrel", "up_closed", "random", (3, 3), 0.75): "fa1430e7e43bc263",
    ("mrel", "down_closed", "random", (3, 3), 0.3): "5e5cf6f5b912caae",
    ("mrel", "down_closed", "random", (3, 3), 0.75): "5d8ede9ecbc415e8",
}


def _pinned(kind, where, mode, shape, density=0.5):
    needs = frozenset(where.split("+")) if where else frozenset()
    spec = GenSpec(shape, mode, count=20, density=density, seed=11, where=needs)
    return list(islice(instances(kind, spec), 300))


def _digest(*key):
    text = json.dumps([v.to_json() for v in _pinned(*key)], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPinnedStreams:
    @pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: "-".join(map(str, k)))
    def test_stream_digest(self, key):
        assert _digest(*key) == PINNED[key]

    @pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: "-".join(map(str, k)))
    def test_instances_revalidate(self, key):
        # streams build values without validation; the validating
        # constructor must accept each of them unchanged
        make = MRel if key[0] == "mrel" else Rel
        for v in _pinned(*key):
            assert make(v.src, v.dst, v.rows) == v

    @pytest.mark.parametrize(
        "kind,where,shape,n",
        [
            ("rel", "total", (2, 2), 9),
            ("rel", "total", (2, 3), 49),
            ("rel", "total", (3, 2), 27),
            ("rel", "deterministic", (3, 3), 27),
            ("mrel", "inner_total", (2, 2), 64),
            ("mrel", "inner_total", (3, 2), 512),
            ("mrel", "union_closed", (2, 2), 196),
        ],
    )
    def test_filtered_stream_length(self, kind, where, shape, n):
        assert _length(kind, GenSpec(shape, where=frozenset([where]))) == n


class TestRejectionBudget:
    # a stream that finds too few instances within its candidate budget
    # raises; the message and the candidate count are pinned
    @pytest.mark.parametrize(
        "kind,spec,message",
        [
            ("mrel", GenSpec((1, 1), "random", count=1, density=0.0,
                             where=frozenset({"outer_total"})),
             "rejection sampling for ['outer_total'] exhausted after 1000 candidates"),
            ("mrel", GenSpec((3, 3), "random", count=20, seed=11,
                             where=frozenset({"up_closed"})),
             "rejection sampling for ['up_closed'] exhausted after 20000 candidates"),
            ("rel", GenSpec((3, 2), "random", count=20, seed=11, where=frozenset({"test"})),
             "rejection sampling for ['test'] exhausted after 20000 candidates"),
            # rows 0-3 and row 4 are drawn in two blocks of lanes; 50 of the
            # candidates reach row 4
            ("mrel", GenSpec((5, 4), "random", count=20, density=0.9, seed=11,
                             where=frozenset({"up_closed"})),
             "rejection sampling for ['up_closed'] exhausted after 20000 candidates"),
        ],
    )
    def test_exhausted_budget(self, kind, spec, message):
        with pytest.raises(EnumerationTooLarge) as info:
            list(instances(kind, spec))
        assert str(info.value) == message
        assert info.value.size == int(message.split()[-2])  # the candidates drawn


class TestSpaceSize:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize(
        "kind,where",
        [("rel", ())]
        + [("mrel", ())]
        + [
            ("mrel", (name,))
            for name in (
                "inner_deterministic",
                "inner_univalent",
                "outer_deterministic",
                "outer_univalent",
            )
        ],
    )
    def test_exact_where_filters_are_constructive(self, kind, where, shape):
        spec = GenSpec(shape, where=frozenset(where))
        assert space_size(kind, spec) == _length(kind, spec)

    def test_no_enumeration_needed(self):
        # 3,3 multirelations: far more than any stream could enumerate
        assert space_size("mrel", GenSpec((3, 4))) == 1 << (3 * 16)
        assert space_size("mrel", GenSpec((3, 3), where=frozenset(["outer_univalent"]))) == 9**3

    @pytest.mark.parametrize("kind,flags", [("rel", REL_ROW_FLAGS), ("mrel", MREL_ROW_FLAGS)])
    def test_exact_for_every_flag_and_pair(self, kind, flags):
        # no flag, each flag and each pair of flags, at every shape up to
        # 3,3; a stream over 2^16 values is too long to draw, so it is
        # checked against the one-row stream: a multirelation row's test
        # does not read its index, so each element passes the same rows
        names = sorted(flags)
        wheres = [()] + [(f,) for f in names] + list(combinations(names, 2))
        large = 0
        for shape in product((1, 2, 3), repeat=2):
            for where in wheres:
                spec = GenSpec(shape, where=frozenset(where))
                size = space_size(kind, spec)
                if size <= 1 << 16:
                    assert size == _length(kind, spec), (kind, shape, where)
                    continue
                large += 1
                one_row = GenSpec((1, shape[1]), where=spec.where)
                assert kind == "mrel" and size == _length(kind, one_row) ** shape[0], (shape, where)
        assert large == (0 if kind == "rel" else 7)

    def test_cap_counts_the_passing_length(self):
        # a nominal 2^25 relations, of which 32 are tests
        spec = GenSpec((5, 5), where=frozenset({"test"}))
        assert space_size("rel", spec) == 32
        assert _length("rel", spec) == 32

    def test_cap_bounds_the_rows_tested(self):
        spec = GenSpec((1, 25), where=frozenset({"univalent"}))
        message = rf"^exhaustive rel stream needs {1 << 25} row tests \(cap 2\^24\)$"
        with pytest.raises(EnumerationTooLarge, match=message):
            space_size("rel", spec)
        with pytest.raises(EnumerationTooLarge, match=message):
            next(instances("rel", spec))
        assert EXHAUSTIVE_BITS == 24

    def test_unknown_flag_is_named(self):
        for kind, name in (("rel", "inner_total"), ("mrel", "tset")):
            spec = GenSpec((2, 2), where=frozenset({name}))
            for call in (space_size, instances):
                with pytest.raises(ValueError, match=f"^unknown {kind} flag {name!r}$"):
                    call(kind, spec)
