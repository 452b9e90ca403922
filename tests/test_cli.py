from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from multirel.cli import main


@pytest.fixture
def env_file(tmp_path):
    path = tmp_path / "env.json"
    path.write_text(
        json.dumps(
            {
                "carriers": {"X": 2, "Y": 2},
                "mrels": {"R": {"src": 2, "dst": 2, "rows": [[[0, 1]], []]}},
                "rels": {"T": {"src": 2, "dst": 2, "pairs": [[0, 1]]}},
            }
        )
    )
    return str(path)


class TestEval:
    def test_mrel_value(self, env_file, capsys):
        assert main(["eval", "--env", env_file, "--expr", "R * R"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"src": 2, "dst": 2, "rows": [[], []]}

    def test_bool_value(self, env_file, capsys):
        assert main(["eval", "--env", env_file, "--expr", "a(L(T)) == T"]) == 0
        assert json.loads(capsys.readouterr().out) is True

    def test_out_file(self, env_file, tmp_path, capsys):
        out = tmp_path / "value.json"
        assert main(
            ["eval", "--env", env_file, "--expr", "a(R)", "--out", str(out)]
        ) == 0
        assert json.loads(out.read_text())["pairs"] == [[0, 0], [0, 1]]

    def test_unbound_is_usage_error(self, env_file, capsys):
        assert main(["eval", "--env", env_file, "--expr", "missing"]) == 2

    def test_unwritable_output_is_a_usage_error(self, env_file, tmp_path, capsys):
        out = tmp_path / "missing" / "o.json"
        assert main(["eval", "--env", env_file, "--expr", "R", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    @pytest.mark.parametrize("expr, position", [
        ("(" * 400 + "R" + ")" * 400, 100),
        ("R" + "^" * 3000, 101),
        (" | ".join(["R"] * 3000), 402),
        ("-" * 500 + "R", 100),
    ], ids=["parentheses", "postfix", "infix-chain", "prefix"])
    def test_deeply_nested_terms_are_usage_errors(self, env_file, capsys, expr, position):
        assert main(["eval", "--env", env_file, "--expr=" + expr]) == 2
        assert capsys.readouterr().err == (
            f"error: term nested deeper than 100 levels at position {position}\n"
        )

    def test_syntax_error(self, env_file):
        assert main(["eval", "--env", env_file, "--expr", "do(R"]) == 2

    def test_deeply_nested_environment_is_a_usage_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert main(["eval", "--env", str(deep), "--expr", "R"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load environment: ") and "recursion" in err

    def test_cap_exceeded(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"carriers": {"X": 40}}))
        assert main(["eval", "--env", str(big), "--expr", "mem(X)"]) == 3

    def test_values_past_a_cap_exit_3_when_loaded(self, tmp_path):
        wide = {"src": 1, "dst": 63, "rows": [[]]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"carriers": {"X": 1}, "mrels": {"R": wide}}))
        assert main(["eval", "--env", str(path), "--expr", "R"]) == 3
        path.write_text(json.dumps(wide))
        assert main(["convert", "--in", str(path), "--out", str(tmp_path / "o.json")]) == 3

    @pytest.mark.parametrize("doc, expr", [
        ({"rels": {"R": {"src": 65_537, "dst": 1, "pairs": []}}}, "R"),
        ({"rels": {"R": {"src": 1, "dst": 65_537, "pairs": []}}}, "R"),
        ({"mrels": {"R": {"src": 65_537, "dst": 1, "rows": []}}}, "R"),
        ({"carriers": {"X": 65_537}}, "Id(X)"),
        ({"carriers": {"X": {"size": 65_537}}}, "Id(X)"),
        ({"src": 65_537, "dst": 1, "pairs": []}, None),
        ({"src": 1, "dst": 65_537, "rows": [[]]}, None),
    ], ids=["rel-src", "rel-dst", "mrel-src", "carrier", "carrier-object", "rel-file",
            "mrel-file"])
    def test_sizes_past_the_largest_carrier_exit_3_when_loaded(self, tmp_path, capsys, doc, expr):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        runs = [["convert", "--in", str(path), "--out", str(tmp_path / "o.json")]]
        if expr:  # an environment, not a value file
            runs.append(["eval", "--env", str(path), "--expr", expr])
        assert [main(argv) for argv in runs] == [3] * len(runs)
        err = capsys.readouterr().err
        assert err.count("is 65537, past the size cap 2^16 = 65536") == len(runs)

    def test_the_largest_carrier_loads(self, tmp_path, capsys):
        rel = {"src": 65_536, "dst": 1, "pairs": [[65_535, 0]]}
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"carriers": {"X": 65_536}, "rels": {"R": rel}}))
        assert main(["eval", "--env", str(path), "--expr", "R"]) == 0
        assert json.loads(capsys.readouterr().out) == rel
        assert main(["eval", "--env", str(path), "--expr", "Id(X)"]) == 0
        path.write_text(json.dumps(rel))
        out = tmp_path / "o.json"
        assert main(["convert", "--in", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == rel

    def test_cap_errors_are_one_class(self):
        # the class that main maps to exit 3 and that check reports as skipped
        from multirel import CapExceeded, EnumerationTooLarge, MaskTooWide, PowersetTooLarge

        for cap_error in (PowersetTooLarge, MaskTooWide, EnumerationTooLarge):
            assert issubclass(cap_error, CapExceeded)


    @pytest.mark.parametrize("env, named", [
        ([1, 2], "an environment must be a JSON object, not list"),
        ({"carriers": {"X": 2}, "rels": {"T": {"src": 2, "dst": 2, "pairs": [[5, 0]]}}},
         "source index 5 is outside 0..1"),
        ({"carriers": {"X": 2}, "rels": {"T": {"src": 2, "dst": 2, "pairs": [[-1, 0]]}}},
         "source index -1 is outside 0..1"),
        ({"carriers": {"X": 2}, "rels": {"T": [1, 2]}}, "a relation must be a JSON object"),
        ({"carriers": {"X": 2}, "mrels": {"T": [1, 2]}},
         "a multirelation must be a JSON object"),
        ({"carriers": [2]}, "'carriers' must be a JSON object"),
        ({"carriers": {"X": "2"}}, "carrier 'X' must be a JSON object"),
        ({"carriers": {"X": 2}, "rel": {"T": {"src": 2, "dst": 2, "pairs": []}}},
         "unknown environment key 'rel'"),
        ({"rels": {"T": {"src": 2, "dst": 2}}}, "a relation has no 'pairs' key"),
        ({"mrels": {"T": {"src": 2, "rows": [[], []]}}}, "a multirelation has no 'dst' key"),
        ({"carriers": {"X": {"names": ["a", "b"]}}}, "carrier 'X' has no 'size' key"),
        ({"rels": {"T": {"src": 2, "dst": 2, "pairs": [[0, 1, 2]]}}},
         "pair [0, 1, 2] is not [source, target]"),
        ({"rels": {"T": {"src": 2, "dst": 2, "pairs": {"a": 1}}}},
         "a relation's 'pairs' must be a JSON array, not dict"),
        ({"mrels": {"T": {"src": 2, "dst": 2, "rows": [[1]]}}},
         "row 0: subset 1 must be a JSON array, not int"),
        ({"mrels": {"T": {"src": 2, "dst": 2, "rows": "ab"}}},
         "a multirelation's 'rows' must be a JSON array, not str"),
    ], ids=["list", "index-5", "index-minus-1", "rel-list", "mrel-list", "carriers-list",
            "carrier-text", "unknown-key", "rel-no-pairs", "mrel-no-dst", "carrier-no-size",
            "pair-of-three", "pairs-object", "subset-not-array", "rows-text"])
    def test_malformed_environment_is_a_usage_error(self, tmp_path, capsys, env, named):
        path = tmp_path / "env.json"
        path.write_text(json.dumps(env))
        assert main(["eval", "--env", str(path), "--expr", "T"]) == 2
        assert f"cannot load environment: {named}" in capsys.readouterr().err


class TestLaws:
    def test_listing_contains_required(self, capsys):
        assert main(["laws"]) == 0
        out = capsys.readouterr().out
        assert "L2.1-lambda-alpha-inverse" in out
        assert "REG-nonassoc-triple" in out

    def test_filter(self, capsys):
        assert main(["laws", "--filter", "A-"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        heads = [line for line in out if not line.startswith(" ")]
        assert heads and all(line.startswith("A-") for line in heads)

    def test_listing_shows_claims(self, capsys):
        assert main(["laws", "--filter", "L2.1-lambda-alpha-inverse"]) == 0
        out = capsys.readouterr().out
        assert "claim: a(L(R)) == R" in out


class TestCheck:
    def test_passing_law_exits_zero(self, capsys):
        assert main(["check", "--law", "L2.1-lambda-alpha-inverse"]) == 0

    def test_regression_exits_one_with_witness(self, capsys):
        assert main(["check", "--law", "REG-nonassoc-triple"]) == 1
        assert "witness" in capsys.readouterr().out

    def test_unknown_law_usage_error(self, capsys):
        assert main(["check", "--law", "L0-missing"]) == 2

    def test_json_report_shape(self, capsys):
        assert main(
            ["check", "--law", "L3.3-galois-fission-fusion", "--json", "--seed", "3"]
        ) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["law"] == "L3.3-galois-fission-fusion"
        assert rep["verdict"] == "pass"
        assert rep["checked"] == 65536
        assert rep["seed"] == 3
        assert "elapsed_ms" not in rep

    @pytest.mark.parametrize("command", [
        ["check", "--law", "L2.2-icap-assoc", "--sizes", "3,3"],
        ["find-cex", "--lhs", "R", "--rhs", "R", "--rel", "==", "--sizes", "2,2"],
    ], ids=["check", "find-cex"])
    @pytest.mark.parametrize("option,value,wants", [
        ("--density", "2", "a number from 0 to 1"),
        ("--density", "-0.1", "a number from 0 to 1"),
        ("--density", "nan", "a number from 0 to 1"),
        ("--density", "x", "a number from 0 to 1"),
        ("--random", "-5", "a positive integer"),
        ("--random", "0", "a positive integer"),
        ("--sizes", "x,2", "two positive integers joined by a comma"),
        ("--sizes", "0,2", "two positive integers joined by a comma"),
        ("--sizes", "2", "two positive integers joined by a comma"),
        ("--sizes", "2,2,2", "two positive integers joined by a comma"),
    ])
    def test_numbers_out_of_range_get_a_message(self, capsys, command, option, value, wants):
        with pytest.raises(SystemExit) as e:
            main(command + [option, value])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expects {wants}" in err and "Traceback" not in err

    def test_numbers_at_their_bounds_are_taken(self, capsys):
        for density in ("0", "1"):
            assert main(["check", "--law", "L2.2-icap-assoc", "--sizes", "3,3",
                         "--density", density, "--random", "1", "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["checked"] == 1

    def test_full_check_at_3x3_is_pinned(self, capsys):
        # 3,3 is the path that takes no operator tables: its report bytes
        # are pinned, as criterion 8 pins those of 2,2
        assert main(["check", "--all", "--sizes", "3,3", "--seed", "7", "--json"]) == 0
        out = capsys.readouterr().out
        pinned = (Path(__file__).parent / "data" / "check_all_3x3_seed7.sha256").read_text()
        assert hashlib.sha256(out.encode()).hexdigest() == pinned.strip()

    def test_json_timing_flag(self, capsys):
        assert main(
            ["check", "--law", "L2.1-alpha-eta-id", "--json", "--timing"]
        ) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "elapsed_ms" in rep


class TestFindCex:
    def test_finds_alpha_strictness_witness(self, capsys):
        rc = main(
            [
                "find-cex",
                "--lhs", "a(R * S)",
                "--rhs", "a(R) ; a(S)",
                "--rel", "==",
                "--sizes", "2,2",
            ]
        )
        assert rc == 1
        witness = json.loads(capsys.readouterr().out)
        total = sum(
            sum(len(row) for row in slot["rows"])
            for slot in witness["slots"].values()
        )
        assert total <= 2  # no larger than the pinned single-pair example

    def test_no_counterexample_for_theorem(self, capsys):
        rc = main(
            [
                "find-cex",
                "--lhs", "a(L(R))",
                "--rhs", "R",
                "--rel", "==",
                "--sizes", "2,2",
                "--vars", "R=rel",
            ]
        )
        assert rc == 0

    def test_roles_inferred_from_the_claim(self, capsys):
        rc = main(
            [
                "find-cex",
                "--lhs", "a(R * S)",
                "--rhs", "a(R) ; a(S)",
                "--rel", "==",
                "--sizes", "2,3",
            ]
        )
        assert rc == 1
        witness = json.loads(capsys.readouterr().out)
        assert set(witness["carriers"]) == {"X", "Y", "Z"}
        # R: X -> Y and S: Y -> Z
        assert witness["slots"]["R"]["dst"] == witness["slots"]["S"]["src"]

    def test_unequal_sizes_do_not_crash(self, capsys):
        rc = main(
            [
                "find-cex",
                "--lhs", "R * S",
                "--rhs", "S * R",
                "--rel", "==",
                "--sizes", "2,3",
            ]
        )
        assert rc in (0, 1)

    def test_ill_shaped_claim_usage_error(self, capsys):
        rc = main(
            [
                "find-cex",
                "--lhs", "R ; mem(Y)",
                "--rhs", "R",
                "--rel", "==",
                "--sizes", "2,2",
            ]
        )
        assert rc == 2
        assert "R ; mem(Y)" in capsys.readouterr().err

    def test_deeply_nested_claim_is_a_usage_error(self, capsys):
        lhs = "(" * 400 + "R" + ")" * 400
        assert main(["find-cex", "--lhs", lhs, "--rhs", "R", "--rel", "==", "--sizes", "2,2"]) == 2
        assert "nested deeper than 100 levels" in capsys.readouterr().err

    def test_vars_override_sorts(self, capsys):
        rc = main(
            [
                "find-cex",
                "--lhs", "R", "--rhs", "R", "--rel", "==",
                "--sizes", "2,2", "--vars", "R=rel",
            ]
        )
        assert rc == 0
        # the 16 relations 2 <-> 2, not the 256 multirelations
        assert "16 instances" in capsys.readouterr().out

    def test_slot_beside_a_relation_is_a_relation(self, capsys):
        # T is constrained only by its sibling R ; S, so it is a relation
        # X -> Z, not a multirelation whose powerset target S would share
        rc = main(
            [
                "find-cex",
                "--lhs", "R ; S", "--rhs", "T", "--rel", "==",
                "--sizes", "2,2",
            ]
        )
        assert rc in (0, 1)
        witness = json.loads(capsys.readouterr().out)
        assert all("pairs" in slot for slot in witness["slots"].values())

    def test_bad_vars_usage_error(self):
        rc = main(
            [
                "find-cex",
                "--lhs", "R", "--rhs", "R", "--rel", "==",
                "--sizes", "2,2", "--vars", "R=banana",
            ]
        )
        assert rc == 2

    def test_vars_must_name_a_slot_of_the_claim(self, capsys):
        rc = main(
            [
                "find-cex",
                "--lhs", "R", "--rhs", "R", "--rel", "==",
                "--sizes", "2,2", "--vars", "Q=mrel",
            ]
        )
        assert rc == 2
        assert "'Q'" in capsys.readouterr().err

    def test_vars_entries_are_stripped(self, capsys):
        rc = main(
            [
                "find-cex",
                "--lhs", "R", "--rhs", "R", "--rel", "==",
                "--sizes", "2,2", "--vars", "R = rel",
            ]
        )
        assert rc == 0
        assert "16 instances" in capsys.readouterr().out

    def test_an_unconstrained_slot_is_a_relation(self, capsys):
        rc = main(["find-cex", "--lhs", "R", "--rhs", "R", "--rel", "==", "--sizes", "2,2"])
        assert rc == 0
        assert "16 instances" in capsys.readouterr().out

    def test_vars_override_the_inferred_sort(self, capsys):
        rc = main(["find-cex", "--lhs", "R", "--rhs", "R", "--rel", "==", "--sizes", "2,2",
                   "--vars", "R=mrel"])
        assert rc == 0
        assert "256 instances" in capsys.readouterr().out

    def test_a_slot_named_twice_in_vars_is_refused(self, capsys):
        rc = main(["find-cex", "--lhs", "R", "--rhs", "R", "--rel", "==", "--sizes", "2,2",
                   "--vars", "R=rel,R=mrel"])
        assert rc == 2
        assert "'R' twice" in capsys.readouterr().err

    # registry claims whose constants take their carriers only from slots,
    # and one whose slot's relation view ends in a powerset
    @pytest.mark.parametrize("lhs,rhs", [
        ("down(R)", "R * down(eta)"),
        ("1 * R", "R"),
        ("R * 1", "R"),
        ("R @ 1", "R"),
        ("1 @ R", "R"),
        ("a(tau(R))", "0"),
        ("tau(di(R))", "0"),
        ("R & -R", "0"),
        ("-R", "R ; -Id(pw(Y))"),
    ])
    def test_constants_typed_by_slots_run(self, capsys, lhs, rhs):
        # a term that begins with '-' is passed as --lhs=-R: argparse
        # would read "--lhs -R" as an option
        rc = main(["find-cex", f"--lhs={lhs}", "--rhs", rhs, "--rel", "==", "--sizes", "2,2",
                   "--random", "50"])
        assert rc in (0, 1), capsys.readouterr().err


class TestConvert:
    def test_value_round_trip(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        src.write_text(json.dumps({"src": 2, "dst": 2, "pairs": [[1, 0], [0, 1]]}))
        assert main(["convert", "--in", str(src), "--out", str(dst)]) == 0
        data = json.loads(dst.read_text())
        assert data["pairs"] == [[0, 1], [1, 0]]
        # canonical output is a fixpoint
        dst2 = tmp_path / "out2.json"
        assert main(["convert", "--in", str(dst), "--out", str(dst2)]) == 0
        assert dst.read_text() == dst2.read_text()

    def test_env_round_trip(self, env_file, tmp_path):
        dst = tmp_path / "env-out.json"
        assert main(["convert", "--in", env_file, "--out", str(dst)]) == 0
        data = json.loads(dst.read_text())
        assert data["mrels"]["R"]["rows"] == [[[0, 1]], []]

    def test_unwritable_output_is_a_usage_error(self, env_file, tmp_path, capsys):
        out = tmp_path / "missing" / "o.json"
        assert main(["convert", "--in", env_file, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    def test_deeply_nested_input_is_a_usage_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        out = tmp_path / "o.json"
        assert main(["convert", "--in", str(deep), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read input: ") and "recursion" in err
        assert not out.exists()

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"src": 1, "dst": 1, "pairs": [[5, 5]]}')
        assert main(["convert", "--in", str(bad), "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"src": 2, "dst": 2, "pairs": [[-1, 0]]},
        {"src": 2, "dst": 2, "pairs": [[2, 0]]},
        {"rels": {"T": "x"}},
        "text",
        {"carriers": {"X": {"size": 2, "names": "ab"}}},
        {"src": 1, "dst": 1},
        {"rel": {"T": {"src": 1, "dst": 1, "pairs": []}}},
    ])
    def test_malformed_documents_are_usage_errors(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["convert", "--in", str(bad), "--out", str(tmp_path / "o.json")]) == 2
        assert "malformed value file" in capsys.readouterr().err

    def test_fractional_size_is_not_truncated(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"src": 2.7, "dst": 2, "pairs": [[1, 1]]}))
        out = tmp_path / "o.json"
        assert main(["convert", "--in", str(bad), "--out", str(out)]) == 2
        assert "'src' must be a non-negative integer, not 2.7" in capsys.readouterr().err
        assert not out.exists()
