from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from multirel import (
    GenSpec, MRel, Rel, ShapeMismatch, TermSyntaxError, UnboundVariable, instances,
)
from multirel.dsl import (
    _CONSTS,
    _INFIX,
    _LEVEL,
    _OPS,
    Bin,
    Call,
    Cmp,
    Const,
    CPow,
    CRef,
    Un,
    Var,
    env_from_json,
    env_to_json,
    env_types,
    eval_term,
    evaluate,
    parse,
    infer_slots,
    print_term,
    typecheck,
    value_names,
    _lex,
)
from multirel.registry import registry
from conftest import ENV_DOC, C, M, R


def std_env(**extra):
    return {"X": C(2), "Y": C(2), "Z": C(2), **extra}


class TestParsing:
    def test_unary_call(self):
        assert parse("do(R)") == Call("do", (Var("R"),))

    def test_bracketings_are_distinct(self):
        assert parse("(R * S) * T") != parse("R * (S * T)")
        assert parse("(R * S) * T") == parse("R * S * T")  # * is left associative

    def test_prefix_application(self):
        assert parse("di(R) * S") == Bin("*", Call("di", (Var("R"),)), Var("S"))

    def test_precedence_compose_over_meet(self):
        assert parse("R ; S & T") == Bin("&", Bin(";", Var("R"), Var("S")), Var("T"))

    def test_precedence_meet_over_join(self):
        assert parse("R & S | T") == Bin("|", Bin("&", Var("R"), Var("S")), Var("T"))

    def test_converse_binds_tightest(self):
        assert parse("-R^") == Un("-", Un("^", Var("R")))

    def test_residuals_non_associative(self):
        with pytest.raises(TermSyntaxError):
            parse(r"R \ S \ T")
        parse(r"(R \ S) \ T")

    def test_comparison_non_associative(self):
        with pytest.raises(TermSyntaxError):
            parse("R == S == T")

    def test_constants_with_carriers(self):
        t = parse("At(X, Y)")
        assert isinstance(t, Const) and t.name == "At"
        parse("eta(pw(X))")
        parse("mu(Y)")

    def test_errors_carry_position(self):
        with pytest.raises(TermSyntaxError) as e:
            parse("do(R")
        assert e.value.position == 4
        with pytest.raises(TermSyntaxError):
            parse("fluff(R)")

    def test_unknown_character(self):
        with pytest.raises(TermSyntaxError):
            parse("R ? S")


class TestNesting:
    """A term nests at most 100 levels: each operator, call, constant with
    carrier arguments, ``pw`` and pair of parentheses is one level."""

    @pytest.mark.parametrize("nest", [
        lambda n: "(" * n + "R" + ")" * n,
        lambda n: "R" + "^" * n,
        lambda n: "-" * n + "R",
        lambda n: " | ".join(["R"] * (n + 1)),
        lambda n: "do(" * n + "R" + ")" * n,
        lambda n: "eta(" + "pw(" * (n - 1) + "X" + ")" * n,
        lambda n: "(" * (n - 4) + "-R^ ; R" + ")" * (n - 4) + " | R",
    ], ids=["parentheses", "postfix", "prefix", "infix-chain", "calls", "carriers", "mixed"])
    def test_a_hundred_levels_parse_and_one_more_does_not(self, nest):
        parse(nest(100))
        with pytest.raises(TermSyntaxError, match="^term nested deeper than 100 levels at "):
            parse(nest(101))

    @staticmethod
    def built(n: int, wrap=lambda t: Un("^", t), t=Var("R")):
        for _ in range(n):
            t = wrap(t)
        return t

    @pytest.mark.parametrize("check", [
        lambda t: typecheck(t, env_types(std_env(R=R(2, 2, [(0, 1)])))),
        lambda t: eval_term(t, std_env(R=R(2, 2, [(0, 1)]))),
        print_term,
    ], ids=["typecheck", "eval_term", "print_term"])
    def test_built_terms_are_bounded_too(self, check):
        assert check(self.built(100)) is not None
        for deep in (self.built(101), self.built(3000), self.built(101, lambda t: Bin("|", t, t))):
            with pytest.raises(TermSyntaxError) as e:
                check(deep)
            assert (str(e.value), e.value.position) == ("term nested deeper than 100 levels", 0)

    def test_built_carriers_count_as_levels(self):
        types = env_types(std_env())
        typecheck(Const("eta", (self.built(99, CPow, CRef("X")),)), types)
        with pytest.raises(TermSyntaxError, match="100 levels"):
            typecheck(Const("eta", (self.built(100, CPow, CRef("X")),)), types)

    def test_every_parsed_term_is_within_the_bound(self):
        # the parser counts parentheses as levels as well, so its bound is the tighter
        types = env_types(std_env(R=R(2, 2, [(0, 1)])))
        for text in ["(" * 100 + "R" + ")" * 100, "R" + "^" * 100, "-" * 100 + "R"]:
            assert typecheck(parse(text), types).sort == "rel"


class TestGrammarPinned:
    """Trees, printed forms and syntax errors as recorded before the
    grammar was read from one operator table.  The digest covers every
    registry claim and guard, so adding a law means recording it again."""

    def test_registry_terms_parse_and_print_as_recorded(self):
        digest = hashlib.sha256()
        count = 0
        for law in registry():
            for text in filter(None, (law.claim, law.guard)):
                tree = parse(text)
                digest.update(repr((repr(tree), print_term(tree))).encode())
                count += 1
        assert (count, digest.hexdigest()) == (
            238,
            "b1c894a81fd17ef93cb00db2e08fbfe216d7f71e24ef695e616e542de7544370",
        )

    @pytest.mark.parametrize(
        "text, message, position, expected",
        [
            (r"R \ S \ T", "residual chains need parentheses (position 6)", 6, ()),
            ("R == S == T", "comparison chains need parentheses (position 7)", 7, ()),
            ("R <x S", "stray '<' at position 2", 2, ("<=", "<u=", "<d=", "<ud=")),
            ("R = S", "unexpected character '=' at position 2", 2, ()),
            ("R ? S", "unexpected character '?' at position 2", 2, ()),
            ("do(R", "expected ')' at position 4, found ''", 4, (")",)),
            ("fluff(R)", "unknown operation 'fluff' at position 0", 0, ()),
            ("do(R, S)", "do takes 1 argument(s), got 2 (position 0)", 0, ()),
            ("At(X)", "At takes 2 carrier argument(s) (position 0)", 0, ()),
            (")", "expected a term at position 0, found ')'", 0, ("identifier", "(")),
            ("R S", "trailing input at position 2: 'S'", 2, ()),
        ],
    )
    def test_errors_as_recorded(self, text, message, position, expected):
        with pytest.raises(TermSyntaxError) as e:
            parse(text)
        assert (str(e.value), e.value.position, e.value.expected) == (
            message,
            position,
            expected,
        )


def _readme_table(header: str) -> list[list[str]]:
    """The body rows of the README table under ``header``, as cell texts
    with escaped pipes restored."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index(header) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = re.split(r"(?<!\\)\|", line)[1:-1]
        rows.append([c.strip().replace("\\|", "|") for c in cells])
    return rows


class TestReadmeMatchesTables:
    def test_token_table_names_every_operation_and_constant(self):
        named = {
            tok.text
            for row in _readme_table("| token | meaning |")
            for span in re.findall(r"`([^`]*)`", row[0])
            for tok in _lex(span)
        }
        assert set(_OPS) | set(_CONSTS) <= named

    def test_precedence_table_is_the_infix_table(self):
        documented = [
            (name, tokens.strip("`").split(), chain)
            for name, tokens, chain in _readme_table("| level | tokens | a chain of them |")
        ]
        assert documented == [
            (
                level.name,
                list(level.tokens),
                "associates to the left" if level.assoc == "left" else "needs parentheses",
            )
            for level in _INFIX
        ]

    def test_every_infix_token_has_a_meaning(self):
        assert set(_LEVEL) <= set(_OPS)


class TestPrinting:
    @pytest.mark.parametrize(
        "text",
        [
            "do(R)",
            "di(R) * S",
            "(R * S) * T",
            "R * (S * T)",
            "a(L(R))",
            "R ; S & T | Q",
            "-R^ ; S",
            r"(T \ S) == (S^ / T^)^",
            "icup(R, ilow(X, Y))",
            "eta(pw(X)) ; mu(X)",
            "(R <= do(R)) == (do(R) <u= R)",
            "R * down(eta)",
        ],
    )
    def test_parse_print_parse_fixpoint(self, text):
        t = parse(text)
        assert parse(print_term(t)) == t


def _terms(depth: int):
    import hypothesis.strategies as st

    leaves = st.sampled_from(
        [Var("R"), Var("S"), Const("1"), Const("U"), Const("At", (CRef("X"), CRef("Y")))]
    )
    if depth == 0:
        return leaves

    sub = _terms(depth - 1)
    import hypothesis.strategies as st

    return st.one_of(
        leaves,
        st.builds(Un, st.sampled_from(["-", "^"]), sub),
        st.builds(Call, st.sampled_from(["do", "di", "up", "a", "nu"]), st.tuples(sub)),
        st.builds(Call, st.sampled_from(["icup", "syq"]), st.tuples(sub, sub)),
        st.builds(Bin, st.sampled_from([";", "@", "*", "&", "|", "\\", "/"]), sub, sub),
        st.builds(Cmp, st.sampled_from(["==", "<=", "<u=", "<d=", "<ud="]), sub, sub),
    )


class TestPrinterFuzz:
    from hypothesis import given, settings

    @settings(max_examples=300)
    @given(_terms(3))
    def test_print_parse_round_trip(self, term):
        assert parse(print_term(term)) == term


class TestEval:
    def test_alpha_after_transpose_is_identity(self):
        env = std_env(R=R(2, 2, [(0, 1)]))
        assert evaluate("a(L(R))", env) == R(2, 2, [(0, 1)])
        assert evaluate("a(L(R)) == R", env) is True

    def test_peleg_self_composition_collapses(self):
        env = std_env(R=M(2, 2, [(0, [0, 1])]))
        assert evaluate("R * R", env) == M(2, 2, [])

    def test_down_closure_peleg_formula(self):
        # unit's carrier inferred through the pending down-closure
        for seed in range(5):
            from multirel import GenSpec, instances

            r = next(
                iter(instances("mrel", GenSpec((2, 2), "random", count=1, seed=seed)))
            )
            env = std_env(R=r)
            assert evaluate("down(R) == R * down(eta)", env) is True

    def test_unit_inference_both_sides(self):
        env = std_env(R=M(2, 2, [(0, [0]), (1, [0, 1])]))
        assert evaluate("1 * R == R", env) is True
        assert evaluate("R * 1 == R", env) is True

    def test_rel_mrel_mixing(self):
        env = std_env(R=M(2, 2, [(0, [0]), (0, [1])]))
        assert evaluate("up(R) == R ; Om(Y)", env) is True
        assert evaluate("a(R) == R ; mem(Y)^", env) is True

    def test_empty_constant_inferred(self):
        env = std_env(R=M(2, 2, [(0, [])]))
        assert evaluate("a(tau(R)) == 0", env) is True

    def test_preorder_comparisons(self):
        env = std_env(R=M(1, 2, [(0, [0])]), S=M(1, 2, [(0, [0, 1])]))
        assert evaluate("R <d= S", env) is True
        assert evaluate("R <u= S", env) is True
        assert evaluate("R <ud= S", env) is True
        assert evaluate("S <d= R", env) is False
        assert evaluate("S <ud= R", env) is False

    def test_named_complement_forms(self):
        env = std_env(R=M(2, 2, [(0, [0])]), T=R(2, 2, [(0, 1)]))
        assert evaluate("cpl(R) == -R", env) is True
        assert evaluate("cpl(T) == -T", env) is True
        assert evaluate("cnv(T) == T^", env) is True
        assert evaluate("R * cpl(ilow(Y, Y)) == R * -ilow(Y, Y)", env) is True

    def test_residual_tokens(self):
        env = std_env(T=R(2, 2, [(0, 0), (1, 1)]), S=R(2, 2, [(0, 0)]))
        assert evaluate(r"(T \ S) == (S^ / T^)^", env) is True

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            evaluate("missing * R", std_env(R=M(2, 2, [])))

    def test_shape_error_pinpoints_subterm(self):
        env = std_env(R=M(2, 2, []), S=M(1, 2, []))
        with pytest.raises(ShapeMismatch) as e:
            evaluate("up(R) & (S * R)", env)
        assert "S * R" in str(e.value)

    def test_shape_errors_precede_evaluation(self):
        # mem(W) would exceed the powerset cap if it were ever evaluated
        env = std_env(R=R(2, 2, []), W=C(40))
        with pytest.raises(ShapeMismatch) as e:
            evaluate("mem(W) == R", env)
        assert "mem(W) == R" in str(e.value)

    def test_open_constants_take_their_siblings_sort(self):
        env = std_env(R=M(2, 2, [(0, [0])]))
        # nothing asks for a multirelation: the relation X -> Y
        assert evaluate("-0(X, Y)", env) == R(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        # beside a multirelation: the multirelation X -> P(Y)
        assert evaluate("R | 0(X, Y)", env) == M(2, 2, [(0, [0])])
        assert evaluate("R \\ U(X, Y)", env).dst.size == 4

    def test_ambiguous_constant_is_an_error(self):
        with pytest.raises(ShapeMismatch):
            evaluate("1 * 1", std_env())
        with pytest.raises(ShapeMismatch):
            eval_term(parse("U"), std_env())

    def test_fusion_via_transpose_and_mu(self):
        env = std_env(R=M(2, 2, [(0, [0]), (0, [1]), (1, [])]))
        assert evaluate("do(R) == L(R) ; mu(Y)", env) is True
        assert evaluate("do(R) == eta(X) ; kl(R)", env) is True

    def test_peleg_lift_basis_formula(self):
        env = std_env(R=M(2, 2, [(0, [0, 1]), (1, [0])]))
        lhs = evaluate(
            "(L(mem(X)^ ; eta(X)) * ((eta(X)^ ; R) ; eta(pw(Y)))) ; mu(Y)", env
        )
        assert lhs == evaluate("pl(R)", env)

    def test_dsup_reconstructs(self):
        env = std_env(R=M(2, 2, [(0, [0]), (0, [1]), (1, [0, 1])]))
        assert evaluate("dsup(R) == R", env) is True

    def test_booleans_compare_with_eq_only(self):
        env = std_env(R=M(1, 1, [(0, [0])]))
        assert evaluate("(R == R) == (R <= R)", env) is True
        with pytest.raises(ShapeMismatch):
            evaluate("(R == R) <= R", env)


def infer(claim, guard=None, names=(), **given):
    """``infer_slots`` over every value name of the claim and the guard,
    each given as ``(sort, src, dst)`` or a sort, or inferred: the roles,
    and each name's (sort, src, dst)."""
    terms = [parse(claim), guard and parse(guard)]
    slots = list(dict.fromkeys(n for t in filter(None, terms) for n in value_names(t)))
    fields = [given.get(n, (None, None, None)) for n in slots]
    fields = [(f, None, None) if isinstance(f, str) else f for f in fields]
    roles, ends, _ = infer_slots(terms, [(n, *f) for n, f in zip(slots, fields)], names)
    return roles, dict(zip(slots, ends))


class TestSlots:
    def test_unconstrained_slots_are_relations(self):
        assert infer("R == S") == (("X", "Y"), {"R": ("rel", "X", "Y"), "S": ("rel", "X", "Y")})

    def test_an_m_operand_makes_its_siblings_multirelations(self):
        _, ends = infer("up(Q) & T == V")
        assert {n: e[0] for n, e in ends.items()} == {"Q": "mrel", "T": "mrel", "V": "mrel"}
        # S's relation view ends in a powerset, that of up(T) & V
        _, ends = infer("(-R ; S) == up(T) & V")
        assert ends == {"R": ("rel", "X", "Y"), "S": ("mrel", "Y", "Z"),
                        "T": ("mrel", "X", "Z"), "V": ("mrel", "X", "Z")}

    def test_slots_beside_relations_are_relations(self):
        _, ends = infer("R ; S == T")
        assert {n: e[0] for n, e in ends.items()} == {"R": "rel", "S": "rel", "T": "rel"}
        assert infer("(R | S) ; T == V")[1]["R"][0] == "rel"
        assert infer("R <= Id(X)") == (("X",), {"R": ("rel", "X", "X")})
        # residual operands stay relations unless a sibling says otherwise
        _, ends = infer("R \\ S == T")
        assert {n: e[0] for n, e in ends.items()} == {"R": "rel", "S": "rel", "T": "rel"}

    def test_a_relation_beside_a_slot_does_not_fix_its_sort(self):
        # R is first compared with a relation, then intersected with atoms
        claim = "(((R ; eta(Y)^) ; eta(Y)) == R) == (R == (R & At(X, Y)))"
        assert infer(claim) == (("X", "Y"), {"R": ("mrel", "X", "Y")})

    def test_a_powerset_target_makes_a_multirelation(self):
        assert infer("-R == R ; -Id(pw(Y))") == (("X", "Y"), {"R": ("mrel", "X", "Y")})

    def test_roles_are_named_in_order_of_first_use(self):
        assert infer("S ; R == T") == (("X", "Y", "Z"), {
            "S": ("rel", "X", "Y"), "R": ("rel", "Y", "Z"), "T": ("rel", "X", "Z")})
        roles, ends = infer("a(R * S) == a(R) ; a(S)")
        assert roles == ("X", "Y", "Z")
        assert ends == {"R": ("mrel", "X", "Y"), "S": ("mrel", "Y", "Z")}

    def test_given_names_come_first(self):
        roles, ends = infer("(T \\ S) == ((S^ / T^))^", names=("Z", "X", "Y"))
        assert roles == ("Z", "X", "Y")
        assert ends == {"T": ("rel", "Z", "X"), "S": ("rel", "Z", "Y")}

    def test_written_carriers_are_roles(self):
        assert infer("R ; Id(Y) == S") == (("X", "Y"), {
            "R": ("rel", "X", "Y"), "S": ("rel", "X", "Y")})
        assert infer("(T * 0(Y, Z)) == 0(X, Z)")[0] == ("X", "Y", "Z")
        assert infer("ihigh(X, Y) == icpl(ilow(X, Y))") == (("X", "Y"), {})

    def test_fresh_names_skip_written_carriers_and_slot_names(self):
        roles, ends = infer("X ; Y == Id(Z)")
        assert roles == ("Z", "W")
        assert ends == {"X": ("rel", "Z", "W"), "Y": ("rel", "W", "Z")}

    def test_the_guard_constrains_the_slots(self):
        assert infer("R == S", guard="R <d= S")[1] == {
            "R": ("mrel", "X", "Y"), "S": ("mrel", "X", "Y")}

    def test_given_fields_are_kept(self):
        assert infer("R == S", R="mrel")[1] == {"R": ("mrel", "X", "Y"), "S": ("mrel", "X", "Y")}
        # given roles are names, checked when the sizes are known
        both = ("mrel", "X", "Y")
        assert infer("a(R * S) == a(R) ; a(S)", R=both, S=both) == (("X", "Y"), {
            "R": both, "S": both})

    def test_constants_may_take_their_carriers_from_slots(self):
        for claim in ("1 * R == R", "R @ 1 == R", "a(tau(R)) == 0", "down(R) == R * down(eta)"):
            assert infer(claim)[1]["R"][0] == "mrel", claim
        assert infer("R & -R == 0") == (("X", "Y"), {"R": ("rel", "X", "Y")})

    def test_powerset_slot_is_an_error(self):
        with pytest.raises(ShapeMismatch):
            infer("a(R) == R", R="rel")
        with pytest.raises(ShapeMismatch, match="R would range over pw"):
            infer("R == mem(X)", R="rel")

    def test_value_names_in_order_of_first_use(self):
        assert value_names(parse("(S ; R) == (R ; mem(Y)) & T")) == ["S", "R", "T"]


NAMED_ENV = {
    "carriers": {"X": 2, "Y": {"size": 2, "names": ["p", "q"]}},
    "rels": {"R": {"src": 2, "dst": 2, "pairs": [[0, 1]]}},
    "mrels": {"S": {"src": 2, "dst": 2, "rows": [[[0]], []]}},
}


def _with_extra(doc):
    """``doc`` with an "extra" key added to one of its objects whose keys
    are fixed, for each in turn: the file itself, and every carrier entry,
    relation and multirelation."""
    yield {**doc, "extra": 1}
    for key, section in doc.items():
        for name, v in section.items():
            if isinstance(v, dict):
                yield {**doc, key: {**section, name: {**v, "extra": 1}}}


class TestEnvJson:
    def test_load(self):
        env = env_from_json(NAMED_ENV)
        assert env["X"] == C(2)
        assert env["R"] == R(2, 2, [(0, 1)])
        assert env["S"] == M(2, 2, [(0, [0])])

    @pytest.mark.parametrize("names", ["ab", [1, 2], ["a", "a"], ["a"], {"a": 0, "b": 1}])
    def test_carrier_names_are_checked(self, names):
        with pytest.raises(ValueError):
            env_from_json({"carriers": {"X": {"size": 2, "names": names}}})

    @pytest.mark.parametrize("env, says", [
        ({"rel": {}}, "an environment has an unknown key 'rel'"),
        ({"carriers": {}, "src": 1, "dst": 1}, "an environment has an unknown key 'dst'"),
        ({"rels": {"R": {"src": 1, "dst": 1}}}, "a relation has no 'pairs' key"),
        ({"rels": {"R": {"dst": 1, "pairs": []}}}, "a relation has no 'src' key"),
        ({"mrels": {"R": {"src": 1, "dst": 1}}}, "a multirelation has no 'rows' key"),
        ({"carriers": {"X": {"names": []}}}, "carrier 'X' has no 'size' key"),
        ({"rels": {"R": {"src": 2, "dst": 2, "rows": [[[0]], [[0]]], "pairs": []}}},
         "a relation has an unknown key 'rows': expected one of 'src', 'dst', 'pairs'"),
        ({"rels": {"R": {"src": 2, "dst": 2, "pairs": [], "extra": 1}}},
         "a relation has an unknown key 'extra'"),
        ({"mrels": {"R": {"src": 2, "dst": 2, "rows": [[], []], "pairs": []}}},
         "a multirelation has an unknown key 'pairs': expected one of 'src', 'dst', 'rows'"),
        ({"carriers": {"X": {"size": 2, "nmes": ["a", "b"]}}},
         "carrier 'X' has an unknown key 'nmes': expected one of 'size', 'names'"),
    ])
    def test_bad_keys_are_named(self, env, says):
        with pytest.raises(ValueError) as err:
            env_from_json(env)
        assert str(err.value).startswith(says)

    @pytest.mark.parametrize("kind, cls, other, count", [
        ("rel", Rel, "rows", 2 + 4 + 4 + 16),
        ("mrel", MRel, "pairs", 4 + 16 + 16 + 256),
    ])
    def test_values_round_trip(self, kind, cls, other, count):
        """Every value up to 2,2 survives JSON, and its document refuses an
        unknown key and the other kind's key."""
        values = [v for ns in (1, 2) for nd in (1, 2) for v in instances(kind, GenSpec((ns, nd)))]
        assert len(values) == count
        for v in values:
            doc = json.loads(json.dumps(v.to_json()))
            assert cls.from_json(doc) == v
            for key in ("extra", other):
                with pytest.raises(ValueError, match=f"unknown key '{key}'"):
                    cls.from_json({**doc, key: []})

    @pytest.mark.parametrize("doc", [NAMED_ENV, ENV_DOC], ids=["named", "cli"])
    def test_environments_round_trip(self, doc):
        assert env_to_json(env_from_json(doc)) == doc
        for bad in _with_extra(doc):
            with pytest.raises(ValueError, match="unknown key 'extra'"):
                env_from_json(bad)

    def test_carrier_names_are_kept(self):
        env = env_from_json({"carriers": {"X": {"size": 2, "names": ["p", "q"]},
                                          "Y": {"size": 0, "names": []}}})
        assert env["X"].names == ("p", "q") and env["Y"].names == ()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            env_from_json(
                {
                    "carriers": {"X": 2},
                    "rels": {"X": {"src": 1, "dst": 1, "pairs": []}},
                }
            )
