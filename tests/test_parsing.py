import pytest

from demod import (
    And, App, Atom, ParseError, Sequent, TOP, Var, load_builtin, print_node,
    print_prop,
)
from demod import parsing
from demod.parsing import (
    parse_node, parse_proof, parse_prop, parse_sequent, parse_theory,
    print_proof,
)

from demod.kernel import LAYOUT
from demod.syntax import CONNECTIVES, RESERVED

from conftest import random_prop


THEORY_TEXT = """\
# comments are ignored
sort nat.
func 0 : nat.
func S : nat -> nat.
func plus : nat nat -> nat.
pred P : nat.

rule add0: (plus 0 y) ~> y.
rule addS: (plus (S x) y) ~> (S (plus x y)).
"""


class TestTerms:
    def test_round_trip(self, addition):
        sig = addition.signature
        for text in ["0", "(S 0)", "(plus (S 0) (plus 0 0))"]:
            assert print_node(parse_node(text, sig)) == text

    def test_variable_needs_sort(self, addition):
        with pytest.raises(ParseError):
            parse_node("x", addition.signature)
        t = parse_node("x:nat", addition.signature)
        assert t.sort == "nat"

    def test_sort_inferred_from_context(self, addition):
        t = parse_node("(S x)", addition.signature)
        assert t.args[0].sort == "nat"

    def test_arity_checked(self, addition):
        with pytest.raises(ParseError):
            parse_node("(S 0 0)", addition.signature)

    def test_error_location(self, addition):
        with pytest.raises(ParseError) as e:
            parse_node("(plus 0 @)", addition.signature)
        assert e.value.line == 1

    def test_inconsistent_variable_sorts(self, assoc):
        with pytest.raises(ParseError):
            parse_prop("(and (P x:elem) (P x:other))", assoc.signature)


class TestProps:
    @pytest.mark.parametrize("text", [
        "top", "bot", "P", "(P 0)",
        "(and (P 0) top)",
        "(imp (P 0) (or (P (S 0)) bot))",
        "(forall (x : nat) (P x))",
        "(exists (x : nat) (imp (P x) (P (S x))))",
    ])
    def test_round_trip(self, addition, text):
        sig = addition.signature
        # "P" is 1-ary here, so patch in a 0-ary predicate set when needed
        if text in ("P",):
            sig = load_builtin("empty").signature
        assert print_prop(parse_prop(text, sig)) == text

    def test_random_round_trip(self, rng, addition):
        sig = addition.signature
        for _ in range(100):
            p = random_prop(rng, sig, 3)
            assert parse_prop(print_prop(p), sig) == p

    def test_unknown_predicate(self, addition):
        with pytest.raises(ParseError):
            parse_prop("(R 0)", addition.signature)

    def test_node_disambiguation(self, addition):
        sig = addition.signature
        assert print_node(parse_node("(plus 0 0)", sig)) == "(plus 0 0)"
        assert print_node(parse_node("(P 0)", sig)) == "(P 0)"


# one proof per rule tag, each in the printer's canonical form
PROOF_TEXTS = [
    '(axiom "h")',
    '(top_i)',
    '(imp_i "h" (axiom "h"))',
    '(imp_e (axiom "f") (axiom "a"))',
    '(and_i (top_i) (top_i))',
    '(and_e1 (axiom "h"))',
    '(and_e2 (axiom "h"))',
    '(or_i1 (top_i))',
    '(or_i2 (top_i))',
    '(or_e (axiom "d") "a" (axiom "a") "b" (axiom "b"))',
    '(forall_i (x : nat) (top_i))',
    '(forall_e (axiom "h") (S 0))',
    '(exists_i 0 (axiom "h"))',
    '(exists_e (axiom "h") (y : nat) "k" (axiom "k"))',
    '(bot_e (axiom "h"))',
    '(imp_i "h" (axiom "h") : (imp (P 0) (P 0)))',
]


class TestProofs:
    @pytest.mark.parametrize("text", PROOF_TEXTS)
    def test_round_trip(self, addition, text):
        assert print_proof(parse_proof(text, addition.signature)) == text

    def test_cases_cover_every_tag(self):
        assert {text[1:].split()[0].rstrip(")") for text in PROOF_TEXTS} \
            == set(LAYOUT)

    def test_tags_and_connectives_are_reserved(self):
        assert set(LAYOUT) | set(CONNECTIVES.values()) <= RESERVED

    def test_unknown_tag(self, addition):
        with pytest.raises(ParseError):
            parse_proof('(frobnicate "h")', addition.signature)

    def test_missing_label(self, addition):
        with pytest.raises(ParseError):
            parse_proof('(imp_i (top_i))', addition.signature)


class TestSequents:
    def test_parse(self, addition):
        p0 = Atom("P", (App("0"),))
        cases = {
            "|- (P 0)": Sequent((), p0),
            "h : (P 0) |- (P 0)": Sequent((("h", p0),), p0),
            "h : (P 0), g : top |- (and (P 0) top)":
                Sequent((("h", p0), ("g", TOP)), And(p0, TOP)),
        }
        for text, sequent in cases.items():
            assert parse_sequent(text, addition.signature) == sequent

    def test_duplicate_labels_rejected(self, addition):
        with pytest.raises(Exception):
            parse_sequent("h : top, h : top |- top", addition.signature)


class TestTheoryFiles:
    def test_parse(self):
        t = parse_theory(THEORY_TEXT, name="nats")
        assert set(t.signature.functions) == {"0", "S", "plus"}
        assert [r.name for r in t.system.rules] == ["add0", "addS"]

    def test_assert_terminating(self):
        t = parse_theory(THEORY_TEXT + "assert terminating.\n")
        assert t.system.asserted_terminating

    def test_prop_rule(self):
        text = "sort i.\npred P.\npred Q.\nrule c: P ~> (imp P Q).\n"
        t = parse_theory(text)
        assert t.system.prop_rules

    def test_rule_with_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_theory("sort i.\nrule r: (f x) ~> x.\n")

    def test_variable_lhs_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("sort i.\nfunc c : i.\nrule r: x:i ~> c.\n")

    def test_error_has_line(self):
        with pytest.raises(ParseError) as e:
            parse_theory("sort i.\nwat.\n")
        assert e.value.line == 2

    def test_rule_variables_are_the_rules_own(self):
        # one name at a different sort in each of two rules of one file
        text = ("sort a.\nsort b.\nfunc f : a -> a.\nfunc g : b -> b.\n"
                "rule r1: (f x) ~> x.\nrule r2: (g x) ~> x.\n")
        r1, r2 = parse_theory(text).system.rules
        assert (r1.rhs, r2.rhs) == (Var("x", "a"), Var("x", "b"))

    def test_one_parser_per_file(self, monkeypatch):
        # every declaration and rule is read by one parser, which lexes
        # the file once
        made = []
        init = parsing._Parser.__init__
        monkeypatch.setattr(
            parsing._Parser, "__init__",
            lambda p, *args: made.append(args) or init(p, *args))
        text = THEORY_TEXT + "sort i.\nfunc c : i.\nrule r: c ~> c.\n"
        parse_theory(text)
        assert made == [(text, None)]
