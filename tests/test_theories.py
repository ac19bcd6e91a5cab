import dataclasses
import pathlib

import pytest

from demod import (
    And, Atom, BUILTIN_NAMES, Imp, RewriteRule, RewriteSystem, Theory,
    Var, alpha_eq, alpha_key, check_proof, load_builtin, make_signature,
    print_node, search_proof, subformula_closure, validate_theory,
)
from demod.errors import RuleError, TheoryError
from demod.parsing import (
    parse_proof, parse_prop, parse_sequent, parse_theory,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


class TestBuiltins:
    def test_all_names_load(self):
        for name in BUILTIN_NAMES:
            t = load_builtin(name)
            assert t.report is not None
            assert t.report.lines()[0] == "lhs shapes ok: yes"
            assert t.report.nonconfusing

    def test_unknown_name(self):
        with pytest.raises(TheoryError):
            load_builtin("nope")

    @pytest.mark.parametrize("name,termination", [
        ("empty", "lpo"),
        ("def-conj", "lpo"),
        ("assoc", "lpo"),
        ("addition", "lpo"),
        ("pf-collapse", "lpo"),
        ("powerset", "user-asserted"),
        ("p0-forall", "user-asserted"),
        ("crabbe", "unknown"),
        ("comm", "unknown"),
    ])
    def test_termination_verdicts(self, name, termination):
        assert load_builtin(name).report.termination == termination

    @pytest.mark.parametrize("name,path", [
        ("addition", "addition.thy"), ("assoc", "assoc.thy"),
        ("crabbe", "crabbe.thy"), ("def-conj", "defconj.thy"),
        ("powerset", "powerset.thy"),
    ])
    def test_corpus_file_is_the_builtin(self, name, path):
        # the same theory twice: as a file, and as the builtin's text
        f = parse_theory((CORPUS / path).read_text(), name)
        b = load_builtin(name)
        assert f.signature == b.signature
        # the declaration order is the LPO precedence
        assert f.default_precedence() == b.default_precedence()
        assert [r.name for r in f.system.rules] == \
            [r.name for r in b.system.rules]
        for fr, br in zip(f.system.rules, b.system.rules):
            assert alpha_eq(fr.lhs, br.lhs) and alpha_eq(fr.rhs, br.rhs)
        assert f.system.asserted_terminating == b.system.asserted_terminating

        def verdicts(t):
            return [ln for ln in t.report.lines() if not ln.startswith("note:")]
        assert verdicts(f) == verdicts(b)

    def test_addition_convergent(self, addition):
        assert addition.report.locally_confluent
        assert addition.system.convergent

    def test_crabbe_not_convergent(self, crabbe):
        assert not crabbe.system.convergent

    def test_report_lines_shape(self, addition):
        lines = addition.report.lines()
        assert any(line.startswith("termination:") for line in lines)
        assert any(line.startswith("locally confluent:") for line in lines)


class TestTheoryConstruction:
    def test_ill_formed_rule_rejected(self):
        sig = make_signature(["s"], {"f": (["s"], "s")}, {"P": ["s"]})
        bad = RewriteRule("r", Atom("P", (Var("x", "other"),)),
                          Atom("P", (Var("x", "other"),)))
        with pytest.raises(TheoryError):
            Theory("t", sig, RewriteSystem([bad]))

    def test_default_precedence_is_declaration_order(self, addition):
        prec = addition.default_precedence()
        assert prec.index("0") < prec.index("S") < prec.index("plus")


def _confusing_theory():
    # the r1/r2 pair of the non-confusion tests: P exposes two connectives
    sig = make_signature(["iota"], {}, {"P": [], "Q": []})
    return Theory("confusing", sig, RewriteSystem([
        RewriteRule("r1", Atom("P"), Imp(Atom("Q"), Atom("Q"))),
        RewriteRule("r2", Atom("P"), And(Atom("Q"), Atom("Q"))),
    ]))


class TestValidatedOnce:
    def test_rewrite_system_fields_cannot_be_assigned(self, addition):
        rs = addition.system
        for f in dataclasses.fields(rs):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rs, f.name, getattr(rs, f.name))

    def test_theory_fields_cannot_be_assigned(self, addition):
        for f in dataclasses.fields(addition):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(addition, f.name, getattr(addition, f.name))

    def test_rules_are_a_tuple(self):
        rule = RewriteRule("d", Atom("P"), Imp(Atom("Q"), Atom("Q")))
        assert RewriteSystem([rule]).rules == (rule,)
        assert isinstance(RewriteSystem([rule]).rules, tuple)

    def test_verdicts_do_not_move(self, addition):
        report = addition.report
        assert addition.system.convergent
        sig = addition.signature
        goal = parse_sequent("|- (imp (P (plus 0 0)) (P 0))", sig)
        assert check_proof(addition, parse_proof('(imp_i "h" (axiom "h"))',
                                                 sig), goal).ok
        assert search_proof(addition, goal, depth=4).proved
        assert validate_theory(addition) == report
        assert addition.report is report
        assert addition.system.convergent

    def test_confusing_theory_refused_by_checker(self):
        t = _confusing_theory()
        assert not t.report.nonconfusing
        proof = parse_proof('(imp_i "h" (axiom "h"))', t.signature)
        goal = parse_sequent("|- (imp Q Q)", t.signature)
        with pytest.raises(RuleError, match="not non-confusing"):
            check_proof(t, proof, goal)

    def test_confusing_atom_chain_refused_by_checker(self):
        # P ~> Q ~> (and A B) and P ~> (or A B)
        t = parse_theory("pred A. pred B. pred Q. pred P. rule r1: P ~> Q. "
                         "rule r2: Q ~> (and A B). rule r3: P ~> (or A B).")
        assert not t.report.nonconfusing
        proof = parse_proof('(imp_i "h" (axiom "h"))', t.signature)
        goal = parse_sequent("|- (imp P P)", t.signature)
        with pytest.raises(RuleError, match="not non-confusing"):
            check_proof(t, proof, goal)

    def test_confusing_theory_refused_by_prover(self):
        t = _confusing_theory()
        goal = parse_sequent("|- (imp Q Q)", t.signature)
        with pytest.raises(TheoryError, match="not non-confusing"):
            search_proof(t, goal, depth=4)


class TestSubformulaClosure:
    def test_golden_qq(self):
        # P ~> (imp Q Q): the classes are exactly [P] and [Q]
        sig = make_signature(["iota"], {}, {"P": [], "Q": []})
        rs = RewriteSystem([RewriteRule("d", Atom("P"),
                                        Imp(Atom("Q"), Atom("Q")))])
        t = Theory("qq", sig, rs)
        s = subformula_closure(t, Atom("P"))
        assert s.status == "closed"
        assert set(map(alpha_key, s.representatives)) \
            == {alpha_key(Atom("P")), alpha_key(Atom("Q"))}

    def test_def_conj(self, def_conj):
        s = subformula_closure(def_conj, Atom("P"))
        assert s.status == "closed"
        names = {print_node(r) for r in s.representatives}
        assert names == {"P", "A", "B"}

    def test_crabbe_truncates(self, crabbe):
        s = subformula_closure(crabbe, Atom("P"))
        assert s.status == "truncated-at-fuel"
        names = {print_node(r) for r in s.representatives}
        assert {"P", "Q"} <= names

    def test_powerset_schematic(self):
        t = load_builtin("powerset")
        a = parse_prop("(in a:set (pow b:set))", t.signature)
        s = subformula_closure(t, a)
        assert s.status == "infinite-schematic"
        # the quantified body appears with a placeholder, not instances
        assert any(print_node(r) == "(imp (in _ a) (in _ b))"
                   for r in s.representatives)

    def test_plain_connectives(self, empty):
        a = parse_prop("(imp P (and P Q))", empty.signature)
        s = subformula_closure(empty, a)
        assert s.status == "closed"
        assert len(s.representatives) == 4  # whole, P, and-part, Q
