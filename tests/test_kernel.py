import pytest

from demod import (
    App, Atom, FuelExhausted, Imp, Proof, RewriteRule, RewriteSystem,
    Sequent, Theory, Var, check_proof, commute_conversions, find_cuts,
    iff_axioms_to_rules, load_builtin, normalize_proof, print_node,
    reduce_cut,
)
from demod.kernel import free_labels, subst_hyp
from demod import kernel
from demod.errors import ProofError
from demod.parsing import parse_proof, parse_prop, parse_sequent, print_proof


def chk(theory, proof_text, sequent_text):
    sig = theory.signature
    return check_proof(theory, parse_proof(proof_text, sig),
                       parse_sequent(sequent_text, sig))


class TestChecking:
    def test_identity(self, empty):
        assert chk(empty, '(imp_i "h" (axiom "h"))', '|- (imp P P)').ok

    def test_unknown_hypothesis(self, empty):
        r = chk(empty, '(axiom "nope")', 'h : P |- P')
        assert not r.ok
        assert "nope" in r.message

    def test_wrong_conclusion(self, empty):
        r = chk(empty, '(imp_i "h" (axiom "h"))', '|- (imp P Q)')
        assert not r.ok

    def test_failure_path_points_inside(self, empty):
        r = chk(empty, '(and_i (top_i) (axiom "h"))', 'h : P |- (and top Q)')
        assert not r.ok
        assert r.path == (1,)

    def test_modulo_fold(self, def_conj):
        # the hypothesis A and B is congruent to P
        assert chk(def_conj, '(axiom "h")', 'h : (and A B) |- P').ok

    def test_modulo_unfold_elim(self, def_conj):
        assert chk(def_conj, '(and_e1 (axiom "h"))', 'h : P |- A').ok

    def test_modulo_intro(self, def_conj):
        assert chk(def_conj, '(and_i (axiom "a") (axiom "b"))',
                   'a : A, b : B |- P').ok

    def test_forall(self, addition):
        assert chk(addition,
                   '(forall_i (y : nat) (imp_i "h" (axiom "h")))',
                   '|- (forall (x : nat) (imp (P x) (P x)))').ok

    def test_eigenvariable_violation(self, addition):
        # y occurs free in the hypothesis, so forall_i over it is unsound
        r = chk(addition, '(forall_i (y : nat) (axiom "h"))',
                'h : (P y) |- (forall (x : nat) (P x))')
        assert not r.ok

    def test_exists(self, addition):
        assert chk(addition, '(exists_i 0 (axiom "h"))',
                   'h : (P 0) |- (exists (x : nat) (P x))').ok

    def test_exists_e_eigen_escape(self, addition):
        # the eigenvariable must not occur in the conclusion
        r = chk(addition,
                '(exists_e (axiom "h") (y : nat) "k" (axiom "k"))',
                'h : (exists (x : nat) (P x)) |- (P y)')
        assert not r.ok

    def test_congruent_witness(self, addition):
        # the witness 0+0 is congruent to the instance at 0
        assert chk(addition, '(exists_i (plus 0 0) (axiom "h"))',
                   'h : (P 0) |- (exists (x : nat) (P x))').ok

    def test_intro_in_elim_position_needs_annotation(self, empty):
        r = chk(empty, '(and_e1 (and_i (top_i) (top_i)))', '|- top')
        assert not r.ok
        ok = chk(empty, '(and_e1 (and_i (top_i) (top_i) : (and top top)))',
                 '|- top')
        assert ok.ok

    def test_annotations_filled_in(self, empty):
        r = chk(empty, '(imp_i "h" (axiom "h"))', '|- (imp P P)')
        assert r.proof.conclusion == Imp(Atom("P"), Atom("P"))
        assert r.proof.children[0].conclusion == Atom("P")

    def test_shadowing_inner_label_wins(self, empty):
        r = chk(empty, '(imp_i "h" (imp_i "h" (axiom "h")))',
                '|- (imp P (imp Q Q))')
        assert r.ok


class TestCrabbe:
    PROOF = ('(imp_e (imp_i "h" (imp_e (axiom "h") (axiom "h")) : (imp P Q)) '
             '(imp_i "h" (imp_e (axiom "h") (axiom "h"))))')

    def test_checks(self, crabbe):
        assert chk(crabbe, self.PROOF, '|- Q').ok

    def test_has_a_cut(self, crabbe):
        r = chk(crabbe, self.PROOF, '|- Q')
        cuts = find_cuts(r.proof)
        assert len(cuts) >= 1
        assert cuts[0][1:] == ("imp_i", "imp_e")

    def test_normalization_diverges(self, crabbe):
        r = chk(crabbe, self.PROOF, '|- Q')
        goal = parse_sequent('|- Q', crabbe.signature)
        with pytest.raises(FuelExhausted):
            normalize_proof(crabbe, r.proof, fuel=1000, goal=goal)


class TestCutReduction:
    def case(self, theory, proof_text, sequent_text, expect_normal):
        sig = theory.signature
        goal = parse_sequent(sequent_text, sig)
        r = check_proof(theory, parse_proof(proof_text, sig), goal)
        assert r.ok, r.message
        n = normalize_proof(theory, r.proof, goal=goal)
        assert not find_cuts(n.proof)
        again = check_proof(theory, n.proof, goal)
        assert again.ok
        assert print_proof(n.proof) == expect_normal

    def test_imp_cut(self, empty):
        self.case(empty,
                  '(imp_e (imp_i "h" (axiom "h") : (imp top top)) (top_i))',
                  '|- top', '(top_i : top)')

    def test_and_cut(self, empty):
        self.case(
            empty,
            '(and_e1 (and_i (imp_i "h" (axiom "h")) (top_i)'
            ' : (and (imp P P) top)))',
            '|- (imp P P)', '(imp_i "h" (axiom "h" : P) : (imp P P))')

    def test_or_cut(self, empty):
        self.case(empty,
                  '(or_e (or_i2 (top_i) : (or P top)) "a" (top_i)'
                  ' "b" (axiom "b"))',
                  '|- top', '(top_i : top)')

    def test_forall_cut(self, addition):
        self.case(
            addition,
            '(forall_e (forall_i (x : nat) (imp_i "h" (axiom "h"))'
            ' : (forall (x : nat) (imp (P x) (P x)))) 0)',
            '|- (imp (P 0) (P 0))',
            '(imp_i "h" (axiom "h" : (P 0)) : (imp (P 0) (P 0)))')

    def test_exists_cut(self, addition):
        self.case(
            addition,
            '(exists_e (exists_i 0 (axiom "h") : (exists (z : nat) (P z)))'
            ' (y : nat) "k" (exists_i y (axiom "k")))',
            'h : (P 0) |- (exists (z : nat) (P z))',
            '(exists_i 0 (axiom "h" : (P 0)) : (exists (z : nat) (P z)))')

    def test_reduce_cut_single_step(self, empty):
        goal = parse_sequent('|- top', empty.signature)
        p = parse_proof(
            '(imp_e (imp_i "h" (axiom "h") : (imp top top)) (top_i))',
            empty.signature)
        r = check_proof(empty, p, goal)
        reduced = reduce_cut(r.proof, ())
        assert check_proof(empty, reduced, goal).ok

    def reduce_once(self, theory, proof_text, sequent_text):
        sig = theory.signature
        goal = parse_sequent(sequent_text, sig)
        r = check_proof(theory, parse_proof(proof_text, sig), goal)
        assert r.ok, r.message
        reduced = reduce_cut(r.proof, ())
        assert check_proof(theory, reduced, goal).ok
        return print_proof(reduced)

    def test_reduce_forall_cut_renames_eigenvariable(self, addition):
        # the witness y would be captured by the inner eigenvariable y
        assert self.reduce_once(
            addition,
            '(forall_e (forall_i (x : nat) (forall_i (y : nat) (imp_i "h" '
            '(axiom "h"))) : (forall (x : nat) (forall (y : nat) '
            '(imp (P x) (P x))))) y:nat)',
            '|- (forall (z : nat) (imp (P y:nat) (P y:nat)))') == (
            '(forall_i (y_1 : nat) (imp_i "h" (axiom "h" : (P y)) : '
            '(imp (P y) (P y))) : (forall (y_1 : nat) (imp (P y) (P y))))')

    def test_reduce_exists_cut_renames_eigenvariable(self, addition):
        # the witness x replaces y under the eigenvariable x of the body
        assert self.reduce_once(
            addition,
            '(exists_e (exists_i x:nat (top_i) : (exists (z : nat) top)) '
            '(y : nat) "k" (forall_i (x : nat) (exists_i y (axiom "k"))))',
            '|- (forall (u : nat) (exists (v : nat) top))') == (
            '(forall_i (x_1 : nat) (exists_i x:nat (top_i : top) : '
            '(exists (v : nat) top)) : (forall (u : nat) (exists (v : nat) '
            'top)))')

    def test_reduce_cut_rejects_non_cut(self, empty):
        goal = parse_sequent('h : P |- P', empty.signature)
        r = check_proof(empty, parse_proof('(axiom "h")', empty.signature),
                        goal)
        with pytest.raises(ProofError):
            reduce_cut(r.proof, ())


class TestLabelScoping:
    """A label binds in the subproof after it: imp_i's body, its own arm
    of or_e, exists_e's body; never in the major premise."""

    @pytest.mark.parametrize("text, free", [
        ('(imp_i "h" (and_i (axiom "h") (axiom "g")))', {"g"}),
        ('(or_e (axiom "a") "a" (axiom "a") "b" (axiom "b"))', {"a"}),
        ('(or_e (axiom "d") "a" (and_i (axiom "a") (axiom "b"))'
         ' "b" (and_i (axiom "a") (axiom "b")))', {"a", "b", "d"}),
        ('(exists_e (axiom "k") (y : nat) "k" (axiom "k"))', {"k"}),
        ('(exists_e (axiom "h") (y : nat) "k"'
         ' (and_i (axiom "k") (axiom "g")))', {"h", "g"}),
    ])
    def test_free_labels(self, addition, text, free):
        assert free_labels(parse_proof(text, addition.signature)) == free

    @pytest.mark.parametrize("text, label, repl, want", [
        # a shadowing binder stops the substitution
        ('(and_i (axiom "h") (imp_i "h" (axiom "h")))', "h", '(top_i)',
         '(and_i (top_i) (imp_i "h" (axiom "h")))'),
        ('(or_e (axiom "a") "a" (axiom "a") "b" (axiom "a"))', "a",
         '(top_i)', '(or_e (top_i) "a" (axiom "a") "b" (top_i))'),
        ('(exists_e (axiom "k") (y : nat) "k" (axiom "k"))', "k",
         '(top_i)', '(exists_e (top_i) (y : nat) "k" (axiom "k"))'),
        # a binder that would capture a label free in the replacement
        # is renamed in its own subproof only
        ('(imp_i "g" (and_i (axiom "h") (axiom "g")))', "h", '(axiom "g")',
         '(imp_i "g_1" (and_i (axiom "g") (axiom "g_1")))'),
        ('(or_e (axiom "d") "a" (axiom "h")'
         ' "b" (and_i (axiom "h") (axiom "b")))', "h", '(axiom "b")',
         '(or_e (axiom "d") "a" (axiom "b")'
         ' "b_1" (and_i (axiom "b") (axiom "b_1")))'),
        ('(or_e (axiom "d") "a" (and_i (axiom "h") (axiom "a"))'
         ' "a" (and_i (axiom "h") (axiom "a")))', "h", '(axiom "a")',
         '(or_e (axiom "d") "a_1" (and_i (axiom "a") (axiom "a_1"))'
         ' "a_2" (and_i (axiom "a") (axiom "a_2")))'),
        ('(exists_e (axiom "e") (y : nat) "k"'
         ' (and_i (axiom "h") (axiom "k")))', "h", '(axiom "k")',
         '(exists_e (axiom "e") (y : nat) "k_1"'
         ' (and_i (axiom "k") (axiom "k_1")))'),
    ])
    def test_subst_hyp(self, addition, text, label, repl, want):
        sig = addition.signature
        got = subst_hyp(parse_proof(text, sig), label, parse_proof(repl, sig))
        assert print_proof(got) == want


class TestCommuteConversions:
    def test_pushes_through_or_e(self, empty):
        goal = parse_sequent('d : (or P P) |- P', empty.signature)
        p = parse_proof(
            '(and_e1 (or_e (axiom "d") "a" (and_i (axiom "a") (top_i))'
            ' "b" (and_i (axiom "b") (top_i)) : (and P top)))',
            empty.signature)
        r = check_proof(empty, p, goal)
        assert r.ok
        cc = commute_conversions(r.proof)
        assert cc.tag == "or_e"
        assert check_proof(empty, cc, goal).ok


class TestIffAxiomsToRules:
    def test_def_conj_axiom(self, def_conj):
        sig = def_conj.signature
        ax = parse_prop('(and (imp P (and A B)) (imp (and A B) P))', sig)
        dr = iff_axioms_to_rules([ax])
        assert len(dr.rules) == 1
        assert dr.rules[0].lhs == Atom("P")
        assert dr.hazards == ()

    def test_quantified_axiom(self, addition):
        sig = addition.signature
        ax = parse_prop(
            '(forall (x : nat) (and (imp (P x) (P (plus x 0)))'
            ' (imp (P (plus x 0)) (P x))))', sig)
        dr = iff_axioms_to_rules([ax])
        assert len(dr.rules) == 1
        assert print_node(dr.rules[0].lhs) == "(P x)"

    def test_self_reference_flagged(self, crabbe):
        sig = crabbe.signature
        ax = parse_prop('(and (imp P (imp P Q)) (imp (imp P Q) P))', sig)
        dr = iff_axioms_to_rules([ax])
        assert dr.hazards == ("def_P",)

    def test_resulting_theory_checks_same_proofs(self, def_conj):
        sig = def_conj.signature
        ax = parse_prop('(and (imp P (and A B)) (imp (and A B) P))', sig)
        dr = iff_axioms_to_rules([ax])
        t2 = Theory("derived", sig, RewriteSystem(list(dr.rules)))
        assert chk(t2, '(and_e1 (axiom "h"))', 'h : P |- A').ok


def numeral(k):
    n = App("0")
    for _ in range(k):
        n = App("S", (n,))
    return n


class TestExposureMemo:
    def test_memo_stays_within_its_bound(self, addition):
        # one more distinct atom than the memo holds: it is emptied once,
        # and every answer is still the atom's normal form
        session = kernel._Session(addition.system, 100)
        bound = session.EXPOSE_MEMO_SIZE
        for k in range(bound + 1):
            p = Atom("P", (App("plus", (numeral(k % 5), App("0"))),))
            assert session.expose(p) == Atom("P", (numeral(k % 5),))
            assert 0 < len(session._exposed) <= bound
        assert len(session._exposed) == 1

    def test_memo_keeps_its_atoms_alive(self, def_conj):
        session = kernel._Session(def_conj.system, 100)
        p = Atom("P")
        exposed = session.expose(p)
        assert print_node(exposed) == "(and A B)"
        assert session._exposed[id(p)] == (p, exposed)
        assert session.expose(p) is exposed
