import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import demod
from demod.cli import build_parser, main

from conftest import MULT_THEORY

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main([str(CORPUS / a[7:]) if a.startswith("corpus/") else a
                     for a in argv])
        out = capsys.readouterr()
        return code, out.out, out.err
    return go


def verdict(out):
    lines = [line for line in out.strip().splitlines()]
    assert lines[-1].startswith("#verdict: "), out
    return lines[-1].split(": ", 1)[1]


class TestNormalize:
    def test_golden(self, run):
        code, out, _ = run("normalize", "builtin:assoc",
                           "(plus (plus a b) (plus (plus c d) e))")
        assert code == 0
        assert "(plus (plus (plus (plus a b) c) d) e)" in out
        assert verdict(out) == "ok"

    def test_fuel_exhausted(self, run):
        code, out, _ = run("normalize", "builtin:crabbe", "P", "--fuel", "50")
        assert code == 2
        assert verdict(out) == "fuel-exhausted"

    def test_outgrows_recursion_limit(self, run, tmp_path):
        # one level deeper per step: the stack runs out before the fuel
        thy = tmp_path / "grow.thy"
        thy.write_text("sort s. func a : s. func b : s. func g : s -> s. "
                       "func f : s s -> s. rule r0: (g y) ~> (f (g y) b).\n")
        code, out, err = run("normalize", str(thy), "(g a)")
        assert (code, err) == (2, "")
        limit = sys.getrecursionlimit()
        assert re.fullmatch(f"the term outgrew the recursion limit of {limit} "
                            r"after \d+ steps\n#verdict: fuel-exhausted\n",
                            out), out


class TestCongruent:
    def test_yes(self, run):
        code, out, _ = run("congruent", "builtin:crabbe", "P", "(imp P Q)")
        assert code == 0
        assert verdict(out) == "yes"
        assert "method: heuristic" in out

    def test_no(self, run):
        code, out, _ = run("congruent", "builtin:addition", "0", "(S 0)")
        assert code == 1
        assert verdict(out) == "no"


class TestUnify:
    def test_solution_found(self, run):
        code, out, _ = run("unify", "builtin:assoc",
                           "(plus a x:elem)", "(plus (plus a b) c)")
        assert code == 0
        assert "x -> (plus b c)" in out

    def test_unsolvable(self, run):
        code, out, _ = run("unify", "builtin:addition", "0", "(S 0)")
        assert code == 1
        assert verdict(out) == "no"

    @pytest.mark.parametrize("theory, left, right", [
        # P rewrites to (and A B)
        ("builtin:def-conj", "(imp P bot)", "(imp (and A B) bot)"),
        # (P (f x)) rewrites to (P x)
        ("builtin:pf-collapse", "(imp (P (f x:iota)) bot)",
         "(imp (P x:iota) bot)"),
    ])
    def test_propositions_normalized_first(self, run, theory, left, right):
        # the sides are congruent as they are
        code, out, err = run("unify", theory, left, right)
        assert (code, err) == (0, "")
        assert out == "solution 0: {}\ncomplete: yes\n#verdict: yes\n"

    def test_normal_forms_differ(self, run):
        code, out, err = run("unify", "builtin:def-conj",
                             "(imp P bot)", "(imp (and A A) bot)")
        assert (code, err) == (1, "")
        assert out == "the two sides can never unify\n#verdict: no\n"

    def test_cycle_closing_at_the_bound_is_complete(self, run):
        # (plus a b) narrows to (plus b a) and back to (plus a b), a state
        # already seen: at depth 2 the whole space is explored
        code, out, err = run("unify", "builtin:comm", "(plus a b)", "c",
                             "--depth", "2")
        assert (code, err) == (1, "")
        assert out == "complete: yes\n#verdict: no\n"

    def test_verification_out_of_fuel_is_not_a_no(self, run, tmp_path):
        # x -> a, y -> a solves it, but checking that takes three steps
        thy = tmp_path / "fh.thy"
        thy.write_text("sort s. func a : s. func b : s. func c : s. "
                       "func f : s -> s. func h : s s -> s. "
                       "rule fa: (f a) ~> b. rule hbb: (h b b) ~> c.\n")
        argv = ("unify", str(thy), "(h (f x:s) (f y:s))", "c", "--depth", "4")
        code, out, err = run(*argv, "--fuel", "2")
        assert (code, err) == (2, "")
        assert out == "complete: no\n#verdict: bound-exceeded\n"
        code, out, err = run(*argv, "--fuel", "3")
        assert (code, err) == (0, "")
        assert out == ("solution 0: {x -> a, y -> a}\ncomplete: yes\n"
                       "#verdict: yes\n")

    def test_proposition_rule_not_convergent(self, run):
        # P ~> (imp P Q) does not terminate, yet P and (imp P Q) are
        # congruent: a definite "no" would be wrong
        code, out, err = run("unify", "builtin:crabbe", "P", "(imp P Q)")
        assert code == 2
        assert err == ("error: the sides differ in shape, and unification "
                       "through proposition rules is not supported\n")
        assert out == "#verdict: error\n"


class TestCheckAndCuts:
    def test_check_corpus_proof(self, run):
        code, out, _ = run("check", "builtin:crabbe",
                           "corpus/crabbe_q.prf", "corpus/crabbe_q.goal")
        assert code == 0
        assert verdict(out) == "ok"

    def test_cuts_found(self, run):
        code, out, _ = run("cuts", "builtin:crabbe",
                           "corpus/crabbe_q.prf", "corpus/crabbe_q.goal")
        assert code == 0
        assert "cuts: 1" in out

    def test_eliminate_diverges_on_crabbe(self, run):
        code, out, _ = run("eliminate", "builtin:crabbe",
                           "corpus/crabbe_q.prf", "corpus/crabbe_q.goal")
        assert code == 2
        assert verdict(out) == "fuel-exhausted"

    def test_eliminate_negative_depth_allows_no_step(self, run, tmp_path):
        # a budget of 125 × depth steps below zero is exhausted at the
        # first cut, on a proof that diverges and on one that terminates
        code, out, _ = run("eliminate", "builtin:crabbe",
                           "corpus/crabbe_q.prf", "corpus/crabbe_q.goal",
                           "--depth", "-1")
        assert (code, out) == (2, "no normal form within the bound "
                               "(0 steps)\n#verdict: fuel-exhausted\n")
        files = {"a.thy": "pred A.\n",
                 "a.prf": '(imp_e (imp_i "h" (axiom "h") : (imp (imp A A) '
                          '(imp A A))) (imp_i "x" (axiom "x")))\n',
                 "a.seq": "|- (imp A A)\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / name) for name in files]
        code, out, _ = run("eliminate", *argv, "--depth", "-1")
        assert (code, out) == (2, "no normal form within the bound "
                               "(0 steps)\n#verdict: fuel-exhausted\n")
        assert run("eliminate", *argv, "--depth", "1") == (
            0, '(imp_i "x" (axiom "x" : A) : (imp A A))\nsteps: 1\n'
               '#verdict: ok\n', "")

    def test_identity_no_cuts(self, run):
        code, out, _ = run("cuts", "builtin:empty",
                           "corpus/identity.prf", "corpus/identity.goal")
        assert code == 1
        assert "cuts: 0" in out

    def test_eliminate_substitutes_major_premise(self, run, tmp_path):
        # exists_e binds its eigenvariable y in its body only, so the
        # forall cut replaces the y of the major premise's witness by c
        files = {
            "e.thy": "sort s. func c : s. pred Q.\n",
            "e.prf": '(forall_e (forall_i (y : s) (exists_e (forall_e '
                     '(axiom "k") y) (y : s) "h" (imp_i "q" (axiom "q")) : '
                     '(imp Q Q)) : (forall (x : s) (imp Q Q))) c)\n',
            "e.seq": "k : (forall (z : s) (exists (w : s) top)) "
                     "|- (imp Q Q)\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code, out, err = run("eliminate", *(str(tmp_path / n) for n in files))
        assert (code, err) == (0, "")
        assert out == (
            '(exists_e (forall_e (axiom "k" : (forall (z : s) (exists (w : s)'
            ' top))) c : (exists (w : s) top)) (y : s) "h" (imp_i "q" '
            '(axiom "q" : Q) : (imp Q Q)) : (imp Q Q))\nsteps: 1\n'
            '#verdict: ok\n')

    def test_eliminate_checks_twice(self, run, tmp_path, monkeypatch):
        # once before the reductions, once on the normal form; the
        # public normalize_proof still checks its input as well
        calls = []

        def counted(*args, **kw):
            calls.append(args[1])
            return kernel_check(*args, **kw)

        kernel_check = demod.kernel.check_proof
        monkeypatch.setattr(demod.cli, "check_proof", counted)
        monkeypatch.setattr(demod.kernel, "check_proof", counted)
        proof, sequent, normal = self.EIGEN_CAPTURE["substituted"]
        prf, seq = tmp_path / "p.prf", tmp_path / "p.seq"
        prf.write_text(proof)
        seq.write_text(sequent)
        assert run("eliminate", "builtin:addition", str(prf), str(seq)) == (
            0, normal + "#verdict: ok\n", "")
        assert len(calls) == 2
        bad = tmp_path / "bad.prf"
        bad.write_text('(axiom "nope")')
        assert run("eliminate", "builtin:empty", str(bad),
                   "corpus/identity.goal") == (
            1, "at []: no hypothesis labelled 'nope'\n#verdict: invalid\n",
            "")
        assert len(calls) == 3
        theory = demod.load_builtin("addition")
        demod.normalize_proof(
            theory, demod.parsing.parse_proof(proof, theory.signature),
            demod.parsing.parse_sequent(sequent, theory.signature))
        assert len(calls) == 5

    # Two valid proofs under builtin:addition whose cut elimination
    # renames an eigenvariable to a name free in a hypothesis of the
    # sequent, y_1 and w_1, unless the renaming avoids the sequent too.
    # In the second the hypothesis b is outer and only seen once the
    # reduction renames the inner binder b to b_1.
    EIGEN_CAPTURE = {
        "substituted": (
            '(forall_e (forall_i (x : nat) (forall_i (y : nat) (imp_i "h" '
            '(axiom "h"))) : (forall (x : nat) (forall (y : nat) (imp (P x) '
            '(P x))))) y:nat)',
            "k : (P y_1:nat) |- (forall (z : nat) (imp (P y:nat) (P y:nat)))",
            '(forall_i (y_2 : nat) (imp_i "h" (axiom "h" : (P y)) : (imp (P y)'
            ' (P y))) : (forall (z : nat) (imp (P y) (P y))))\nsteps: 1\n'),
        "unshadowed": (
            '(imp_e (imp_i "h" (imp_i "b" (exists_e (axiom "h") (y : nat) "k" '
            '(forall_i (w : nat) (and_e2 (axiom "b"))))) : (imp (exists '
            '(v : nat) (imp top (P w_1:nat))) (imp (and (P 0) top) (forall '
            '(w : nat) top)))) (exists_i w:nat (imp_i "z" (axiom "b"))))',
            "b : (P w_1:nat) |- (imp (and (P 0) top) (forall (w : nat) top))",
            '(imp_i "b_1" (forall_i (w_2 : nat) (and_e2 (axiom "b_1" : (and '
            '(P 0) top)) : top) : (forall (w : nat) top)) : (imp (and (P 0) '
            'top) (forall (w : nat) top)))\nsteps: 2\n'),
    }

    @pytest.mark.parametrize("case", sorted(EIGEN_CAPTURE))
    def test_eliminate_renamed_eigenvariable_avoids_sequent(
            self, run, tmp_path, case):
        proof, sequent, normal = self.EIGEN_CAPTURE[case]
        prf, seq = tmp_path / "p.prf", tmp_path / "p.seq"
        prf.write_text(proof)
        seq.write_text(sequent)
        assert run("check", "builtin:addition", str(prf), str(seq)) == (
            0, "#verdict: ok\n", "")
        assert run("eliminate", "builtin:addition", str(prf), str(seq)) == (
            0, normal + "#verdict: ok\n", "")
        prf.write_text(normal.split("\n")[0])
        assert run("check", "builtin:addition", str(prf), str(seq)) == (
            0, "#verdict: ok\n", "")
        assert run("cuts", "builtin:addition", str(prf), str(seq))[0] == 1

    # An eigenvariable that escapes: into the goal of forall_i, and
    # through the major premise of exists_e.
    EIGEN_ESCAPE = {
        "forall_i-goal": (
            "sort i. func a : i. pred P : i.",
            '(forall_i (y : i) (imp_i "h" (axiom "h")))',
            "|- (forall (x : i) (imp (P x) (P y:i)))"),
        "exists_e-major": (
            "sort i. pred R : i i.",
            '(exists_e (forall_e (axiom "h") y:i) (y : i) "k" '
            '(exists_i y:i (axiom "k")))',
            "h : (forall (w : i) (exists (x : i) (R x w))) "
            "|- (exists (z : i) (R z z))"),
    }

    @pytest.mark.parametrize("case", sorted(EIGEN_ESCAPE))
    def test_eigenvariable_escape_rejected(self, run, tmp_path, case):
        files = [tmp_path / f for f in ("e.thy", "e.prf", "e.seq")]
        for path, text in zip(files, self.EIGEN_ESCAPE[case]):
            path.write_text(text)
        assert run("check", *map(str, files)) == (
            1, "at []: eigenvariable y occurs free in the sequent\n"
               "#verdict: invalid\n", "")

    def test_invalid_proof(self, run, tmp_path):
        bad = tmp_path / "bad.prf"
        bad.write_text('(axiom "nope")')
        code, out, _ = run("check", "builtin:empty",
                           str(bad), "corpus/identity.goal")
        assert code == 1
        assert verdict(out) == "invalid"


class TestProveAndProbe:
    def test_prove(self, run):
        code, out, _ = run("prove", "builtin:empty", "(imp P P)")
        assert code == 0
        assert verdict(out) == "proved"
        assert "(imp_i" in out

    def test_prove_fail(self, run):
        code, out, _ = run("prove", "builtin:empty", "P")
        assert code == 1
        assert verdict(out) == "fail"

    def test_prove_witness_names_eigenvariable(self, run, tmp_path):
        # the witness is the eigenvariable x_1, which stays as it is
        thy = tmp_path / "q.thy"
        thy.write_text("sort s. func a : s. pred P : s.\n")
        code, out, err = run(
            "prove", str(thy), "(forall (x : s) (exists (y : s) "
            "(imp (P y) (P x))))")
        assert (code, err) == (0, "")
        assert out == (
            '(forall_i (x_1 : s) (exists_i x_1:s (imp_i "_h3" (axiom "_h3" :'
            ' (P x_1)) : (imp (P x_1) (P x_1))) : (exists (y : s) (imp (P y)'
            ' (P x_1)))) : (forall (x : s) (exists (y : s) (imp (P y) '
            '(P x)))))\nnodes: 4\n#verdict: proved\n')

    def test_prove_unexplored_bridge_not_fail(self, run, tmp_path):
        # only rule r bridges A and (P ?m), which unification cannot
        # use; (imp_i "h" (exists_i (f a) (axiom "h"))) proves the goal
        thy = tmp_path / "bridge.thy"
        thy.write_text("sort s. func a : s. func f : s -> s. pred P : s. "
                       "pred A. rule r: (P (f x)) ~> A.\n")
        code, out, err = run("prove", str(thy),
                             "(imp A (exists (x : s) (P x)))")
        assert (code, err) == (2, "")
        assert out == "nodes: 3\n#verdict: bound-exceeded\n"
        proof, goal = tmp_path / "p.prf", tmp_path / "p.seq"
        proof.write_text('(imp_i "h" (exists_i (f a) (axiom "h")))')
        goal.write_text("|- (imp A (exists (x : s) (P x)))")
        assert run("check", str(thy), str(proof), str(goal)) == (
            0, "#verdict: ok\n", "")

    def test_output_independent_of_hash_seed(self, tmp_path):
        # Sets of variables iterate in an order set by the hash seed and,
        # since a variable hashes by identity, by memory addresses; none
        # of it may reach the output.  Two leftover metavariables are
        # named left to right in the witness; narrowing, the witness
        # search and cut elimination run too.
        thy = tmp_path / "f.thy"
        thy.write_text("sort s. func f : s s -> s. pred P : s.\n")
        prf, seq = tmp_path / "p.prf", tmp_path / "p.seq"
        proof, sequent, _ = TestCheckAndCuts.EIGEN_CAPTURE["substituted"]
        prf.write_text(proof)
        seq.write_text(sequent)
        jobs = [["prove", str(thy),
                 "(imp (forall (x : s) (forall (z : s) (P (f x z)))) "
                 "(exists (y : s) (P y)))"],
                ["unify", "builtin:assoc", "(plus a x:elem)",
                 "(plus (plus a b) c)", "--depth", "6"],
                ["prove", "builtin:assoc", "(exists (x : elem) (imp (P (plus"
                 " a x)) (P (plus (plus a b) c))))", "--depth", "6"],
                ["eliminate", "builtin:addition", str(prf), str(seq)]]
        script = ("import json, sys\nfrom demod.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n    main(argv)\n")
        src = str(pathlib.Path(demod.__file__).resolve().parent.parent)
        outs = [subprocess.run(
            [sys.executable, "-c", script, json.dumps(jobs)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout for seed in ("1", "3")]
        assert outs[0] == outs[1]
        assert outs[0].startswith(
            '(imp_i "_h1" (exists_i (f w17 w18) (forall_e (forall_e ')
        assert "solution 0: {x -> (plus b c)}\n" in outs[0]
        assert "(exists_i (plus b c) " in outs[0]
        assert "(forall_i (y_2 : nat) " in outs[0]
        assert outs[0].count("#verdict: ") == 4

    def test_probe_consistent(self, run):
        code, out, _ = run("probe", "builtin:empty", "--depth", "6")
        assert code == 0
        assert verdict(out) == "consistent-at-bound"

    def test_probe_inconsistent(self, run):
        code, out, _ = run("probe", "builtin:empty", "--depth", "6",
                           "--hyp", "P", "--hyp", "(imp P bot)")
        assert code == 1
        assert verdict(out) == "inconsistent"


class TestValidateAndSubformulae:
    def test_validate_file(self, run):
        code, out, _ = run("validate", "corpus/addition.thy")
        assert code == 0
        assert "termination: lpo" in out

    def test_validate_confusing_atom_chain(self, run, tmp_path):
        # P ~> Q ~> (and A B) and P ~> (or A B): P is both
        thy = tmp_path / "chain.thy"
        thy.write_text("pred A. pred B. pred Q. pred P. rule r1: P ~> Q. "
                       "rule r2: Q ~> (and A B). rule r3: P ~> (or A B).\n")
        assert run("validate", str(thy)) == (1, (
            "lhs shapes ok: yes\nnon-confusing: NO\ncritical pairs: 2\n"
            "locally confluent: NO\ntermination: lpo\n#verdict: invalid\n"),
            "")

    def test_validate_deep_critical_pair_unknown(self, run, tmp_path):
        # a reduct of the critical pair grows one level per step, so it
        # outgrows the recursion limit before the fuel runs out
        thy = tmp_path / "grow.thy"
        thy.write_text("sort s. func a : s. func b : s. func g : s -> s. "
                       "func f : s s -> s. rule r0: (g y) ~> (f (g y) b). "
                       "rule r2: (f (g a) y) ~> y.\n")
        assert run("validate", str(thy)) == (0, (
            "lhs shapes ok: yes\nnon-confusing: yes\ncritical pairs: 1\n"
            "locally confluent: unknown\ntermination: unknown\n"
            "#verdict: ok\n"), "")

    # two rules whose left-hand sides do not overlap, still both reached
    # from one atom: the sequent h : (or A B) |- A gets a proof
    CONFUSED = {
        # a term rule turns an instance of p1 into one of p2
        "term-rule": (
            "sort s. func a : s. func b : s. func f : s -> s. pred A. "
            "pred B. pred P : s. rule t: (f a) ~> b. "
            "rule p1: (P (f x)) ~> (and A B). rule p2: (P b) ~> (or A B).\n",
            '(and_e1 (imp_e (imp_i "k" (axiom "k") : '
            '(imp (P (f a)) (P (f a)))) (axiom "h")))'),
        # p links both instances through R
        "atom-reduct": (
            "sort s. func b : s. func f : s -> s. pred A. pred B. "
            "pred P : s. pred R. rule p1: (P (f x)) ~> (and A B). "
            "rule p2: (P b) ~> (or A B). rule p: (P x) ~> R.\n",
            '(and_e1 (imp_e (imp_i "k" (axiom "k") : '
            '(imp (P (f b)) (P (f b)))) (imp_e (imp_i "j" (axiom "j") : '
            '(imp (P b) (P b))) (axiom "h"))))'),
    }

    @pytest.mark.parametrize("name", CONFUSED)
    def test_confusion_through_other_rules(self, run, tmp_path, name):
        theory, proof = self.CONFUSED[name]
        thy, prf, seq = (tmp_path / f for f in ("t.thy", "t.prf", "t.seq"))
        thy.write_text(theory)
        prf.write_text(proof)
        seq.write_text("h : (or A B) |- A\n")
        code, out, _ = run("validate", str(thy))
        assert code == 1 and "non-confusing: NO\n" in out
        assert run("check", str(thy), str(prf), str(seq)) == (
            2, "#verdict: error\n",
            "error: theory's rewrite system is not non-confusing\n")

    def test_validate_definition_by_cases(self, run, tmp_path):
        # two connectives on one predicate, but the system is convergent
        thy = tmp_path / "even.thy"
        thy.write_text("sort nat. func 0 : nat. func S : nat -> nat. "
                       "pred Even : nat. rule e0: (Even 0) ~> top. "
                       "rule eS: (Even (S x)) ~> (imp (Even x) bot).\n")
        assert run("validate", str(thy)) == (0, (
            "lhs shapes ok: yes\nnon-confusing: yes\ncritical pairs: 0\n"
            "locally confluent: yes\ntermination: lpo\n#verdict: ok\n"),
            "")

    # name: (critical pairs, termination, notes) as validate prints them
    BUILTIN_REPORTS = {
        "empty": (0, "lpo", ""),
        "def-conj": (0, "lpo", ""),
        "assoc": (1, "lpo", ""),
        "addition": (0, "lpo", ""),
        "powerset": (0, "user-asserted", ""),
        "crabbe": (0, "unknown",
                   "note: self-referential definition: the head predicate "
                   "occurs in its own body\n"
                   "note: known negative: cut elimination fails (a proof of "
                   "Q exists, no cut-free proof of Q does)\n"),
        "comm": (0, "unknown",
                 "note: non-terminating as a rewrite system; the congruence "
                 "is decided heuristically only\n"),
        "p0-forall": (0, "user-asserted", ""),
        "pf-collapse": (0, "lpo", ""),
    }

    @pytest.mark.parametrize("name", BUILTIN_REPORTS)
    def test_validate_builtin_notes(self, run, name):
        pairs, termination, notes = self.BUILTIN_REPORTS[name]
        assert run("validate", f"builtin:{name}") == (0, (
            f"lhs shapes ok: yes\nnon-confusing: yes\ncritical pairs: "
            f"{pairs}\nlocally confluent: yes\ntermination: {termination}\n"
            f"{notes}#verdict: ok\n"), "")
        # built once per process: every load shares one theory
        assert demod.load_builtin(name) is demod.load_builtin(name)

    def test_subformulae(self, run):
        code, out, _ = run("subformulae", "builtin:def-conj", "P")
        assert code == 0
        assert "status: closed" in out
        assert "classes: 3" in out


class TestErrors:
    def test_parse_error_exit_2(self, run):
        code, out, err = run("normalize", "builtin:addition", "(plus 0")
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("text", [
        "sort nat.\nfunc f : nat.\nfunc f : nat -> nat.\npred P : nat.\n"
        "pred P.\n",
        "sort nat.\npred f : nat.\nfunc f : nat -> nat.\n",
        "sort nat.\nfunc f : nat.\npred f.\n",
    ])
    def test_redeclared_symbol(self, run, tmp_path, text):
        # the later declaration used to replace the earlier one
        thy = tmp_path / "twice.thy"
        thy.write_text(text)
        code, out, err = run("validate", str(thy))
        assert (code, out) == (2, "#verdict: error\n")
        assert err == "parse error: 3:6: symbol 'f' is already declared\n"

    def test_repeated_rule_name(self, run, tmp_path):
        thy = tmp_path / "twice.thy"
        thy.write_text("sort i.\nfunc c : i.\nrule r: c ~> c.\n"
                       "rule r: c ~> c.\n")
        code, out, err = run("validate", str(thy))
        assert (code, out) == (2, "#verdict: error\n")
        assert err == "parse error: 4:6: rule 'r' is already declared\n"

    @pytest.mark.parametrize("text,err", [
        ("sort i. func top : i.\n",
         "1:14: illegal or reserved identifier 'top'"),
        ("sort i. func c : j.\n", "1:18: function c: undeclared sort 'j'"),
        ("sort i. pred P : j.\n", "1:18: predicate P: undeclared sort 'j'"),
    ], ids=["reserved-name", "func-sort", "pred-sort"])
    def test_signature_error_located(self, run, tmp_path, text, err):
        thy = tmp_path / "sig.thy"
        thy.write_text(text)
        assert run("validate", str(thy)) == (
            2, "#verdict: error\n", f"parse error: {err}\n")

    def test_sort_declared_after_use(self, run, tmp_path):
        thy = tmp_path / "late.thy"
        thy.write_text("func c : j.\nsort i. sort j. pred P : j.\n")
        code, out, err = run("validate", str(thy))
        assert (code, verdict(out), err) == (0, "ok", "")

    def test_unknown_builtin(self, run):
        code, out, err = run("validate", "builtin:nope")
        assert code == 2

    def test_missing_file(self, run):
        code, out, err = run("validate", "no_such_file.thy")
        assert code == 2

    def test_crash_exits_2(self, run, monkeypatch):
        # an unexpected exception is an error, never a definite "no"
        def crash(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr("demod.cli.normalize", crash)
        code, out, err = run("normalize", "builtin:addition", "0")
        assert code == 2
        assert verdict(out) == "error"
        assert err == "error: boom\n"

    def test_deep_sum_never_exits_1(self, run):
        # whatever breaks on a deep input, the answer is the sum or an
        # error, never a definite "no"
        n = "0"
        for _ in range(400):
            n = f"(S {n})"
        code, out, err = run("normalize", "builtin:addition",
                             f"(plus {n} {n})")
        if code == 2:
            assert verdict(out) == "error"
            assert err.startswith("error: ")
        else:
            assert code == 0
            assert out.count("(S ") == 800


def numeral(k):
    n = "0"
    for _ in range(k):
        n = f"(S {n})"
    return n


class TestFuelExhausted:
    """Every verb that runs out of rewrite fuel says so with one word."""

    GOAL = "(imp (P (plus (S (S 0)) 0)) (P (S (S 0))))"

    @pytest.mark.parametrize("fuel,code,out", [
        ("2", 2, "no normal form of (P (S (S 0))) within 2 steps\n"
                 "#verdict: fuel-exhausted\n"),
        ("3", 0, "#verdict: ok\n"),
    ], ids=["fuel-2", "fuel-3"])
    def test_check(self, run, tmp_path, fuel, code, out):
        proof, goal = tmp_path / "p.prf", tmp_path / "g.seq"
        proof.write_text('(imp_i "h" (axiom "h"))\n')
        goal.write_text(f"|- {self.GOAL}\n")
        assert run("check", "builtin:addition", str(proof), str(goal),
                   "--fuel", fuel) == (code, out, "")

    def test_prove(self, run):
        assert run("prove", "builtin:addition", self.GOAL,
                   "--fuel", "1") == (2, (
                       "no normal form of (P (S (S (plus 0 0)))) within 1 "
                       "steps\n#verdict: fuel-exhausted\n"), "")

    def test_unify(self, run):
        assert run("unify", "builtin:addition", "(plus (S (S (S 0))) x:nat)",
                   "y:nat", "--fuel", "1") == (2, (
                       "no normal form of (S (S (plus (S 0) x))) within 1 "
                       "steps\n#verdict: fuel-exhausted\n"), "")


    # mult x (S (S 0)) narrows at mulS, and the narrowed side
    # (plus (S (S 0)) (mult x_1 (S (S 0)))) is made and normalized in
    # one walk: the message holds the whole term when fuel runs out there
    @pytest.mark.parametrize("fuel,out", [
        ("1", "no normal form of (S (S (plus 0 (mult x_1 (S (S 0))))))"
              " within 1 steps\n#verdict: fuel-exhausted\n"),
        ("2", "no normal form of (S (S (mult x_1 (S (S 0))))) within 2 "
              "steps\n#verdict: fuel-exhausted\n"),
        ("3", "complete: no\n#verdict: bound-exceeded\n"),
    ], ids=["fuel-1", "fuel-2", "fuel-3"])
    def test_unify_inside_a_narrowing_step(self, run, tmp_path, fuel, out):
        thy = tmp_path / "mult.thy"
        thy.write_text(MULT_THEORY)
        assert run("unify", str(thy), "(mult x:nat (S (S 0)))",
                   "(S (S (S (S 0))))", "--fuel", fuel) == (2, out, "")


class TestDeepInputs:
    # S^k(0)+S^k(0): printing the 2k+1 levels of the answer, and comparing
    # it with the expected numeral, take one Python frame per level
    @pytest.mark.parametrize("k", [200, 400])
    def test_normalize_sum(self, run, k):
        code, out, err = run("normalize", "builtin:addition",
                             f"(plus {numeral(k)} {numeral(k)})")
        assert (code, err) == (0, "")
        assert out == f"{numeral(2 * k)}\nsteps: {k + 1}\n#verdict: ok\n"

    def test_congruent_sum(self, run):
        for k in (200, 400):
            code, out, err = run("congruent", "builtin:addition",
                                 f"(plus {numeral(k)} {numeral(k)})",
                                 numeral(2 * k))
            assert (code, err) == (0, "")
            assert out == "method: normal-form\n#verdict: yes\n"

    # Input nested past Python's recursion limit gets one message, which
    # names the layer whose frame was innermost and the limit, instead of
    # Python's "maximum recursion depth exceeded in comparison".
    def too_deep(self, layer):
        return (2, "#verdict: error\n",
                f"error: input nested too deeply for the {layer} layer "
                f"(recursion limit {sys.getrecursionlimit()})\n")

    def test_normalize_too_deep(self, run):
        assert run("normalize", "builtin:addition", numeral(1200)) \
            == self.too_deep("parsing")

    def test_check_too_deep(self, run, tmp_path):
        proof, goal = tmp_path / "p.prf", tmp_path / "g.seq"
        proof.write_text('(axiom "h")\n')
        goal.write_text(f"h : (P {numeral(1200)}) |- (P {numeral(1200)})\n")
        assert run("check", "builtin:addition", str(proof), str(goal)) \
            == self.too_deep("parsing")


class TestShadowedBinders:
    # Under the inner x of each side, x is bound by the second binder and
    # y by the third, so the two sides differ.  Reading Q a b as b = a+1
    # over nat, the hypothesis holds and the goal fails at x = 0.
    HYP = "(forall (x : nat) (forall (x : nat) ({q} (y : nat) (Q x y))))"
    GOAL = "(forall (x : nat) (forall (x : nat) ({q} (y : nat) (Q y x))))"

    @pytest.fixture
    def theory(self, tmp_path):
        path = tmp_path / "q.thy"
        path.write_text("sort nat. func 0 : nat. func S : nat -> nat.\n"
                        "pred Q : nat nat.\n")
        return str(path)

    @pytest.mark.parametrize("q", ["exists", "forall"])
    def test_check_rejects_axiom(self, run, theory, tmp_path, q):
        hyp, goal = self.HYP.format(q=q), self.GOAL.format(q=q)
        proof = tmp_path / "p.prf"
        proof.write_text('(axiom "h")')
        sequent = tmp_path / "s.seq"
        sequent.write_text(f"h : {hyp} |- {goal}")
        code, out, err = run("check", theory, str(proof), str(sequent))
        assert (code, err) == (1, "")
        assert out == (f"at []: concluded {hyp}, which is not congruent "
                       f"to {goal}\n#verdict: invalid\n")

    @pytest.mark.parametrize("q", ["exists", "forall"])
    def test_not_congruent(self, run, theory, q):
        code, out, err = run("congruent", theory, self.HYP.format(q=q),
                             self.GOAL.format(q=q))
        assert (code, err) == (1, "")
        assert out == "method: normal-form\n#verdict: no\n"

    def test_implication_not_proved(self, run, theory):
        hyp, goal = self.HYP.format(q="exists"), self.GOAL.format(q="exists")
        code, out, err = run("prove", theory, f"(imp {hyp} {goal})")
        assert (code, err) == (2, "")
        assert out == "nodes: 10771\n#verdict: bound-exceeded\n"


class TestOptions:
    # each verb takes only the options its handler reads
    TAKES = {
        "validate": set(), "check": {"--fuel"}, "cuts": {"--fuel"},
        "normalize": {"--fuel"}, "congruent": {"--fuel"},
        "subformulae": {"--fuel"}, "eliminate": {"--depth", "--fuel"},
        "unify": {"--depth", "--fuel", "--cap"},
        "prove": {"--depth", "--fuel", "--cap"},
        "probe": {"--depth", "--fuel", "--cap", "--hyp"},
    }

    def test_options_per_verb(self):
        verbs = next(a for a in build_parser()._actions
                     if a.dest == "command").choices
        assert verbs.keys() == self.TAKES.keys()
        for verb, sp in verbs.items():
            assert set(sp._option_string_actions) - {"-h", "--help"} \
                == self.TAKES[verb], verb

    def test_validate_refuses_depth(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["validate", "builtin:addition", "--depth", "3"])
        assert e.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unrecognized arguments: --depth 3" in out.err


class TestParserReuse:
    # main builds its parser once per process and reuses it

    def test_repeated_hypotheses_do_not_accumulate(self, run):
        argv = ("probe", "builtin:empty", "--depth", "4", "--hyp", "P",
                "--hyp", "(imp P bot)")
        first = run(*argv)
        assert first[0] == 1 and "#verdict: inconsistent" in first[1]
        assert run(*argv) == first
        assert run("probe", "builtin:empty", "--depth", "4", "--hyp",
                   "P") == (0, "nodes: 1\nno derivation of falsity exists "
                            "at depth 4\n#verdict: consistent-at-bound\n",
                            "")

    @staticmethod
    def outcome(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                parse(argv)
                code = None
            except SystemExit as e:
                code = e.code
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", [
        ["--help"], ["prove", "--help"], ["prove", "builtin:empty"]])
    def test_same_output_as_a_fresh_parser(self, run, argv):
        run("validate", "builtin:empty")   # the parser has been used
        fresh = self.outcome(lambda a: build_parser().parse_args(a), argv)
        assert fresh[0] in (0, 2) and fresh[1] + fresh[2]
        assert self.outcome(main, argv) == fresh
