import pytest

from demod import (
    And, App, Atom, BOT, ForAll, Imp, TOP, UnificationProblem, Var,
    alpha_eq, apply_subst, congruent, load_builtin, narrow_unify,
    unify_syntactic,
)
from demod.cli import main
from demod.parsing import parse_node, parse_theory

from conftest import random_term


def v(name, sort="nat"):
    return Var(name, sort)


class TestSyntacticUnification:
    def test_mgu_found(self):
        a = App("plus", (v("x"), App("0")))
        b = App("plus", (App("S", (v("y"),)), App("0")))
        s = unify_syntactic(a, b)
        assert s == {v("x"): App("S", (v("y"),))}

    def test_occurs_check(self):
        a = v("x")
        b = App("S", (v("x"),))
        assert unify_syntactic(a, b) is None

    def test_symbol_clash(self):
        assert unify_syntactic(App("0"), App("S", (v("x"),))) is None

    def test_var_sort_clash(self):
        assert unify_syntactic(v("x", "nat"), v("y", "elem")) is None

    def test_atoms(self):
        a = Atom("P", (v("x"),))
        b = Atom("P", (App("0"),))
        assert unify_syntactic(a, b) == {v("x"): App("0")}
        assert unify_syntactic(a, Atom("Q", (v("x"),))) is None

    def test_term_vs_atom(self):
        assert unify_syntactic(App("0"), Atom("P")) is None

    def test_mgu_is_most_general(self, rng, addition):
        # any common instance factors through the mgu's unified term
        sig = addition.signature
        for _ in range(100):
            t = random_term(rng, sig, "nat", 3, (v("x"), v("y")))
            s = {v("x"): random_term(rng, sig, "nat", 2),
                 v("y"): random_term(rng, sig, "nat", 2)}
            ground = apply_subst(s, t)
            u = unify_syntactic(t, ground)
            assert u is not None
            assert apply_subst(u, t) == ground


class TestProblemConstruction:
    def test_atom_decomposition(self, addition):
        p = UnificationProblem.of(
            [(Atom("P", (v("x"),)), Atom("P", (App("0"),)))],
            addition.system)
        assert p.pairs == ((v("x"), App("0")),)

    def test_predicate_mismatch_unsolvable(self, assoc):
        p = UnificationProblem.of(
            [(Atom("P", (v("x", "elem"),)), Atom("Q", (v("x", "elem"),)))],
            assoc.system)
        assert p is None

    def test_connectives_decomposed(self, addition):
        # narrowing states hold terms only
        x, zero = v("x"), App("0")
        sum0 = App("plus", (zero, zero))
        p = UnificationProblem.of(
            [(And(TOP, Imp(Atom("P", (x,)), BOT)),
              And(TOP, Imp(Atom("P", (sum0,)), BOT)))], addition.system)
        assert p.pairs == ((x, sum0),)
        assert narrow_unify(p).solutions == ({x: zero},)

    def test_proposition_rule_fires_before_decomposition(self):
        # def-conj rewrites P to (and A B)
        p = UnificationProblem.of(
            [(Imp(Atom("P"), BOT), Imp(And(Atom("A"), Atom("B")), BOT))],
            load_builtin("def-conj").system)
        assert p.pairs == ()
        assert narrow_unify(p).solutions == ({},)

    def test_proposition_rule_may_bridge_shapes(self):
        # an instance of (P x) might rewrite, so "never" cannot be said
        pf = load_builtin("pf-collapse")
        x = v("x", "iota")
        with pytest.raises(ValueError, match="proposition rules"):
            UnificationProblem.of([(Atom("P", (x,)), BOT)], pf.system)

    def test_shape_mismatch_unsolvable(self, addition):
        p = UnificationProblem.of([(And(TOP, TOP), Imp(TOP, TOP))],
                                  addition.system)
        assert p is None

    def test_binders_refused(self, addition):
        a = ForAll(v("x"), Atom("P", (v("x"),)))
        with pytest.raises(ValueError, match="under a binder"):
            UnificationProblem.of([(a, a)], addition.system)


class TestNarrowing:
    def test_assoc_witness(self, assoc):
        sig = assoc.signature
        l = parse_node("(plus a x:elem)", sig)
        r = parse_node("(plus (plus a b) c)", sig)
        assert unify_syntactic(l, r) is None
        stream = narrow_unify(
            UnificationProblem.of([(l, r)], assoc.system), depth=8)
        expected = parse_node("(plus b c)", sig)
        assert any(alpha_eq(s.get(Var("x", "elem")), expected)
                   for s in stream.solutions)

    def test_addition_inverse(self, addition):
        # plus(x, S(0)) ~ S(S(0)) has the solution x -> S(0)
        l = App("plus", (v("x"), App("S", (App("0"),))))
        r = App("S", (App("S", (App("0"),)),))
        stream = narrow_unify(
            UnificationProblem.of([(l, r)], addition.system), depth=6)
        assert {v("x"): App("S", (App("0"),))} in list(stream.solutions)

    def test_syntactic_solutions_included(self, addition):
        l = App("S", (v("x"),))
        r = App("S", (App("0"),))
        stream = narrow_unify(
            UnificationProblem.of([(l, r)], addition.system), depth=3)
        assert {v("x"): App("0")} in list(stream.solutions)

    def test_unsolvable_complete(self, addition):
        l = App("0")
        r = App("S", (App("0"),))
        stream = narrow_unify(
            UnificationProblem.of([(l, r)], addition.system), depth=4)
        assert stream.solutions == ()
        assert stream.complete

    def test_solutions_verified(self, addition, assoc, rng):
        # every emitted substitution joins the instantiated pair
        cases = []
        for theory in (addition, assoc):
            sort = sorted(theory.signature.sorts)[0]
            for _ in range(25):
                l = random_term(rng, theory.signature, sort, 3,
                                (Var("x", sort),))
                r = random_term(rng, theory.signature, sort, 3)
                cases.append((theory, l, r))
        emitted = 0
        for theory, l, r in cases:
            problem = UnificationProblem.of([(l, r)], theory.system)
            stream = narrow_unify(problem, depth=4, cap=8)
            for s in stream.solutions:
                emitted += 1
                assert congruent(theory.system, apply_subst(s, l),
                                 apply_subst(s, r))
        assert emitted > 0

    def test_cap_truncates(self, addition):
        # plus(x, y) ~ z has many solutions; the cap must flag truncation
        l = App("plus", (v("x"), v("y")))
        stream = narrow_unify(
            UnificationProblem.of([(l, v("z"))], addition.system),
            depth=6, cap=2)
        assert len(stream.solutions) <= 2
        assert not stream.complete

    def test_bad_bounds_rejected(self, addition):
        problem = UnificationProblem.of([(v("x"), v("y"))], addition.system)
        with pytest.raises(ValueError):
            narrow_unify(problem, depth=0)


@pytest.fixture
def unify_log(monkeypatch):
    """The argument pairs of every ``unify_syntactic`` call, recorded
    before the call runs."""
    import demod.unification as unification
    calls = []
    real = unification.unify_syntactic

    def recording(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(unification, "unify_syntactic", recording)
    return calls


def _head(x):
    return type(x), x.fn if isinstance(x, App) else x.pred


class TestNoWastedUnification:
    def test_definition_chain_validates_without_unifying(self, unify_log):
        # the def-chain benchmark family: every rule has a predicate of
        # its own, so no two left-hand sides can overlap
        names = [f"D{i}" for i in range(201)]
        text = ("sort iota.\npred F.\n"
                + "".join(f"pred {p}.\n" for p in reversed(names))
                + "".join(f"rule d{i}: {names[i]} ~> (and F {names[i + 1]}).\n"
                          for i in range(200)))
        theory = parse_theory(text)
        assert theory.report.lines() == [
            "lhs shapes ok: yes", "non-confusing: yes", "critical pairs: 0",
            "locally confluent: yes", "termination: lpo"]
        assert unify_log == []

    @pytest.mark.parametrize("argv", [
        ("builtin:addition", "(plus x:nat (S (S 0)))", "(S (S (S (S 0))))"),
        ("builtin:addition", "(plus x:nat z:nat)", "x:nat", "--depth", "6"),
        ("builtin:addition", "(S x:nat)", "(plus x:nat z:nat)"),
        ("builtin:assoc", "(plus a x:elem)", "(plus (plus a b) c)"),
    ])
    def test_unification_pairs_equal_heads(self, unify_log, capsys, argv):
        # loading the theory runs critical_pairs and check_nonconfusing
        assert main(["unify", *argv]) == 0
        assert "#verdict: yes" in capsys.readouterr().out
        assert unify_log
        assert [(a, b) for a, b in unify_log if _head(a) != _head(b)] == []
