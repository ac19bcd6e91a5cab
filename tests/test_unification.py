import random

import pytest
from hypothesis import given, settings, strategies as st

from demod import (
    And, App, Atom, BOT, ForAll, Hole, Imp, TOP, UnificationProblem, Var,
    alpha_eq, apply_subst, congruent, free_vars, load_builtin, narrow_unify,
    unify_syntactic,
)
from demod.cli import main
from demod.parsing import parse_node, parse_theory
from demod.syntax import is_term, positions, replace_at
from demod.unification import unify_pairs

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


# ``unify_pairs`` binds a variable without looking it up, substituting
# or checking that it occurs until some variable is met a second time,
# and from there on goes on as ``reference_unify_pairs``, how it worked
# before, does: the same unifier, with its keys in the same order, or
# None from both; and ``unify_syntactic`` is ``unify_pairs`` of one pair.
# Pairs are drawn over two sorts, of terms and of atoms: linear,
# non-linear, sharing variables, with holes, with a variable against a
# term that holds it, and with a variable against one of another sort.


def reference_unify_pairs(pairs):
    s = {}
    work = list(pairs)[::-1]
    while work:
        l, r = work.pop()
        if isinstance(l, Var):
            l = s.get(l, l)
        if isinstance(r, Var):
            r = s.get(r, r)
        if isinstance(r, Var) and not isinstance(l, Var):
            l, r = r, l
        if isinstance(l, Var):
            if l == r:
                continue
            if not is_term(r) or isinstance(r, Var) and r.sort != l.sort:
                return None
            r = apply_subst(s, r)
            if l in free_vars(r):
                return None
            for v, t in s.items():
                s[v] = apply_subst({l: r}, t)
            s[l] = r
        elif (isinstance(l, App) and isinstance(r, App) and l.fn == r.fn
              or isinstance(l, Atom) and isinstance(r, Atom)
              and l.pred == r.pred) and len(l.args) == len(r.args):
            work.extend(zip(reversed(l.args), reversed(r.args)))
        elif l != r:
            return None
    return s


SORTS = ("nat", "elem")
ARITY = {"f": 2, "g": 1, "a": 0, "b": 0}


def draw_term(rng, depth, pool):
    """Variables from ``pool`` (non-linear), or fresh ones (None)."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return Hole(rng.choice(SORTS))
        if pool is None:
            return Var(f"w{rng.randrange(10**6)}", rng.choice(SORTS))
        return rng.choice(pool)
    fn = rng.choice(list(ARITY))
    return App(fn, tuple(draw_term(rng, depth - 1, pool)
                         for _ in range(ARITY[fn])))


def draw_pair(rng):
    """How the pair was made, and the pair."""
    pool = None if rng.random() < 0.4 else [
        Var(n, rng.choice(SORTS)) for n in ("x", "y", "z")[:rng.randrange(1, 4)]]
    a = draw_term(rng, 3, pool)
    spots = [p for p, n in positions(a) if isinstance(n, Var)]
    how = rng.choice(["other", "instance", "occurs", "sorts", "mirror"])
    if how == "mirror":   # arguments reversed, variables renamed
        b = apply_subst({v: rng.choice(pool or [v]) for v in free_vars(a)},
                        _mirror(a))
    elif how == "instance":
        b = apply_subst({v: draw_term(rng, 2, pool) for v in free_vars(a)
                         if rng.random() < 0.7}, a)
    elif how == "occurs" and spots:   # a variable against a term holding it
        p = rng.choice(spots)
        b = replace_at(a, p, App("g", (App("f", (_at(a, p), App("a"))),)))
    elif how == "sorts" and spots:   # a variable against one of another sort
        p = rng.choice(spots)
        v = _at(a, p)
        b = replace_at(a, p, Var(f"w{rng.randrange(10)}",
                                 SORTS[v.sort == SORTS[0]]))
    else:   # another term, sharing the pool's variables or not
        how = "other"
        b = draw_term(rng, 3, pool if rng.random() < 0.5 else None)
    if rng.random() < 0.5:
        a, b = b, a
    if rng.random() < 0.25:
        a, b = Atom("P", (a, b)), Atom(rng.choice("PPQ"), (b, a))
    elif rng.random() < 0.03:
        a = Atom("P", (a,))
    return how, a, b


def _mirror(x):
    if isinstance(x, App):
        return App(x.fn, tuple(_mirror(c) for c in reversed(x.args)))
    return x


def _at(x, pos):
    for i in pos:
        x = x.args[i]
    return x


def agrees(*pairs):
    want = reference_unify_pairs(pairs)
    got = [unify_pairs(pairs)]
    if len(pairs) == 1:
        got.append(unify_syntactic(*pairs[0]))
    for g in got:
        assert g == want, pairs
        if want is not None:
            assert list(g) == list(want), pairs
    return want


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.integers(0, 2**32))
def test_unify_pairs_agrees_with_reference(seed):
    rng = random.Random(seed)
    pairs = [draw_pair(rng)[1:] for _ in range(4)]
    for pair in pairs:
        agrees(pair)
    # lists of term pairs, whose variables meet across the pairs
    agrees(*[(a, b) for a, b in pairs if not isinstance(a, Atom)])


def test_unification_pairs_reach_every_case():
    # solved and failed pairs of every kind, atom pairs, pairs whose
    # variables repeat, and the occurs and sort failures they were made for
    seen = {}
    for seed in range(600):
        rng = random.Random(seed)
        for _ in range(4):
            how, a, b = draw_pair(rng)
            names = [n for x in (a, b) for _, n in positions(x)
                     if isinstance(n, Var)]
            key = (("how", how), ("ok", agrees((a, b)) is not None),
                   ("atom", isinstance(a, Atom)),
                   ("rep", len(names) != len(set(names))))
            seen[key] = seen.get(key, 0) + 1

    def count(**want):
        return sum(n for key, n in seen.items()
                   if want.items() <= dict(key).items())

    for how in ("other", "instance", "mirror"):
        assert count(how=how, ok=True) >= 30, seen
        assert count(how=how, ok=False) >= 30, seen
    assert count(how="occurs", ok=False) >= 100, seen
    assert count(how="sorts", ok=False) >= 100, seen
    assert count(atom=True, ok=True) >= 30, seen
    assert count(rep=False, ok=True) >= 30, seen
    assert count(rep=True, ok=True) >= 30, seen


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
