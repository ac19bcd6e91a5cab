import random

import pytest
from hypothesis import given, settings, strategies as st

from demod import (
    And, App, Atom, BOT, Exists, ForAll, FuelExhausted, Hole, Imp, Or,
    RewriteRule, RewriteSystem, TOP, Var, alpha_eq, apply_subst,
    check_local_confluence, check_nonconfusing, check_termination_lpo,
    congruent, congruent_detail, critical_pairs, free_vars, load_builtin,
    make_signature, match_pattern, normalize, print_node, rewrite_positions,
)
from demod.errors import RuleError
from demod.parsing import parse_node, parse_theory
from demod.rewriting import lpo_gt
from demod.syntax import CONNECTIVES, QUANT, children, positions, replace_at
from demod.unification import _narrowing_steps

from conftest import MULT_THEORY, random_normal_form, random_term


def nat(n):
    t = App("0")
    for _ in range(n):
        t = App("S", (t,))
    return t


class TestRuleShapes:
    def test_variable_lhs_rejected(self):
        with pytest.raises(RuleError):
            RewriteRule("bad", Var("x", "nat"), App("0"))

    def test_extra_rhs_variable_rejected(self):
        with pytest.raises(RuleError):
            RewriteRule("bad", App("S", (Var("x", "nat"),)),
                        Var("y", "nat"))

    def test_connective_lhs_rejected(self):
        with pytest.raises(RuleError):
            RewriteRule("bad", Imp(Atom("P"), Atom("Q")), Atom("P"))


class TestMatching:
    def test_match(self, addition):
        rule = addition.system.rules[1]  # addS
        t = App("plus", (App("S", (App("0"),)), App("0")))
        s = match_pattern(rule.lhs, t)
        assert s is not None
        assert s[Var("x", "nat")] == App("0")

    def test_no_match(self, addition):
        rule = addition.system.rules[0]  # add0
        assert match_pattern(rule.lhs, App("0")) is None


class TestNormalize:
    def test_addition(self, addition):
        t = App("plus", (nat(2), nat(3)))
        nf = normalize(addition.system, t)
        assert nf.value == nat(5)
        assert nf.steps == 3

    def test_inside_atom(self, addition):
        p = Atom("P", (App("plus", (nat(1), nat(1))),))
        assert normalize(addition.system, p).value == Atom("P", (nat(2),))

    def test_fuel_exhausted(self, crabbe):
        with pytest.raises(FuelExhausted):
            normalize(crabbe.system, Atom("P"), fuel=50)

    def test_strategy_agreement(self, addition, rng):
        sig = addition.signature
        for _ in range(100):
            t = random_term(rng, sig, "nat", 4)
            a = normalize(addition.system, t).value
            b = random_normal_form(addition.system, t, rng)
            assert alpha_eq(a, b)


class TestRewritePositions:
    def test_single_root_redex(self, assoc):
        t = parse_node("(plus (plus a b) (plus (plus c d) e))",
                       assoc.signature)
        redexes = rewrite_positions(assoc.system, t)
        assert len(redexes) == 1
        pos, rule, reduct = redexes[0]
        assert pos == ()
        assert rule == "assoc"
        assert print_node(reduct) == "(plus (plus (plus a b) (plus c d)) e)"

    def test_all_positions_reported(self, addition):
        t = App("plus", (App("0"), App("plus", (App("0"), App("0")))))
        assert {p for p, _, _ in rewrite_positions(addition.system, t)} \
            == {(), (1,)}


class TestCongruence:
    def test_syntactic_fast_path(self, empty):
        assert congruent_detail(empty.system, Atom("P"), Atom("P")) \
            == (True, "syntactic")

    def test_normal_form_method(self, addition):
        same, how = congruent_detail(
            addition.system, App("plus", (nat(1), nat(1))), nat(2))
        assert same and how == "normal-form"

    def test_negative(self, addition):
        assert not congruent(addition.system, nat(1), nat(2))

    def test_hand_built_system_is_heuristic(self, addition):
        # the same rules, but no Theory has validated this system
        rs = RewriteSystem(addition.system.rules)
        assert not rs.convergent
        same, how = congruent_detail(
            rs, App("plus", (nat(1), nat(1))), nat(2))
        assert same and how == "heuristic"

    def test_heuristic_on_crabbe(self, crabbe):
        same, how = congruent_detail(
            crabbe.system, Atom("P"), Imp(Atom("P"), Atom("Q")))
        assert same and how == "heuristic"

    def test_heuristic_undecided_raises(self, crabbe):
        with pytest.raises(FuelExhausted):
            congruent(crabbe.system, Atom("P"), Atom("Q"))

    def test_comm_heuristic(self):
        comm = load_builtin("comm")
        a = parse_node("(plus a b)", comm.signature)
        b = parse_node("(plus b a)", comm.signature)
        assert congruent(comm.system, a, b)


class TestCriticalPairs:
    def test_addition_has_none(self, addition):
        assert critical_pairs(addition.system) == []

    def test_overlap_found(self):
        x = Var("x", "nat")
        rs = RewriteSystem([
            RewriteRule("r1", App("f", (App("g", (x,)),)), x),
            RewriteRule("r2", App("g", (App("0"),)), App("0")),
        ])
        cps = critical_pairs(rs)
        assert len(cps) == 1
        assert cps[0].position == (0,)

    def test_local_confluence_positive(self, addition):
        assert check_local_confluence(addition.system) == (0, True)
        assert addition.report.locally_confluent

    def test_local_confluence_negative(self):
        rs = RewriteSystem([
            RewriteRule("r1", App("a"), App("b")),
            RewriteRule("r2", App("a"), App("c")),
        ])
        assert check_local_confluence(rs) == (2, False)

    def test_local_confluence_unknown_after_a_failure(self):
        # b ~> c against b ~> d has distinct normal forms; the later
        # pair (f (g (g a))) / a has no normal form on its left side
        x = Var("x", "s")
        rs = RewriteSystem([
            RewriteRule("r1", App("b"), App("c")),
            RewriteRule("r2", App("b"), App("d")),
            RewriteRule("r3", App("f", (App("g", (x,)),)), x),
            RewriteRule("r4", App("g", (App("a"),)),
                        App("g", (App("g", (App("a"),)),))),
        ])
        assert [(cp.outer_rule, cp.inner_rule)
                for cp in critical_pairs(rs)] \
            == [("r1", "r2"), ("r2", "r1"), ("r3", "r4")]
        assert check_local_confluence(rs) == (3, None)


class TestLPO:
    def test_orients_addition(self, addition):
        assert check_termination_lpo(addition.system,
                                     addition.default_precedence())
        assert addition.report.termination == "lpo"
        assert addition.system.convergent

    def test_orients_assoc(self, assoc):
        assert check_termination_lpo(assoc.system,
                                     assoc.default_precedence())

    def test_rejects_comm(self):
        comm = load_builtin("comm")
        assert not check_termination_lpo(comm.system,
                                         comm.default_precedence())

    def test_rejects_crabbe(self, crabbe):
        assert not check_termination_lpo(crabbe.system,
                                         crabbe.default_precedence())

    def test_orients_def_conj(self, def_conj):
        assert check_termination_lpo(def_conj.system,
                                     def_conj.default_precedence())


# The path order as it was first written: both sides copied into
# first-order trees, a connective as a function symbol ranked -1, a
# hole and every bound variable as constants ranked -2.  The order on
# the sides as they are must give the same verdicts.

_REFERENCE_HEADS = {f"{name}#" for name in CONNECTIVES.values()}
_REFERENCE_BOUND = App("bv#", ())


def reference_encode(x, bound=frozenset()):
    if isinstance(x, Var):
        return _REFERENCE_BOUND if x in bound else x
    if isinstance(x, Hole):
        return App("hole#", ())
    if isinstance(x, App):
        return App(x.fn, tuple(reference_encode(a, bound) for a in x.args))
    if isinstance(x, Atom):
        return App(x.pred, tuple(reference_encode(a, bound) for a in x.args))
    if isinstance(x, QUANT):
        bound = bound | {x.var}
    return App(f"{CONNECTIVES[type(x)]}#",
               tuple(reference_encode(c, bound) for c in children(x)))


def _reference_prec(rank, f):
    if f in rank:
        return rank[f]
    return -1 if f in _REFERENCE_HEADS else -2


def reference_lpo_gt(rank, s, t, right=False):
    if isinstance(s, Var):
        return False
    if isinstance(t, Var):
        return t in free_vars(s)
    if any(a == t or reference_lpo_gt(rank, a, t, right) for a in s.args):
        return True
    ps, pt = _reference_prec(rank, s.fn), _reference_prec(rank, t.fn)
    if ps > pt:
        return all(reference_lpo_gt(rank, s, b, right) for b in t.args)
    if s.fn == t.fn and len(s.args) == len(t.args):
        order = zip(reversed(s.args), reversed(t.args)) if right \
            else zip(s.args, t.args)
        for a, b in order:
            if a == b:
                continue
            if reference_lpo_gt(rank, a, b, right):
                return all(reference_lpo_gt(rank, s, c, right)
                           for c in t.args)
            return False
    return False


LPO_SIG = make_signature(
    ["s"], {"c": ([], "s"), "d": ([], "s"), "g": (["s"], "s"),
            "f": (["s", "s"], "s")},
    {"Q": [], "P": ["s"], "R": ["s", "s"]})
LPO_VARS = tuple(Var(n, "s") for n in "xyz")


def lpo_case(rng):
    """A left-hand side, an App or an Atom with holes among its leaves,
    and a right-hand side: a term for an App, else a proposition with
    connectives, top, bot and nested quantifiers.  Most quantifiers bind
    a variable of the left-hand side, and an atom under one often
    repeats the left-hand side's arguments; a term side often has the
    left-hand side's head over its arguments, in any order."""
    def term(depth, pool):
        if depth <= 0 or rng.random() < 0.3:
            return rng.choice([*pool, Hole("s"), App("c"), App("d")])
        fn = rng.choice(["g", "f"])
        return App(fn, tuple(term(depth - 1, pool)
                             for _ in LPO_SIG.functions[fn][0]))

    def atom(pred, make):
        return Atom(pred, tuple(make(i) for i in range(len(
            LPO_SIG.predicates[pred]))))

    if rng.random() < 0.4:
        lhs = term(3, LPO_VARS)
        while not isinstance(lhs, App) or not lhs.args:
            lhs = term(3, LPO_VARS)
    else:
        lhs = atom(rng.choice(["Q", "P", "R", "R"]),
                   lambda i: term(rng.randrange(3), LPO_VARS))
    subterms = [t for _, t in positions(lhs) if not isinstance(t, Atom)]
    lhs_vars = tuple(sorted(free_vars(lhs), key=lambda v: v.name))
    pool = lhs_vars + (Var("w", "s"),)

    def side_term(pool):
        if subterms and rng.random() < 0.4:
            return rng.choice(subterms)
        return term(2, pool)

    def prop(depth, pool):
        k = rng.randrange(9)
        if depth <= 0 or k == 0:
            if isinstance(lhs, Atom) and rng.random() < 0.6:
                return atom(lhs.pred, lambda i: rng.choice(
                    (lhs.args[i],) * 3 + lhs.args + (side_term(pool),)))
            return atom(rng.choice(["Q", "P", "R"]),
                        lambda i: side_term(pool))
        if k == 1:
            return rng.choice([TOP, BOT])
        if k < 5:
            return (And, Or, Imp)[k - 2](prop(depth - 1, pool),
                                         prop(depth - 1, pool))
        x = rng.choice(lhs_vars if lhs_vars and rng.random() < 0.8
                       else (Var("q", "s"),))
        return (ForAll, Exists)[k % 2](x, prop(depth - 1, pool + (x,)))

    if isinstance(lhs, App):
        if rng.random() < 0.3:
            return lhs, App(lhs.fn, tuple(rng.choice(lhs.args + (
                side_term(pool),)) for _ in lhs.args))
        return lhs, side_term(pool)
    return lhs, prop(rng.randrange(4), pool)


def lpo_verdicts(rng):
    """The new and the reference verdict, under a random precedence, of
    each status on a random pair."""
    lhs, rhs = lpo_case(rng)
    symbols = [*LPO_SIG.functions, *LPO_SIG.predicates]
    rng.shuffle(symbols)
    rank = {f: i for i, f in enumerate(symbols)}
    old_lhs, old_rhs = reference_encode(lhs), reference_encode(rhs)
    return lhs, rhs, [(lpo_gt(rank, lhs, rhs, right),
                       reference_lpo_gt(rank, old_lhs, old_rhs, right))
                      for right in (False, True)]


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(st.integers(0, 2**32))
def test_lpo_agrees_with_reference(seed):
    rng = random.Random(seed)
    for _ in range(4):
        lhs, rhs, verdicts = lpo_verdicts(rng)
        for new, old in verdicts:
            assert new == old, (print_node(lhs), print_node(rhs))


def test_lpo_cases_reach_rebinding():
    # the cases hold holes, both verdicts, statuses that disagree, and
    # quantifiers that rebind a variable of the lhs above a copy of an
    # lhs argument that holds it
    seen = dict.fromkeys(("hole", "gt", "not gt", "status", "rebind"), 0)
    rng = random.Random(0)
    for _ in range(2000):
        lhs, rhs, [(ltr, _), (rtl, _)] = lpo_verdicts(rng)
        seen["hole"] += any(isinstance(t, Hole) for _, t in positions(lhs))
        seen["gt"] += ltr
        seen["not gt"] += not ltr
        seen["status"] += ltr != rtl
        lhs_args = {t for _, t in positions(lhs) if free_vars(t)} - {lhs}
        seen["rebind"] += any(
            isinstance(q, QUANT) and q.var in free_vars(lhs)
            and any(t in lhs_args and q.var in free_vars(t)
                    for _, t in positions(q.body))
            for _, q in positions(rhs))
    assert min(seen.values()) >= 20, seen


class TestNonConfusing:
    def test_builtins(self):
        for name in ("empty", "def-conj", "addition", "crabbe", "powerset"):
            assert check_nonconfusing(load_builtin(name).system)

    def test_confusing_pair_detected(self):
        from demod import And
        rs = RewriteSystem([
            RewriteRule("r1", Atom("P"), Imp(Atom("Q"), Atom("Q"))),
            RewriteRule("r2", Atom("P"), And(Atom("Q"), Atom("Q"))),
        ])
        assert not check_nonconfusing(rs)

    def test_atom_reduct_is_not_confusing(self):
        rs = RewriteSystem([
            RewriteRule("r1", Atom("P"), Imp(Atom("Q"), Atom("Q"))),
            RewriteRule("r2", Atom("P"), Atom("Q")),
        ])
        assert check_nonconfusing(rs)

    def test_atom_reduct_followed_to_its_connective(self):
        # P ~> Q ~> (and A B) and P ~> (or A B): P is both
        from demod import And, Or
        a_b = (Atom("A"), Atom("B"))
        rs = RewriteSystem([
            RewriteRule("r1", Atom("P"), Atom("Q")),
            RewriteRule("r2", Atom("Q"), And(*a_b)),
            RewriteRule("r3", Atom("P"), Or(*a_b)),
        ])
        assert not check_nonconfusing(rs)
        # the same connective at the end of the chain is no clash
        agree = RewriteSystem([*rs.rules[:2],
                               RewriteRule("r3", Atom("P"), And(*a_b))])
        assert check_nonconfusing(agree)

    def test_term_rule_links_rules_that_do_not_overlap(self):
        # (f a) ~> b turns (P (f a)) into (P b): P is both
        from demod import And, Or
        s = "s"
        x, a, b = Var("x", s), App("a"), App("b")
        a_b = (Atom("A"), Atom("B"))
        rs = RewriteSystem([
            RewriteRule("t", App("f", (a,)), b),
            RewriteRule("p1", Atom("P", (App("f", (x,)),)), And(*a_b)),
            RewriteRule("p2", Atom("P", (b,)), Or(*a_b)),
        ])
        assert not check_nonconfusing(rs)
        # without the term rule nothing reaches both, but the criterion
        # still refuses two connectives on one predicate
        assert not check_nonconfusing(RewriteSystem(rs.rules[1:]))


# ---------------------------------------------------------------------------
# A narrowed side, made and normalized in one walk: ``normalize`` with a
# substitution and a replaced position against normalizing the instance


def outcome(rs, fuel, x, *instance):
    """A normal form and its steps, or the FuelExhausted message and its
    steps."""
    try:
        nf = normalize(rs, x, fuel, *instance)
    except FuelExhausted as e:
        return str(e), e.steps
    return nf.value, nf.steps


def instance_agrees(rs, t, u, pos=None, rhs=None):
    """The one walk agrees with normalizing u(t[pos := rhs]) at every
    fuel from 1 to one past the steps it takes."""
    whole = apply_subst(u, t if pos is None else replace_at(t, pos, rhs))
    steps = normalize(rs, whole).steps
    for fuel in range(1, steps + 2):
        assert outcome(rs, fuel, t, u, pos, rhs) == outcome(rs, fuel, whole), \
            (print_node(t), u, pos, rhs, fuel)
    return steps


def instance_cases(rng, theory, sort):
    """Normal sides with the narrowing steps ``_narrowing_steps`` finds
    on them (tagged "step"), and with random substitutions and
    replacements ("random"): a value or a replacement need not be
    normal, and a side may be a variable."""
    rs, sig = theory.system, theory.signature
    pool = [Var(n, sort) for n in ("x", "y", "z")]
    term = lambda depth: random_term(rng, sig, sort, depth, pool)
    sides = [normalize(rs, term(rng.randrange(4))).value for _ in range(2)]
    pairs = [(t, free_vars(t)) for t in sides]
    for n, (k, pos, rhs, u) in enumerate(_narrowing_steps(rs, pairs, {})):
        if n == 4:
            break
        yield "step", sides[k], u, pos, rhs
        yield from (("step", t, u, None, None)
                    for j, (t, vs) in enumerate(pairs)
                    if j != k and not vs.isdisjoint(u))
    for t in sides:
        u = {v: term(rng.randrange(1, 5)) for v in pool
             if rng.random() < 0.6}
        yield "random", t, u, None, None
        pos = rng.choice([p for p, _ in positions(t)])
        yield "random", t, u, pos, term(rng.randrange(1, 5))


THEORIES = [(load_builtin("addition"), "nat"), (load_builtin("assoc"), "elem"),
            (parse_theory(MULT_THEORY, "mult"), "nat")]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.integers(0, 2**32))
def test_instance_normalization_agrees(seed):
    rng = random.Random(seed)
    theory, sort = rng.choice(THEORIES)
    for _, t, u, pos, rhs in instance_cases(rng, theory, sort):
        instance_agrees(theory.system, t, u, pos, rhs)


def test_instance_cases_reach_steps_and_fuel():
    # the property sees narrowing steps, replacements at the root and
    # inside, variable sides, and instances that take several steps, so
    # that fuel runs out inside a value, a replacement and the spine
    seen = dict.fromkeys(("step", "root", "inner", "var side", "long"), 0)
    for seed in range(300):
        rng = random.Random(seed)
        theory, sort = THEORIES[seed % 3]
        for tag, t, u, pos, rhs in instance_cases(rng, theory, sort):
            steps = instance_agrees(theory.system, t, u, pos, rhs)
            seen["step"] += tag == "step"
            seen["root"] += pos == ()
            seen["inner"] += bool(pos)
            seen["var side"] += isinstance(t, Var)
            seen["long"] += steps >= 5
    assert min(seen.values()) >= 20, seen


def test_instance_normalization_of_a_narrowing_step(mult):
    # mult x (S (S 0)) narrowed at mulS: fuel runs out inside the
    # replaced position, whose term the message holds
    rs = mult.system
    t = parse_node("(mult x:nat (S (S 0)))", mult.signature)
    [_, (k, pos, rhs, u)] = _narrowing_steps(rs, [(t, free_vars(t))], {})
    assert outcome(rs, 1, t, u, pos, rhs) == (
        "no normal form of (S (S (plus 0 (mult x_1 (S (S 0)))))) within 1 "
        "steps", 2)
    assert instance_agrees(rs, t, u, pos, rhs) == 3


def test_instance_normalization_keeps_holes(addition):
    # a hole is a leaf no rule matches, on the side and in a replacement
    x, zero = Var("x", "nat"), App("0")
    t = App("S", (App("plus", (Hole("nat"), x)),))
    u = {x: App("plus", (zero, zero))}
    for pos, rhs in ((None, None), ((0,), Hole("nat")),
                     ((0, 0), App("plus", (zero, Hole("nat"))))):
        instance_agrees(addition.system, t, u, pos, rhs)
