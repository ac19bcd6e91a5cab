"""Generated matchers against the interpretive matcher they replaced.

``reference_match`` is how demod matched a left-hand side before each
one got a generated matcher: a walk with an ``isinstance`` ladder per
node.  ``match_pattern`` must agree with it on every pattern and
subject: the same substitution, with its keys in the same order, or
``None`` from both.  Subjects are well formed, as everywhere in demod:
every argument of an application or an atom is a term.
"""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from demod import (
    And, App, Atom, BOT, ForAll, Hole, Imp, TOP, Var, load_builtin,
    match_pattern, normalize,
)
from demod import rewriting
from demod.parsing import parse_node, parse_theory
from demod.syntax import is_term, positions, replace_at


def reference_match(pattern, subject):
    s = {}
    return s if _match(pattern, subject, s) else None


def _match(p, t, s) -> bool:
    if isinstance(p, Var):
        if not is_term(t):
            return False
        if p in s:
            return s[p] == t
        s[p] = t
        return True
    if isinstance(p, App):
        if not isinstance(t, App) or p.fn != t.fn:
            return False
    elif isinstance(p, Atom):
        if not isinstance(t, Atom) or p.pred != t.pred:
            return False
    else:
        return False  # holes and non-atomic propositions never occur here
    if len(p.args) != len(t.args):
        return False
    for a, b in zip(p.args, t.args):
        if not _match(a, b, s):
            return False
    return True


# Symbols spelled with every character an identifier may hold, some of
# them Python operators and quotes; variables of two sorts share names.
SYMBOLS = ["f", "g'", "h?", "+", "*", "=", "x", "a_1", "Z9", "0",
           "'?+*=_", "==", "k2"]
SORTS = ("nat", "elem")
NAMES = ["x", "y'", "z?", "v0", "t", "a2", "+*="]
# not terms and not patterns: no pattern matches them
NON_PATTERNS = [Hole("nat"), TOP, BOT, And(TOP, BOT),
                Imp(Atom("f"), Atom("f")),
                ForAll(Var("x", "nat"), Atom("f", (Var("x", "nat"),)))]


def random_var(rng, pool):
    if pool is not None:
        return rng.choice(pool)
    return Var(rng.choice(NAMES) + str(rng.randrange(10**6)),
               rng.choice(SORTS))


def random_pattern_term(rng, depth, pool):
    """A term pattern of at most ``depth`` levels.  With a ``pool`` its
    variables repeat (non-linear); without, each is fresh (linear)."""
    if depth <= 1 or rng.random() < 0.3:
        return random_var(rng, pool)
    return App(rng.choice(SYMBOLS), tuple(
        random_pattern_term(rng, depth - 1, pool)
        for _ in range(rng.randrange(4))))


def random_pattern(rng):
    """An application or an atom of depth at most 4."""
    pool = None
    if rng.random() < 0.5:
        pool = [Var(rng.choice(NAMES), rng.choice(SORTS))
                for _ in range(rng.randrange(1, 4))]
    kind = rng.choice([App, Atom])
    return kind(rng.choice(SYMBOLS), tuple(
        random_pattern_term(rng, rng.randrange(1, 4), pool)
        for _ in range(rng.randrange(4))))


def random_term(rng, depth):
    """A subject term: applications over variables, holes and constants."""
    r = rng.random()
    if depth <= 1 or r < 0.2:
        return rng.choice([Var(rng.choice(NAMES), rng.choice(SORTS)),
                           Hole(rng.choice(SORTS)), App(rng.choice(SYMBOLS))])
    return App(rng.choice(SYMBOLS), tuple(
        random_term(rng, depth - 1) for _ in range(rng.randrange(3))))


def instance(rng, pattern):
    """``pattern`` with a random term for each of its variables, and
    the positions where the pattern itself has an application or atom."""
    spots = []
    return _fill(rng, pattern, (), {}, spots), spots


def _fill(rng, p, pos, binding, spots):
    if isinstance(p, Var):
        if p not in binding:
            binding[p] = random_term(rng, 3)
        return binding[p]
    spots.append(pos)
    return type(p)(p.fn if isinstance(p, App) else p.pred, tuple(
        _fill(rng, a, pos + (i,), binding, spots)
        for i, a in enumerate(p.args)))


def mutate(rng, subject, spots):
    """The subject changed at one spot: another head, another arity,
    the other kind of node, a node no pattern matches, or (for a
    repeated variable's occurrences) another term anywhere."""
    pos = rng.choice(spots)
    node = subject
    for i in pos:
        node = node.args[i]
    head = node.fn if isinstance(node, App) else node.pred
    how = rng.randrange(6)
    if how == 0:
        new = type(node)(rng.choice(SYMBOLS), node.args)
    elif how == 1:
        args = node.args[:-1] if node.args and rng.random() < 0.5 \
            else node.args + (random_term(rng, 2),)
        new = type(node)(head, args)
    elif how == 2:
        new = (Atom if isinstance(node, App) else App)(head, node.args)
    elif how == 3 and pos == ():
        new = rng.choice(NON_PATTERNS)
    elif how == 3:
        new = Hole(rng.choice(SORTS))
    else:
        pos = rng.choice([p for p, _ in positions(subject)])
        new = random_term(rng, 2)
        if pos == ():
            return new
    return replace_at(subject, pos, new)


def agree(pattern, subject):
    got, want = match_pattern(pattern, subject), reference_match(pattern,
                                                                 subject)
    assert got == want, (pattern, subject)
    if want is not None:
        assert list(got) == list(want), (pattern, subject)
    return want is not None


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(0, 2**32))
def test_generated_matcher_agrees_with_reference(seed):
    rng = random.Random(seed)
    pattern = random_pattern(rng)
    subject, spots = instance(rng, pattern)
    assert agree(pattern, subject)
    for _ in range(6):
        agree(pattern, mutate(rng, subject, spots))
    for other in NON_PATTERNS:
        assert not agree(pattern, other)
    agree(pattern, random_pattern(rng))


def test_properties_reach_hits_and_misses():
    # the mutations are not all misses: a changed variable binding of a
    # linear pattern still matches, and each kind of mutation occurs
    rng = random.Random(7)
    hits = misses = 0
    for _ in range(300):
        pattern = random_pattern(rng)
        subject, spots = instance(rng, pattern)
        for _ in range(6):
            if agree(pattern, mutate(rng, subject, spots)):
                hits += 1
            else:
                misses += 1
    assert hits > 100 and misses > 500


def test_non_linear_pattern():
    x, y = Var("x", "nat"), Var("x", "elem")   # one name, two sorts
    pattern = App("f", (x, App("g'", (y, x))))
    a, b = App("0"), App("+")
    assert agree(pattern, App("f", (a, App("g'", (b, a)))))
    assert list(match_pattern(pattern, App("f", (a, App("g'", (b, a))))))\
        == [x, y]
    assert not agree(pattern, App("f", (a, App("g'", (b, b)))))
    assert agree(App("f", (x, x)), App("f", (Hole("nat"), Hole("nat"))))


def test_symbols_are_never_source_text():
    # a head that is Python source, and a variable named like code,
    # match only themselves
    code = "__import__('os').getcwd() or k2"
    pattern = App(code, (Var("}; import os; {", "nat"),))
    subject = App(code, (App("0"),))
    assert match_pattern(pattern, subject) == {
        Var("}; import os; {", "nat"): App("0")}
    assert agree(pattern, subject)
    for head in ("k2", "__import__", "os", "0", code + " "):
        assert not agree(pattern, App(head, (App("0"),)))
    constant = App("f') or (True", ())
    assert match_pattern(constant, constant) == {}
    assert match_pattern(constant, App("f")) is None


def test_holes_and_connectives_in_a_pattern_never_match():
    for p in (App("f", (Hole("nat"),)), Atom("f", (Hole("nat"),))):
        assert not agree(p, p)


def test_one_shape_shares_code_not_constants():
    # the source names no symbol, so both compile to one code object,
    # and each matcher still tests its own head and binds its own variable
    p, q = Atom("D1", (Var("x", "nat"),)), Atom("D2", (Var("y", "elem"),))
    subject = Atom("D2", (App("0"),))
    assert match_pattern(p, subject) is None
    assert match_pattern(q, subject) == {Var("y", "elem"): App("0")}
    assert p._matcher.__code__ is q._matcher.__code__
    assert p._matcher is not q._matcher


def spine(n):
    """A left-hand side whose shape spells n in binary, down a chain of
    11 nodes: unary for a 0 bit, binary for a 1; 2 048 shapes."""
    node = Var("x", "nat")
    for i in range(11):
        node = App("f", (node, Var(f"y{i}", "nat")) if n >> i & 1
                   else (node,))
    return node


def test_code_table_stays_bounded():
    # more shapes than the table holds: it is cleared when full, and the
    # matchers made on either side of a clearing still agree
    rng = random.Random(11)
    size = rewriting._CODE_SIZE
    sizes = []
    for n in range(size + 100):
        pattern = spine(n)
        subject, spots = instance(rng, pattern)
        assert agree(pattern, subject)
        agree(pattern, mutate(rng, subject, spots))
        sizes.append(len(rewriting._CODE))
    assert max(sizes) <= size
    assert any(b < a for a, b in zip(sizes, sizes[1:]))


def test_matcher_is_made_once_per_pattern(addition):
    rule = addition.system.rules[1]
    subject = App("plus", (App("S", (App("0"),)), App("0")))
    match_pattern(rule.lhs, subject)
    matcher = rule.lhs._matcher
    match_pattern(rule.lhs, subject)
    assert rule.lhs._matcher is matcher


# ---------------------------------------------------------------------------
# A theory whose rules have been matched still pickles and copies


FILE_THEORY = ("sort nat. func 0 : nat. func S : nat -> nat. "
               "func double : nat -> nat. pred Even : nat. "
               "rule d0: (double 0) ~> 0. "
               "rule dS: (double (S x)) ~> (S (S (double x))). "
               "rule e0: (Even 0) ~> top. "
               "rule eS: (Even (S (S x))) ~> (Even x).\n")


@pytest.mark.parametrize("make,expr", [
    (lambda: load_builtin("addition"), "(P (plus (S (S 0)) (S 0)))"),
    (lambda: parse_theory(FILE_THEORY, name="double.thy"),
     "(Even (double (S (S 0))))"),
], ids=["builtin", "file"])
def test_pickle_and_deepcopy_after_matching(make, expr):
    theory = make()
    x = parse_node(expr, theory.signature)
    nf = normalize(theory.system, x)
    assert any(hasattr(r.lhs, "_matcher") for r in theory.system.rules)
    for twin in (pickle.loads(pickle.dumps(theory)), copy.deepcopy(theory)):
        assert twin == theory
        assert normalize(twin.system, x) == nf
        assert normalize(twin.system, parse_node(expr, twin.signature)) == nf
