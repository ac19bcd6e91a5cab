"""Shared helpers: seeded random term and proposition generators,
random-redex and per-step references for normalization and cut
elimination, and a terminal summary hook for the acceptance criteria
lines."""

import random
from math import inf

import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from demod import (
    DEFAULT_FUEL, And, App, Atom, BOT, Exists, ForAll, FuelExhausted, Imp, Or,
    TOP, Var, check_proof, find_cuts, free_vars, load_builtin, reduce_cut,
    rewrite_positions,
)


def random_term(rng, sig, sort, depth=3, vars_pool=()):
    """A random well-sorted term of the given sort."""
    ctors = [(fn, argsorts) for fn, (argsorts, res) in sig.functions.items()
             if res == sort]
    pool = [v for v in vars_pool if v.sort == sort]
    if depth <= 0:
        leaves = [(fn, a) for fn, a in ctors if not a]
        if pool and (not leaves or rng.random() < 0.5):
            return rng.choice(pool)
        if leaves:
            fn, _ = rng.choice(leaves)
            return App(fn)
        # no constants of this sort: fall back to a fresh variable
        return Var(f"v{rng.randrange(1000)}", sort)
    if pool and rng.random() < 0.25:
        return rng.choice(pool)
    if not ctors:
        return Var(f"v{rng.randrange(1000)}", sort)
    fn, argsorts = rng.choice(ctors)
    return App(fn, tuple(random_term(rng, sig, s, depth - 1, vars_pool)
                         for s in argsorts))


def random_atom(rng, sig, depth=2, vars_pool=()):
    pred = rng.choice(list(sig.predicates))
    return Atom(pred, tuple(random_term(rng, sig, s, depth, vars_pool)
                            for s in sig.predicates[pred]))


def random_prop(rng, sig, depth=3, vars_pool=(), quantifiers=True):
    if depth <= 0:
        return rng.choice([random_atom(rng, sig, 1, vars_pool), TOP, BOT])
    kind = rng.randrange(8 if quantifiers and sig.sorts else 6)
    if kind == 0:
        return random_atom(rng, sig, 2, vars_pool)
    if kind == 1:
        return rng.choice([TOP, BOT])
    sub = lambda: random_prop(rng, sig, depth - 1, vars_pool, quantifiers)
    if kind == 2:
        return And(sub(), sub())
    if kind == 3:
        return Or(sub(), sub())
    if kind in (4, 5):
        return Imp(sub(), sub())
    sort = rng.choice(sorted(sig.sorts))
    v = Var(f"q{rng.randrange(1000)}", sort)
    body = random_prop(rng, sig, depth - 1, tuple(vars_pool) + (v,),
                       quantifiers)
    return (ForAll if kind == 6 else Exists)(v, body)


def random_normal_form(rs, x, rng, fuel=DEFAULT_FUEL):
    """Rewriting at a redex that ``rng`` picks among all of them until
    none is left, a reference for ``normalize``'s leftmost-innermost
    order.  Raises FuelExhausted once it has taken more than ``fuel``
    steps."""
    for _ in range(fuel + 1):
        redexes = rewrite_positions(rs, x)
        if not redexes:
            return x
        _, _, x = rng.choice(redexes)
    raise FuelExhausted(steps=fuel + 1)


def stepwise_normalize(theory, proof, goal, fuel=1000):
    """Cut elimination the slow way, as a reference for
    ``normalize_proof``: check the whole proof, reduce the first cut in
    post-order among all that ``find_cuts`` lists (the leftmost-innermost
    one), and check again after every step.  Returns the annotated
    normal form and the step count; raises FuelExhausted when a cut is
    left after ``fuel`` steps.  An intermediate proof that does not
    check fails the calling test.  A renamed eigenvariable avoids every
    variable name of the goal and of the first annotated proof, and
    every name picked before it."""
    steps = 0
    avoid = None
    while True:
        res = check_proof(theory, proof, goal)
        assert res.ok, f"after {steps} steps, at {res.path}: {res.message}"
        if avoid is None:
            avoid = variable_names(res.proof)
            for _, h in goal.context:
                avoid |= {v.name for v in free_vars(h)}
        cuts = find_cuts(res.proof)
        if not cuts:
            return res.proof, steps
        if steps >= fuel:
            raise FuelExhausted(steps=steps)
        # a path sorts after its descendants once it ends in infinity
        first = min((path for path, _, _ in cuts), key=lambda p: (*p, inf))
        proof = reduce_cut(res.proof, first, avoid)
        steps += 1


def variable_names(proof):
    """The names of the eigenvariables of a proof and of the free
    variables of its witnesses and stated conclusions."""
    out, todo = set(), [proof]
    while todo:
        p = todo.pop()
        todo.extend(p.children)
        out |= {p.eigen.name} if p.eigen is not None else set()
        for x in (p.witness, p.conclusion):
            if x is not None:
                out |= {v.name for v in free_vars(x)}
    return out


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def addition():
    return load_builtin("addition")


@pytest.fixture
def assoc():
    return load_builtin("assoc")


# addition with multiplication by recursion on its first argument
MULT_THEORY = """\
sort nat.
func 0 : nat.
func S : nat -> nat.
func plus : nat nat -> nat.
func mult : nat nat -> nat.
pred P : nat.
rule add0: (plus 0 y) ~> y.
rule addS: (plus (S x) y) ~> (S (plus x y)).
rule mul0: (mult 0 y) ~> 0.
rule mulS: (mult (S x) y) ~> (plus y (mult x y)).
"""


@pytest.fixture
def mult():
    from demod.parsing import parse_theory
    return parse_theory(MULT_THEORY, "mult")


@pytest.fixture
def crabbe():
    return load_builtin("crabbe")


@pytest.fixture
def empty():
    return load_builtin("empty")


@pytest.fixture
def def_conj():
    return load_builtin("def-conj")
