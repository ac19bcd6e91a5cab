"""Syntactic unification and equational unification by narrowing.

Narrowing interleaves instantiation with rewriting, giving unification
modulo the rewrite system: solutions make the two sides joinable rather
than equal.  Emission is breadth-first (fair), so the first solutions of
problems with infinitely many unifiers are still found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import FuelExhausted
from .rewriting import RewriteSystem, congruent, normalize, _rename_apart
from .syntax import (
    App, Atom, Hole, Node, Subst, Term, Var, alpha_key, apply_subst,
    children, compose, free_vars, fresh_var, is_term, positions,
    print_node, replace_at,
)


# ---------------------------------------------------------------------------
# Syntactic unification (most general unifier, occurs check)


def unify_pairs(pairs) -> Optional[Subst]:
    s: Subst = {}
    work = list(pairs)
    while work:
        l, r = work.pop(0)
        l = apply_subst(s, l)
        r = apply_subst(s, r)
        if l == r:
            continue
        if isinstance(l, Var) or isinstance(r, Var):
            if not isinstance(l, Var):
                l, r = r, l
            if not is_term(r):
                return None
            if isinstance(r, Var) and r.sort != l.sort:
                return None
            if l in free_vars(r):
                return None  # occurs check
            s = compose(s, {l: r})
            continue
        if isinstance(l, App) and isinstance(r, App):
            if l.fn != r.fn or len(l.args) != len(r.args):
                return None
            work[0:0] = list(zip(l.args, r.args))
            continue
        if isinstance(l, Atom) and isinstance(r, Atom):
            if l.pred != r.pred or len(l.args) != len(r.args):
                return None
            work[0:0] = list(zip(l.args, r.args))
            continue
        return None  # holes or mismatched kinds
    return s


def unify_syntactic(a: Node, b: Node) -> Optional[Subst]:
    """Most general unifier of two terms or two atoms, or None."""
    if isinstance(a, Atom) != isinstance(b, Atom):
        return None
    return unify_pairs([(a, b)])


# ---------------------------------------------------------------------------
# Narrowing


@dataclass(frozen=True)
class UnificationProblem:
    """Pairs to be solved simultaneously modulo a rewrite system.

    Atom pairs are decomposed into argument pairs up front; pairs whose
    predicate symbols differ make the problem unsolvable."""

    pairs: tuple[tuple[Node, Node], ...]
    system: RewriteSystem

    @staticmethod
    def of(pairs, system: RewriteSystem) -> Optional["UnificationProblem"]:
        flat: list[tuple[Node, Node]] = []
        for l, r in pairs:
            if isinstance(l, Atom) or isinstance(r, Atom):
                if (not isinstance(l, Atom) or not isinstance(r, Atom)
                        or l.pred != r.pred or len(l.args) != len(r.args)):
                    return None
                flat.extend(zip(l.args, r.args))
            else:
                flat.append((l, r))
        return UnificationProblem(tuple(flat), system)


@dataclass(frozen=True)
class SolutionStream:
    """Substitutions found within the bounds, in breadth-first order.

    ``complete`` is True when the bounded search space was fully
    exhausted; False means the stream was truncated at the depth bound
    or the solution cap and further solutions may exist."""

    solutions: tuple[Subst, ...]
    complete: bool


def _variant_key(nodes) -> str:
    """Canonical key identifying states and solutions up to renaming of
    free variables (first-occurrence numbering)."""
    names: dict[Var, str] = {}
    out: list[str] = []

    def walk(x: Node):
        if isinstance(x, Var):
            if x not in names:
                names[x] = f"v{len(names)}:{x.sort}"
            out.append(names[x])
        elif isinstance(x, Hole):
            out.append(f"_:{x.sort}")
        elif isinstance(x, (App, Atom)):
            head = x.fn if isinstance(x, App) else x.pred
            out.append(f"({head}")
            for a in x.args:
                out.append(" ")
                walk(a)
            out.append(")")
        else:
            out.append(alpha_key(x))

    for n in nodes:
        walk(n)
        out.append(";")
    return "".join(out)


def _norm(rs: RewriteSystem, t: Node, fuel: int) -> Node:
    if rs.convergent:
        return normalize(rs, t, fuel).value
    return t


def narrow_unify(problem: UnificationProblem, depth: int = 8,
                 cap: int = 16, fuel: int = 10000) -> SolutionStream:
    """Narrowing with eager normalization between steps.

    Every emitted substitution is verified against the congruence before
    emission; duplicates modulo variable renaming are removed.  Bound
    overruns are flagged in the stream, never silent."""
    if depth <= 0 or cap <= 0:
        raise ValueError("bounds must be positive")
    rs = problem.system
    problem_vars = set()
    for l, r in problem.pairs:
        problem_vars |= free_vars(l) | free_vars(r)

    ordered_vars = sorted(problem_vars, key=lambda w: w.name)

    def state_key(pairs, acc):
        nodes = [n for pr in pairs for n in pr]
        nodes += [acc.get(v, v) for v in ordered_vars]
        return _variant_key(nodes)

    start = tuple((_norm(rs, l, fuel), _norm(rs, r, fuel))
                  for l, r in problem.pairs)
    queue: list[tuple[tuple, Subst, int]] = [(start, {}, 0)]
    seen_states = {state_key(start, {})}
    solutions: list[Subst] = []
    seen_solutions: set[str] = set()
    complete = True

    while queue:
        pairs, acc, d = queue.pop(0)
        mgu = unify_pairs(pairs)
        if mgu is not None:
            sol = compose(acc, mgu)
            sol = {v: t for v, t in sol.items() if v in problem_vars}
            key = _variant_key([sol.get(v, v) for v in ordered_vars])
            if key not in seen_solutions and _verified(problem, sol, fuel):
                seen_solutions.add(key)
                solutions.append(sol)
                if len(solutions) >= cap:
                    complete = False
                    break
        # expand: one narrowing step at any non-variable position
        steps = _narrowing_steps(rs, pairs)
        if not steps:
            continue
        if d >= depth:
            complete = False
            continue
        for new_pairs, u in steps:
            normed = tuple((_norm(rs, l, fuel), _norm(rs, r, fuel))
                           for l, r in new_pairs)
            acc2 = compose(acc, u)
            key = state_key(normed, acc2)
            if key in seen_states:
                continue
            seen_states.add(key)
            queue.append((normed, acc2, d + 1))
    return SolutionStream(tuple(solutions), complete)


def _narrowing_steps(rs: RewriteSystem, pairs):
    """All one-step narrowings of the pair list: unify a rule lhs with a
    non-variable subterm, instantiate everything, replace by the rhs."""
    out = []
    state_vars = set()
    for l, r in pairs:
        state_vars |= free_vars(l) | free_vars(r)
    avoid = {v.name for v in state_vars}
    for i, (l, r) in enumerate(pairs):
        for side in (0, 1):
            tree = (l, r)[side]
            for pos, node in positions(tree):
                if not isinstance(node, App):
                    continue
                for rule in rs.term_rules:
                    ren = _rename_apart(rule, avoid)
                    u = unify_syntactic(node, ren.lhs)
                    if u is None:
                        continue
                    new_tree = apply_subst(
                        u, replace_at(tree, pos, ren.rhs))
                    new_pairs = []
                    for j, (pl, pr) in enumerate(pairs):
                        if j == i:
                            nl = new_tree if side == 0 else apply_subst(u, pl)
                            nr = new_tree if side == 1 else apply_subst(u, pr)
                            new_pairs.append((nl, nr))
                        else:
                            new_pairs.append(
                                (apply_subst(u, pl), apply_subst(u, pr)))
                    out.append((tuple(new_pairs), u))
    return out


def _verified(problem: UnificationProblem, sol: Subst, fuel: int) -> bool:
    try:
        return all(
            congruent(problem.system, apply_subst(sol, l),
                      apply_subst(sol, r), fuel)
            for l, r in problem.pairs)
    except FuelExhausted:
        return False
