"""Syntactic unification and equational unification by narrowing.

Narrowing interleaves instantiation with rewriting, giving unification
modulo the rewrite system: solutions make the two sides joinable rather
than equal.  Emission is breadth-first (fair), so the first solutions of
problems with infinitely many unifiers are still found.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import FuelExhausted
from .rewriting import (
    DEFAULT_FUEL, RewriteSystem, congruent, normalize, _rename_apart,
)
from .syntax import (
    BINARY, QUANT, App, Atom, Hole, Node, Subst, Term, Var, apply_subst,
    compose, free_vars, is_term, positions, replace_at,
)


# ---------------------------------------------------------------------------
# Syntactic unification (most general unifier, occurs check)


def unify_pairs(pairs) -> Optional[Subst]:
    """Most general unifier of all pairs, or None.  The worklist is a
    stack; ``s`` stays idempotent, a side is looked up in it at its root
    and substituted in full only when it is bound.  Until a variable
    bound, or a variable in a term bound to one, was met before, ``met``
    holds the variables met: then no side is bound, no binding needs the
    occurs check or changes another, and none of that is done."""
    s: Subst = {}
    met: Optional[set] = set()
    work = list(pairs)[::-1]
    while work:
        l, r = pair = work.pop()
        if met is None:
            if isinstance(l, Var):
                l = s.get(l, l)
            if isinstance(r, Var):
                r = s.get(r, r)
        if isinstance(r, Var) and not isinstance(l, Var):
            l, r = r, l
        if isinstance(l, Var):
            if met is not None:
                first = l not in met
                met.add(l)
                if not (first and _meet(r, met)):
                    work.append(pair)   # again, looked up
                    met = None
                    continue
            if l == r:
                continue
            if not is_term(r) or isinstance(r, Var) and r.sort != l.sort:
                return None
            if met is None:
                r = apply_subst(s, r)
                if not _meet(r, {l}):
                    return None   # l occurs in r
                for v, t in s.items():
                    s[v] = apply_subst({l: r}, t)
            s[l] = r
        elif (isinstance(l, App) and isinstance(r, App) and l.fn == r.fn
              or isinstance(l, Atom) and isinstance(r, Atom)
              and l.pred == r.pred) and len(l.args) == len(r.args):
            work.extend(zip(reversed(l.args), reversed(r.args)))
        elif l != r:
            return None  # clashes, holes or mismatched kinds
    return s


def unify_syntactic(a: Node, b: Node) -> Optional[Subst]:
    """Most general unifier of two terms or two atoms, or None."""
    if isinstance(a, Atom) != isinstance(b, Atom):
        return None
    return unify_pairs([(a, b)])


def _meet(t: Node, met: set) -> bool:
    """Add the variables of ``t`` to ``met``; False if one is there."""
    todo, new = [t], []
    while todo:
        x = todo.pop()
        if isinstance(x, App):
            todo.extend(x.args)
        elif isinstance(x, Var):
            if x in met:
                return False
            new.append(x)
    met.update(new)
    return True


# ---------------------------------------------------------------------------
# Narrowing


@dataclass(frozen=True)
class UnificationProblem:
    """Term pairs to be solved simultaneously modulo a rewrite system.

    Proposition pairs are decomposed into their argument pairs up front.
    An atom is normalized first when the system is convergent and has
    proposition rules, so such a rule has fired before shapes are
    compared.  Pairs whose shapes or predicate symbols still differ make
    the problem unsolvable, unless one side is an atom that a
    proposition rule could still rewrite (the system is not convergent,
    or an instance of the pair could be rewritten): that case, and
    binders, are refused, because narrowing rewrites terms only and no
    walk below numbers binders."""

    pairs: tuple[tuple[Term, Term], ...]
    system: RewriteSystem

    @staticmethod
    def of(pairs, system: RewriteSystem,
           fuel: int = DEFAULT_FUEL) -> Optional["UnificationProblem"]:
        flat: list[tuple[Term, Term]] = []
        work = list(pairs)
        work.reverse()
        normal = system.prop_rules and system.convergent
        while work:
            l, r = work.pop()
            if normal:
                if isinstance(l, Atom):
                    l = normalize(system, l, fuel).value
                if isinstance(r, Atom):
                    r = normalize(system, r, fuel).value
            kind = type(l)
            if kind is not type(r):
                if is_term(l) and is_term(r):
                    flat.append((l, r))
                    continue
            elif kind is Atom:
                if l.pred == r.pred and len(l.args) == len(r.args):
                    flat.extend(zip(l.args, r.args))
                    continue
            elif kind in BINARY:
                work += ((l.right, r.right), (l.left, r.left))
                continue
            elif kind in QUANT:
                raise ValueError("unification under a binder is not supported")
            else:
                if is_term(l):
                    flat.append((l, r))
                continue  # two terms, or top/bottom against itself
            # the shapes or the predicate symbols differ
            if system.prop_rules and (kind is Atom or type(r) is Atom) and (
                    not system.convergent or free_vars(l) or free_vars(r)):
                raise ValueError("the sides differ in shape, and "
                                 "unification through proposition rules "
                                 "is not supported")
            return None
        return UnificationProblem(tuple(flat), system)


@dataclass(frozen=True)
class SolutionStream:
    """Substitutions found within the bounds, in breadth-first order.

    ``complete`` is True when the bounded search space was fully
    exhausted; False means the stream was truncated at the depth bound
    or the solution cap, or a verification ran out of fuel, and further
    solutions may exist."""

    solutions: tuple[Subst, ...]
    complete: bool


def _variant_key(terms) -> str:
    """Canonical key identifying states and solutions up to renaming of
    free variables (first-occurrence numbering).  Narrowing states hold
    terms only, so there are no binders to number.  The walk is not
    nested: a nested recursive function leaves a reference cycle per
    call."""
    names: dict[Var, str] = {}
    out: list[str] = []
    for t in terms:
        _key_walk(t, names, out)
        out.append(";")
    return "".join(out)


def _key_walk(t: Term, names: dict, out: list) -> None:
    if isinstance(t, Var):
        if t not in names:
            names[t] = f"v{len(names)}:{t.sort}"
        out.append(names[t])
    elif isinstance(t, Hole):
        out.append(f"_:{t.sort}")
    else:
        out.append(f"({t.fn}")
        for a in t.args:
            out.append(" ")
            _key_walk(a, names, out)
        out.append(")")


def _norm(rs: RewriteSystem, t: Node, fuel: int, u: Optional[Subst] = None,
          pos=None, rhs=None) -> Node:
    """``t`` under ``u``, its subterm at ``pos`` replaced by ``rhs`` first,
    normalized when the system is convergent; ``t`` is normal then."""
    if rs.convergent:
        return normalize(rs, t, fuel, u, pos, rhs).value
    return apply_subst(u, t if pos is None else replace_at(t, pos, rhs))


def narrow_unify(problem: UnificationProblem, depth: int = 8,
                 cap: int = 16, fuel: int = 10000) -> SolutionStream:
    """Narrowing with eager normalization between steps.

    Every emitted substitution is verified against the congruence before
    emission; duplicates modulo variable renaming are removed.  Once per
    expanded state, its pairs are unified; the rules are renamed apart
    from its variables once per set of their names in a call.  Every
    side of a state is normal, and a step normalizes only the sides it
    changes.  A state keeps the bindings of the problem's variables
    only: nothing else reaches its key or a solution.  A state at the
    depth bound is never queued but unified as it is made; one that
    unifies is kept and emitted after the queue empties, in the order
    the queue would have popped it.  While the stream is complete such
    a state is deduplicated and asked whether a step leaves it: if one
    does, ``complete`` turns False, as it does when the cap is reached
    or verifying a solution runs out of fuel."""
    if depth <= 0 or cap <= 0:
        raise ValueError("bounds must be positive")
    rs = problem.system
    problem_vars = set().union(*(free_vars(t) for pair in problem.pairs
                                 for t in pair))
    ordered_vars = sorted(problem_vars, key=lambda w: (w.name, w.sort))
    solutions: list[Subst] = []
    seen_solutions: set[str] = set()
    complete = True

    def state_key(pairs, acc):
        nodes = [n for pr in pairs for n in pr]
        nodes += [acc.get(v, v) for v in ordered_vars]
        return _variant_key(nodes)

    def capped(sol) -> bool:
        """Emit a new, verified ``sol``; True once the cap is reached."""
        nonlocal complete
        key = _variant_key([sol.get(v, v) for v in ordered_vars])
        if key not in seen_solutions:
            try:
                ok = all(congruent(rs, apply_subst(sol, l),
                                   apply_subst(sol, r), fuel)
                         for l, r in problem.pairs)
            except FuelExhausted:
                ok = complete = False
            if ok:
                seen_solutions.add(key)
                solutions.append(sol)
        return len(solutions) >= cap

    start = tuple((_norm(rs, l, fuel), _norm(rs, r, fuel))
                  for l, r in problem.pairs)
    queue: deque[tuple[tuple, Subst, int]] = deque([(start, {}, 0)])
    seen_states = {state_key(start, {})}
    at_bound: list[tuple[Subst, Subst, Subst]] = []   # (acc, u, mgu)
    renamed: dict = {}   # (rule name, names to avoid) -> renamed rule
    while queue:
        pairs, acc, d = queue.popleft()
        mgu = unify_pairs(pairs)
        if mgu is not None and capped(compose(acc, mgu, problem_vars)):
            break
        # expand: one narrowing step at any non-variable position
        below = d + 1 < depth
        sides = [(t, free_vars(t)) for pair in pairs for t in pair]
        for k, pos, rhs, u in _narrowing_steps(rs, sides, renamed):
            # side k narrowed and each side u instantiates, each made and
            # normalized in one walk; a side with no variable that u
            # binds is kept as it is
            new = [_norm(rs, t, fuel, u, pos, rhs) if j == k
                   else t if vs.isdisjoint(u) else _norm(rs, t, fuel, u)
                   for j, (t, vs) in enumerate(sides)]
            normed = tuple(zip(new[0::2], new[1::2]))
            if below or complete:
                acc2 = compose(acc, u, problem_vars)
                key = state_key(normed, acc2)
                if key in seen_states:
                    continue
                seen_states.add(key)
            if below:
                queue.append((normed, acc2, d + 1))
                continue
            last = unify_pairs(normed)
            if last is not None:
                at_bound.append((acc, u, last))
            if complete and next(_narrowing_steps(
                    rs, [(t, free_vars(t)) for t in new], renamed), None):
                complete = False
    else:   # the queue emptied below the cap
        for acc, u, mgu in at_bound:
            if capped(compose(compose(acc, u, problem_vars), mgu,
                              problem_vars)):
                break
    return SolutionStream(tuple(solutions), complete and len(solutions) < cap)


def _narrowing_steps(rs: RewriteSystem, sides, renamed):
    """Every way to unify a term rule's lhs with a non-variable subterm of
    a side with the same head, in the order of sides, positions and
    rules: (side index, position, renamed rhs, unifier).  ``sides`` are
    the terms of the pair list, each with its free variables.  A rule is
    renamed apart from their names when it first meets such a subterm,
    and kept in ``renamed`` for the next state with those names.  Under a
    convergent system every side is normal, and one with no variable is
    skipped: it unifies with a lhs only by matching it, as a redex."""
    avoid = frozenset(v.name for _, vs in sides for v in vs)
    by_head = rs.by_head
    for k, (tree, vs) in enumerate(sides):
        if not vs and rs.convergent:
            continue
        for pos, node in positions(tree):
            if not isinstance(node, App):
                continue
            for rule in by_head.get(node.fn, ()):
                if not rule.is_term_rule:
                    continue
                ren = renamed.get((rule.name, avoid))
                if ren is None:
                    ren = _rename_apart(rule, avoid)
                    renamed[rule.name, avoid] = ren
                u = unify_syntactic(node, ren.lhs)
                if u is not None:
                    yield k, pos, ren.rhs, u
