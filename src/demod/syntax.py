"""Many-sorted first-order syntax: terms, propositions, substitutions.

All values are immutable after construction; every operation here is a
pure function, so values can be shared freely between threads.  (Two
derived values are kept on the node they were computed from; see
``free_vars``.  Writing one is idempotent.)  Variables are interned:
one ``Var`` per name and sort, so their ``==`` and ``hash`` are identity.

Negation is not primitive: write ``Imp(a, BOT)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import SortError

# Identifiers reserved by the concrete syntax; signatures may not declare them.
RESERVED = frozenset({
    "top", "bot", "and", "or", "imp", "forall", "exists",
    "axiom", "top_i", "bot_e", "and_i", "and_e1", "and_e2",
    "or_i1", "or_i2", "or_e", "imp_i", "imp_e",
    "forall_i", "forall_e", "exists_i", "exists_e",
    "sort", "func", "pred", "rule", "assert", "terminating",
})

_IDENT = re.compile(r"[A-Za-z0-9_'?+*=]+")


def valid_ident(name: str) -> bool:
    return bool(_IDENT.fullmatch(name)) and name not in RESERVED


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class Signature:
    """Declared sorts, function symbols and predicate symbols.

    ``functions`` maps an identifier to ``(argument sorts, result sort)``;
    ``predicates`` maps an identifier to its argument sorts.
    """

    sorts: frozenset[str]
    functions: dict[str, tuple[tuple[str, ...], str]]
    predicates: dict[str, tuple[str, ...]]

    def __post_init__(self):
        seen = set()
        for name in list(self.functions) + list(self.predicates):
            if not valid_ident(name):
                raise SortError(f"illegal or reserved identifier {name!r}")
            if name in seen:
                raise SortError(f"identifier {name!r} declared twice")
            seen.add(name)
        for name, (args, res) in self.functions.items():
            for s in (*args, res):
                if s not in self.sorts:
                    raise SortError(f"function {name}: undeclared sort {s!r}")
        for name, args in self.predicates.items():
            for s in args:
                if s not in self.sorts:
                    raise SortError(f"predicate {name}: undeclared sort {s!r}")


def make_signature(sorts, functions, predicates) -> Signature:
    return Signature(
        frozenset(sorts),
        {f: (tuple(a), r) for f, (a, r) in dict(functions).items()},
        {p: tuple(a) for p, a in dict(predicates).items()},
    )


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Var:
    """Interned by ``__new__``, which copy, pickle and ``replace`` use."""

    name: str
    sort: str
    _interned = {}   # (name, sort) -> the Var; not a dataclass field

    def __new__(cls, name: str, sort: str):
        v = cls._interned.get((name, sort))
        if v is None:   # racing threads: setdefault keeps the first
            v = object.__new__(cls)
            object.__setattr__(v, "name", name)
            object.__setattr__(v, "sort", sort)
            v = cls._interned.setdefault((name, sort), v)
        return v

    def __reduce__(self):
        return Var, (self.name, self.sort)

    def __repr__(self):
        return f"{self.name}:{self.sort}"


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple["Term", ...] = ()

    def __reduce__(self):   # the fields, not the values kept on the node
        return App, (self.fn, self.args)

    def __repr__(self):
        return print_term(self)


@dataclass(frozen=True)
class Hole:
    """Schematic placeholder standing for an arbitrary term of a sort.

    Only produced by sub-formula closure; behaves like an opaque constant
    for matching and rewriting. Printed as ``_``.
    """

    sort: str

    def __repr__(self):
        return "_"


Term = Union[Var, App, Hole]


# ---------------------------------------------------------------------------
# Propositions


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    def __reduce__(self):   # the fields, not the values kept on the node
        return Atom, (self.pred, self.args)

    def __repr__(self):
        return print_prop(self)


@dataclass(frozen=True)
class Top:
    def __repr__(self):
        return "top"


@dataclass(frozen=True)
class Bottom:
    def __repr__(self):
        return "bot"


@dataclass(frozen=True)
class And:
    left: "Proposition"
    right: "Proposition"

    def __repr__(self):
        return print_prop(self)


@dataclass(frozen=True)
class Or:
    left: "Proposition"
    right: "Proposition"

    def __repr__(self):
        return print_prop(self)


@dataclass(frozen=True)
class Imp:
    left: "Proposition"
    right: "Proposition"

    def __repr__(self):
        return print_prop(self)


@dataclass(frozen=True)
class ForAll:
    var: Var
    body: "Proposition"

    def __repr__(self):
        return print_prop(self)


@dataclass(frozen=True)
class Exists:
    var: Var
    body: "Proposition"

    def __repr__(self):
        return print_prop(self)


Proposition = Union[Atom, Top, Bottom, And, Or, Imp, ForAll, Exists]
Node = Union[Term, Proposition]

TOP = Top()
BOT = Bottom()

BINARY = (And, Or, Imp)
QUANT = (ForAll, Exists)

# each connective and quantifier by its name in the concrete syntax
CONNECTIVES = {Top: "top", Bottom: "bot", And: "and", Or: "or", Imp: "imp",
               ForAll: "forall", Exists: "exists"}


def is_term(x: Node) -> bool:
    return isinstance(x, (Var, App, Hole))


# ---------------------------------------------------------------------------
# Generic traversal: positions are tuples of child indices.  Binary
# connectives have children 0 and 1, quantifiers have the body at 0,
# atoms and applications index into their argument lists.

Position = tuple[int, ...]


def children(x: Node) -> tuple[Node, ...]:
    if isinstance(x, (App, Atom)):
        return x.args
    if isinstance(x, BINARY):
        return (x.left, x.right)
    if isinstance(x, QUANT):
        return (x.body,)
    return ()


def with_children(x: Node, kids: tuple) -> Node:
    if isinstance(x, App):
        return App(x.fn, tuple(kids))
    if isinstance(x, Atom):
        return Atom(x.pred, tuple(kids))
    if isinstance(x, BINARY):
        return type(x)(kids[0], kids[1])
    if isinstance(x, QUANT):
        return type(x)(x.var, kids[0])
    return x


def replace_at(x: Node, pos: Position, new: Node) -> Node:
    if not pos:
        return new
    kids = list(children(x))
    kids[pos[0]] = replace_at(kids[pos[0]], pos[1:], new)
    return with_children(x, tuple(kids))


def positions(x: Node) -> Iterator[tuple[Position, Node]]:
    """All positions, outermost first, left to right."""
    stack = [((), x)]
    while stack:
        pos, node = stack.pop()
        yield pos, node
        stack.extend(reversed([(pos + (i,), c)
                               for i, c in enumerate(children(node))]))


# ---------------------------------------------------------------------------
# Free variables and sorts.  ``free_vars`` and ``alpha_key`` of a
# proposition are computed on first request and kept on the node with
# ``object.__setattr__``, outside the fields (so is a rule's matcher):
# ``==``, ``hash``, ``repr``, ``pickle`` and ``copy`` miss them.  Neither
# is kept on terms: narrowing asks about most fresh terms only once.
# Variables hash by identity, so a set of them iterates in address
# order: sort it by name wherever that order could reach output.


def free_vars(x: Node) -> frozenset[Var]:
    if isinstance(x, Var):
        return frozenset({x})
    if isinstance(x, App):
        out: frozenset[Var] = frozenset()
        for a in x.args:
            out |= free_vars(a)
        return out
    if isinstance(x, (Hole, Top, Bottom)):
        return frozenset()
    out = getattr(x, "_free_vars", None)
    if out is None:
        if isinstance(x, QUANT):
            out = free_vars(x.body) - {x.var}
        else:
            out = frozenset()
            for c in children(x):
                out |= free_vars(c)
        object.__setattr__(x, "_free_vars", out)
    return out


def term_sort(sig: Signature, t: Term) -> str:
    if isinstance(t, (Var, Hole)):
        return t.sort
    if t.fn not in sig.functions:
        raise SortError(f"unknown function {t.fn!r}")
    return sig.functions[t.fn][1]


# ---------------------------------------------------------------------------
# Substitution: a finite map from Var to Term.  Application is
# simultaneous and capture-avoiding; bound variables are renamed with
# deterministic suffix counters when needed.

Subst = dict  # dict[Var, Term]


def fresh_var(base: Var, avoid: set[str]) -> Var:
    root = re.sub(r"_\d+$", "", base.name)
    k = 1
    while f"{root}_{k}" in avoid:
        k += 1
    return Var(f"{root}_{k}", base.sort)


def apply_subst(s: Subst, x: Node) -> Node:
    """Simultaneous capture-avoiding substitution on a term or proposition."""
    if not s:
        return x
    return _subst(s, x)


def _subst(s: Subst, x: Node) -> Node:
    """An unchanged node comes back as the same object."""
    if isinstance(x, Var):
        return s.get(x, x)
    if isinstance(x, App) or isinstance(x, Atom):
        args = []
        changed = False
        for a in x.args:
            b = _subst(s, a)
            args.append(b)
            changed = changed or b is not a
        return x if not changed else App(x.fn, tuple(args)) \
            if isinstance(x, App) else Atom(x.pred, tuple(args))
    if isinstance(x, BINARY):
        left, right = _subst(s, x.left), _subst(s, x.right)
        if left is x.left and right is x.right:
            return x
        return type(x)(left, right)
    if isinstance(x, QUANT):
        v, body = x.var, x.body
        body_vars = free_vars(body)
        live = {u: t for u, t in s.items() if u != v and u in body_vars}
        if not live:
            return x
        inserted: set[str] = set()
        for t in live.values():
            inserted |= {w.name for w in free_vars(t)}
        if v.name in inserted:
            avoid = inserted | {w.name for w in body_vars}
            v2 = fresh_var(v, avoid)
            body = _subst({v: v2}, body)
            v = v2
        return type(x)(v, _subst(live, body))
    return x   # Hole, Top, Bottom


def compose(s1: Subst, s2: Subst, keep=None) -> Subst:
    """Substitution equal to applying s1 first, then s2.  With ``keep``,
    a set holding s1's variables, only the bindings of its variables."""
    out = {v: _subst(s2, t) if s2 else t for v, t in s1.items()}
    for v, t in s2.items():
        if v not in out and (keep is None or v in keep):
            out[v] = t
    return {v: t for v, t in out.items() if t is not v}


# ---------------------------------------------------------------------------
# Alpha equivalence.  ``alpha_key`` is its definition: a bound variable
# is written as its binder's de Bruijn level, the number of binders
# enclosing that binder, so shadowing and renaming both disappear from
# the key.  No other walk numbers binders.  The key of a proposition is
# computed on first request and kept on the node (see "Free variables");
# a term's is not kept, the same rule as for free variables.


def alpha_eq(a: Node, b: Node) -> bool:
    """Equality up to renaming of bound variables."""
    return a is b or alpha_key(a) == alpha_key(b)


def alpha_key(x: Node) -> str:
    """Canonical string, identical exactly for alpha-equivalent values."""
    key = getattr(x, "_alpha_key", None)
    if key is None:
        out: list[str] = []
        _akey(x, {}, 0, out)
        key = "".join(out)
        if not is_term(x):
            object.__setattr__(x, "_alpha_key", key)
    return key


def _akey(x: Node, bound: dict, depth: int, out: list) -> None:
    if isinstance(x, Var):
        if x in bound:
            out.append(f"#{bound[x]}")
        else:
            out.append(f"{x.name}!{x.sort}")
        return
    if isinstance(x, Hole):
        out.append(f"_:{x.sort}")
        return
    if isinstance(x, (App, Atom)):
        head = x.fn if isinstance(x, App) else x.pred
        out.append(f"({head}" if isinstance(x, App) else f"[{head}")
        for a in x.args:
            out.append(" ")
            _akey(a, bound, depth, out)
        out.append(")" if isinstance(x, App) else "]")
        return
    name = CONNECTIVES[type(x)]
    if isinstance(x, QUANT):
        out.append(f"({name} {x.var.sort} ")
        _akey(x.body, {**bound, x.var: depth}, depth + 1, out)
        out.append(")")
    elif isinstance(x, BINARY):
        out.append(f"({name} ")
        _akey(x.left, bound, depth, out)
        out.append(" ")
        _akey(x.right, bound, depth, out)
        out.append(")")
    else:
        out.append(name)


# ---------------------------------------------------------------------------
# Well-formedness


def wellformed(sig: Signature, x: Node) -> None:
    """Check arities and sorts against the signature; raises SortError
    for the first offending node, outermost-leftmost first."""
    if isinstance(x, (Var, Hole)):
        if x.sort not in sig.sorts:
            raise SortError(f"undeclared sort {x.sort!r}")
    elif isinstance(x, App):
        if x.fn not in sig.functions:
            raise SortError(f"unknown function {x.fn!r}")
        _wf_args(sig, x.fn, x.args, sig.functions[x.fn][0])
    elif isinstance(x, Atom):
        if x.pred not in sig.predicates:
            raise SortError(f"unknown predicate {x.pred!r}")
        _wf_args(sig, x.pred, x.args, sig.predicates[x.pred])
    else:
        if isinstance(x, QUANT) and x.var.sort not in sig.sorts:
            raise SortError(f"undeclared sort {x.var.sort!r}")
        for c in children(x):
            wellformed(sig, c)


def _wf_args(sig, head, args, arg_sorts) -> None:
    if len(args) != len(arg_sorts):
        raise SortError(
            f"{head} expects {len(arg_sorts)} arguments, got {len(args)}")
    for i, (a, want) in enumerate(zip(args, arg_sorts)):
        wellformed(sig, a)
        got = term_sort(sig, a)
        if got != want:
            raise SortError(
                f"argument {i} of {head} has sort {got}, expected {want}")


# ---------------------------------------------------------------------------
# Canonical printing: fully parenthesized prefix form, explicit sorts on
# binders.  This is the round-trip format used by every other module.


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Hole):
        return "_"
    if not t.args:
        return t.fn
    parts = [f"({t.fn}"]
    for a in t.args:
        parts.append(print_term(a))
    return " ".join(parts) + ")"


def print_prop(p: Proposition) -> str:
    if isinstance(p, Atom):
        if not p.args:
            return p.pred
        return f"({p.pred} {' '.join(print_term(a) for a in p.args)})"
    name = CONNECTIVES[type(p)]
    if isinstance(p, BINARY):
        return f"({name} {print_prop(p.left)} {print_prop(p.right)})"
    if isinstance(p, QUANT):
        return f"({name} ({p.var.name} : {p.var.sort}) {print_prop(p.body)})"
    return name


def print_node(x: Node) -> str:
    return print_term(x) if is_term(x) else print_prop(x)
