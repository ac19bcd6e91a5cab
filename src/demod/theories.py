"""Builtin theory library, the validation pipeline, and congruence-closed
sub-formula sets.

A theory is a signature plus a rewrite system: the rules ARE the theory.
Each theory is validated once, when it is built.  Validation never
rejects -- it only records what could be established (non-confusion,
local confluence, an LPO termination proof or a user assertion).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import FuelExhausted, SortError, TheoryError
from .rewriting import (
    DEFAULT_FUEL, RewriteSystem, check_local_confluence, check_nonconfusing,
    check_termination_lpo, congruent, normalize, rewrite_positions,
)
from .syntax import (
    Atom, Hole, Node, Proposition, QUANT, Signature, alpha_key, apply_subst,
    children, is_term, print_node, wellformed,
)


@dataclass(frozen=True)
class ValidationReport:
    nonconfusing: bool
    critical_pair_count: int
    locally_confluent: Optional[bool]  # None = unknown at fuel
    termination: str                   # "lpo" | "user-asserted" | "unknown"
    notes: tuple[str, ...] = ()

    def lines(self):
        lc = {True: "yes", False: "NO", None: "unknown"}[self.locally_confluent]
        out = [
            "lhs shapes ok: yes",   # RewriteRule refuses any other lhs
            f"non-confusing: {'yes' if self.nonconfusing else 'NO'}",
            f"critical pairs: {self.critical_pair_count}",
            f"locally confluent: {lc}",
            f"termination: {self.termination}",
        ]
        out.extend(f"note: {n}" for n in self.notes)
        return out

    @property
    def convergent(self) -> bool:
        """Terminating and locally confluent, hence confluent."""
        return self.termination != "unknown" and self.locally_confluent is True


@dataclass(frozen=True)
class Theory:
    """A signature and its rules, validated once when built: ``report``
    holds the verdicts, and ``system`` is the given system with the
    report's convergence recorded."""

    name: str
    signature: Signature
    system: RewriteSystem
    notes: tuple[str, ...] = ()
    report: ValidationReport = field(init=False)

    def __post_init__(self):
        for r in self.system.rules:
            for side in (r.lhs, r.rhs):
                try:
                    wellformed(self.signature, side)
                except SortError as e:
                    raise TheoryError(f"rule {r.name}: ill-formed "
                                      f"{print_node(side)}: {e}") from None
        report = validate_theory(self)
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "system", replace(
            self.system, convergent=report.convergent))

    def default_precedence(self) -> list[str]:
        """Declaration order; later symbols are greater in the LPO."""
        return list(self.signature.functions) + list(self.signature.predicates)


def validate_theory(theory: Theory) -> ValidationReport:
    """Run every check on the theory's rules and report the verdicts;
    changes nothing and never rejects."""
    rs = theory.system
    pair_count, confluent = check_local_confluence(rs)
    if rs.asserted_terminating:
        termination = "user-asserted"
    elif check_termination_lpo(rs, theory.default_precedence()):
        termination = "lpo"
    else:
        termination = "unknown"
    report = ValidationReport(check_nonconfusing(rs), pair_count, confluent,
                              termination, theory.notes)
    # rewriting keeps a connective at the root, so equal normal forms
    # have equal heads: convergence rules out confusion by itself
    return replace(report, nonconfusing=True) if report.convergent else report


# ---------------------------------------------------------------------------
# Builtin theories: name -> (text in the theory-file syntax, notes)


_NAT = ("sort nat. func 0 : nat. func S : nat -> nat. "
        "func plus : nat nat -> nat. pred P : nat. ")
_ELEM = ("sort elem. func a : elem. func b : elem. func c : elem. "
         "func d : elem. func e : elem. func plus : elem elem -> elem. "
         "pred P : elem. pred Q : elem. ")
BUILTINS = {
    "empty": ("sort iota. pred P. pred Q.", ()),
    "def-conj": ("sort iota. pred A. pred B. pred P. "
                 "rule def_P: P ~> (and A B).  # P abbreviates A and B", ()),
    "assoc": (_ELEM + "rule assoc: (plus x (plus y z)) ~> "
              "(plus (plus x y) z).", ()),
    "addition": (_NAT + "rule add0: (plus 0 y) ~> y. "
                 "rule addS: (plus (S x) y) ~> (S (plus x y)).", ()),
    "powerset": ("sort set. func pow : set -> set. pred in : set set. "
                 "rule powerset: (in x (pow y)) ~> "
                 "(forall (z : set) (imp (in z x) (in z y))). "
                 "assert terminating.  # each step reduces pow-nesting", ()),
    "crabbe": ("sort iota. pred P. pred Q. rule crabbe: P ~> (imp P Q).",
               ("self-referential definition: the head predicate occurs "
                "in its own body",
                "known negative: cut elimination fails (a proof of Q "
                "exists, no cut-free proof of Q does)")),
    "comm": (_ELEM + "rule comm: (plus x y) ~> (plus y x).",
             ("non-terminating as a rewrite system; the congruence is "
              "decided heuristically only",)),
    "p0-forall": (_NAT + "rule p0: (P 0) ~> (forall (x : nat) (P x)). "
                  "assert terminating.  # the rhs has no P(0) redex", ()),
    "pf-collapse": ("sort iota. func f : iota -> iota. pred P : iota. "
                    "rule pf: (P (f x)) ~> (P x).", ()),
}
BUILTIN_NAMES = tuple(BUILTINS)
_built: dict[str, Theory] = {}   # name: the builtin, built on first use


def load_builtin(name: str) -> Theory:
    """The named builtin theory, one shared immutable instance per name
    and process; raises TheoryError on unknown names."""
    if name not in _built:
        if name not in BUILTINS:
            raise TheoryError(f"unknown builtin theory {name!r}")
        from .parsing import parse_theory   # parsing imports this module
        text, notes = BUILTINS[name]
        _built[name] = parse_theory(text, name, notes)
    return _built[name]


# ---------------------------------------------------------------------------
# Congruence-closed sub-formula sets


@dataclass(frozen=True)
class SubformulaSet:
    """Congruence-class representatives of the extended sub-formula set.

    Substitution closure is kept schematic: quantified bodies contribute
    their body with the bound variable replaced by a placeholder, never
    an enumeration of instances."""

    representatives: tuple[Node, ...]
    status: str  # "closed" | "truncated-at-fuel" | "infinite-schematic"


def _immediate_subformulae(p: Node):
    """Sub-tree step: subparts of connectives; quantifier bodies are taken
    schematically.  Terms have no proposition subparts."""
    if isinstance(p, QUANT):
        yield apply_subst({p.var: Hole(p.var.sort)}, p.body)
        return
    if isinstance(p, Atom) or is_term(p):
        return
    for c in children(p):
        yield c


def subformula_closure(theory: Theory, a: Proposition,
                       fuel: int = DEFAULT_FUEL) -> SubformulaSet:
    """Smallest set containing `a`, closed under sub-tree, (schematic)
    substitution and the congruence, truncated at fuel.

    Class identity is by reachability under the rules: every rewrite
    reachable form of a member contributes its subparts to the set."""
    rs = theory.system
    reps: list[Node] = []
    class_keys: set[str] = set()
    schematic = False
    truncated = False
    budget = fuel

    def class_key(p: Node) -> Optional[str]:
        if rs.convergent:
            try:
                return alpha_key(normalize(rs, p, fuel).value)
            except FuelExhausted:
                pass
        return None

    syntactic_seen: set[str] = set()

    def known(p: Node) -> bool:
        k = class_key(p)
        if k is not None:
            if k in class_keys:
                return True
            class_keys.add(k)
            return False
        # no normal forms available: compare against the representatives
        for r in reps:
            try:
                if congruent(rs, p, r, fuel):
                    return True
            except FuelExhausted:
                continue
        return False

    work = [a]
    while work:
        p = work.pop(0)
        sk = alpha_key(p)
        if sk in syntactic_seen:
            continue
        syntactic_seen.add(sk)
        if known(p):
            continue
        budget -= 1
        if budget < 0:
            return SubformulaSet(tuple(reps), "truncated-at-fuel")
        reps.append(p)
        # all congruent forms reachable by rewriting contribute subparts;
        # the per-class exploration is capped so that non-terminating
        # systems truncate instead of growing unbounded terms
        reachable = {alpha_key(p): p}
        frontier = [p]
        explored = 0
        while frontier:
            q = frontier.pop(0)
            budget -= 1
            explored += 1
            if budget < 0:
                return SubformulaSet(tuple(reps), "truncated-at-fuel")
            if explored > 16:
                truncated = True
                break
            if isinstance(q, QUANT):
                schematic = True
            for sub in _immediate_subformulae(q):
                work.append(sub)
            for _, _, reduct in rewrite_positions(rs, q):
                rk = alpha_key(reduct)
                if rk not in reachable:
                    reachable[rk] = reduct
                    frontier.append(reduct)
    if truncated:
        status = "truncated-at-fuel"
    elif schematic:
        status = "infinite-schematic"
    else:
        status = "closed"
    return SubformulaSet(tuple(reps), status)
