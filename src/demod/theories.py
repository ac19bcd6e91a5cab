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

from .errors import FuelExhausted, TheoryError
from .rewriting import (
    DEFAULT_FUEL, RewriteRule, RewriteSystem,
    check_local_confluence, check_nonconfusing, check_termination_lpo,
    congruent, normalize, rewrite_positions,
)
from .syntax import (
    And, App, Atom, ForAll, Hole, Imp, Node, Proposition,
    QUANT, Signature, Var, alpha_key, apply_subst, children, is_term,
    make_signature, print_node, wellformed,
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
                w = wellformed(self.signature, side)
                if not w:
                    raise TheoryError(
                        f"rule {r.name}: ill-formed {print_node(side)}: "
                        f"{w.message}")
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
# Builtin theories, assembled from the worked examples


def _nat_sig(preds=None):
    return make_signature(
        ["nat"],
        {"0": ([], "nat"), "S": (["nat"], "nat"),
         "plus": (["nat", "nat"], "nat")},
        preds or {"P": ["nat"]})


def _elem_sig():
    consts = {c: ([], "elem") for c in "abcde"}
    consts["plus"] = (["elem", "elem"], "elem")
    return make_signature(["elem"], consts, {"P": ["elem"], "Q": ["elem"]})


def load_builtin(name: str) -> Theory:
    """The named builtin theory; raises TheoryError on unknown names."""
    if name == "empty":
        sig = make_signature(["iota"], {}, {"P": [], "Q": []})
        t = Theory("empty", sig, RewriteSystem([]))
    elif name == "def-conj":
        # P is an abbreviation for A and B
        sig = make_signature(["iota"], {}, {"A": [], "B": [], "P": []})
        rule = RewriteRule("def_P", Atom("P"), And(Atom("A"), Atom("B")))
        t = Theory("def-conj", sig, RewriteSystem([rule]))
    elif name == "assoc":
        sig = _elem_sig()
        x, y, z = (Var(n, "elem") for n in "xyz")
        rule = RewriteRule(
            "assoc",
            App("plus", (x, App("plus", (y, z)))),
            App("plus", (App("plus", (x, y)), z)))
        t = Theory("assoc", sig, RewriteSystem([rule]))
    elif name == "addition":
        sig = _nat_sig()
        x, y = Var("x", "nat"), Var("y", "nat")
        r1 = RewriteRule("add0", App("plus", (App("0"), y)), y)
        r2 = RewriteRule("addS",
                         App("plus", (App("S", (x,)), y)),
                         App("S", (App("plus", (x, y)),)))
        t = Theory("addition", sig, RewriteSystem([r1, r2]))
    elif name == "powerset":
        sig = make_signature(
            ["set"], {"pow": (["set"], "set")},
            {"in": ["set", "set"]})
        x, y, z = (Var(n, "set") for n in "xyz")
        rule = RewriteRule(
            "powerset",
            Atom("in", (x, App("pow", (y,)))),
            ForAll(z, Imp(Atom("in", (z, x)), Atom("in", (z, y)))))
        # asserted: each step strictly reduces pow-nesting
        t = Theory("powerset", sig,
                   RewriteSystem([rule], asserted_terminating=True))
    elif name == "crabbe":
        sig = make_signature(["iota"], {}, {"P": [], "Q": []})
        rule = RewriteRule("crabbe", Atom("P"), Imp(Atom("P"), Atom("Q")))
        t = Theory("crabbe", sig, RewriteSystem([rule]),
                   notes=("self-referential definition: the head predicate "
                          "occurs in its own body",
                          "known negative: cut elimination fails (a proof "
                          "of Q exists, no cut-free proof of Q does)"))
    elif name == "comm":
        sig = _elem_sig()
        x, y = Var("x", "elem"), Var("y", "elem")
        rule = RewriteRule("comm", App("plus", (x, y)), App("plus", (y, x)))
        t = Theory("comm", sig, RewriteSystem([rule]),
                   notes=("non-terminating as a rewrite system; the "
                          "congruence is decided heuristically only",))
    elif name == "p0-forall":
        sig = _nat_sig()
        x = Var("x", "nat")
        rule = RewriteRule("p0", Atom("P", (App("0"),)),
                           ForAll(x, Atom("P", (x,))))
        # asserted: the rhs contains no further P(0) redex
        t = Theory("p0-forall", sig,
                   RewriteSystem([rule], asserted_terminating=True))
    elif name == "pf-collapse":
        sig = make_signature(["iota"], {"f": (["iota"], "iota")},
                             {"P": ["iota"]})
        x = Var("x", "iota")
        rule = RewriteRule("pf", Atom("P", (App("f", (x,)),)),
                           Atom("P", (x,)))
        t = Theory("pf-collapse", sig, RewriteSystem([rule]))
    else:
        raise TheoryError(f"unknown builtin theory {name!r}")
    return t


BUILTIN_NAMES = ("empty", "def-conj", "assoc", "addition", "powerset",
                 "crabbe", "comm", "p0-forall", "pf-collapse")


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
