"""Parsers for the concrete syntax, and the proof printer.

Formats (all line/column reported on error):

  terms / propositions   fully parenthesized prefix form, e.g.
                         (plus 0 y), (imp P Q), (forall (x : nat) (P x));
                         bare variables may be annotated  x:nat
  theory files           sort <id>. / func <id> : <sorts> -> <sort>. /
                         pred <id> : <sorts>. / rule <id>: <lhs> ~> <rhs>. /
                         assert terminating.
  proofs                 (imp_i "h" (axiom "h")), optional trailing
                         conclusion annotation  : <prop>
  sequents               h : <prop>, g : <prop> |- <prop>

Terms and propositions print with ``syntax.print_node``.  Parsing what
``print_proof`` emits gives back the printed proof.
"""

from __future__ import annotations

import re
from typing import Optional

from .errors import ParseError, RuleError, TheoryError
from .kernel import LAYOUT, Proof, Sequent
from .rewriting import RewriteRule, RewriteSystem
from .syntax import (
    App, Atom, BINARY, BOT, CONNECTIVES, Node, Proposition, QUANT, Signature,
    TOP, Term, Var, make_signature, print_node, print_prop, term_sort,
    valid_ident,
)
from .theories import Theory

_TOKEN = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<lp>\()
  | (?P<rp>\))
  | (?P<rulearrow>~>)
  | (?P<arrow>->)
  | (?P<turnstile>\|-)
  | (?P<colon>:)
  | (?P<dot>\.)
  | (?P<comma>,)
  | (?P<str>"[^"\n]*")
  | (?P<id>[A-Za-z0-9_'?+*=]+)
""", re.VERBOSE)

_CONSTANTS = {CONNECTIVES[type(c)]: c for c in (TOP, BOT)}
_CONNECTIVES = {name: c for c, name in CONNECTIVES.items() if c in BINARY}
_QUANTS = {name: c for c, name in CONNECTIVES.items() if c in QUANT}


class _Lexer:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        i = 0
        while i < len(text):
            m = _TOKEN.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {text[i]!r}", line, col)
            kind = m.lastgroup
            value = m.group()
            if kind not in ("ws", "comment"):
                self.tokens.append((kind, value, line, col))
            nl = value.count("\n")
            if nl:
                line += nl
                col = len(value) - value.rfind("\n")
            else:
                col += len(value)
            i = m.end()
        self.tokens.append(("eof", "", line, col))
        self.pos = 0

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str = ""):
        tok = self.next()
        if tok[0] != kind:
            want = what or kind
            raise ParseError(f"expected {want}, found {tok[1] or 'end of input'!r}",
                             tok[2], tok[3])
        return tok

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok[2], tok[3])

    def at_end(self) -> bool:
        return self.peek()[0] == "eof"


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.lx = _Lexer(text)
        self.sig = sig
        self.var_sorts: dict[str, str] = {}

    # -- terms -------------------------------------------------------------

    def term(self, expected: Optional[str]) -> Term:
        kind, value, line, col = self.lx.peek()
        if kind == "lp":
            self.lx.next()
            _, fn, l2, c2 = self.lx.expect("id", "a function symbol")
            if fn not in self.sig.functions:
                raise ParseError(f"unknown function {fn!r}", l2, c2)
            arg_sorts, result = self.sig.functions[fn]
            args = []   # a plain loop: one Python frame per term level
            for s in arg_sorts:
                args.append(self.term(s))
            self.lx.expect("rp", "')'")
            if expected is not None and result != expected:
                raise ParseError(
                    f"term of sort {result} where {expected} is needed",
                    line, col)
            return App(fn, tuple(args))
        if kind != "id":
            self.lx.error("expected a term")
        self.lx.next()
        if value in self.sig.functions and not self.sig.functions[value][0]:
            result = self.sig.functions[value][1]
            if expected is not None and result != expected:
                raise ParseError(
                    f"constant {value} has sort {result}, expected {expected}",
                    line, col)
            return App(value)
        # a variable, possibly annotated
        sort = None
        if self.lx.peek()[0] == "colon":
            self.lx.next()
            sort = self.lx.expect("id", "a sort")[1]
        known = self.var_sorts.get(value)
        sort = sort or expected or known
        if sort is None:
            raise ParseError(
                f"cannot infer the sort of variable {value!r} "
                f"(annotate as {value}:<sort>)", line, col)
        if expected is not None and sort != expected:
            raise ParseError(
                f"variable {value} of sort {sort} where {expected} is needed",
                line, col)
        if known is not None and known != sort:
            raise ParseError(
                f"variable {value} already used at sort {known}", line, col)
        if sort not in self.sig.sorts:
            raise ParseError(f"undeclared sort {sort!r}", line, col)
        self.var_sorts[value] = sort
        return Var(value, sort)

    # -- propositions -------------------------------------------------------

    def prop(self) -> Proposition:
        kind, value, line, col = self.lx.peek()
        if kind == "id":
            self.lx.next()
            if value in _CONSTANTS:
                return _CONSTANTS[value]
            if value in self.sig.predicates:
                if self.sig.predicates[value]:
                    raise ParseError(
                        f"predicate {value} takes arguments", line, col)
                return Atom(value)
            raise ParseError(f"unknown predicate {value!r}", line, col)
        if kind != "lp":
            self.lx.error("expected a proposition")
        self.lx.next()
        _, head, l2, c2 = self.lx.expect("id", "a connective or predicate")
        if head in _CONNECTIVES:
            a = self.prop()
            b = self.prop()
            self.lx.expect("rp", "')'")
            return _CONNECTIVES[head](a, b)
        if head in _QUANTS:
            v = self.binder()
            body = self.prop()
            self.lx.expect("rp", "')'")
            self.var_sorts.pop(v.name, None)
            return _QUANTS[head](v, body)
        if head in self.sig.predicates:
            args = []
            for s in self.sig.predicates[head]:
                args.append(self.term(s))
            self.lx.expect("rp", "')'")
            return Atom(head, tuple(args))
        raise ParseError(f"unknown predicate {head!r}", l2, c2)

    def binder(self) -> Var:
        self.lx.expect("lp", "'('")
        _, name, line, col = self.lx.expect("id", "a variable")
        self.lx.expect("colon", "':'")
        _, sort, l2, c2 = self.lx.expect("id", "a sort")
        self.lx.expect("rp", "')'")
        if sort not in self.sig.sorts:
            raise ParseError(f"undeclared sort {sort!r}", l2, c2)
        if self.var_sorts.get(name, sort) != sort:
            raise ParseError(
                f"variable {name} already used at sort {self.var_sorts[name]}",
                line, col)
        self.var_sorts[name] = sort
        return Var(name, sort)

    # -- proofs --------------------------------------------------------------

    def proof(self) -> Proof:
        self.lx.expect("lp", "'('")
        _, tag, line, col = self.lx.expect("id", "a rule tag")
        if tag not in LAYOUT:
            raise ParseError(f"unknown rule tag {tag!r}", line, col)
        fields, children = {}, []
        for f in LAYOUT[tag]:
            if isinstance(f, int):
                children.append(self.proof())
            elif f == "eigen":
                fields[f] = self.binder()
            elif f == "witness":
                fields[f] = self.term(None)
            else:
                fields[f] = self.string()
        if "eigen" in fields:
            self.var_sorts.pop(fields["eigen"].name, None)
        conclusion = None
        if self.lx.peek()[0] == "colon":
            self.lx.next()
            conclusion = self.prop()
        self.lx.expect("rp", "')'")
        return Proof(tag, tuple(children), conclusion=conclusion, **fields)

    def string(self) -> str:
        return self.lx.expect("str", "a hypothesis label")[1][1:-1]

    # -- sequents --------------------------------------------------------------

    def sequent(self) -> Sequent:
        context = []
        if self.lx.peek()[0] != "turnstile":
            while True:
                label = self.lx.expect("id", "a hypothesis label")[1]
                self.lx.expect("colon", "':'")
                context.append((label, self.prop()))
                if self.lx.peek()[0] == "comma":
                    self.lx.next()
                    continue
                break
        self.lx.expect("turnstile", "'|-'")
        conclusion = self.prop()
        return Sequent(tuple(context), conclusion)


def parse_prop(text: str, sig: Signature) -> Proposition:
    p = _Parser(text, sig)
    a = p.prop()
    p.lx.expect("eof", "end of input")
    return a


def parse_node(text: str, sig: Signature) -> Node:
    """A term or a proposition, disambiguated by its head symbol."""
    p = _Parser(text, sig)
    kind, value, _, _ = p.lx.peek()
    if kind == "lp":
        head = p.lx.peek(1)[1]
    else:
        head = value
    if head in sig.functions or (kind == "id"
                                 and head not in sig.predicates
                                 and head not in _CONSTANTS):
        x = p.term(None)
    else:
        x = p.prop()
    p.lx.expect("eof", "end of input")
    return x


def parse_proof(text: str, sig: Signature) -> Proof:
    p = _Parser(text, sig)
    pr = p.proof()
    p.lx.expect("eof", "end of input")
    return pr


def parse_sequent(text: str, sig: Signature) -> Sequent:
    p = _Parser(text, sig)
    s = p.sequent()
    p.lx.expect("eof", "end of input")
    return s


# ---------------------------------------------------------------------------
# Theory files


def parse_theory(text: str, name: str = "file") -> Theory:
    lx = _Lexer(text)
    sorts: list[str] = []
    functions: dict = {}
    predicates: dict = {}
    rules: list[RewriteRule] = []
    rule_names: set[str] = set()
    asserted = False
    sig = None   # the signature declared so far, built at the next rule
    uses: list = []   # (symbol, sort token) for each sort a symbol names

    while not lx.at_end():
        _, word, line, col = lx.expect("id", "a declaration")
        if word in ("sort", "func", "pred"):
            sig = None
        if word == "sort":
            s = lx.expect("id", "a sort name")[1]
            sorts.append(s)
        elif word == "func":
            fn = _new_symbol(lx, "a function name", functions, predicates)
            lx.expect("colon", "':'")
            toks = []
            while lx.peek()[0] == "id":
                toks.append(lx.next())
            if lx.peek()[0] == "arrow":
                lx.next()
                toks.append(lx.expect("id", "a result sort"))
            elif len(toks) != 1:
                lx.error("constant declarations take a single sort")
            *args, result = [t[1] for t in toks]
            functions[fn] = (args, result)
            uses.extend((f"function {fn}", t) for t in toks)
        elif word == "pred":
            pr = _new_symbol(lx, "a predicate name", functions, predicates)
            toks = []
            if lx.peek()[0] == "colon":
                lx.next()
                while lx.peek()[0] == "id":
                    toks.append(lx.next())
            predicates[pr] = [t[1] for t in toks]
            uses.extend((f"predicate {pr}", t) for t in toks)
        elif word == "rule":
            _, rname, nline, ncol = lx.expect("id", "a rule name")
            if rname in rule_names:
                raise ParseError(f"rule {rname!r} is already declared",
                                 nline, ncol)
            rule_names.add(rname)
            lx.expect("colon", "':'")
            if sig is None:
                sig = _signature(sorts, functions, predicates, uses)
            sub = _Parser("", sig)
            sub.lx = lx
            lhs = _rule_side(sub, None)
            lx.expect("rulearrow", "'~>'")
            if isinstance(lhs, App):
                rhs: Node = sub.term(term_sort(sub.sig, lhs))
            elif isinstance(lhs, Atom):
                rhs = sub.prop()
            else:
                raise ParseError(
                    "rule lhs must be a non-variable term or an atom",
                    line, col)
            try:
                rules.append(RewriteRule(rname, lhs, rhs))
            except RuleError as e:
                raise ParseError(str(e), line, col)
        elif word == "assert":
            kw = lx.expect("id", "'terminating'")
            if kw[1] != "terminating":
                raise ParseError("only 'assert terminating.' is supported",
                                 kw[2], kw[3])
            asserted = True
        else:
            raise ParseError(f"unknown declaration {word!r}", line, col)
        lx.expect("dot", "'.'")

    rs = RewriteSystem(rules, asserted_terminating=asserted)
    try:
        return Theory(
            name, sig or _signature(sorts, functions, predicates, uses), rs)
    except TheoryError as e:
        raise ParseError(str(e), 1, 1)


def _new_symbol(lx: _Lexer, what: str, functions, predicates) -> str:
    """The name a func or pred declaration declares; functions and
    predicates share one namespace, and a name is declared once."""
    _, name, line, col = lx.expect("id", what)
    if not valid_ident(name):
        raise ParseError(f"illegal or reserved identifier {name!r}", line, col)
    if name in functions or name in predicates:
        raise ParseError(f"symbol {name!r} is already declared", line, col)
    return name


def _signature(sorts, functions, predicates, uses) -> Signature:
    """The signature declared so far; a sort named but not declared is
    refused where it is named."""
    for symbol, (_, sort, line, col) in uses:
        if sort not in sorts:
            raise ParseError(f"{symbol}: undeclared sort {sort!r}", line, col)
    return make_signature(sorts, functions, predicates)


def _rule_side(p: _Parser, expected) -> Node:
    kind, value, line, col = p.lx.peek()
    head = p.lx.peek(1)[1] if kind == "lp" else value
    if head in p.sig.predicates:
        return p.prop()
    if head in p.sig.functions:
        return p.term(expected)
    raise ParseError(f"unknown symbol {head!r} in rule", line, col)


# ---------------------------------------------------------------------------
# Printers


def print_proof(p: Proof) -> str:
    parts = [p.tag]
    for f in LAYOUT[p.tag]:
        if isinstance(f, int):
            parts.append(print_proof(p.children[f]))
        elif f == "eigen":
            parts.append(f"({p.eigen.name} : {p.eigen.sort})")
        elif f == "witness":
            parts.append(_print_side(p.witness))
        else:
            parts.append(f'"{getattr(p, f)}"')
    if p.conclusion is not None:
        parts.append(": " + print_prop(p.conclusion))
    return "(" + " ".join(parts) + ")"


def _print_side(x: Node) -> str:
    """A witness; a bare variable carries its sort."""
    if isinstance(x, Var):
        return f"{x.name}:{x.sort}"
    return print_node(x)
