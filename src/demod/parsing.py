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

A text is split by one ``findall`` of ``_TOKEN``, and a token's kind is
read off its first character.  The parser reads the tokens by index and
keeps no position: a token's line and column are worked out from the
text only when a ``ParseError`` names them.  Terms and propositions
print with ``syntax.print_node``; parsing what ``print_proof`` emits
gives back the printed proof.
"""

from __future__ import annotations

import re
from typing import NoReturn, Optional

from .errors import ParseError, RuleError, TheoryError
from .kernel import LAYOUT, Proof, Sequent
from .rewriting import RewriteRule, RewriteSystem
from .syntax import (
    App, Atom, BINARY, BOT, CONNECTIVES, Node, Proposition, QUANT, Signature,
    TOP, Term, Var, make_signature, print_node, print_prop, term_sort,
    valid_ident,
)
from .theories import Theory

# one alternative per token class; whitespace and comments are pieces too,
# so the pieces of a text cover it unless some character starts no token
_TOKEN = re.compile(r"""
    [ \t\r\n]+ | \#[^\n]* | \( | \) | ~> | -> | \|- | : | \. | , | "[^"\n]*"
  | [A-Za-z0-9_'?+*=]+
""", re.VERBOSE)

# a token's kind by its first character; "" is the end of input, and
# every other token is an identifier
_KINDS = {"(": "lp", ")": "rp", "~": "rulearrow", "-": "arrow",
          "|": "turnstile", ":": "colon", ".": "dot", ",": "comma",
          '"': "str", "": "eof"}

_CONSTANTS = {CONNECTIVES[type(c)]: c for c in (TOP, BOT)}
_CONNECTIVES = {name: c for c, name in CONNECTIVES.items() if c in BINARY}
_QUANTS = {name: c for c, name in CONNECTIVES.items() if c in QUANT}


def _kind(tok: str) -> str:
    return _KINDS.get(tok[:1], "id")


def _lex(text: str) -> list[str]:
    """The tokens of `text`, then "" for the end of input."""
    pieces = _TOKEN.findall(text)
    if sum(map(len, pieces)) != len(text):
        offset = 0   # the first character that no piece covers
        for m in _TOKEN.finditer(text):
            if m.start() != offset:
                break
            offset = m.end()
        raise ParseError(f"unexpected character {text[offset]!r}",
                         *_location(text, offset))
    toks = list(filter(str.strip, pieces))   # whitespace strips to ""
    if "#" in text:
        toks = [t for t in toks if t[0] != "#"]
    toks.append("")
    return toks


def _offsets(text: str) -> list[int]:
    """Where each token of `text` starts, then where the text ends."""
    return [m.start() for m in _TOKEN.finditer(text)
            if m.group()[0] not in " \t\r\n#"] + [len(text)]


def _location(text: str, offset: int) -> tuple[int, int]:
    """Line and column of an offset, from 1; any character is one column."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


class _Parser:
    """Reads the tokens of one text by index."""

    def __init__(self, text: str, sig: Optional[Signature]):
        self.text = text
        self.toks = _lex(text)
        self.i = 0   # the next token
        self.sig = sig
        self.var_sorts: dict[str, str] = {}

    def fail(self, message: str, at: int) -> NoReturn:
        """Raise a ParseError located at token `at`."""
        raise ParseError(message,
                         *_location(self.text, _offsets(self.text)[at]))

    def expected(self, what: str, at: int) -> NoReturn:
        tok = self.toks[at]
        self.fail(f"expected {what}, found {tok or 'end of input'!r}", at)

    def expect(self, kind: str, what: str) -> str:
        i = self.i
        tok = self.toks[i]
        if _KINDS.get(tok[:1], "id") != kind:   # _kind, inlined
            self.expected(what, i)
        self.i = i + 1
        return tok

    # -- terms -------------------------------------------------------------

    def term(self, expected: Optional[str]) -> Term:
        toks, i = self.toks, self.i
        tok = toks[i]
        if tok == "(":
            fn = toks[i + 1]
            entry = self.sig.functions.get(fn)   # every key is an identifier
            if entry is None:
                if _kind(fn) != "id":
                    self.expected("a function symbol", i + 1)
                self.fail(f"unknown function {fn!r}", i + 1)
            self.i = i + 2
            arg_sorts, result = entry
            args = []   # a plain loop: one Python frame per term level
            for s in arg_sorts:
                args.append(self.term(s))
            if toks[self.i] != ")":
                self.expected("')'", self.i)
            self.i += 1
            if expected is not None and result != expected:
                self.fail(f"term of sort {result} where {expected} is needed",
                          i)
            return App(fn, tuple(args))
        entry = self.sig.functions.get(tok)
        if entry is not None and not entry[0]:
            self.i = i + 1
            result = entry[1]
            if expected is not None and result != expected:
                self.fail(f"constant {tok} has sort {result}, "
                          f"expected {expected}", i)
            return App(tok)
        if _kind(tok) != "id":
            self.fail("expected a term", i)
        # a variable, possibly annotated
        self.i = i + 1
        sort = None
        if toks[i + 1] == ":":
            self.i = i + 2
            sort = self.expect("id", "a sort")
        known = self.var_sorts.get(tok)
        sort = sort or expected or known
        if sort is None:
            self.fail(f"cannot infer the sort of variable {tok!r} "
                      f"(annotate as {tok}:<sort>)", i)
        if expected is not None and sort != expected:
            self.fail(
                f"variable {tok} of sort {sort} where {expected} is needed", i)
        if known is not None and known != sort:
            self.fail(f"variable {tok} already used at sort {known}", i)
        if sort not in self.sig.sorts:
            self.fail(f"undeclared sort {sort!r}", i)
        self.var_sorts[tok] = sort
        return Var(tok, sort)

    # -- propositions -------------------------------------------------------

    def prop(self) -> Proposition:
        toks, i = self.toks, self.i
        tok = toks[i]
        if tok != "(":
            if _kind(tok) != "id":
                self.fail("expected a proposition", i)
            self.i = i + 1
            if tok in _CONSTANTS:
                return _CONSTANTS[tok]
            if tok in self.sig.predicates:
                if self.sig.predicates[tok]:
                    self.fail(f"predicate {tok} takes arguments", i)
                return Atom(tok)
            self.fail(f"unknown predicate {tok!r}", i)
        head = toks[i + 1]
        self.i = i + 2
        if head in _CONNECTIVES:
            a = self.prop()
            b = self.prop()
            self.expect("rp", "')'")
            return _CONNECTIVES[head](a, b)
        if head in _QUANTS:
            v = self.binder()
            body = self.prop()
            self.expect("rp", "')'")
            self.var_sorts.pop(v.name, None)
            return _QUANTS[head](v, body)
        if head in self.sig.predicates:
            args = []
            for s in self.sig.predicates[head]:
                args.append(self.term(s))
            self.expect("rp", "')'")
            return Atom(head, tuple(args))
        if _kind(head) != "id":
            self.expected("a connective or predicate", i + 1)
        self.fail(f"unknown predicate {head!r}", i + 1)

    def binder(self) -> Var:
        self.expect("lp", "'('")
        at = self.i
        name = self.expect("id", "a variable")
        self.expect("colon", "':'")
        sort = self.expect("id", "a sort")
        self.expect("rp", "')'")
        if sort not in self.sig.sorts:
            self.fail(f"undeclared sort {sort!r}", at + 2)
        if self.var_sorts.get(name, sort) != sort:
            self.fail(
                f"variable {name} already used at sort {self.var_sorts[name]}",
                at)
        self.var_sorts[name] = sort
        return Var(name, sort)

    # -- proofs --------------------------------------------------------------

    def proof(self) -> Proof:
        self.expect("lp", "'('")
        at = self.i
        tag = self.expect("id", "a rule tag")
        if tag not in LAYOUT:
            self.fail(f"unknown rule tag {tag!r}", at)
        fields, children = {}, []
        for f in LAYOUT[tag]:
            if isinstance(f, int):
                children.append(self.proof())
            elif f == "eigen":
                fields[f] = self.binder()
            elif f == "witness":
                fields[f] = self.term(None)
            else:
                fields[f] = self.expect("str", "a hypothesis label")[1:-1]
        if "eigen" in fields:
            self.var_sorts.pop(fields["eigen"].name, None)
        conclusion = None
        if self.toks[self.i] == ":":
            self.i += 1
            conclusion = self.prop()
        self.expect("rp", "')'")
        return Proof(tag, tuple(children), conclusion=conclusion, **fields)

    # -- sequents --------------------------------------------------------------

    def sequent(self) -> Sequent:
        context = []
        if self.toks[self.i] != "|-":
            while True:
                label = self.expect("id", "a hypothesis label")
                self.expect("colon", "':'")
                context.append((label, self.prop()))
                if self.toks[self.i] != ",":
                    break
                self.i += 1
        self.expect("turnstile", "'|-'")
        conclusion = self.prop()
        return Sequent(tuple(context), conclusion)


def parse_prop(text: str, sig: Signature) -> Proposition:
    p = _Parser(text, sig)
    a = p.prop()
    p.expect("eof", "end of input")
    return a


def parse_node(text: str, sig: Signature) -> Node:
    """A term or a proposition, disambiguated by its head symbol."""
    p = _Parser(text, sig)
    tok = p.toks[0]
    head = p.toks[1] if tok == "(" else tok
    if head in sig.functions or (_kind(tok) == "id"
                                 and head not in sig.predicates
                                 and head not in _CONSTANTS):
        x = p.term(None)
    else:
        x = p.prop()
    p.expect("eof", "end of input")
    return x


def parse_proof(text: str, sig: Signature) -> Proof:
    p = _Parser(text, sig)
    pr = p.proof()
    p.expect("eof", "end of input")
    return pr


def parse_sequent(text: str, sig: Signature) -> Sequent:
    p = _Parser(text, sig)
    s = p.sequent()
    p.expect("eof", "end of input")
    return s


# ---------------------------------------------------------------------------
# Theory files


def parse_theory(text: str, name: str = "file") -> Theory:
    p = _Parser(text, None)   # its signature: the one declared so far
    toks = p.toks
    sorts: list[str] = []
    functions: dict = {}
    predicates: dict = {}
    rules: list[RewriteRule] = []
    rule_names: set[str] = set()
    asserted = False
    sig = None   # the signature declared so far, built at the next rule
    uses: list = []   # (symbol, sort token index) for each sort it names

    while toks[p.i]:
        at = p.i
        word = p.expect("id", "a declaration")
        if word in ("sort", "func", "pred"):
            sig = None
        if word == "sort":
            sorts.append(p.expect("id", "a sort name"))
        elif word == "func":
            fn = _new_symbol(p, "a function name", functions, predicates)
            p.expect("colon", "':'")
            named = []
            while _kind(toks[p.i]) == "id":
                named.append(p.i)
                p.i += 1
            if toks[p.i] == "->":
                p.i += 1
                named.append(p.i)
                p.expect("id", "a result sort")
            elif len(named) != 1:
                p.fail("constant declarations take a single sort", p.i)
            *args, result = [toks[j] for j in named]
            functions[fn] = (args, result)
            uses.extend((f"function {fn}", j) for j in named)
        elif word == "pred":
            pr = _new_symbol(p, "a predicate name", functions, predicates)
            named = []
            if toks[p.i] == ":":
                p.i += 1
                while _kind(toks[p.i]) == "id":
                    named.append(p.i)
                    p.i += 1
            predicates[pr] = [toks[j] for j in named]
            uses.extend((f"predicate {pr}", j) for j in named)
        elif word == "rule":
            rname = p.expect("id", "a rule name")
            if rname in rule_names:
                p.fail(f"rule {rname!r} is already declared", at + 1)
            rule_names.add(rname)
            p.expect("colon", "':'")
            if sig is None:
                sig = p.sig = _signature(p, sorts, functions, predicates, uses)
            p.var_sorts = {}   # a rule's variables are its own
            lhs = _rule_side(p, None)
            p.expect("rulearrow", "'~>'")
            if isinstance(lhs, App):
                rhs: Node = p.term(term_sort(sig, lhs))
            elif isinstance(lhs, Atom):
                rhs = p.prop()
            else:
                p.fail("rule lhs must be a non-variable term or an atom", at)
            try:
                rules.append(RewriteRule(rname, lhs, rhs))
            except RuleError as e:
                p.fail(str(e), at)
        elif word == "assert":
            if p.expect("id", "'terminating'") != "terminating":
                p.fail("only 'assert terminating.' is supported", at + 1)
            asserted = True
        else:
            p.fail(f"unknown declaration {word!r}", at)
        p.expect("dot", "'.'")

    rs = RewriteSystem(rules, asserted_terminating=asserted)
    try:
        return Theory(
            name, sig or _signature(p, sorts, functions, predicates, uses), rs)
    except TheoryError as e:
        raise ParseError(str(e), 1, 1)


def _new_symbol(p: _Parser, what: str, functions, predicates) -> str:
    """The name a func or pred declaration declares; functions and
    predicates share one namespace, and a name is declared once."""
    at = p.i
    name = p.expect("id", what)
    if not valid_ident(name):
        p.fail(f"illegal or reserved identifier {name!r}", at)
    if name in functions or name in predicates:
        p.fail(f"symbol {name!r} is already declared", at)
    return name


def _signature(p: _Parser, sorts, functions, predicates, uses) -> Signature:
    """The signature declared so far; a sort named but not declared is
    refused where it is named."""
    for symbol, at in uses:
        if p.toks[at] not in sorts:
            p.fail(f"{symbol}: undeclared sort {p.toks[at]!r}", at)
    return make_signature(sorts, functions, predicates)


def _rule_side(p: _Parser, expected) -> Node:
    tok = p.toks[p.i]
    head = p.toks[p.i + 1] if tok == "(" else tok
    if head in p.sig.predicates:
        return p.prop()
    if head in p.sig.functions:
        return p.term(expected)
    p.fail(f"unknown symbol {head!r} in rule", p.i)


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
