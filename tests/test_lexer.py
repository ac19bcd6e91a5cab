"""The lexer against the one it replaced, and located parse errors.

``reference_tokens`` is how demod read a text before it split each text
with one ``findall``: one regex match per piece, with the line and
column of every token tracked as it went.  ``parsing._lex`` keeps no
position; ``parsing._offsets`` and ``parsing._location`` work one out
when an error names it.  On every input both must give the same kinds
and values, each token (the end of input too) at the reference's line
and column, or the same ``ParseError`` at the same place.  The inputs
are the corpus files, the inputs of pass 0 of the three benchmark
workloads, the malformed inputs below, and byte-level mutations of all
of them.

``MALFORMED`` lists inputs to the four parsers with the exact message
each error printed before the change, location included.
"""

import contextlib
import functools
import pathlib
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from demod import ParseError
from demod import parsing
from demod.parsing import (
    parse_node, parse_proof, parse_prop, parse_sequent, parse_theory,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

REFERENCE_TOKEN = re.compile(r"""
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


def reference_tokens(text):
    """(kind, value, line, column) of each token, then of the end."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        m = REFERENCE_TOKEN.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, value, line, col))
        nl = value.count("\n")
        if nl:
            line += nl
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        i = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def tokens(text):
    """The same, from the lexer and the error-path locator."""
    toks, offsets = parsing._lex(text), parsing._offsets(text)
    assert len(toks) == len(offsets)
    return [(parsing._kind(t), t, *parsing._location(text, o))
            for t, o in zip(toks, offsets)]


def outcome(lex, text):
    try:
        return lex(text)
    except ParseError as e:
        return ("error", str(e), e.line, e.col)


@functools.cache
def inputs() -> tuple:
    """The corpus files, the files and argv strings of pass 0 of seed 1
    of each benchmark workload, and the malformed inputs below."""
    texts = [p.read_text() for p in sorted((ROOT / "corpus").iterdir())]
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    # build_pass names its files relative to the root
    with tempfile.TemporaryDirectory() as d, contextlib.chdir(ROOT):
        for workload in ("search", "narrow", "check"):
            directory = pathlib.Path(d, workload)
            jobs = run.build_pass(workload, 1, 0, str(directory))
            texts += [p.read_text() for p in sorted(directory.iterdir())]
            texts += [a for job in jobs for a in job.argv]
    texts += [text for _, text, _ in MALFORMED]
    return tuple(dict.fromkeys(texts))


def test_inputs_cover_every_workload_and_kind():
    # every token kind, comments, and characters that start no token
    # (as in the argv flag "--depth")
    texts = inputs()
    assert len(texts) > 300
    seen = [outcome(reference_tokens, text) for text in texts]
    kinds = {tok[0] for toks in seen if toks[0] != "error" for tok in toks}
    assert kinds == {"lp", "rp", "rulearrow", "arrow", "turnstile", "colon",
                     "dot", "comma", "str", "id", "eof"}
    assert any("#" in t for t in texts)
    assert sum(toks[0] == "error" for toks in seen) > 10


def test_agrees_on_every_input():
    for text in inputs():
        assert outcome(tokens, text) == outcome(reference_tokens, text), text


# the token characters, the characters that only some tokens hold, and
# one character that no token accepts
ALPHABET = "()~>-|:., \nxS0_'?+*=" + "\r\t#\"" + "@"
EDIT = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 10**6),
              st.sampled_from(ALPHABET)),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 8)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.just(0)))


def mutate(text, edits):
    for op, at, arg in edits:
        at %= len(text) + 1
        if op == "insert":
            text = text[:at] + arg + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + arg:]
        else:
            text = text[:at]
    return text


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.integers(0, 10**6), st.lists(EDIT, min_size=1, max_size=4))
def test_agrees_on_mutated_inputs(pick, edits):
    texts = inputs()
    text = mutate(texts[pick % len(texts)], edits)
    assert outcome(tokens, text) == outcome(reference_tokens, text)


@pytest.mark.parametrize("text, where", [
    ("", (1, 1)),
    ("(S 0)  \n\t ", (2, 3)),
    ("(S 0)\r\n# a final comment", (2, 18)),
    ("(S 0) # no newline", (1, 19)),
])
def test_end_of_input_after_whitespace_or_comment(text, where):
    assert tokens(text)[-1] == ("eof", "", *where)
    assert reference_tokens(text)[-1] == ("eof", "", *where)


# (parser, text, the error the parser printed before the change)
MALFORMED = [
    ("theory", "sort nat.\nfunc f : nat -> wat.\nfunc c : nat.\n"
               "rule r: (f c) ~> c.\n",
     "2:17: function f: undeclared sort 'wat'"),
    ("theory", "sort nat.\npred Q : nat wat.\n",
     "2:14: predicate Q: undeclared sort 'wat'"),
    ("theory", "sort i.\r\nfunc c : i.\r\n\trule r: c ~> (g c).\r\n",
     "3:16: unknown function 'g'"),
    ("theory", "# a comment\nsort i. # trailing\nwat i.\n",
     "3:1: unknown declaration 'wat'"),
    ("theory", "sort i.\nfunc c : i",
     "2:11: expected '.', found 'end of input'"),
    ("theory", "sort i.\nfunc c : i.\nrule r: c ~> c.\nrule r: c ~> c.\n",
     "4:6: rule 'r' is already declared"),
    ("theory", "sort i.\nfunc f : i i.\n",
     "2:13: constant declarations take a single sort"),
    ("theory", "assert finite.\n",
     "1:8: only 'assert terminating.' is supported"),
    ("theory", "sort i.\nfunc c : i. $\n",
     "2:13: unexpected character '$'"),
    ("theory", "sort i.\nfunc c : i.\nrule r: c ~ c.\n",
     "3:11: unexpected character '~'"),
    ("theory", "sort i.\nfunc c : i.\nrule r: x:i ~> c.\n",
     "3:9: unknown symbol 'x' in rule"),
    ("theory", "sort i.\nfunc c : i.\nfunc d : i.\nrule r: c ~> x.\n",
     "4:1: rule r: rhs has extra variables x"),
    ("prop", "(and (P 0) (P x:other))",
     "1:15: variable x of sort other where nat is needed"),
    ("prop", "(P (plus 0))",
     "1:11: expected a term"),
    ("prop", "(forall (x : nat) (P x)",
     "1:24: expected ')', found 'end of input'"),
    ("prop", "\t(imp (P 0)\r\n  (Q 0))",
     "2:4: unknown predicate 'Q'"),
    ("prop", "# lead\n(and (P 0) ())",
     "2:13: expected a connective or predicate, found ')'"),
    ("node", "(S (S 0)) (S 0)",
     "1:11: expected end of input, found '('"),
    ("node", "x",
     "1:1: cannot infer the sort of variable 'x' (annotate as x:<sort>)"),
    ("node", "(S 0) \n  # done\n  )",
     "3:3: expected end of input, found ')'"),
    ("node", "(S 0 \n# no closing paren",
     "2:19: expected ')', found 'end of input'"),
    ("proof", '(imp_i "h" (frob "h"))',
     "1:13: unknown rule tag 'frob'"),
    ("proof", "(forall_i (y : int) (top_i))",
     "1:16: undeclared sort 'int'"),
    ("proof", '(imp_i h (axiom "h"))',
     "1:8: expected a hypothesis label, found 'h'"),
    ("proof", '(axiom "h)',
     "1:8: unexpected character '\"'"),
    ("proof", "(top_i : (P 0 0))",
     "1:15: expected ')', found '0'"),
    ("sequent", "h : (P 0), |- (P 0)",
     "1:12: expected a hypothesis label, found '|-'"),
    ("sequent", "h : (P 0) (P 0)",
     "1:11: expected '|-', found '('"),
    ("sequent", "# goal\r\nh : (P 0)\r\n",
     "3:1: expected '|-', found 'end of input'"),
    ("sequent", "h : (P x:nat), g : (P x:bool) |- top",
     "1:23: variable x of sort bool where nat is needed"),
]


@pytest.mark.parametrize("parser, text, message", MALFORMED)
def test_malformed_input_message(addition, parser, text, message):
    sig = addition.signature
    parse = {"theory": parse_theory,
             "prop": lambda t: parse_prop(t, sig),
             "node": lambda t: parse_node(t, sig),
             "proof": lambda t: parse_proof(t, sig),
             "sequent": lambda t: parse_sequent(t, sig)}[parser]
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message
