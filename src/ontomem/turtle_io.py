"""Turtle subset parser and canonical serializer.

The accepted subset: @prefix directives, prefixed names, absolute IRIs in
angle brackets, labeled blank nodes, string literals with ^^datatype or @lang,
integer/decimal/boolean shorthand, `a`, `;` and `,` abbreviations, `#`
comments. Collections `( ... )` and anonymous blanks `[ ... ]` are out.
Every malformed input raises TurtleParseError at the line and column of the
token at fault.

Serialization is canonical: sorted prefixes, one fully-spelled triple per
line in canonical term order, blank labels renumbered, trailing newline.
Equal (triple set, prefix map) inputs produce byte-identical output, which is
what makes TTL deltas diffable as text.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .namespaces import RDF_LANGSTRING, RDF_TYPE, XSD_BOOLEAN, XSD_DECIMAL, XSD_INTEGER, XSD_STRING
from .rdf_core import (
    BLANK,
    IRIREF,
    LANGTAG,
    STRING,
    Blank,
    Graph,
    Iri,
    Literal,
    StructuralError,
    Term,
    Triple,
    escape_literal,
    term_key,
    term_text,
    triple_key,
    unescape_literal,
)

PrefixMap = dict[str, str]


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str


class TurtleParseError(ValueError):
    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        first = diagnostics[0]
        super().__init__(f"{first.line}:{first.column}: {first.message}")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One alternative per token kind, tried in this order at each position. A
# string or IRI never spans a line, so NL is the only token that ends one.
_TOKEN_RE = re.compile(rf"""
    (?P<NL>\n)
  | (?P<SKIP>[ \t\r]+ | \#[^\n]*)
  | (?P<PREFIX_DIR>@prefix)
  | (?P<LANGTAG>{LANGTAG})
  | (?P<IRIREF>{IRIREF})
  | (?P<STRING>{STRING})
  | (?P<HATHAT>\^\^)
  | (?P<DOT>\.)
  | (?P<SEMI>;)
  | (?P<COMMA>,)
  | (?P<BLANK>{BLANK})
  | (?P<A>a(?![A-Za-z0-9_\-:]))
  | (?P<BOOL>(?:true|false)(?![A-Za-z0-9_\-:]))
  | (?P<DEC>[+-]?[0-9]*\.[0-9]+)
  | (?P<INT>[+-]?[0-9]+)
  | (?P<PNAME>(?:[A-Za-z_][A-Za-z0-9_.\-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)?)
  | (?P<BAD>.)
""", re.VERBOSE | re.DOTALL)

# What a BAD character means: a lone '@', '<' or '"' opens a token that failed.
_BAD_MESSAGES = {"@": "unsupported directive", "<": "unterminated IRI", '"': "unterminated literal"}


class _Token(NamedTuple):
    kind: str  # PREFIX_DIR IRIREF PNAME BLANK STRING LANGTAG HATHAT A BOOL INT DEC DOT SEMI COMMA EOF
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "NL":
            line, line_start = line + 1, m.end()
            continue
        if kind == "SKIP":
            continue
        col = m.start() - line_start + 1
        if kind == "BAD":
            message = _BAD_MESSAGES.get(value, f"unexpected character {value!r}")
            raise TurtleParseError([ParseDiagnostic(line, col, message)])
        if kind == "STRING":
            try:
                value = unescape_literal(value[1:-1])
            except StructuralError as e:
                raise TurtleParseError([ParseDiagnostic(line, col, str(e))]) from None
        elif kind == "IRIREF":
            value = value[1:-1]
        elif kind == "LANGTAG":
            value = value[1:]
        elif kind == "BLANK":
            value = value[2:]
        tokens.append(_Token(kind, value, line, col))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    """Reads a token list, passing each triple to `sink` as it is read."""

    def __init__(self, tokens: list[_Token], sink: Callable[[Triple], object]):
        self.tokens = tokens
        self.pos = 0
        self.prefixes: PrefixMap = {}
        self.sink = sink
        # One object per distinct term, so a graph holds each IRI string once.
        self.terms: dict[Term, Term] = {}
        # The term of each IRIREF, PNAME and BLANK token text seen since the
        # last @prefix, by kind: a name is resolved once, not at every use.
        self.named: dict[str, dict[str, Term]] = {"IRIREF": {}, "PNAME": {}, "BLANK": {}}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token):
        raise TurtleParseError([ParseDiagnostic(tok.line, tok.col, message)])

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            self.fail(f"expected {what}, found {tok.value!r}" if tok.value else f"expected {what}", tok)
        return tok

    def parse(self) -> PrefixMap:
        while self.peek().kind != "EOF":
            if self.peek().kind == "PREFIX_DIR":
                self.directive()
            else:
                self.statement()
        return self.prefixes

    def directive(self) -> None:
        self.take()  # @prefix
        name = self.expect("PNAME", "prefix label")
        label, _, local = name.value.partition(":")
        if local:
            self.fail("prefix declaration must end with ':'", name)
        iri = self.expect("IRIREF", "namespace IRI")
        self.expect("DOT", "'.'")
        self.prefixes[label] = iri.value
        for named in self.named.values():
            named.clear()

    def statement(self) -> None:
        subject = self.term("subject")
        while True:
            predicate = self.term("predicate")
            while True:
                obj = self.term("object")
                self.sink(Triple(subject, predicate, obj))
                if self.peek().kind == "COMMA":
                    self.take()
                    continue
                break
            if self.peek().kind == "SEMI":
                while self.peek().kind == "SEMI":
                    self.take()
                if self.peek().kind == "DOT":  # trailing ';' permitted
                    break
                continue
            break
        self.expect("DOT", "'.'")

    def term(self, position: str) -> Term:
        tok = self.take()
        named = self.named.get(tok.kind)
        term = named.get(tok.value) if named is not None else None
        if term is None:
            term = self.new_term(tok, position)
            if named is not None:
                named[tok.value] = term
        if position == "subject" and isinstance(term, Literal):
            self.fail("literal in subject position", tok)
        if position == "predicate" and not isinstance(term, Iri):
            self.fail("predicate must be an IRI", tok)
        return term

    def new_term(self, tok: _Token, position: str) -> Term:
        if tok.kind == "IRIREF":
            term: Term = self.iri(tok.value, tok)
        elif tok.kind == "PNAME":
            term = self.resolve_pname(tok)
        elif tok.kind == "A":
            if position != "predicate":
                self.fail("'a' keyword only valid as predicate", tok)
            term = Iri(RDF_TYPE)
        elif tok.kind == "BLANK":
            term = Blank(tok.value)
        elif tok.kind == "STRING":
            term = self.literal_tail(tok)
        elif tok.kind == "INT":
            term = Literal(tok.value, XSD_INTEGER)
        elif tok.kind == "DEC":
            term = Literal(tok.value, XSD_DECIMAL)
        elif tok.kind == "BOOL":
            term = Literal(tok.value, XSD_BOOLEAN)
        else:
            self.fail(f"expected {position} term", tok)
        return self.terms.setdefault(term, term)

    def literal_tail(self, tok: _Token) -> Literal:
        nxt = self.peek()
        if nxt.kind == "LANGTAG":
            self.take()
            return Literal(tok.value, RDF_LANGSTRING, nxt.value)
        if nxt.kind == "HATHAT":
            self.take()
            dt = self.take()
            if dt.kind == "IRIREF":
                return Literal(tok.value, self.iri(dt.value, dt).value)
            if dt.kind == "PNAME":
                return Literal(tok.value, self.resolve_pname(dt).value)
            self.fail("expected datatype IRI after '^^'", dt)
        return Literal(tok.value, XSD_STRING)

    def resolve_pname(self, tok: _Token) -> Iri:
        label, _, local = tok.value.partition(":")
        if label not in self.prefixes:
            self.fail(f"unknown prefix '{label}'", tok)
        return self.iri(self.prefixes[label] + local, tok)

    def iri(self, value: str, tok: _Token) -> Iri:
        try:
            return Iri(value)
        except StructuralError as e:
            self.fail(str(e), tok)


def parse_turtle(text: str) -> tuple[Graph, PrefixMap]:
    """Parse a Turtle-subset document; raises TurtleParseError at the first error."""
    graph = Graph()
    return graph, _Parser(_tokenize(text), graph.insert).parse()


def parse_triples(text: str) -> tuple[list[Triple], PrefixMap]:
    """`parse_turtle` without the graph: the document's triples in text
    order, repeats kept, for a reader that needs no index."""
    triples: list[Triple] = []
    return triples, _Parser(_tokenize(text), triples.append).parse()


# ---------------------------------------------------------------------------
# Canonical serializer
# ---------------------------------------------------------------------------

_LOCAL_SAFE_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-]*")


def serialize_turtle(graph: Graph, prefixes: PrefixMap) -> str:
    """Canonical text: a pure function of (triple set, prefix map)."""
    lines = [f"@prefix {label}: <{iri}> ." for label, iri in sorted(prefixes.items())]

    triples = graph.triple_set()
    blanks = ({t.subject for t in triples if isinstance(t.subject, Blank)}
              | {t.object for t in triples if isinstance(t.object, Blank)})
    if blanks:
        rename = {b: Blank(f"b{i}") for i, b in enumerate(sorted(blanks, key=term_key))}
        triples = [Triple(rename.get(t.subject, t.subject), t.predicate, rename.get(t.object, t.object))
                   for t in triples]

    if triples and lines:
        lines.append("")
    lines += [triple_line(t, prefixes) for t in sorted(triples, key=triple_key)]
    return "\n".join(lines) + "\n" if lines else ""


def triple_line(t: Triple, prefixes: PrefixMap) -> str:
    """One triple as a line of canonical Turtle, without its newline."""
    return (f"{_format(t.subject, prefixes)} {_format(t.predicate, prefixes, predicate=True)} "
            f"{_format(t.object, prefixes)} .")


def _format(term: Term, prefixes: PrefixMap, predicate: bool = False) -> str:
    """A term as canonical Turtle writes it: only IRIs and datatypes take prefixes."""
    if isinstance(term, Iri):
        if predicate and term.value == RDF_TYPE:
            return "a"
        return _format_iri(term.value, prefixes)
    if isinstance(term, Literal) and term.language is None and term.datatype != XSD_STRING:
        return f'"{escape_literal(term.lexical)}"^^{_format_iri(term.datatype, prefixes)}'
    return term_text(term)


def _format_iri(iri: str, prefixes: PrefixMap) -> str:
    best: tuple[int, str, str] | None = None  # (ns length, label, suffix)
    for label, ns in prefixes.items():
        if iri.startswith(ns):
            suffix = iri[len(ns):]
            if suffix == "" or _LOCAL_SAFE_RE.fullmatch(suffix):
                cand = (len(ns), label, suffix)
                if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
    if best is None:
        return f"<{iri}>"
    return f"{best[1]}:{best[2]}"
