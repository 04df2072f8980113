"""Turtle subset parser and canonical serializer.

The accepted subset: @prefix directives, prefixed names, absolute IRIs in
angle brackets, labeled blank nodes, string literals with ^^datatype or @lang,
integer/decimal/boolean shorthand, `a`, `;` and `,` abbreviations, `#`
comments. Collections `( ... )` and anonymous blanks `[ ... ]` are out. An
`@prefix` directly after a closing quote is that literal's language tag.
Every malformed input raises TurtleParseError at the line and column of the
token at fault; it and sparql's QueryParseError share one ParseError body.
The token parser and sparql's query parser share one scanner (`scan`) and one
token cursor (`TokenCursor`), each with its own token table and grammar; a
Turtle string is decoded when it is tokenized.

`parse_triples` reads a document in the form this module writes line by
line: every line is empty, a `#` comment, an `@prefix p: <iri> .` directive
or one single-spaced `S P O .` statement, which is N-Triples with prefixed
names, and each distinct term text on it is resolved once. Every other
document, such as a hand-written one, and one in which the line reader
meets an error, is read from the start by the token parser, which reads the
line-shaped documents the same way and is the only source of diagnostics.
`parse_turtle` is `parse_triples` inserted into a Graph.

Serialization is canonical: sorted prefixes, one fully-spelled triple per
line in canonical term order, blank labels renumbered, trailing newline.
Equal (triple set, prefix map) inputs produce byte-identical output, which is
what makes TTL deltas diffable as text. `triple_lines` formats each distinct
term once per call, however many lines name it.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import NamedTuple, NoReturn

from .namespaces import RDF_LANGSTRING, RDF_TYPE, XSD_BOOLEAN, XSD_DECIMAL, XSD_INTEGER, XSD_STRING
from .rdf_core import (
    BLANK,
    IRIREF,
    LANGTAG,
    PN_PREFIX,
    PNAME,
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


class ParseError(ValueError):
    """A malformed document, reported at the line and column of its first fault."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        first = diagnostics[0]
        super().__init__(f"{first.line}:{first.column}: {first.message}")


class TurtleParseError(ParseError):
    pass


# ---------------------------------------------------------------------------
# Scanner and token cursor, which sparql's query parser shares
# ---------------------------------------------------------------------------

_A = r"a(?![A-Za-z0-9_\-:])"

# One alternative per token kind, tried in this order at each position. A
# string or IRI never spans a line, so NL is the only token that ends one.
# Right after a closing quote, `@prefix…` is a language tag.
_TOKEN_RE = re.compile(rf"""
    (?P<NL>\n)
  | (?P<SKIP>[ \t\r]+ | \#[^\n]*)
  | (?P<PREFIX_DIR>(?<!")@prefix)
  | (?P<LANGTAG>{LANGTAG})
  | (?P<IRIREF>{IRIREF})
  | (?P<STRING>{STRING})
  | (?P<HATHAT>\^\^)
  | (?P<DOT>\.)
  | (?P<SEMI>;)
  | (?P<COMMA>,)
  | (?P<BLANK>{BLANK})
  | (?P<A>{_A})
  | (?P<BOOL>(?:true|false)(?![A-Za-z0-9_\-:]))
  | (?P<DEC>[+-]?[0-9]*\.[0-9]+)
  | (?P<INT>[+-]?[0-9]+)
  | (?P<PNAME>{PNAME})
  | (?P<BAD>.)
""", re.VERBOSE | re.DOTALL)

# What a BAD character means: a lone '@', '<' or '"' opens a token that failed.
_BAD_MESSAGES = {"@": "unsupported directive", "<": "unterminated IRI", '"': "unterminated literal"}


def _bad(char: str) -> NoReturn:
    raise StructuralError(_BAD_MESSAGES.get(char, f"unexpected character {char!r}"))


# Each token's value as its kind reads it: a string is decoded when it is
# tokenized, and the other kinds lose their delimiters.
_READERS: dict[str, Callable[[str], str]] = {
    "BAD": _bad,
    "STRING": lambda text: unescape_literal(text[1:-1]),
    "IRIREF": lambda text: text[1:-1],
    "LANGTAG": lambda text: text[1:],
    "BLANK": lambda text: text[2:],
}


class Token(NamedTuple):
    kind: str  # a group name of the token table, or EOF
    text: str  # as its kind's reader reads it, else as written
    line: int
    col: int


def scan(table: re.Pattern[str], text: str, error: type[ParseError],
         readers: dict[str, Callable[[str], str]]) -> list[Token]:
    """`text` as the tokens of `table`'s named alternatives, then EOF. NL
    counts lines and SKIP is dropped; a kind in `readers` takes its reader's
    value, and a reader's StructuralError raises `error` at the token."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in table.finditer(text):
        kind = m.lastgroup
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind != "SKIP":
            col, value = m.start() - line_start + 1, m.group()
            if kind in readers:
                try:
                    value = readers[kind](value)
                except StructuralError as e:
                    raise error([ParseDiagnostic(line, col, str(e))]) from None
            tokens.append(Token(kind, value, line, col))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


def _tokenize(text: str) -> list[Token]:
    return scan(_TOKEN_RE, text, TurtleParseError, _READERS)


class TokenCursor:
    """A parser's place in a token list, and the jobs the Turtle and SPARQL
    parsers share: failing at a token with `error`, and reading an IRI at a
    token, a prefixed name through `prefixes` included."""

    error: type[ParseError] = ParseError

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.prefixes: PrefixMap = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None, past: bool = False):
        """Raise at `tok` (the next token by default), or just past it."""
        tok = tok or self.peek()
        col = tok.col + len(tok.text) if past else tok.col
        raise self.error([ParseDiagnostic(tok.line, col, message)])

    def iri(self, value: str, tok: Token) -> Iri:
        try:
            return Iri(value)
        except StructuralError as e:
            self.fail(str(e), tok)

    def pname(self, tok: Token, past: bool = False) -> Iri:
        """A prefixed name's IRI; an unknown prefix fails at the token or just past it."""
        label, _, local = tok.text.partition(":")
        if label not in self.prefixes:
            self.fail(f"unknown prefix '{label}'", tok, past)
        return self.iri(self.prefixes[label] + local, tok)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(TokenCursor):
    """Reads a token list, passing each triple to `sink` as it is read."""

    error = TurtleParseError

    def __init__(self, tokens: list[Token], sink: Callable[[Triple], object]):
        super().__init__(tokens)
        self.sink = sink

    def expect(self, kind: str, what: str) -> Token:
        tok = self.take()
        if tok.kind != kind:
            self.fail(f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}", tok)
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
        label, _, local = name.text.partition(":")
        if local:
            self.fail("prefix declaration must end with ':'", name)
        iri = self.expect("IRIREF", "namespace IRI")
        self.expect("DOT", "'.'")
        self.prefixes[label] = iri.text

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
        if tok.kind == "IRIREF":
            term: Term = self.iri(tok.text, tok)
        elif tok.kind == "PNAME":
            term = self.pname(tok)
        elif tok.kind == "A":
            if position != "predicate":
                self.fail("'a' keyword only valid as predicate", tok)
            term = Iri(RDF_TYPE)
        elif tok.kind == "BLANK":
            term = Blank(tok.text)
        elif tok.kind == "STRING":
            term = self.literal_tail(tok)
        elif tok.kind == "INT":
            term = Literal(tok.text, XSD_INTEGER)
        elif tok.kind == "DEC":
            term = Literal(tok.text, XSD_DECIMAL)
        elif tok.kind == "BOOL":
            term = Literal(tok.text, XSD_BOOLEAN)
        else:
            self.fail(f"expected {position} term", tok)
        if position == "subject" and isinstance(term, Literal):
            self.fail("literal in subject position", tok)
        if position == "predicate" and not isinstance(term, Iri):
            self.fail("predicate must be an IRI", tok)
        return term

    def literal_tail(self, tok: Token) -> Literal:
        nxt = self.peek()
        if nxt.kind == "LANGTAG":
            self.take()
            return Literal(tok.text, RDF_LANGSTRING, nxt.text)
        if nxt.kind == "HATHAT":
            self.take()
            dt = self.take()
            if dt.kind == "IRIREF":
                return Literal(tok.text, self.iri(dt.text, dt).value)
            if dt.kind == "PNAME":
                return Literal(tok.text, self.pname(dt).value)
            self.fail("expected datatype IRI after '^^'", dt)
        return Literal(tok.text, XSD_STRING)


# ---------------------------------------------------------------------------
# Line reader
# ---------------------------------------------------------------------------

# The lines canonical Turtle writes, each term spelt as the token that
# _TOKEN_RE reads at the same place: a PNAME never starts where a BLANK
# matches. Terms are single-spaced; any other spacing is another shape.
_IRI_NAME = rf"{IRIREF}|(?!_:[A-Za-z0-9_]){PNAME}"
_NODE = rf"{_IRI_NAME}|{BLANK}"
_STATEMENT_RE = re.compile(
    rf"({_NODE}) ({_IRI_NAME}|{_A}) ({_NODE}|{STRING}(?:{LANGTAG}|\^\^(?:{_IRI_NAME}))?) \.")
_PREFIX_RE = re.compile(rf"@prefix ({PN_PREFIX}): ({IRIREF}) \.")
_STRING_RE = re.compile(STRING)


class _LineReader(dict):
    """Reads a document whose every line is empty, a comment, an @prefix
    directive or one statement, in the shapes above, as _Parser would.

    As a dict it maps each term text read since the last @prefix to its
    term, resolved on first use through the checks _Parser makes."""

    def __init__(self) -> None:
        super().__init__()
        self.prefixes: PrefixMap = {}

    def read(self, text: str, sink: Callable[[Triple], object]) -> PrefixMap | None:
        """The prefix map, or None at the first line of another shape and at
        any error, for the token parser to read the whole text again."""
        statement = _STATEMENT_RE.fullmatch
        try:
            for line in text.split("\n"):
                m = statement(line)
                if m is not None:
                    s, p, o = m.groups()
                    sink(Triple(self[s], self[p], self[o]))
                elif line[:1] not in ("", "#"):
                    m = _PREFIX_RE.fullmatch(line)
                    if m is None:
                        return None
                    self.prefixes[m[1]] = m[2][1:-1]
                    self.clear()
        except (KeyError, StructuralError):  # an unknown prefix, a bad IRI or escape
            return None
        return self.prefixes

    def __missing__(self, name: str) -> Term:
        if name[0] == '"':
            body = _STRING_RE.match(name).group()
            lexical, suffix = unescape_literal(body[1:-1]), name[len(body):]
            if suffix[:1] == "@":
                term: Term = Literal(lexical, RDF_LANGSTRING, suffix[1:])
            else:
                term = Literal(lexical, self.iri(suffix[2:]).value if suffix else XSD_STRING)
        elif name == "a":
            term = Iri(RDF_TYPE)
        elif name[:2] == "_:" and len(name) > 2:
            term = Blank(name[2:])
        else:
            term = self.iri(name)
        self[name] = term
        return term

    def iri(self, name: str) -> Iri:
        if name[0] == "<":
            return Iri(name[1:-1])
        label, _, local = name.partition(":")
        return Iri(self.prefixes[label] + local)


def parse_triples(text: str) -> tuple[list[Triple], PrefixMap]:
    """A Turtle-subset document's triples in text order, repeats kept, and
    its prefix map; raises TurtleParseError at the first error."""
    triples: list[Triple] = []
    prefixes = _LineReader().read(text, triples.append)
    if prefixes is None:
        triples = []
        prefixes = _Parser(_tokenize(text), triples.append).parse()
    return triples, prefixes


def parse_turtle(text: str) -> tuple[Graph, PrefixMap]:
    """`parse_triples` inserted into a Graph."""
    triples, prefixes = parse_triples(text)
    graph = Graph()
    for t in triples:
        graph.insert(t)
    return graph, prefixes


# ---------------------------------------------------------------------------
# Canonical serializer
# ---------------------------------------------------------------------------

_LOCAL_SAFE_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-]*")


def serialize_turtle(graph: Graph, prefixes: PrefixMap) -> str:
    """Canonical text: a pure function of (triple set, prefix map)."""
    triples = graph.find()
    blanks = ({t.subject for t in triples if isinstance(t.subject, Blank)}
              | {t.object for t in triples if isinstance(t.object, Blank)})
    if blanks:
        rename = {b: Blank(f"b{i}") for i, b in enumerate(sorted(blanks, key=term_key))}
        triples = [Triple(rename.get(t.subject, t.subject), t.predicate, rename.get(t.object, t.object))
                   for t in triples]
    return turtle_text(triple_lines(sorted(triples, key=triple_key), prefixes), prefixes)


def turtle_text(lines: list[str], prefixes: PrefixMap) -> str:
    """A Turtle document: the `@prefix` header of `prefixes`, then `lines`.
    Given a blank-free graph's `triple_lines` in `triple_key` order, under
    the same prefixes, it is the graph's `serialize_turtle` text."""
    head = [f"@prefix {label}: <{iri}> ." for label, iri in sorted(prefixes.items())]
    if head and lines:
        head.append("")
    head += lines
    return "\n".join(head) + "\n" if head else ""


def triple_lines(triples: Iterable[Triple], prefixes: PrefixMap) -> list[str]:
    """Each triple as a line of canonical Turtle, without its newline."""
    nodes, predicates = _Formats(prefixes), _Formats(prefixes, predicate=True)
    return [f"{nodes[t.subject]} {predicates[t.predicate]} {nodes[t.object]} ." for t in triples]


class _Formats(dict):
    """The text of each term met in one position, `_format`ted on first use:
    a term named on many lines is formatted once."""

    def __init__(self, prefixes: PrefixMap, predicate: bool = False) -> None:
        super().__init__()
        self.prefixes, self.predicate = prefixes, predicate

    def __missing__(self, term: Term) -> str:
        text = self[term] = _format(term, self.prefixes, self.predicate)
        return text


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
