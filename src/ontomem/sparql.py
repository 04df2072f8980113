"""SPARQL subset: SELECT/ASK over conjunctive patterns, filters, one-step
transitive paths (`p+`), LIMIT.

The text is read as one token list, as turtle_io reads Turtle. As in the W3C
grammar, a name directly followed by ':' is a prefixed name even when it spells
a keyword (`a:p`, `true:x`), and a '<' that can open an IRI reference is read
as one. Every malformed query, a bad IRI or an invalid regex included, raises
QueryParseError at a line and column.

Patterns are joined in the order written, each looked up with the positions
that earlier patterns bound. Only the final sort fixes the order of the rows:
the test suite holds evaluation to a naive all-assignments oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .namespaces import (
    NUMERIC_DATATYPES,
    RDF_LANGSTRING,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
)
from .rdf_core import (LANGTAG, STRING, Graph, Iri, Literal, StructuralError, Term, regex_error,
                       regex_matches, term_text, unescape_literal)
from .turtle_io import ParseDiagnostic, PrefixMap


class QueryParseError(ValueError):
    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        first = diagnostics[0]
        super().__init__(f"{first.line}:{first.column}: {first.message}")


class EvaluationLimitError(ValueError):
    """The intermediate solution set outgrew the evaluation ceiling: the
    caller asked for more than a query may cost."""


class UnsupportedFeatureError(QueryParseError):
    def __init__(self, feature: str, line: int, col: int):
        self.feature = feature
        super().__init__([ParseDiagnostic(line, col, f"unsupported SPARQL feature: {feature}")])


# Recognized so the parser can reject them by name rather than by confusion.
_UNSUPPORTED = {
    "OPTIONAL", "UNION", "MINUS", "GRAPH", "SERVICE", "BIND", "VALUES",
    "CONSTRUCT", "DESCRIBE", "INSERT", "DELETE", "ORDER", "GROUP", "HAVING",
    "OFFSET", "DISTINCT", "REDUCED", "FROM", "EXISTS",
}


class QueryForm(Enum):
    SELECT = "SELECT"
    ASK = "ASK"


@dataclass(frozen=True)
class PathPlus:
    """One-or-more-step transitive closure of a single predicate."""
    iri: Iri


@dataclass(frozen=True)
class TriplePattern:
    subject: Term | str       # Term or variable name (without '?')
    predicate: Term | str | PathPlus
    object: Term | str

    def variables(self) -> set[str]:
        out = set()
        for slot in (self.subject, self.predicate, self.object):
            if isinstance(slot, str):
                out.add(slot)
        return out


class CompareOp(Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


@dataclass(frozen=True)
class Comparison:
    variable: str
    op: CompareOp
    rhs: Term | str  # Term or variable name


@dataclass(frozen=True)
class IsIriTest:
    variable: str


@dataclass(frozen=True)
class RegexMatch:
    variable: str
    pattern: str


FilterExpr = Comparison | IsIriTest | RegexMatch


@dataclass(frozen=True)
class Query:
    form: QueryForm
    projection: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]
    filters: tuple[FilterExpr, ...] = ()
    limit: int | None = None
    prefixes: tuple[tuple[str, str], ...] = ()


@dataclass
class SolutionSequence:
    form: QueryForm
    variables: tuple[str, ...] = ()
    bindings: list[dict[str, Term]] = field(default_factory=list)
    boolean: bool | None = None

    def to_json(self):
        if self.form is QueryForm.ASK:
            return {"ask": self.boolean}
        return {
            "variables": list(self.variables),
            "rows": [{v: term_text(row[v]) for v in self.variables} for row in self.bindings],
        }


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# One alternative per token kind, tried in this order at each position. No
# token spans a line, so NL is the only one that ends a line. A sign is an OP:
# the parser joins it to the number right after it. STRING and LANGTAG are
# Turtle's; IRIREF is SPARQL's own, as '<' is also an operator here.
_TOKEN_RE = re.compile(rf"""
    (?P<NL>\n)
  | (?P<SKIP>[^\S\n]+ | \#[^\n]*)
  | (?P<VAR>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<IRIREF><[^<>"{{}}|^`\\ \t\n]*>)
  | (?P<STRING>{STRING})
  | (?P<LANGTAG>{LANGTAG})
  | (?P<PNAME>(?:[A-Za-z_][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)?)
  | (?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<NUM>[0-9]+(?:\.[0-9]+)?)
  | (?P<OP>\^\^ | [<>!]= | .)
""", re.VERBOSE)

_COMPARE_OPS = {op.value: op for op in CompareOp}


class _Token(NamedTuple):
    kind: str  # VAR IRIREF STRING LANGTAG PNAME WORD NUM OP EOF
    text: str  # as written
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind != "SKIP":
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _QueryParser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.prefixes: PrefixMap = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None, past: bool = False):
        """Raise at `tok` (the next token by default), or just past it."""
        tok = tok or self.peek()
        col = tok.col + len(tok.text) if past else tok.col
        raise QueryParseError([ParseDiagnostic(tok.line, col, message)])

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str, message: str) -> None:
        if not self.accept(text):
            self.fail(message)

    def keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == "WORD" and tok.text.upper() == word:
            self.pos += 1
            return True
        return False

    def reject_unsupported(self, tok: _Token | None = None) -> None:
        tok = tok or self.peek()
        if tok.kind == "WORD" and tok.text.upper() in _UNSUPPORTED:
            raise UnsupportedFeatureError(tok.text.upper(), tok.line, tok.col)

    def parse(self) -> Query:
        while self.keyword("PREFIX"):
            label = self.take()
            if label.kind != "PNAME" or not label.text.endswith(":"):
                self.fail("expected prefix label ending in ':'", label, past=label.kind == "PNAME")
            namespace = self.take()
            if namespace.kind != "IRIREF":
                self.fail("expected namespace IRI", namespace)
            self.prefixes[label.text[:-1]] = namespace.text[1:-1]

        self.reject_unsupported()
        projection: list[str] = []
        if self.keyword("SELECT"):
            form = QueryForm.SELECT
            while True:
                self.reject_unsupported()
                if self.peek().kind != "VAR":
                    break
                projection.append(self.take().text[1:])
            if not projection:
                self.fail("SELECT requires at least one variable")
        elif self.keyword("ASK"):
            form = QueryForm.ASK
        else:
            self.fail("expected SELECT or ASK")
        if not self.keyword("WHERE"):
            self.fail("expected WHERE")
        patterns, filters = self._group()
        limit = self._limit() if form is QueryForm.SELECT else None
        if self.peek().kind != "EOF":
            self.reject_unsupported()
            self.fail("trailing content after query")
        query = Query(form, tuple(projection), tuple(patterns), tuple(filters), limit,
                      tuple(sorted(self.prefixes.items())))
        self._check_variables(query)
        return query

    def _group(self) -> tuple[list[TriplePattern], list[FilterExpr]]:
        self.expect("{", "expected '{'")
        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        while not self.accept("}"):
            if self.peek().kind == "EOF":
                self.fail("unterminated group pattern")
            self.reject_unsupported()
            tok = self.peek()
            if tok.text == "{":
                # nested group: name the combinator that needed it, if any follows
                words = {t.text.upper() for t in self.tokens[self.pos:] if t.kind == "WORD"}
                named = sorted(words & _UNSUPPORTED)
                if named:
                    raise UnsupportedFeatureError(named[0], tok.line, tok.col)
                self.fail("nested group patterns are not supported")
            if self.keyword("FILTER"):
                filters.append(self._filter())
            else:
                patterns.append(TriplePattern(self._term("subject"), self._predicate(),
                                              self._term("object")))
            self.accept(".")
        return patterns, filters

    def _predicate(self) -> Term | str | PathPlus:
        if self.keyword("A"):
            return Iri(RDF_TYPE)
        slot = self._term("predicate")
        if isinstance(slot, Iri) and self.accept("+"):
            return PathPlus(slot)
        return slot

    def _term(self, position: str) -> Term | str:
        tok = self.take()
        kind, text = tok.kind, tok.text
        if kind == "VAR":
            return text[1:]
        if kind == "IRIREF":
            return self._iri(text[1:-1], tok)
        if kind == "STRING" or text == '"':
            return self._literal(tok)
        if text in ("+", "-"):
            num = self.peek()
            if num.kind == "NUM" and (num.line, num.col) == (tok.line, tok.col + 1):
                self.pos += 1
                kind, text = "NUM", text + num.text
        if kind == "NUM":
            return Literal(text, XSD_DECIMAL if "." in text else XSD_INTEGER)
        if kind == "WORD" and text.upper() in ("TRUE", "FALSE"):
            return Literal(text.lower(), XSD_BOOLEAN)
        self.reject_unsupported(tok)
        if kind == "PNAME":
            return self._pname(tok)
        self.fail(f"expected {position} term or variable", tok)

    def _literal(self, tok: _Token) -> Literal:
        if tok.kind != "STRING":
            self.fail("unterminated string literal", tok)
        try:
            lexical = unescape_literal(tok.text[1:-1])
        except StructuralError as e:
            self.fail(str(e), tok)
        if self.accept("^^"):
            dt = self.take()
            if dt.kind == "IRIREF":
                return Literal(lexical, self._iri(dt.text[1:-1], dt).value)
            if dt.kind == "PNAME":
                return Literal(lexical, self._pname(dt).value)
            self.fail("expected datatype IRI after '^^'", dt)
        if self.peek().kind == "LANGTAG":
            return Literal(lexical, RDF_LANGSTRING, self.take().text[1:])
        return Literal(lexical)

    def _pname(self, tok: _Token) -> Iri:
        label, _, local = tok.text.partition(":")
        if label not in self.prefixes:
            self.fail(f"unknown prefix '{label}'", tok, past=True)
        return self._iri(self.prefixes[label] + local, tok)

    def _iri(self, value: str, tok: _Token) -> Iri:
        try:
            return Iri(value)
        except StructuralError as e:
            self.fail(str(e), tok)

    def _filter(self) -> FilterExpr:
        self.expect("(", "expected '(' after FILTER")
        tok = self.peek()
        name = tok.text.lower() if tok.kind == "WORD" else None
        if name in ("isiri", "isuri"):
            self.pos += 1
            self.expect("(", "expected '(' after isIRI")
            expr: FilterExpr = IsIriTest(self._variable("isIRI takes a variable"))
            self.expect(")", "expected ')'")
        elif name == "regex":
            self.pos += 1
            self.expect("(", "expected '(' after regex")
            var = self._variable("regex takes a variable first")
            self.expect(",", "expected ',' in regex")
            tok = self.take()
            pattern = self._literal(tok).lexical
            error = regex_error(pattern)
            if error is not None:
                self.fail(f"invalid regex pattern: {error}", tok)
            self.expect(")", "expected ')'")
            expr = RegexMatch(var, pattern)
        else:
            if self.peek().kind != "VAR":
                self.reject_unsupported()
                self.fail("FILTER comparison starts with a variable")
            var = self.take().text[1:]
            op = _COMPARE_OPS.get(self.peek().text)
            if op is None:
                self.fail("expected comparison operator")
            self.pos += 1
            expr = Comparison(var, op, self._term("comparison"))
        self.expect(")", "expected ')' closing FILTER")
        return expr

    def _variable(self, message: str) -> str:
        if self.peek().kind != "VAR":
            self.fail(message)
        return self.take().text[1:]

    def _limit(self) -> int | None:
        if not self.keyword("LIMIT"):
            return None
        tok = self.take()
        if tok.kind != "NUM" or "." in tok.text:
            self.fail("LIMIT requires an integer", tok)
        try:
            value = int(tok.text)
        except ValueError:  # more digits than int() converts
            self.fail("LIMIT is too large", tok)
        if value < 1:
            self.fail("LIMIT must be >= 1", tok, past=True)
        return value

    def _check_variables(self, query: Query) -> None:
        bound = set().union(*(p.variables() for p in query.patterns))
        filtered = [v for f in query.filters
                    for v in ((f.variable, f.rhs) if isinstance(f, Comparison) else (f.variable,))
                    if isinstance(v, str)]
        for role, names in (("projected", query.projection), ("filter", filtered)):
            for v in names:
                if v not in bound:
                    self.fail(f"{role} variable ?{v} not in pattern")


def parse_query(text: str) -> Query:
    """Parse the SPARQL subset; unsupported constructs are rejected by name."""
    return _QueryParser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def compare_terms(lhs: Term, rhs: Term, op: CompareOp) -> bool:
    """Numeric comparison for numeric literal pairs, canonical text otherwise."""
    if (isinstance(lhs, Literal) and isinstance(rhs, Literal)
            and lhs.datatype in NUMERIC_DATATYPES and rhs.datatype in NUMERIC_DATATYPES):
        try:
            a, b = float(lhs.lexical), float(rhs.lexical)
        except ValueError:
            a, b = term_text(lhs), term_text(rhs)  # malformed numerics fall back to text
    else:
        a, b = term_text(lhs), term_text(rhs)
    if op is CompareOp.EQ:
        return a == b
    if op is CompareOp.NE:
        return a != b
    if op is CompareOp.LT:
        return a < b
    if op is CompareOp.LE:
        return a <= b
    if op is CompareOp.GT:
        return a > b
    return a >= b


def _passes(filters, binding: dict[str, Term]) -> bool:
    for f in filters:
        if isinstance(f, Comparison):
            lhs = binding[f.variable]
            rhs = binding[f.rhs] if isinstance(f.rhs, str) else f.rhs
            if not compare_terms(lhs, rhs, f.op):
                return False
        elif isinstance(f, IsIriTest):
            if not isinstance(binding[f.variable], Iri):
                return False
        elif not regex_matches(f.pattern, binding[f.variable]):
            return False
    return True


def transitive_pairs(graph: Graph, predicate: Iri) -> set[tuple[Term, Term]]:
    """All (x, y) with a >=1-step path over `predicate` edges."""
    edges: dict[Term, list[Term]] = {}
    for t in graph.find(None, predicate, None):
        edges.setdefault(t.subject, []).append(t.object)
    pairs: set[tuple[Term, Term]] = set()
    for start in edges:
        frontier = list(edges[start])
        seen: set[Term] = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            pairs.add((start, node))
            frontier.extend(edges.get(node, ()))
    return pairs


def _pattern_solutions(graph: Graph, pattern: TriplePattern, binding: dict[str, Term],
                       closures: dict[Iri, set[tuple[Term, Term]]]):
    """Extensions of `binding` that match `pattern`, in no particular order."""
    def resolve(slot):
        return binding.get(slot) if isinstance(slot, str) else slot

    s_val, o_val = resolve(pattern.subject), resolve(pattern.object)
    if isinstance(pattern.predicate, PathPlus):
        pred = pattern.predicate.iri
        if pred not in closures:
            closures[pred] = transitive_pairs(graph, pred)
        slots = (pattern.subject, pattern.object)
        rows = (pair for pair in closures[pred]
                if (s_val is None or pair[0] == s_val) and (o_val is None or pair[1] == o_val))
    else:
        slots = (pattern.subject, pattern.predicate, pattern.object)
        rows = ((t.subject, t.predicate, t.object)
                for t in graph.find(s_val, resolve(pattern.predicate), o_val))
    for values in rows:
        new = _bind(binding, slots, values)
        if new is not None:
            yield new


def _bind(binding: dict[str, Term], slots, values) -> dict[str, Term] | None:
    """`binding` plus each variable slot bound to its value; None on a clash."""
    new = dict(binding)
    for slot, value in zip(slots, values):
        if isinstance(slot, str) and new.setdefault(slot, value) != value:
            return None
    return new


DEFAULT_SOLUTION_CEILING = 1_000_000


def evaluate(query: Query, graph: Graph) -> SolutionSequence:
    """All assignments satisfying every pattern conjunctively plus every filter.

    Result rows are ordered lexicographically over the canonical text of the
    full assignment, then projected, then truncated by LIMIT. The ceiling on
    intermediate solutions keeps adversarial joins from running away.
    """
    max_solutions = DEFAULT_SOLUTION_CEILING
    closures: dict[Iri, set[tuple[Term, Term]]] = {}
    solutions: list[dict[str, Term]] = [{}]
    for pattern in query.patterns:
        expanded: list[dict[str, Term]] = []
        for partial in solutions:
            for binding in _pattern_solutions(graph, pattern, partial, closures):
                expanded.append(binding)
                if len(expanded) > max_solutions:
                    raise EvaluationLimitError(
                        f"query produced more than {max_solutions} intermediate solutions")
        solutions = expanded
        if not solutions:
            break
    solutions = [b for b in solutions if _passes(query.filters, b)]

    if query.form is QueryForm.ASK:
        return SolutionSequence(QueryForm.ASK, boolean=bool(solutions))

    solutions.sort(key=lambda b: tuple(term_text(b[v]) for v in sorted(b)))
    if query.limit is not None:
        solutions = solutions[:query.limit]
    projected = [{v: b[v] for v in query.projection} for b in solutions]
    return SolutionSequence(QueryForm.SELECT, query.projection, projected)
