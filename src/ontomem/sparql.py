"""SPARQL subset: SELECT/ASK over conjunctive patterns, filters, one-step
transitive paths (`p+`), LIMIT.

Patterns are joined in the order written, each looked up with the positions
that earlier patterns bound. Only the final sort fixes the order of the rows:
the test suite holds evaluation to a naive all-assignments oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .namespaces import (
    NUMERIC_DATATYPES,
    RDF_LANGSTRING,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
)
from .rdf_core import Graph, Iri, Literal, StructuralError, Term, term_text, unescape_literal
from .turtle_io import ParseDiagnostic, PrefixMap


class QueryParseError(ValueError):
    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        first = diagnostics[0]
        super().__init__(f"{first.line}:{first.column}: {first.message}")


class EvaluationLimitError(RuntimeError):
    """The intermediate solution set outgrew the evaluation ceiling."""


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

_VAR_RE = re.compile(r"\?([A-Za-z_][A-Za-z0-9_]*)")
_PNAME_RE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)?")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_IRIREF_RE = re.compile(r"<[^<>\"{}|^`\\ \t\n]*>")
_NUM_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, length: int) -> None:
        chunk = self.text[self.pos:self.pos + length]
        newlines = chunk.count("\n")
        if newlines:
            self.line += newlines
            self.col = length - chunk.rfind("\n")
        else:
            self.col += length
        self.pos += length

    def skip_ws(self) -> None:
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "#":
                end = self.text.find("\n", self.pos)
                self._advance((end if end != -1 else len(self.text)) - self.pos)
            elif c.isspace():
                self._advance(1)
            else:
                break

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def error(self, message: str):
        raise QueryParseError([ParseDiagnostic(self.line, self.col, message)])

    def try_regex(self, regex: re.Pattern) -> str | None:
        self.skip_ws()
        m = regex.match(self.text, self.pos)
        if m:
            self._advance(len(m.group()))
            return m.group()
        return None

    def try_literal(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self._advance(len(token))
            return True
        return False

    def try_keyword(self, word: str) -> bool:
        self.skip_ws()
        m = _WORD_RE.match(self.text, self.pos)
        if m and m.group().upper() == word:
            self._advance(len(m.group()))
            return True
        return False

    def peek_word(self) -> str | None:
        self.skip_ws()
        m = _WORD_RE.match(self.text, self.pos)
        return m.group() if m else None


class _QueryParser:
    def __init__(self, text: str):
        self.lex = _Lexer(text)
        self.prefixes: PrefixMap = {}

    def parse(self) -> Query:
        lex = self.lex
        while lex.try_keyword("PREFIX"):
            pname = lex.try_regex(_PNAME_RE)
            if pname is None or not pname.endswith(":"):
                lex.error("expected prefix label ending in ':'")
            iriref = lex.try_regex(_IRIREF_RE)
            if iriref is None:
                lex.error("expected namespace IRI")
            self.prefixes[pname[:-1]] = iriref[1:-1]

        self._reject_unsupported()
        if lex.try_keyword("SELECT"):
            return self._select()
        if lex.try_keyword("ASK"):
            return self._ask()
        lex.error("expected SELECT or ASK")

    def _reject_unsupported(self) -> None:
        word = self.lex.peek_word()
        if word and word.upper() in _UNSUPPORTED:
            raise UnsupportedFeatureError(word.upper(), self.lex.line, self.lex.col)

    def _select(self) -> Query:
        lex = self.lex
        projection: list[str] = []
        while True:
            self._reject_unsupported()
            var = lex.try_regex(_VAR_RE)
            if var is None:
                break
            projection.append(var[1:])
        if not projection:
            lex.error("SELECT requires at least one variable")
        if not lex.try_keyword("WHERE"):
            lex.error("expected WHERE")
        patterns, filters = self._group()
        limit = self._limit()
        if not lex.eof():
            self._reject_unsupported()
            lex.error("trailing content after query")
        query = Query(QueryForm.SELECT, tuple(projection), tuple(patterns), tuple(filters),
                      limit, tuple(sorted(self.prefixes.items())))
        self._check_variables(query)
        return query

    def _ask(self) -> Query:
        lex = self.lex
        if not lex.try_keyword("WHERE"):
            lex.error("expected WHERE")
        patterns, filters = self._group()
        if not lex.eof():
            self._reject_unsupported()
            lex.error("trailing content after query")
        query = Query(QueryForm.ASK, (), tuple(patterns), tuple(filters), None,
                      tuple(sorted(self.prefixes.items())))
        self._check_variables(query)
        return query

    def _group(self) -> tuple[list[TriplePattern], list[FilterExpr]]:
        lex = self.lex
        if not lex.try_literal("{"):
            lex.error("expected '{'")
        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        while True:
            if lex.try_literal("}"):
                break
            if lex.eof():
                lex.error("unterminated group pattern")
            self._reject_unsupported()
            lex.skip_ws()
            if lex.text.startswith("{", lex.pos):
                # nested group: name the combinator that needed it, if visible
                rest = lex.text[lex.pos:].upper()
                for feature in sorted(_UNSUPPORTED):
                    if re.search(r"\b" + feature + r"\b", rest):
                        raise UnsupportedFeatureError(feature, lex.line, lex.col)
                lex.error("nested group patterns are not supported")
            if lex.try_keyword("FILTER"):
                filters.append(self._filter())
                lex.try_literal(".")
                continue
            patterns.append(self._pattern())
            lex.try_literal(".")
        return patterns, filters

    def _pattern(self) -> TriplePattern:
        s = self._term_or_var("subject")
        p = self._predicate()
        o = self._term_or_var("object")
        return TriplePattern(s, p, o)

    def _predicate(self) -> Term | str | PathPlus:
        lex = self.lex
        if lex.try_keyword("A"):
            return Iri(RDF_TYPE)
        slot = self._term_or_var("predicate")
        if isinstance(slot, Iri) and lex.try_literal("+"):
            return PathPlus(slot)
        return slot

    def _term_or_var(self, position: str) -> Term | str:
        lex = self.lex
        var = lex.try_regex(_VAR_RE)
        if var is not None:
            return var[1:]
        iriref = lex.try_regex(_IRIREF_RE)
        if iriref is not None:
            return Iri(iriref[1:-1])
        lex.skip_ws()
        if lex.text.startswith('"', lex.pos):
            return self._string_literal()
        num = lex.try_regex(_NUM_RE)
        if num is not None:
            return Literal(num, XSD_DECIMAL if "." in num else XSD_INTEGER)
        if lex.try_keyword("TRUE"):
            return Literal("true", XSD_BOOLEAN)
        if lex.try_keyword("FALSE"):
            return Literal("false", XSD_BOOLEAN)
        self._reject_unsupported()
        pname = lex.try_regex(_PNAME_RE)
        if pname is not None:
            label, _, local = pname.partition(":")
            if label not in self.prefixes:
                lex.error(f"unknown prefix '{label}'")
            return Iri(self.prefixes[label] + local)
        lex.error(f"expected {position} term or variable")

    def _string_literal(self) -> Literal:
        lex = self.lex
        lex.skip_ws()
        m = re.compile(r'"((?:[^"\\\n]|\\.)*)"').match(lex.text, lex.pos)
        if m is None:
            lex.error("unterminated string literal")
        try:
            lexical = unescape_literal(m.group(1))
        except StructuralError as e:
            lex.error(str(e))
        lex._advance(len(m.group()))
        if lex.try_literal("^^"):
            iriref = lex.try_regex(_IRIREF_RE)
            if iriref is not None:
                return Literal(lexical, iriref[1:-1])
            pname = lex.try_regex(_PNAME_RE)
            if pname is not None:
                label, _, local = pname.partition(":")
                if label not in self.prefixes:
                    lex.error(f"unknown prefix '{label}'")
                return Literal(lexical, self.prefixes[label] + local)
            lex.error("expected datatype IRI after '^^'")
        lang = lex.try_regex(re.compile(r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"))
        if lang is not None:
            return Literal(lexical, RDF_LANGSTRING, lang[1:])
        return Literal(lexical)

    def _filter(self) -> FilterExpr:
        lex = self.lex
        if not lex.try_literal("("):
            lex.error("expected '(' after FILTER")
        word = lex.peek_word()
        if word and word.lower() in ("isiri", "isuri"):
            lex.try_regex(_WORD_RE)
            if not lex.try_literal("("):
                lex.error("expected '(' after isIRI")
            var = lex.try_regex(_VAR_RE)
            if var is None:
                lex.error("isIRI takes a variable")
            if not lex.try_literal(")"):
                lex.error("expected ')'")
            expr: FilterExpr = IsIriTest(var[1:])
        elif word and word.lower() == "regex":
            lex.try_regex(_WORD_RE)
            if not lex.try_literal("("):
                lex.error("expected '(' after regex")
            var = lex.try_regex(_VAR_RE)
            if var is None:
                lex.error("regex takes a variable first")
            if not lex.try_literal(","):
                lex.error("expected ',' in regex")
            pattern = self._string_literal()
            if not lex.try_literal(")"):
                lex.error("expected ')'")
            expr = RegexMatch(var[1:], pattern.lexical)
        else:
            var = lex.try_regex(_VAR_RE)
            if var is None:
                self._reject_unsupported()
                lex.error("FILTER comparison starts with a variable")
            op = None
            for sym in ("<=", ">=", "!=", "=", "<", ">"):
                if lex.try_literal(sym):
                    op = CompareOp(sym)
                    break
            if op is None:
                lex.error("expected comparison operator")
            rhs = self._term_or_var("comparison")
            expr = Comparison(var[1:], op, rhs)
        if not lex.try_literal(")"):
            lex.error("expected ')' closing FILTER")
        return expr

    def _limit(self) -> int | None:
        lex = self.lex
        if lex.try_keyword("LIMIT"):
            num = lex.try_regex(re.compile(r"[0-9]+"))
            if num is None:
                lex.error("LIMIT requires an integer")
            value = int(num)
            if value < 1:
                lex.error("LIMIT must be >= 1")
            return value
        return None

    def _check_variables(self, query: Query) -> None:
        in_patterns: set[str] = set()
        for p in query.patterns:
            in_patterns |= p.variables()
        for v in query.projection:
            if v not in in_patterns:
                self.lex.error(f"projected variable ?{v} not in pattern")
        for f in query.filters:
            used = [f.variable] if not isinstance(f, Comparison) else (
                [f.variable, f.rhs] if isinstance(f.rhs, str) else [f.variable])
            for v in used:
                if v not in in_patterns:
                    self.lex.error(f"filter variable ?{v} not in pattern")


def parse_query(text: str) -> Query:
    """Parse the SPARQL subset; unsupported constructs are rejected by name."""
    return _QueryParser(text).parse()


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
        else:
            value = binding[f.variable]
            text = value.lexical if isinstance(value, Literal) else (
                value.value if isinstance(value, Iri) else value.label)
            if re.search(f.pattern, text) is None:
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


def evaluate(query: Query, graph: Graph,
             max_solutions: int = DEFAULT_SOLUTION_CEILING) -> SolutionSequence:
    """All assignments satisfying every pattern conjunctively plus every filter.

    Result rows are ordered lexicographically over the canonical text of the
    full assignment, then projected, then truncated by LIMIT. The ceiling on
    intermediate solutions keeps adversarial joins from running away.
    """
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
