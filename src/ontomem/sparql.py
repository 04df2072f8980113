"""SPARQL subset: SELECT/ASK over conjunctive patterns, filters, one-step
transitive paths (`p+`), LIMIT.

The text is tokenized by turtle_io's scanner with this module's token table
and parsed through its token cursor; a string is decoded at parse time. As
in the W3C grammar, a name directly followed by ':' is a prefixed name even
when it spells a keyword (`a:p`, `true:x`), and a '<' that can open an IRI
reference is read as one. Every malformed query, a bad IRI or an invalid
regex included, raises QueryParseError, a turtle_io.ParseError, at a line
and column.

A basic graph pattern runs on the reasoner's join machinery (`rdf_core`'s
`join_slots`, `compile_lookup` and `walk`), in an order chosen greedily from
index counts when the query runs, each pattern looked up with the positions
that earlier ones bound. Only the final sort fixes the order of the rows:
the test suite holds evaluation to a naive all-assignments oracle, and to
the same query joined in the order written.
"""

from __future__ import annotations

import itertools
import operator
import re
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
from .rdf_core import (LANGTAG, ONCE, PNAME, STRING, Graph, Iri, Literal, StructuralError, Term,
                       bucket_size, compile_lookup, join_slots, regex_error, regex_matches, term_text,
                       unescape_literal, walk)
from .turtle_io import ParseDiagnostic, ParseError, Token, TokenCursor, scan


class QueryParseError(ParseError):
    pass


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


class PathPlus(NamedTuple):
    """One-or-more-step transitive closure of a single predicate."""
    iri: Iri


class TriplePattern(NamedTuple):
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


class Comparison(NamedTuple):
    variable: str
    op: CompareOp
    rhs: Term | str  # Term or variable name


class IsIriTest(NamedTuple):
    variable: str


class RegexMatch(NamedTuple):
    variable: str
    pattern: str


FilterExpr = Comparison | IsIriTest | RegexMatch


class Query(NamedTuple):
    form: QueryForm
    projection: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]
    filters: tuple[FilterExpr, ...] = ()
    limit: int | None = None
    prefixes: tuple[tuple[str, str], ...] = ()


class SolutionSequence(NamedTuple):
    form: QueryForm
    variables: tuple[str, ...]
    bindings: list[dict[str, Term]]
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
# the parser joins it to the number right after it. STRING, LANGTAG and PNAME
# are Turtle's; IRIREF is SPARQL's own, as '<' is also an operator here.
_TOKEN_RE = re.compile(rf"""
    (?P<NL>\n)
  | (?P<SKIP>[^\S\n]+ | \#[^\n]*)
  | (?P<VAR>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<IRIREF><[^<>"{{}}|^`\\ \t\n]*>)
  | (?P<STRING>{STRING})
  | (?P<LANGTAG>{LANGTAG})
  | (?P<PNAME>{PNAME})
  | (?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<NUM>[0-9]+(?:\.[0-9]+)?)
  | (?P<OP>\^\^ | [<>!]= | .)
""", re.VERBOSE)

_COMPARE_OPS = {op.value: op for op in CompareOp}


def _tokenize(text: str) -> list[Token]:
    return scan(_TOKEN_RE, text, QueryParseError, {})


class _QueryParser(TokenCursor):
    error = QueryParseError

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

    def reject_unsupported(self, tok: Token | None = None) -> None:
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
            return self.iri(text[1:-1], tok)
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
            return self.pname(tok, past=True)
        self.fail(f"expected {position} term or variable", tok)

    def _literal(self, tok: Token) -> Literal:
        if tok.kind != "STRING":
            self.fail("unterminated string literal", tok)
        try:
            lexical = unescape_literal(tok.text[1:-1])
        except StructuralError as e:
            self.fail(str(e), tok)
        if self.accept("^^"):
            dt = self.take()
            if dt.kind == "IRIREF":
                return Literal(lexical, self.iri(dt.text[1:-1], dt).value)
            if dt.kind == "PNAME":
                return Literal(lexical, self.pname(dt, past=True).value)
            self.fail("expected datatype IRI after '^^'", dt)
        if self.peek().kind == "LANGTAG":
            return Literal(lexical, RDF_LANGSTRING, self.take().text[1:])
        return Literal(lexical)

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


_APPLY = {CompareOp.EQ: operator.eq, CompareOp.NE: operator.ne, CompareOp.LT: operator.lt,
          CompareOp.LE: operator.le, CompareOp.GT: operator.gt, CompareOp.GE: operator.ge}


def compare_terms(lhs: Term, rhs: Term, op: CompareOp) -> bool:
    """Numeric comparison for numeric literal pairs, canonical text otherwise,
    malformed numerics included."""
    if (isinstance(lhs, Literal) and isinstance(rhs, Literal)
            and lhs.datatype in NUMERIC_DATATYPES and rhs.datatype in NUMERIC_DATATYPES):
        try:
            return _APPLY[op](float(lhs.lexical), float(rhs.lexical))
        except ValueError:
            pass
    return _APPLY[op](term_text(lhs), term_text(rhs))


def _test(f: FilterExpr, slots: dict):
    """`f` as a test of the env whose variable slots are `slots`."""
    at = slots[f.variable]
    if isinstance(f, IsIriTest):
        return lambda env: isinstance(env[at], Iri)
    if isinstance(f, RegexMatch):
        return lambda env: regex_matches(f.pattern, env[at])
    if isinstance(f.rhs, str):
        rhs_at = slots[f.rhs]
        return lambda env: compare_terms(env[at], env[rhs_at], f.op)
    return lambda env: compare_terms(env[at], f.rhs, f.op)


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


def _step(lookup, at: int, repeats: tuple, tests: list, ceiling: int):
    """`lookup`, keeping only the triples that pass the step's own checks:
    each pair of positions in `repeats` holds one term, and every test
    passes with the triple bound at env offset `at`. Raises
    EvaluationLimitError once the step's lookups have returned more than
    `ceiling` triples over the whole evaluation, counted before the checks,
    so a filter that rejects every candidate still bounds the work."""
    looked_up = 0

    def step(indexes, env):
        nonlocal looked_up
        found = lookup(indexes, env)
        looked_up += len(found)
        if looked_up > ceiling:
            raise EvaluationLimitError(f"query produced more than {ceiling} intermediate solutions")
        if repeats:
            found = [u for u in found if all(u[i] is u[j] for i, j in repeats)]
        if tests:
            kept = []
            for u in found:
                env[at:at + 3] = u
                if all(test(env) for test in tests):
                    kept.append(u)
            found = kept
        return found
    return step


def _cost(pattern: TriplePattern, indexes) -> int:
    """The size of the smallest index bucket under the pattern's constants;
    a `p+` pattern's is its predicate's."""
    if isinstance(pattern.predicate, PathPlus):
        return bucket_size(indexes, ((1, pattern.predicate.iri),))
    atom = (pattern.subject, pattern.predicate, pattern.object)
    return bucket_size(indexes, tuple((pos, x) for pos, x in enumerate(atom) if not isinstance(x, str)))


def _plan(patterns: tuple[TriplePattern, ...], indexes) -> list[int]:
    """The join order of `patterns`, chosen greedily by selectivity (Stocker,
    Seaborne, Bernstein, Kiefer & Reynolds, WWW 2008): first the pattern
    with the smallest `_cost`, then, as long as some pattern shares a
    variable with those chosen, the least costly of those. Ties go to the
    pattern written first."""
    costs = [_cost(p, indexes) for p in patterns]
    order: list[int] = []
    bound: set[str] = set()
    remaining = list(range(len(patterns)))
    while remaining:
        joined = [i for i in remaining if patterns[i].variables() & bound] or remaining
        i = min(joined, key=costs.__getitem__)
        order.append(i)
        remaining.remove(i)
        bound |= patterns[i].variables()
    return order


DEFAULT_SOLUTION_CEILING = 1_000_000


def evaluate(query: Query, graph: Graph) -> SolutionSequence:
    """All assignments satisfying every pattern conjunctively plus every filter.

    The patterns are joined in the order `_plan` picks from the graph's
    index counts, through `rdf_core`'s slot plans, depth first. Each filter
    runs at the first step that binds all its variables, and a variable
    repeated inside one pattern is checked at that pattern's step. An ASK
    answers at the first full solution. The ceiling bounds, for each step of
    the planned order, the candidates its lookups return over the whole
    evaluation, counted before that step's checks and filters, so
    adversarial joins cannot run away.

    Result rows are ordered lexicographically over the canonical text of the
    full assignment, then projected, then truncated by LIMIT. Each full
    assignment occurs once, so that order is total and no row's place
    depends on the join order.
    """
    ceiling = DEFAULT_SOLUTION_CEILING
    indexes, patterns = graph.indexes, query.patterns
    order = _plan(patterns, indexes)
    atoms = [(p.subject, p.predicate.iri if isinstance(p.predicate, PathPlus) else p.predicate, p.object)
             for p in (patterns[i] for i in order)]
    slots, bounds, env = join_slots(atoms)
    pending = [(f, {f.variable, f.rhs} if isinstance(f, Comparison) and isinstance(f.rhs, str)
                else {f.variable}) for f in query.filters]
    bound: set[str] = set()
    closures: dict[Iri, list[tuple]] = {}  # each `p+` predicate's pairs, as (x, p, y) rows
    steps = []
    for k, (i, atom) in enumerate(zip(order, atoms)):
        at = 3 * k
        bound |= patterns[i].variables()
        tests = [_test(f, slots) for f, needs in pending if needs <= bound]
        pending = [(f, needs) for f, needs in pending if not needs <= bound]
        repeats = tuple((slots[x] - at, pos) for pos, x in enumerate(atom)
                        if isinstance(x, str) and at <= slots[x] < at + pos)
        if isinstance(patterns[i].predicate, PathPlus):
            p = atom[1]
            if p not in closures:
                closures[p] = [(x, p, y) for x, y in transitive_pairs(graph, p)]
            ends = tuple((pos, slot) for pos, slot in bounds[k] if pos != 1)
            lookup = lambda indexes, env, rows=closures[p], ends=ends: [
                u for u in rows if all(u[pos] is env[slot] for pos, slot in ends)]
        else:
            lookup = compile_lookup(bounds[k])
        steps.append((k, at, _step(lookup, at, repeats, tests, ceiling)))
    matches = walk(steps, indexes, env, [None] * len(steps)) if steps else ONCE

    if query.form is QueryForm.ASK:
        return SolutionSequence(QueryForm.ASK, (), [], any(True for _ in matches))

    variables = sorted(v for v in slots if isinstance(v, str))
    row = _getter([slots[v] for v in variables])
    solutions = [row(env) for _ in matches]
    text = {term: term_text(term) for term in set(itertools.chain.from_iterable(solutions))}
    keyed = zip([tuple(map(text.__getitem__, s)) for s in solutions], solutions)
    ranked = sorted(keyed, key=operator.itemgetter(0))[:query.limit]
    pick, projection = _getter([variables.index(v) for v in query.projection]), query.projection
    return SolutionSequence(QueryForm.SELECT, projection, [dict(zip(projection, pick(s))) for _, s in ranked])


def _getter(places: list[int]):
    """A function giving the tuple of the items at `places`."""
    if len(places) == 1:
        place = places[0]
        return lambda values: (values[place],)
    return operator.itemgetter(*places)
