"""Independent brute-force oracles the engine is held to.

Each oracle re-derives its answer from first principles (full enumeration,
exhaustive scans, explicit stack reconstruction) and deliberately shares no
evaluation code with the implementation it checks.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from pathlib import Path

from ontomem.builder import (
    Candidate,
    EntityRegistry,
    GateResult,
    OntologyDelta,
    OntologyStore,
    QuarantinedCandidate,
    RegistryEntry,
    _touches,
    _violation_key,
)
from ontomem.factcheck import (
    Claim,
    ConditionInconsistencyError,
    Polarity,
    TraceKind,
    TraceStep,
    Verdict,
    VerdictStatus,
)
from ontomem.hanoi import HanoiState, Move, apply_move, legal_moves
from ontomem.namespaces import (
    NUMERIC_DATATYPES,
    OWL_INVERSEOF,
    OWL_SYMMETRIC,
    OWL_TRANSITIVE,
    RDF_LANGSTRING,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_LABEL,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    SYS_ALIAS,
    SYS_AMBIGUOUS_ALIAS,
    SYS_FIRST_SEEN,
    SYS_REGISTRY,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
)
from ontomem.rdf_core import (
    Graph,
    Iri,
    Literal,
    Origin,
    Provenance,
    StructuralError,
    Term,
    Triple,
    term_text,
    triple_key,
    triple_text,
    unescape_literal,
)
from ontomem.reasoner import (
    DEFAULT_APPLICATION_CEILING,
    Conflict,
    Derivation,
    RuleId,
    _saturate,
    check_consistency,
    materialize,
)
from ontomem.shacl import NodeShape, validate
from ontomem.store import StoreHandle, load_log_entries
from ontomem.sparql import (
    _UNSUPPORTED,
    Comparison,
    CompareOp,
    FilterExpr,
    IsIriTest,
    PathPlus,
    Query,
    QueryForm,
    QueryParseError,
    RegexMatch,
    TriplePattern,
    UnsupportedFeatureError,
)
from ontomem.turtle_io import (
    ParseDiagnostic, PrefixMap, TurtleParseError, parse_turtle, serialize_turtle)

# ---------------------------------------------------------------------------
# SPARQL: enumerate every |terms|^|vars| assignment and filter
# ---------------------------------------------------------------------------


def naive_evaluate(query: Query, graph: Graph):
    """Returns rows (list of projected dicts) for SELECT, bool for ASK."""
    triples = graph.triple_set()
    terms = graph.terms()
    variables = sorted({v for p in query.patterns for v in p.variables()})
    closures: dict[str, set] = {}

    satisfying = []
    for assignment in itertools.product(terms, repeat=len(variables)):
        binding = dict(zip(variables, assignment))
        if all(_pattern_holds(p, binding, triples, graph, closures) for p in query.patterns) \
                and all(_filter_holds(f, binding) for f in query.filters):
            satisfying.append(binding)

    if query.form is QueryForm.ASK:
        return bool(satisfying)
    satisfying.sort(key=lambda b: tuple(term_text(b[v]) for v in sorted(b)))
    if query.limit is not None:
        satisfying = satisfying[:query.limit]
    return [{v: b[v] for v in query.projection} for b in satisfying]


def _pattern_holds(pattern, binding, triples, graph, closures) -> bool:
    s = binding[pattern.subject] if isinstance(pattern.subject, str) else pattern.subject
    o = binding[pattern.object] if isinstance(pattern.object, str) else pattern.object
    if isinstance(pattern.predicate, PathPlus):
        pred = pattern.predicate.iri
        if pred.value not in closures:
            closures[pred.value] = _closure_pairs(graph, pred)
        return (s, o) in closures[pred.value]
    p = binding[pattern.predicate] if isinstance(pattern.predicate, str) else pattern.predicate
    try:
        return Triple(s, p, o) in triples
    except StructuralError:
        return False


def _closure_pairs(graph: Graph, pred: Iri) -> set:
    """Transitive closure by repeated joining, no BFS shared with the engine."""
    step = {(t.subject, t.object) for t in graph.triple_set() if t.predicate == pred}
    closure = set(step)
    while True:
        extra = {(a, d) for (a, b) in closure for (c, d) in step if b == c} - closure
        if not extra:
            return closure
        closure |= extra


def _filter_holds(f, binding) -> bool:
    if isinstance(f, IsIriTest):
        return isinstance(binding[f.variable], Iri)
    if isinstance(f, RegexMatch):
        v = binding[f.variable]
        text = v.lexical if isinstance(v, Literal) else (v.value if isinstance(v, Iri) else v.label)
        return re.search(f.pattern, text) is not None
    lhs = binding[f.variable]
    rhs = binding[f.rhs] if isinstance(f.rhs, str) else f.rhs
    if (isinstance(lhs, Literal) and isinstance(rhs, Literal)
            and lhs.datatype in NUMERIC_DATATYPES and rhs.datatype in NUMERIC_DATATYPES):
        try:
            a, b = float(lhs.lexical), float(rhs.lexical)
        except ValueError:
            a, b = term_text(lhs), term_text(rhs)
    else:
        a, b = term_text(lhs), term_text(rhs)
    op = f.op.value
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


# ---------------------------------------------------------------------------
# SHACL: per-node per-constraint checks over raw triple scans
# ---------------------------------------------------------------------------


def naive_validate(data: Graph, shapes) -> list[tuple[str, str, str]]:
    """Sorted (focus text, path, constraint code) tuples."""
    triples = list(data.triple_set())
    results = []
    for shape in shapes:
        if shape.target_class is None:
            continue
        focus_nodes = {t.subject for t in triples
                       if t.predicate.value == RDF_TYPE and t.object == shape.target_class}
        for node in focus_nodes:
            for prop in shape.property_shapes:
                values = [t.object for t in triples if t.subject == node and t.predicate == prop.path]
                if prop.min_count is not None and len(values) < prop.min_count:
                    results.append((term_text(node), prop.path.value, "minCount"))
                if prop.max_count is not None and len(values) > prop.max_count:
                    results.append((term_text(node), prop.path.value, "maxCount"))
                for v in values:
                    if prop.datatype is not None and not (
                            isinstance(v, Literal) and v.datatype == prop.datatype.value):
                        results.append((term_text(node), prop.path.value, "datatype"))
                    if prop.value_class is not None:
                        ok = (not isinstance(v, Literal)) and any(
                            t.subject == v and t.predicate.value == RDF_TYPE
                            and t.object == prop.value_class for t in triples)
                        if not ok:
                            results.append((term_text(node), prop.path.value, "class"))
                    if prop.value_in is not None and v not in prop.value_in:
                        results.append((term_text(node), prop.path.value, "in"))
                    if prop.pattern is not None:
                        text = v.lexical if isinstance(v, Literal) else (
                            v.value if isinstance(v, Iri) else v.label)
                        if re.search(prop.pattern, text) is None:
                            results.append((term_text(node), prop.path.value, "pattern"))
            if shape.closed:
                allowed = {p.path.value for p in shape.property_shapes} | {RDF_TYPE}
                for t in triples:
                    if t.subject == node and t.predicate.value not in allowed:
                        results.append((term_text(node), t.predicate.value, "closed"))
    return sorted(set(results))


# ---------------------------------------------------------------------------
# Reasoner: semi-naive full-scan rules applied in random order
# ---------------------------------------------------------------------------

_T = Iri(RDF_TYPE)
_SC = Iri(RDFS_SUBCLASSOF)
_SP = Iri(RDFS_SUBPROPERTYOF)
_DOM = Iri(RDFS_DOMAIN)
_RAN = Iri(RDFS_RANGE)
_INV = Iri(OWL_INVERSEOF)
_SYM = Iri(OWL_SYMMETRIC)
_TRA = Iri(OWL_TRANSITIVE)


def _safe(maker):
    try:
        return maker()
    except StructuralError:
        return None


def _r_subclass_trans(ts):
    return {Triple(a.subject, _SC, b.object)
            for a in ts if a.predicate == _SC
            for b in ts if b.predicate == _SC and b.subject == a.object}


def _r_subprop_trans(ts):
    return {Triple(a.subject, _SP, b.object)
            for a in ts if a.predicate == _SP
            for b in ts if b.predicate == _SP and b.subject == a.object}


def _r_type_via_subclass(ts):
    return {Triple(x.subject, _T, sc.object)
            for sc in ts if sc.predicate == _SC
            for x in ts if x.predicate == _T and x.object == sc.subject}


def _r_domain(ts):
    return {Triple(u.subject, _T, d.object)
            for d in ts if d.predicate == _DOM and isinstance(d.subject, Iri)
            for u in ts if u.predicate == d.subject}


def _r_range(ts):
    return {Triple(u.object, _T, d.object)
            for d in ts if d.predicate == _RAN and isinstance(d.subject, Iri)
            for u in ts if u.predicate == d.subject and not isinstance(u.object, Literal)}


def _r_inverse(ts):
    out = set()
    for d in ts:
        if d.predicate != _INV or not isinstance(d.subject, Iri) or not isinstance(d.object, Iri):
            continue
        for u in ts:
            if u.predicate == d.subject and not isinstance(u.object, Literal):
                out.add(Triple(u.object, d.object, u.subject))
            if u.predicate == d.object and not isinstance(u.object, Literal):
                out.add(Triple(u.object, d.subject, u.subject))
    return out


def _r_symmetric(ts):
    props = {d.subject for d in ts if d.predicate == _T and d.object == _SYM and isinstance(d.subject, Iri)}
    return {Triple(u.object, u.predicate, u.subject)
            for u in ts if u.predicate in props and not isinstance(u.object, Literal)}


def _r_transitive(ts):
    props = {d.subject for d in ts if d.predicate == _T and d.object == _TRA and isinstance(d.subject, Iri)}
    out = set()
    for p in props:
        edges = [(u.subject, u.object) for u in ts if u.predicate == p]
        for a, b in edges:
            for c, d in edges:
                if b == c:
                    out.add(Triple(a, p, d))
    return out


_ORACLE_RULES = [_r_subclass_trans, _r_subprop_trans, _r_type_via_subclass, _r_domain,
                 _r_range, _r_inverse, _r_symmetric, _r_transitive]


def oracle_materialize(graph: Graph, seed: int) -> frozenset:
    """Fixpoint with rules applied in a seed-shuffled order each round."""
    rng = random.Random(seed)
    triples = set(graph.triple_set())
    changed = True
    while changed:
        changed = False
        order = list(_ORACLE_RULES)
        rng.shuffle(order)
        for rule in order:
            new = rule(list(triples)) - triples
            if new:
                triples |= new
                changed = True
    return frozenset(triples)


def oracle_derivations(graph: Graph) -> dict:
    """Derivation of every inferred triple by the reference nested-loop engine:
    rounds in RuleId order, each rule scanning the whole triple set in
    triple_key order against a snapshot, the first emission of a conclusion
    kept. This fixes the derivation the engine must report per triple."""
    triples = set(graph.triple_set())
    derivations = {}
    changed = True
    while changed:
        changed = False
        for rule in RuleId:
            by_pred = {}
            for t in sorted(triples, key=triple_key):
                by_pred.setdefault(t.predicate, []).append(t)
            out = {}

            def emit(conclusion, *premises):
                if conclusion not in triples and conclusion not in out:
                    out[conclusion] = Derivation(rule, premises)

            def by(p=None, s=None, o=None):
                return [t for t in by_pred.get(p, [])
                        if (s is None or t.subject == s) and (o is None or t.object == o)]

            if rule in (RuleId.SUBCLASS_TRANS, RuleId.SUBPROP_TRANS):
                pred = _SC if rule is RuleId.SUBCLASS_TRANS else _SP
                for a in by(pred):
                    for b in by(pred, s=a.object):
                        emit(Triple(a.subject, pred, b.object), a, b)
            elif rule is RuleId.TYPE_VIA_SUBCLASS:
                for sub in by(_SC):
                    for typed in by(_T, o=sub.subject):
                        emit(Triple(typed.subject, _T, sub.object), typed, sub)
            elif rule in (RuleId.DOMAIN_TYPING, RuleId.RANGE_TYPING):
                for decl in by(_DOM if rule is RuleId.DOMAIN_TYPING else _RAN):
                    for use in by(decl.subject):
                        if rule is RuleId.DOMAIN_TYPING:
                            emit(Triple(use.subject, _T, decl.object), use, decl)
                        elif not isinstance(use.object, Literal):
                            emit(Triple(use.object, _T, decl.object), use, decl)
            elif rule is RuleId.INVERSE_OF:
                for decl in by(_INV):
                    p, q = decl.subject, decl.object
                    if not isinstance(p, Iri) or not isinstance(q, Iri):
                        continue
                    for use in by(p):
                        if not isinstance(use.object, Literal):
                            emit(Triple(use.object, q, use.subject), use, decl)
                    for use in by(q):
                        if not isinstance(use.object, Literal):
                            emit(Triple(use.object, p, use.subject), use, decl)
            elif rule is RuleId.SYMMETRIC:
                for decl in by(_T, o=_SYM):
                    p = decl.subject
                    for use in by(p):
                        if not isinstance(use.object, Literal):
                            emit(Triple(use.object, p, use.subject), use, decl)
            else:
                for decl in by(_T, o=_TRA):
                    p = decl.subject
                    for a in by(p):
                        for b in by(p, s=a.object):
                            emit(Triple(a.subject, p, b.object), a, b)
            if out:
                triples |= set(out)
                derivations.update(out)
                changed = True
    return derivations


# ---------------------------------------------------------------------------
# Graph neighbourhood: BFS in canonical order, then a scan of the whole graph
# ---------------------------------------------------------------------------


def oracle_graph_retrieve(graph: Graph, seeds, radius: int) -> list:
    """The (triple, hop) pairs within `radius` hops of a seed, found by a BFS
    over sorted matches and a scan of every triple of the graph."""
    present = {s for s in seeds if graph.match(s, None, None) or graph.match(None, None, s)}
    if not present:
        return []
    hop = {s: 0 for s in present}
    frontier = list(present)
    depth = 0
    while frontier and depth <= radius:
        nxt = set()
        for node in frontier:
            for t in graph.match(node, None, None) + graph.match(None, None, node):
                other = t.object if t.subject == node else t.subject
                if other not in hop:
                    hop[other] = depth + 1
                    nxt.add(other)
        frontier = list(nxt)
        depth += 1
    out = []
    for t in graph:
        hops = [hop[x] for x in (t.subject, t.object) if x in hop]
        if hops and min(hops) <= radius:
            out.append((t, min(hops)))
    out.sort(key=lambda pair: (pair[1], triple_key(pair[0])))
    return out


# ---------------------------------------------------------------------------
# Turtle: the hand-written character loop the token table replaced
# ---------------------------------------------------------------------------

_OLD_PNAME_RE = re.compile(
    r"(?:[A-Za-z_][A-Za-z0-9_.\-]*)?:"
    r"(?:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)?"
)
_OLD_BLANK_RE = re.compile(r"_:[A-Za-z0-9_][A-Za-z0-9_.\-]*")
_OLD_DECIMAL_RE = re.compile(r"[+-]?[0-9]*\.[0-9]+")
_OLD_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_OLD_LANGTAG_RE = re.compile(r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*")
_OLD_KEYWORD_RE = re.compile(r"(a|true|false)(?![A-Za-z0-9_\-:])")
_OLD_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def oracle_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, value, line, column) tokens of a Turtle-subset document, read
    one character at a time with explicit line and column counters."""
    tokens: list[tuple[str, str, int, int]] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(message: str, at_line: int, at_col: int):
        raise TurtleParseError([ParseDiagnostic(at_line, at_col, message)])

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col

        if c == "@":
            if text.startswith("@prefix", i):
                tokens.append(("PREFIX_DIR", "@prefix", line, col))
                i += 7
                col += 7
                continue
            m = _OLD_LANGTAG_RE.match(text, i)
            if m:
                tokens.append(("LANGTAG", m.group()[1:], line, col))
                col += len(m.group())
                i = m.end()
                continue
            err("unsupported directive", line, col)

        if c == "<":
            end = text.find(">", i + 1)
            newline = text.find("\n", i + 1)
            if end == -1 or (newline != -1 and newline < end):
                err("unterminated IRI", start_line, start_col)
            tokens.append(("IRIREF", text[i + 1:end], line, col))
            col += end - i + 1
            i = end + 1
            continue

        if c == '"':
            j = i + 1
            buf: list[str] = []
            while True:
                if j >= n or text[j] == "\n":
                    err("unterminated literal", start_line, start_col)
                ch = text[j]
                if ch == "\\":
                    if j + 1 >= n:
                        err("unterminated literal", start_line, start_col)
                    nxt = text[j + 1]
                    if nxt == "u" and j + 5 < n:
                        buf.append(chr(int(text[j + 2:j + 6], 16)))
                        j += 6
                        continue
                    if nxt == "U" and j + 9 < n:
                        buf.append(chr(int(text[j + 2:j + 10], 16)))
                        j += 10
                        continue
                    buf.append(_OLD_ESCAPES.get(nxt, text[j:j + 2]))
                    j += 2
                    continue
                if ch == '"':
                    break
                buf.append(ch)
                j += 1
            tokens.append(("STRING", "".join(buf), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue

        if text.startswith("^^", i):
            tokens.append(("HATHAT", "^^", line, col))
            i += 2
            col += 2
            continue

        if c in ".;,":
            tokens.append(({".": "DOT", ";": "SEMI", ",": "COMMA"}[c], c, line, col))
            i += 1
            col += 1
            continue

        m = _OLD_BLANK_RE.match(text, i)
        if m:
            label = m.group()[2:].rstrip(".")  # a trailing dot ends the statement
            tokens.append(("BLANK", label, line, col))
            i += 2 + len(label)
            col += 2 + len(label)
            continue

        m = _OLD_KEYWORD_RE.match(text, i)
        if m:
            tokens.append(("A" if m.group(1) == "a" else "BOOL", m.group(1), line, col))
            i = m.end()
            col += len(m.group())
            continue

        m = _OLD_DECIMAL_RE.match(text, i) or _OLD_INTEGER_RE.match(text, i)
        if m:
            tokens.append(("DEC" if "." in m.group() else "INT", m.group(), line, col))
            i = m.end()
            col += len(m.group())
            continue

        m = _OLD_PNAME_RE.match(text, i)
        if m:
            tokens.append(("PNAME", m.group(), line, col))
            i = m.end()
            col += len(m.group())
            continue

        err(f"unexpected character {c!r}", line, col)

    tokens.append(("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# SPARQL parser: the scannerless lexer the token table replaced
# ---------------------------------------------------------------------------

_OLD_VAR_RE = re.compile(r"\?([A-Za-z_][A-Za-z0-9_]*)")
_OLD_QUERY_PNAME_RE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)?")
_OLD_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OLD_IRIREF_RE = re.compile(r"<[^<>\"{}|^`\\ \t\n]*>")
_OLD_NUM_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")


class _OldLexer:
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
        m = _OLD_WORD_RE.match(self.text, self.pos)
        if m and m.group().upper() == word:
            self._advance(len(m.group()))
            return True
        return False

    def peek_word(self) -> str | None:
        self.skip_ws()
        m = _OLD_WORD_RE.match(self.text, self.pos)
        return m.group() if m else None


class _OldQueryParser:
    def __init__(self, text: str):
        self.lex = _OldLexer(text)
        self.prefixes: PrefixMap = {}

    def parse(self) -> Query:
        lex = self.lex
        while lex.try_keyword("PREFIX"):
            pname = lex.try_regex(_OLD_QUERY_PNAME_RE)
            if pname is None or not pname.endswith(":"):
                lex.error("expected prefix label ending in ':'")
            iriref = lex.try_regex(_OLD_IRIREF_RE)
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
            var = lex.try_regex(_OLD_VAR_RE)
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
        var = lex.try_regex(_OLD_VAR_RE)
        if var is not None:
            return var[1:]
        iriref = lex.try_regex(_OLD_IRIREF_RE)
        if iriref is not None:
            return Iri(iriref[1:-1])
        lex.skip_ws()
        if lex.text.startswith('"', lex.pos):
            return self._string_literal()
        num = lex.try_regex(_OLD_NUM_RE)
        if num is not None:
            return Literal(num, XSD_DECIMAL if "." in num else XSD_INTEGER)
        if lex.try_keyword("TRUE"):
            return Literal("true", XSD_BOOLEAN)
        if lex.try_keyword("FALSE"):
            return Literal("false", XSD_BOOLEAN)
        self._reject_unsupported()
        pname = lex.try_regex(_OLD_QUERY_PNAME_RE)
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
            iriref = lex.try_regex(_OLD_IRIREF_RE)
            if iriref is not None:
                return Literal(lexical, iriref[1:-1])
            pname = lex.try_regex(_OLD_QUERY_PNAME_RE)
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
            lex.try_regex(_OLD_WORD_RE)
            if not lex.try_literal("("):
                lex.error("expected '(' after isIRI")
            var = lex.try_regex(_OLD_VAR_RE)
            if var is None:
                lex.error("isIRI takes a variable")
            if not lex.try_literal(")"):
                lex.error("expected ')'")
            expr: FilterExpr = IsIriTest(var[1:])
        elif word and word.lower() == "regex":
            lex.try_regex(_OLD_WORD_RE)
            if not lex.try_literal("("):
                lex.error("expected '(' after regex")
            var = lex.try_regex(_OLD_VAR_RE)
            if var is None:
                lex.error("regex takes a variable first")
            if not lex.try_literal(","):
                lex.error("expected ',' in regex")
            pattern = self._string_literal()
            if not lex.try_literal(")"):
                lex.error("expected ')'")
            expr = RegexMatch(var[1:], pattern.lexical)
        else:
            var = lex.try_regex(_OLD_VAR_RE)
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


def oracle_parse_query(text: str) -> Query:
    """The SPARQL subset read without a token list: each parser step skips
    whitespace and matches its own regex or literal at the current offset."""
    return _OldQueryParser(text).parse()


# ---------------------------------------------------------------------------
# Hanoi: explicit stack reconstruction, exhaustive transition relation, BFS
# ---------------------------------------------------------------------------


def oracle_stacks(peg_of: tuple[int, ...]) -> dict[int, list[int]]:
    return {p: sorted(d for d, peg in enumerate(peg_of) if peg == p) for p in range(3)}


def oracle_legal_moves(peg_of: tuple[int, ...]) -> set[tuple[int, int]]:
    stacks = oracle_stacks(peg_of)
    out = set()
    for f in range(3):
        for t in range(3):
            if f == t or not stacks[f]:
                continue
            if not stacks[t] or stacks[t][0] > stacks[f][0]:
                out.add((f, t))
    return out


def oracle_apply(peg_of: tuple[int, ...], move: tuple[int, int]) -> tuple[int, ...]:
    stacks = oracle_stacks(peg_of)
    disk = stacks[move[0]][0]
    out = list(peg_of)
    out[disk] = move[1]
    return tuple(out)


def oracle_bfs_distance(n: int, start: tuple[int, ...], goal: tuple[int, ...]) -> int:
    frontier = [start]
    dist = {start: 0}
    while frontier:
        nxt = []
        for state in frontier:
            if state == goal:
                return dist[state]
            for move in oracle_legal_moves(state):
                succ = oracle_apply(state, move)
                if succ not in dist:
                    dist[succ] = dist[state] + 1
                    nxt.append(succ)
        frontier = nxt
    raise AssertionError("goal unreachable")


def oracle_distances_from(n: int, source: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """BFS distance from `source` to every state; every move can be undone,
    so this is also each state's distance to `source`."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for state in frontier:
            for move in oracle_legal_moves(state):
                succ = oracle_apply(state, move)
                if succ not in dist:
                    dist[succ] = dist[state] + 1
                    nxt.append(succ)
        frontier = nxt
    assert len(dist) == 3 ** n
    return dist


def all_states(n: int):
    return (tuple(s) for s in itertools.product(range(3), repeat=n))


def oracle_solve_from(start: HanoiState, goal: HanoiState) -> list[Move]:
    """Shortest plan between arbitrary states (BFS over the 3^n state space);
    the planner that the largest-disk-first recursion replaced."""
    if start == goal:
        return []
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], Move]] = {start.peg_of: (start.peg_of, Move(0, 1))}
    frontier = [start]
    while frontier:
        nxt: list[HanoiState] = []
        for state in frontier:
            for move in legal_moves(state):
                succ = apply_move(state, move)
                if succ.peg_of in parent:
                    continue
                parent[succ.peg_of] = (state.peg_of, move)
                if succ == goal:
                    plan: list[Move] = []
                    cursor = succ.peg_of
                    while cursor != start.peg_of:
                        prev, step = parent[cursor]
                        plan.append(step)
                        cursor = prev
                    plan.reverse()
                    return plan
                nxt.append(succ)
        frontier = nxt
    raise ValueError("goal unreachable")  # cannot happen on a connected state space


# ---------------------------------------------------------------------------
# Builder gate: the copy-based blame loop, checking whole closures
# ---------------------------------------------------------------------------


def _copy_extend(closure: Graph, added) -> Graph:
    """materialize(closure + added) on a full copy of `closure`: the extend
    the gate used before layers."""
    result = closure.copy()
    _saturate(result, [t for t in added if result.insert(t)], DEFAULT_APPLICATION_CEILING)
    return result


def oracle_validate_gate(candidates: list[Candidate], trusted: Graph,
                         shapes: list[NodeShape]) -> GateResult:
    """The gate before layers and scoped checks: every round copies the base
    closure, scans the whole trial for conflicts and violations, and drops
    those the base closure already shows."""
    remaining = list(candidates)
    quarantined: list[QuarantinedCandidate] = []

    base = materialize(trusted)
    base_conflicts = set(check_consistency(base))
    base_violations = {_violation_key(v) for v in validate(base, shapes).results}

    # Conflicts only grow with the asserted set, so a round that removes
    # candidates cannot create a fresh one: every conflict round comes before
    # every shape round.
    while remaining:
        closure = _copy_extend(base, [cand.triple for cand in remaining])
        evidence = [c for c in check_consistency(closure) if c not in base_conflicts]
        if not evidence:
            evidence = [v for v in validate(closure, shapes).results
                        if _violation_key(v) not in base_violations]
        del closure  # hold the base and at most one trial closure
        if not evidence:
            break

        # Only duplicates of trusted triples would leave the trial equal to
        # `trusted`, which shows nothing fresh; so `suspects` is never empty.
        suspects = [i for i, cand in enumerate(remaining) if cand.triple not in trusted]
        blamed: dict[int, list] = {}
        for i in suspects:
            hits = [e for e in evidence if _touches(remaining[i].triple, e)]
            if hits:
                blamed[i] = hits
        if not blamed:
            weakest = min(suspects,
                          key=lambda i: (remaining[i].confidence(), triple_key(remaining[i].triple)))
            blamed = {weakest: evidence}
        for i in sorted(blamed, reverse=True):
            cand = remaining.pop(i)
            if isinstance(evidence[0], Conflict):
                quarantined.append(QuarantinedCandidate(cand, "consistency conflict",
                                                        conflicts=blamed[i]))
            else:
                quarantined.append(QuarantinedCandidate(cand, "shape violation",
                                                        violations=blamed[i]))

    quarantined.sort(key=lambda q: triple_key(q.candidate.triple))
    return GateResult(accepted=remaining, quarantined=quarantined)


# ---------------------------------------------------------------------------
# Fact check: every claim materializes trusted plus its conditions from scratch
# ---------------------------------------------------------------------------


def oracle_check_claim(claim: Claim, trusted: Graph) -> Verdict:
    """The claim path before conditions extended a shared closure: trusted
    plus the conditions closed from scratch, and a statement the closure
    lacks added to a full copy of it, whose whole conflict report is kept."""
    with_conditions = trusted.copy()
    for t in claim.conditions:
        with_conditions.insert(t)
    m, derivations = materialize(with_conditions, want_derivations=True)
    base_conflicts = check_consistency(m)
    if base_conflicts:
        raise ConditionInconsistencyError(base_conflicts)

    condition_steps = tuple(
        TraceStep(TraceKind.CONDITION_CHECK, (c,), detail="condition assumed hypothetically")
        for c in claim.conditions
    )
    statement = claim.statement
    if statement in m:
        steps = list(condition_steps)
        _oracle_walk(statement, derivations, set(), steps)
        status, trace = VerdictStatus.SUPPORTED, tuple(steps)
    else:
        # `m` holds no conflict, so every conflict of the copy is fresh.
        conflicts = check_consistency(_copy_extend(m, [statement]))
        if conflicts:
            status = VerdictStatus.CONTRADICTED
            trace = condition_steps + tuple(
                TraceStep(TraceKind.CONFLICT, c.detail, detail=c.kind.value) for c in conflicts)
        else:
            lookup = TraceStep(TraceKind.MATCHED_FACT, (statement,),
                               detail="lookup attempted: no match in materialized graph")
            status, trace = VerdictStatus.NOT_FOUND, condition_steps + (lookup,)
    if claim.polarity is Polarity.NEGATED:
        status = {VerdictStatus.SUPPORTED: VerdictStatus.CONTRADICTED,
                  VerdictStatus.CONTRADICTED: VerdictStatus.SUPPORTED}.get(status, status)
    return Verdict(status, trace, claim)


def _oracle_walk(t: Triple, derivations, seen: set, steps: list) -> None:
    """The derivation chain of `t`, bottom-up: matched leaves first, then
    rule firings."""
    if t in seen:
        return
    seen.add(t)
    derivation = derivations.get(t)
    if derivation is None:
        steps.append(TraceStep(TraceKind.MATCHED_FACT, (t,)))
        return
    for premise in derivation.premises:
        _oracle_walk(premise, derivations, seen, steps)
    steps.append(TraceStep(TraceKind.INFERENCE_RULE, derivation.premises + (t,),
                           rule_id=derivation.rule_id.value))


# ---------------------------------------------------------------------------
# Store writer: one full rewrite of trusted.ttl, provenance.jsonl and
# registry.ttl per accepting commit, and the multi-pass registry reader
# ---------------------------------------------------------------------------


def oracle_save_commit(handle: StoreHandle, delta: OntologyDelta) -> Path | None:
    """The commit writer before the journals: a delta with accepted triples
    rewrites trusted.ttl, provenance.jsonl and registry.ttl whole."""
    root = handle.root
    store = handle.store

    delta_path: Path | None = None
    if delta.accepted:
        delta_graph = Graph()
        for cand in delta.accepted:
            delta_graph.insert(cand.triple)
        delta_path = root / f"delta-{delta.version_id}.ttl"
        delta_path.write_text(serialize_turtle(delta_graph, handle.prefixes), encoding="utf-8")
        (root / "trusted.ttl").write_text(
            serialize_turtle(store.trusted, handle.prefixes), encoding="utf-8")
        _oracle_save_provenance(root / "provenance.jsonl", store)
        (root / "registry.ttl").write_text(
            serialize_turtle(oracle_registry_to_graph(store.registry), handle.prefixes),
            encoding="utf-8")

    _append_jsonl(root / "quarantine.jsonl", [{
        "triple": triple_text(q.candidate.triple),
        "reason": q.reason,
        "conflicts": [c.to_json() for c in q.conflicts],
        "violations": [v.to_json() for v in q.violations],
        "provenance": [p.to_json() for p in q.candidate.provenance],
        "version": delta.version_id,
    } for q in delta.quarantined] + [{
        "relation": qr.describe(),
        "reason": qr.reason,
        "provenance": [qr.provenance.to_json()],
        "version": delta.version_id,
    } for qr in delta.quarantined_relations])

    texts = {f"{chunk.doc_id}#{chunk.index}": chunk.text for chunk in delta.chunks}
    for entry_id, _ in load_log_entries(root)[0]:
        texts.pop(entry_id, None)
    _append_jsonl(root / "logs.jsonl", [{"id": i, "text": text} for i, text in texts.items()])

    if delta.accepted:  # the commit point, after every other write
        (root / "version").write_text(f"{delta.version_id}\n", encoding="utf-8")
    return delta_path


def _append_jsonl(path: Path, objects: list[dict]) -> None:
    with path.open("a", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n")


def _oracle_save_provenance(path: Path, store: OntologyStore) -> None:
    lines = []
    for t in store.trusted:
        records = [p.to_json() for p in store.provenance.get(t, ())]
        lines.append(json.dumps({"triple": triple_text(t), "provenance": records},
                                sort_keys=True, ensure_ascii=False))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def oracle_load_provenance(root: Path) -> dict[Triple, list[Provenance]]:
    """`store.provenance` as loading the whole journal eagerly builds it:
    every line of provenance.jsonl JSON-parsed in order, up to the first
    version marker above the committed version and without a last line
    that lacks its newline; each trusted triple maps to its records in
    journal order, or else to one placeholder record naming trusted.ttl."""
    version = int((root / "version").read_text(encoding="utf-8").strip() or "0")
    by_text: dict[str, list[Provenance]] = {}
    for line in (root / "provenance.jsonl").read_text(encoding="utf-8").split("\n")[:-1]:
        obj = json.loads(line) if line.strip() else {}
        if "triple" in obj:
            by_text.setdefault(obj["triple"], []).extend(
                Provenance(p["source_id"], p.get("chunk_id"), p.get("extracted_at", 0),
                           p.get("confidence", 1.0), Origin(p.get("origin", "SOURCE_DOCUMENT")))
                for p in obj["provenance"])
        elif obj.get("version", 0) > version:  # a block whose commit never finished
            break
    trusted, _ = parse_turtle((root / "trusted.ttl").read_text(encoding="utf-8"))
    placeholder = Provenance(source_id="trusted.ttl", origin=Origin.SOURCE_DOCUMENT)
    return {t: by_text.get(triple_text(t)) or [placeholder] for t in trusted}


def oracle_registry_to_graph(registry: EntityRegistry) -> Graph:
    g = Graph()
    label_p, alias_p = Iri(RDFS_LABEL), Iri(SYS_ALIAS)
    seen_p = Iri(SYS_FIRST_SEEN)
    for iri, entry in sorted(registry.entries.items()):
        node = Iri(iri)
        g.insert(Triple(node, label_p, Literal(entry.preferred_label)))
        for alias in sorted(entry.aliases):
            g.insert(Triple(node, alias_p, Literal(alias)))
        if entry.first_seen is not None:
            g.insert(Triple(node, seen_p, Literal(entry.first_seen)))
    reg_node = Iri(SYS_REGISTRY)
    for alias in sorted(registry.ambiguous):
        g.insert(Triple(reg_node, Iri(SYS_AMBIGUOUS_ALIAS), Literal(alias)))
    return g


def oracle_registry_from_graph(graph: Graph, instance_ns: str) -> EntityRegistry:
    """One sorted `match` per entry and predicate."""
    registry = EntityRegistry(instance_ns)
    for t in graph.match(None, Iri(RDFS_LABEL), None):
        if not isinstance(t.subject, Iri) or not isinstance(t.object, Literal):
            continue
        iri = t.subject.value
        registry.entries[iri] = RegistryEntry(iri, t.object.lexical)
    for iri in list(registry.entries):
        node = Iri(iri)
        for t in graph.match(node, Iri(SYS_ALIAS), None):
            if isinstance(t.object, Literal):
                registry.add_alias(iri, t.object.lexical)
        seen = graph.match(node, Iri(SYS_FIRST_SEEN), None)
        if seen and isinstance(seen[0].object, Literal):
            registry.entries[iri].first_seen = seen[0].object.lexical
    for t in graph.match(Iri(SYS_REGISTRY), Iri(SYS_AMBIGUOUS_ALIAS), None):
        if isinstance(t.object, Literal):
            registry.ambiguous.add(t.object.lexical)
    return registry
