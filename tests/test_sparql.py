import ast
import random
import re
import time
from pathlib import Path

import pytest

from ontomem.rdf_core import Blank, Graph, Iri, Literal, Triple, escape_literal, term_text
from ontomem.namespaces import XSD_INTEGER
from ontomem.sparql import (
    _UNSUPPORTED,
    Comparison,
    CompareOp,
    IsIriTest,
    PathPlus,
    Query,
    QueryForm,
    QueryParseError,
    RegexMatch,
    TriplePattern,
    UnsupportedFeatureError,
    _tokenize,
    evaluate,
    parse_query,
)
from oracles import naive_evaluate, oracle_parse_query
from test_turtle_io import _mutate, _offset

EX = "http://ex.org/"


def iri(local):
    return Iri(EX + local)


def tr(s, p, o):
    return Triple(iri(s), iri(p), iri(o))


class TestParse:
    def test_minimal_ask(self):
        q = parse_query("ASK WHERE { ?s ?p ?o }")
        assert q.form is QueryForm.ASK
        assert len(q.patterns) == 1

    def test_typed_lookup_select(self):
        q = parse_query("PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Disk }")
        assert q.form is QueryForm.SELECT
        assert q.projection == ("x",)
        assert q.patterns[0].predicate == Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

    def test_optional_rejected_by_name(self):
        with pytest.raises(UnsupportedFeatureError) as exc:
            parse_query("SELECT ?x WHERE { ?x ?p ?o OPTIONAL { ?x ?q ?y } }")
        assert exc.value.feature == "OPTIONAL"

    @pytest.mark.parametrize("keyword", ["UNION", "DISTINCT", "GRAPH", "BIND", "MINUS"])
    def test_other_unsupported_features_named(self, keyword):
        queries = {
            "UNION": "SELECT ?x WHERE { { ?x ?p ?o } UNION { ?x ?q ?o } }",
            "DISTINCT": "SELECT DISTINCT ?x WHERE { ?x ?p ?o }",
            "GRAPH": "SELECT ?x WHERE { GRAPH ?g { ?x ?p ?o } }",
            "BIND": "SELECT ?x WHERE { ?x ?p ?o BIND(1 AS ?y) }",
            "MINUS": "SELECT ?x WHERE { ?x ?p ?o MINUS { ?x ?q ?o } }",
        }
        with pytest.raises(UnsupportedFeatureError) as exc:
            parse_query(queries[keyword])
        assert exc.value.feature == keyword

    def test_path_plus(self):
        q = parse_query("PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:sub+ ex:c }")
        assert isinstance(q.patterns[0].predicate, PathPlus)

    def test_projection_must_be_bound(self):
        with pytest.raises(QueryParseError):
            parse_query("SELECT ?missing WHERE { ?x ?p ?o }")

    def test_limit(self):
        q = parse_query("SELECT ?x WHERE { ?x ?p ?o } LIMIT 3")
        assert q.limit == 3

    def test_filters_parse(self):
        q = parse_query(
            'PREFIX ex: <http://ex.org/> SELECT ?x WHERE '
            '{ ?x ex:p ?o . FILTER(?o != ex:b) FILTER(isIRI(?x)) FILTER(regex(?x, "th.ng")) }')
        assert len(q.filters) == 3
        comp = q.filters[0]
        assert isinstance(comp, Comparison) and comp.op is CompareOp.NE

    @pytest.mark.parametrize("query, message, column", [
        ("SELECT ?s WHERE { ?s ex:p ?o }", "unknown prefix 'ex'", 26),
        ('SELECT ?s WHERE { ?s ?p "x"^^ex:t }', "unknown prefix 'ex'", 34),
        ("PREFIX ex:a <http://ex.org/> SELECT ?s WHERE { ?s ?p ?o }", "expected prefix label ending in ':'", 12),
        ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 0", "LIMIT must be >= 1", 37),
    ])
    def test_errors_after_a_token_point_just_past_it(self, query, message, column):
        for parse in (parse_query, oracle_parse_query):
            with pytest.raises(QueryParseError) as exc:
                parse(query)
            diag = exc.value.diagnostics[0]
            assert (diag.message, diag.line, diag.column) == (message, 1, column)

    @pytest.mark.parametrize("query, column", [
        ("SELECT ?s WHERE { ?s <> ?o }", 22),
        ("SELECT ?s WHERE {\n ?s <a\u00a0b> ?o }", 5),
        ('SELECT ?s WHERE { ?s ?p "x"^^<> }', 30),
        ("PREFIX ex: <a\u00a0> SELECT ?s WHERE { ?s ex:p ?o }", 38),
    ])
    def test_bad_iri_is_parse_error_at_its_token(self, query, column):
        with pytest.raises(QueryParseError) as exc:
            parse_query(query)
        diag = exc.value.diagnostics[0]
        assert diag.message.startswith("IRI must be non-empty")
        assert (diag.line, diag.column) == (query.count("\n") + 1, column)

    def test_keyword_followed_by_colon_is_prefixed_name(self):
        q = parse_query("PREFIX a: <http://ex.org/> PREFIX TRUE: <http://ex.org/t#> "
                        "SELECT ?s WHERE { ?s a:p TRUE:x . ?s a ?o . ?s a:q true }")
        assert q.patterns[0] == TriplePattern("s", iri("p"), Iri("http://ex.org/t#x"))
        assert q.patterns[1].predicate == Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        assert q.patterns[2].object == Literal("true", "http://www.w3.org/2001/XMLSchema#boolean")
        q = parse_query("PREFIX Optional: <http://ex.org/> SELECT ?s WHERE { ?s ?p Optional:x }")
        assert q.patterns[0].object == iri("x")

    def test_iriref_wins_over_less_than_after_filter_variable(self):
        text = "SELECT ?a ?b ?c WHERE { ?a ?p ?b . ?b ?p ?c FILTER(?a<?b)FILTER(?b>?c) }"
        with pytest.raises(QueryParseError) as exc:
            parse_query(text)
        diag = exc.value.diagnostics[0]
        assert (diag.message, diag.column) == ("expected comparison operator", text.index("<") + 1)
        spaced = parse_query("SELECT ?a ?b ?c WHERE { ?a ?p ?b . ?b ?p ?c FILTER(?a < ?b) FILTER(?b>?c) }")
        assert [f.op for f in spaced.filters] == [CompareOp.LT, CompareOp.GT]

    def test_nested_group_names_a_keyword_token(self):
        with pytest.raises(UnsupportedFeatureError) as exc:
            parse_query("SELECT ?x WHERE { ?x ?p ?o { ?x <http://ex.org/optional> ?y } UNION { ?x ?q ?y } }")
        assert exc.value.feature == "UNION"

    def test_decimal_after_limit(self):
        with pytest.raises(QueryParseError) as exc:
            parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1.4")
        diag = exc.value.diagnostics[0]
        assert (diag.message, diag.column) == ("LIMIT requires an integer", 36)

    def test_limit_with_more_digits_than_int_reads(self):
        with pytest.raises(QueryParseError) as exc:
            parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT " + "9" * 5000)
        diag = exc.value.diagnostics[0]
        assert (diag.message, diag.column) == ("LIMIT is too large", 36)

    def test_invalid_regex_is_parse_error_at_its_literal(self):
        with pytest.raises(QueryParseError) as exc:
            parse_query('SELECT ?s WHERE { ?s ?p ?o FILTER(regex(?o, "(")) }')
        diag = exc.value.diagnostics[0]
        assert diag.message.startswith("invalid regex pattern: missing )")
        assert diag.column == 45


class TestEvaluate:
    def test_unicode_escape_matches_the_turtle_literal(self):
        from ontomem.turtle_io import parse_turtle
        g, _ = parse_turtle('@prefix ex: <http://ex.org/> . ex:shop ex:name "caf\\u00e9" .')
        q = parse_query('PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:name "caf\\u00e9" }')
        assert q.patterns[0].object == Literal("café")
        assert evaluate(q, g).bindings == [{"s": iri("shop")}]

    def test_malformed_unicode_escape_is_parse_error(self):
        with pytest.raises(QueryParseError) as exc:
            parse_query('SELECT ?s WHERE { ?s ?p "caf\\u00" }')
        diag = exc.value.diagnostics[0]
        assert "malformed escape" in diag.message
        assert (diag.line, diag.column) == (1, 25)

    def test_empty_graph(self):
        q = parse_query("SELECT ?x WHERE { ?x ?p ?o }")
        assert evaluate(q, Graph()).bindings == []
        ask = parse_query("ASK WHERE { ?x ?p ?o }")
        assert evaluate(ask, Graph()).boolean is False

    def test_transitive_closure_hand_computed(self):
        g = Graph()
        g.insert(tr("a", "sub", "b"))
        g.insert(tr("b", "sub", "c"))
        q = parse_query("PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:sub+ ex:c }")
        got = {term_text(row["x"]) for row in evaluate(q, g).bindings}
        assert got == {f"<{EX}a>", f"<{EX}b>"}

    def test_filter_hand_enumerated(self):
        g = Graph()
        g.insert(tr("s1", "p", "b"))
        g.insert(tr("s2", "p", "c"))
        g.insert(tr("s3", "p", "b"))
        q = parse_query("PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:p ?o . FILTER(?o != ex:b) }")
        rows = evaluate(q, g).bindings
        assert [term_text(r["s"]) for r in rows] == [f"<{EX}s2>"]

    def test_numeric_comparison(self):
        g = Graph()
        g.insert(Triple(iri("a"), iri("n"), Literal("9", XSD_INTEGER)))
        g.insert(Triple(iri("b"), iri("n"), Literal("10", XSD_INTEGER)))
        q = parse_query("PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:n ?v . FILTER(?v > 9) }")
        rows = evaluate(q, g).bindings
        assert [term_text(r["s"]) for r in rows] == [f"<{EX}b>"]  # numeric, not lexicographic

    def test_limit_is_prefix_of_unlimited(self):
        g = Graph()
        for i in range(10):
            g.insert(tr(f"s{i}", "p", "o"))
        full = parse_query("PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:p ex:o }")
        capped = parse_query("PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:p ex:o } LIMIT 4")
        assert evaluate(capped, g).bindings == evaluate(full, g).bindings[:4]

    def test_monotonicity_filter_free(self):
        rng = random.Random(2)
        g = Graph()
        for _ in range(60):
            g.insert(tr(f"s{rng.randrange(6)}", f"p{rng.randrange(3)}", f"o{rng.randrange(6)}"))
        q = parse_query("PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p0 ?y . ?y ex:p1 ?z }")
        before = {tuple(sorted((k, term_text(v)) for k, v in row.items()))
                  for row in evaluate(q, g).bindings}
        g.insert(tr("s0", "p0", "o5"))
        g.insert(tr("o5", "p1", "o0"))
        after = {tuple(sorted((k, term_text(v)) for k, v in row.items()))
                 for row in evaluate(q, g).bindings}
        assert before <= after


# ---------------------------------------------------------------------------
# Randomized oracle equivalence
# ---------------------------------------------------------------------------


def random_graph(rng: random.Random, max_triples: int) -> Graph:
    g = Graph()
    n_subj, n_pred, n_obj = rng.randint(3, 8), rng.randint(2, 4), rng.randint(3, 8)
    for _ in range(rng.randint(1, max_triples)):
        s = iri(f"s{rng.randrange(n_subj)}")
        p = iri(f"p{rng.randrange(n_pred)}")
        if rng.random() < 0.25:
            o = Literal(str(rng.randrange(20)), XSD_INTEGER)
        else:
            o = iri(f"o{rng.randrange(n_obj)}")
        g.insert(Triple(s, p, o))
    return g


_FIXED_PATTERNS = ["^h", "[0-9]", "o1$"]


def random_pattern(rng: random.Random, pool: list) -> str:
    """A fixed pattern, or an escaped piece of one term's text in the graph."""
    if rng.random() < 0.3:
        return rng.choice(_FIXED_PATTERNS)
    term = rng.choice(pool)
    text = term.lexical if isinstance(term, Literal) else (
        term.value if isinstance(term, Iri) else term.label)
    start = rng.randrange(len(text) + 1)
    return re.escape(text[start:rng.randint(start, len(text))])


def random_query(rng: random.Random, graph: Graph) -> Query:
    variables = ["a", "b", "c"][:rng.randint(1, 3)]
    patterns = []
    pool = graph.terms()
    iris = [t for t in pool if isinstance(t, Iri)]
    for _ in range(rng.randint(1, 3)):
        def slot(allow_literal=False):
            if rng.random() < 0.5:
                return rng.choice(variables)
            choices = pool if allow_literal else iris
            return rng.choice(choices)

        if rng.random() < 0.2 and iris:
            predicate = PathPlus(rng.choice(iris))
        elif rng.random() < 0.5:
            predicate = rng.choice(variables)
        else:
            predicate = rng.choice(iris)
        patterns.append(TriplePattern(slot(), predicate, slot(allow_literal=True)))

    used = sorted({v for p in patterns for v in p.variables()})
    if not used:  # replace, not append: criterion 2 holds queries to three patterns
        patterns[-1] = TriplePattern(variables[0], rng.choice(iris), variables[0])
        used = [variables[0]]
    filters = []
    for _ in range(rng.randint(0, 2)):
        v = rng.choice(used)
        kind = rng.random()
        if kind < 0.4:
            op = rng.choice(list(CompareOp))
            rhs = rng.choice(used) if rng.random() < 0.3 else rng.choice(pool)
            filters.append(Comparison(v, op, rhs))
        elif kind < 0.7:
            filters.append(IsIriTest(v))
        else:
            filters.append(RegexMatch(v, random_pattern(rng, pool)))
    projection = tuple(sorted(rng.sample(used, rng.randint(1, len(used)))))
    limit = rng.choice([None, None, rng.randint(1, 5)])
    form = QueryForm.ASK if rng.random() < 0.2 else QueryForm.SELECT
    return Query(form, projection if form is QueryForm.SELECT else (), tuple(patterns),
                 tuple(filters), limit if form is QueryForm.SELECT else None)


def assert_oracle_match(query: Query, graph: Graph):
    got = evaluate(query, graph)
    expected = naive_evaluate(query, graph)
    if query.form is QueryForm.ASK:
        assert got.boolean == expected
    else:
        assert got.bindings == expected


def test_oracle_equivalence_quick():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, 60)
        q = random_query(rng, g)
        assert_oracle_match(q, g)


def test_oracle_equivalence_regex_on_every_term_kind():
    rng = random.Random(13)
    kinds = set()
    for _ in range(60):
        g = random_graph(rng, 30)
        for k in range(rng.randint(1, 4)):
            g.insert(Triple(Blank(f"b{k}"), iri("p0"), rng.choice([iri("o1"), Blank(f"h{k}")])))
        v = rng.choice(["s", "o"])
        q = Query(QueryForm.SELECT, (v,), (TriplePattern("s", iri("p0"), "o"),),
                  (RegexMatch(v, random_pattern(rng, g.terms())),), None)
        assert_oracle_match(q, g)
        kinds |= {type(row[v]) for row in evaluate(q, g).bindings}
    assert kinds == {Iri, Literal, Blank}  # the regex passed a term of every kind


def test_evaluation_ceiling_stops_runaway_joins(monkeypatch):
    import ontomem.sparql as sparql_module
    from ontomem.sparql import EvaluationLimitError
    g = Graph()
    for i in range(30):
        for j in range(30):
            g.insert(tr(f"a{i}", "p", f"b{j}"))
    q = parse_query("PREFIX ex: <http://ex.org/> SELECT ?x WHERE "
                    "{ ?x ex:p ?y . ?z ex:p ?w . ?u ex:p ?v }")
    monkeypatch.setattr(sparql_module, "DEFAULT_SOLUTION_CEILING", 10_000)
    with pytest.raises(EvaluationLimitError):
        evaluate(q, g)
    # generous ceiling leaves results unchanged
    small = parse_query("PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:p ?y }")
    assert len(evaluate(small, g).bindings) == 900


# ---------------------------------------------------------------------------
# Text round trip
# ---------------------------------------------------------------------------


def render(query: Query) -> str:
    """SPARQL text for `query`, each term written with term_text."""
    def slot(x):
        return f"?{x}" if isinstance(x, str) else term_text(x)

    def predicate(x):
        return f"{term_text(x.iri)}+" if isinstance(x, PathPlus) else slot(x)

    def filter_text(f):
        if isinstance(f, Comparison):
            return f"FILTER(?{f.variable} {f.op.value} {slot(f.rhs)})"
        if isinstance(f, IsIriTest):
            return f"FILTER(isIRI(?{f.variable}))"
        return f'FILTER(regex(?{f.variable}, "{escape_literal(f.pattern)}"))'

    head = "ASK" if query.form is QueryForm.ASK else "SELECT " + " ".join(f"?{v}" for v in query.projection)
    body = [f"{slot(p.subject)} {predicate(p.predicate)} {slot(p.object)} ." for p in query.patterns]
    body += [filter_text(f) for f in query.filters]
    return ("".join(f"PREFIX {label}: <{ns}>\n" for label, ns in query.prefixes)
            + f"{head} WHERE {{ {' '.join(body)} }}"
            + (f" LIMIT {query.limit}" if query.limit is not None else ""))


def _random_queries(count: int) -> list[Query]:
    rng = random.Random(11)
    return [random_query(rng, random_graph(rng, 40)) for _ in range(count)]


def test_rendered_random_queries_parse_back():
    for query in _random_queries(200):
        assert parse_query(render(query)) == query, render(query)


# ---------------------------------------------------------------------------
# The token table against the scannerless parser it replaced (tests/oracles.py)
# ---------------------------------------------------------------------------


def _suite_queries() -> list[str]:
    """Every string constant in the test modules that reads as a query."""
    found = set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.lstrip().upper().startswith(("SELECT", "ASK", "PREFIX")):
                found.add(node.value)
    return sorted(found)


_MULTILINE = [
    "# who works where\nPREFIX prop: <http://ex.org/prop/>\nSELECT ?e ?c ?s\nWHERE {\n"
    "  ?e prop:worksFor ?c .  # employer\n  ?c prop:owns ?s .\n  FILTER(?s != prop:none)\n} LIMIT 5\n",
    'PREFIX ex: <http://ex.org/>\nASK WHERE {\n\t?d ex:label "caf\\u00e9"@fr .\n'
    '  ?d ex:n ?n . FILTER(?n >= -2.5) FILTER(regex(?d, "^h.*"))\n  ?d ex:t true }',
]
_PIECES = [" ", "\n", "\t", "#", "# c\n", "\u00a0", "?x", "?o", "?", "<", ">", "<>", "<a\u00a0b>",
           "<http://ex.org/q>", "a", "a:", "true", "TRUE:", "filter:", "where:", "OPTIONAL", "{", "}",
           "(", ")", ".", ",", ";", "+", "-", "+1", "- 1", "1", "0", "1.4", '"', '"x"', '"\\u00"', "^^", "@en",
           "ex:", "ex:q", ":", "=", "!=", "<=", "FILTER(", 'regex(?x, "(")', "isIRI(", "LIMIT", "é"]

# Words the parser reads as keywords somewhere.
_KEYWORDS = _UNSUPPORTED | {"PREFIX", "SELECT", "ASK", "WHERE", "FILTER", "A", "TRUE", "FALSE",
                            "LIMIT", "ISIRI", "ISURI", "REGEX"}


def _outcome(parse, text: str):
    try:
        return "query", parse(text)
    except QueryParseError as e:
        diag = e.diagnostics[0]
        return "error", (type(e).__name__, diag.message, diag.line, diag.column)
    except Exception as e:  # the oracle's crashes: StructuralError
        return "crash", type(e).__name__


def _error_at(text: str, outcome) -> float:
    """Offset of an outcome's error; a query or a crash has none."""
    return _offset(text, *outcome[1][2:]) if outcome[0] == "error" else float("inf")


def _nested_group_error(outcome, brace) -> bool:
    """An error at a nested '{' that names a feature or the nesting itself."""
    return outcome[0] == "error" and outcome[1][2:] == brace and (
        outcome[1][1].startswith("unsupported SPARQL feature")
        or outcome[1][1] == "nested group patterns are not supported")


def _candidates(text: str, old, new):
    """(offset, difference) for each place the token table may read unlike the oracle."""
    tokens = _tokenize(text)
    at_token = {_offset(text, tok.line, tok.col): tok for tok in tokens}
    message, new_at = (new[1][1], _error_at(text, new)) if new[0] == "error" else ("", None)
    kind_there = at_token[new_at].kind if new_at in at_token else None
    if message.startswith("IRI must be") and kind_there in ("IRIREF", "PNAME"):
        yield new_at, "1: bad IRI"
    if message.startswith("invalid regex pattern") and kind_there == "STRING":
        yield new_at, "6: invalid regex"
    if kind_there == "OP" and at_token[new_at].text == "{" and _nested_group_error(new, new[1][2:]) \
            and _nested_group_error(old, new[1][2:]):
        yield new_at, "4: feature named after a nested group"
    for i, tok in enumerate(tokens):
        at = _offset(text, tok.line, tok.col)
        word = re.match(r"[A-Za-z_][A-Za-z0-9_]*", tok.text)
        if tok.kind == "PNAME" and word and word.group().upper() in _KEYWORDS:
            yield at, "2: keyword-named prefix"
        if at == new_at and tok.kind == "IRIREF" and message == "expected comparison operator" \
                and [t.text.upper() for t in tokens[i - 3:i - 1]] == ["FILTER", "("] \
                and tokens[i - 1].kind == "VAR":
            yield at, "3: IRIREF after a FILTER variable"
        if at == new_at and tok.kind == "NUM" and "." in tok.text \
                and message == "LIMIT requires an integer" and tokens[i - 1].text.upper() == "LIMIT":
            yield at, "5: decimal after LIMIT"


def _difference(text: str, old, new) -> str:
    """Which named difference separates the two outcomes; fails on any other.

    A difference is the one whose place comes first among those at which
    both parsers read the text before it alike, and before any error."""
    if old[0] == "crash":
        assert new[0] == "error" and new[1][0] == "QueryParseError", (text, old, new)
    for at, kind in sorted(_candidates(text, old, new)):
        if at > min(_error_at(text, old), _error_at(text, new)):
            break
        if _outcome(oracle_parse_query, text[:at]) == _outcome(parse_query, text[:at]):
            return kind
    raise AssertionError(f"unexplained difference on {text!r}: {old} vs {new}")


_EX = "PREFIX ex: <http://ex.org/> "
_NAMED = [
    (_EX + "SELECT ?s WHERE { ?s <> ?o }", "1: bad IRI"),
    (_EX + "SELECT ?s WHERE { ?s <a\u00a0b> ?o }", "1: bad IRI"),
    (_EX + 'SELECT ?s WHERE { ?s ?p "x"^^<> }', "1: bad IRI"),
    ("PREFIX ex: <a\u00a0> SELECT ?s WHERE { ?s ex:p ?o }", "1: bad IRI"),
    ("PREFIX a: <http://ex.org/> SELECT ?s WHERE { ?s a:p ?o }", "2: keyword-named prefix"),
    ("PREFIX true: <http://ex.org/> SELECT ?s WHERE { ?s ?p true:x }", "2: keyword-named prefix"),
    ("PREFIX Optional: <http://ex.org/> SELECT ?s WHERE { ?s ?p Optional:x }", "2: keyword-named prefix"),
    ("SELECT ?s where:{ ?s ?p ?o }", "2: keyword-named prefix"),
    ("SELECT ?a ?b ?c WHERE { ?a ?p ?b . ?b ?p ?c FILTER(?a<?b)FILTER(?b>?c) }",
     "3: IRIREF after a FILTER variable"),
    ("SELECT ?x WHERE { ?x ?p ?o { ?x <http://ex.org/optional> ?y } UNION { ?x ?q ?y } }",
     "4: feature named after a nested group"),
    ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1.4", "5: decimal after LIMIT"),
    ('SELECT ?s WHERE { ?s ?p ?o FILTER(regex(?o, "(")) }', "6: invalid regex"),
]


@pytest.mark.parametrize("text, kind", _NAMED)
def test_named_difference_is_classified(text, kind):
    old, new = _outcome(oracle_parse_query, text), _outcome(parse_query, text)
    assert old != new
    assert _difference(text, old, new) == kind


def test_token_table_matches_scannerless_parser():
    started = time.perf_counter()
    seeds = _suite_queries() + _MULTILINE
    seeds += [render(q) for q in _random_queries(200)]
    rng = random.Random(20261018)
    inputs = seeds + [_mutate(rng.choice(seeds), rng, _PIECES) for _ in range(12_000)]
    tally: dict[str, int] = {}
    for text in inputs:
        old, new = _outcome(oracle_parse_query, text), _outcome(parse_query, text)
        kind = "identical" if old == new else _difference(text, old, new)
        tally[kind] = tally.get(kind, 0) + 1
        # Whatever is wrong with a query, the parser names a place in it.
        if new[0] == "error":
            lines, (_, _, line, column) = text.split("\n"), new[1]
            assert 1 <= column <= len(lines[line - 1]) + 1, (text, new)
        assert new[0] != "crash", (text, new)
    assert set(tally) <= {"identical", *(kind for _, kind in _NAMED)}, tally
    assert tally["identical"] > 0.95 * len(inputs), tally
    assert time.perf_counter() - started < 10
