import random

import pytest

from ontomem.rdf_core import Graph, Iri, Literal, Triple, term_text
from ontomem.namespaces import XSD_INTEGER
from ontomem.sparql import (
    Comparison,
    CompareOp,
    PathPlus,
    Query,
    QueryForm,
    QueryParseError,
    TriplePattern,
    UnsupportedFeatureError,
    evaluate,
    parse_query,
)
from oracles import naive_evaluate

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
    if not used:
        patterns.append(TriplePattern(variables[0], rng.choice(iris), variables[0]))
        used = [variables[0]]
    filters = []
    for _ in range(rng.randint(0, 2)):
        v = rng.choice(used)
        kind = rng.random()
        if kind < 0.5:
            op = rng.choice(list(CompareOp))
            rhs = rng.choice(used) if rng.random() < 0.3 else rng.choice(pool)
            filters.append(Comparison(v, op, rhs))
        else:
            from ontomem.sparql import IsIriTest
            filters.append(IsIriTest(v))
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


def test_evaluation_ceiling_stops_runaway_joins():
    from ontomem.sparql import EvaluationLimitError
    g = Graph()
    for i in range(30):
        for j in range(30):
            g.insert(tr(f"a{i}", "p", f"b{j}"))
    q = parse_query("PREFIX ex: <http://ex.org/> SELECT ?x WHERE "
                    "{ ?x ex:p ?y . ?z ex:p ?w . ?u ex:p ?v }")
    with pytest.raises(EvaluationLimitError):
        evaluate(q, g, max_solutions=10_000)
    # generous ceiling leaves results unchanged
    small = parse_query("PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:p ?y }")
    assert len(evaluate(small, g).bindings) == 900
