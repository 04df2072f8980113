import random

import pytest

from ontomem.namespaces import (
    OWL_DISJOINTWITH,
    OWL_FUNCTIONAL,
    OWL_INVERSEOF,
    OWL_SYMMETRIC,
    OWL_TRANSITIVE,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)
from ontomem.factcheck import negation_overlay
from ontomem.rdf_core import Graph, Iri, Literal, Triple
from ontomem.reasoner import (
    ConflictKind,
    DivergenceError,
    check_consistency,
    extend,
    materialize,
)
from ontomem.turtle_io import parse_turtle
from conftest import DATA
from oracles import oracle_derivations, oracle_materialize

EX = "http://ex.org/"


def iri(local):
    return Iri(EX + local)


def _term(x):
    return Iri(x) if x.startswith("http") else iri(x)


def tr(s, p, o):
    return Triple(_term(s), _term(p), _term(o))


class TestMaterialize:
    def test_subclass_transitivity(self):
        g = Graph()
        g.insert(tr("A", RDFS_SUBCLASSOF, "B"))
        g.insert(tr("B", RDFS_SUBCLASSOF, "C"))
        m = materialize(g)
        assert tr("A", RDFS_SUBCLASSOF, "C") in m

    def test_type_propagates_up_subclass(self):
        g = Graph()
        g.insert(tr("x", RDF_TYPE, "A"))
        g.insert(tr("A", RDFS_SUBCLASSOF, "B"))
        m = materialize(g)
        assert tr("x", RDF_TYPE, "B") in m

    def test_inverse_completion(self):
        g = Graph()
        g.insert(tr("p", OWL_INVERSEOF, "q"))
        g.insert(tr("a", "p", "b"))
        m = materialize(g)
        assert tr("b", "q", "a") in m

    def test_domain_range_typing(self):
        g = Graph()
        g.insert(tr("p", RDFS_DOMAIN, "D"))
        g.insert(tr("p", RDFS_RANGE, "R"))
        g.insert(tr("a", "p", "b"))
        m = materialize(g)
        assert tr("a", RDF_TYPE, "D") in m
        assert tr("b", RDF_TYPE, "R") in m

    def test_range_never_types_literals(self):
        g = Graph()
        g.insert(tr("p", RDFS_RANGE, "R"))
        g.insert(Triple(iri("a"), iri("p"), Literal("v")))
        m = materialize(g)  # must not raise, must not try to type the literal
        assert len(m) == 2

    def test_symmetric_and_transitive(self):
        g = Graph()
        g.insert(tr("near", RDF_TYPE, OWL_SYMMETRIC))
        g.insert(tr("part", RDF_TYPE, OWL_TRANSITIVE))
        g.insert(tr("a", "near", "b"))
        g.insert(tr("x", "part", "y"))
        g.insert(tr("y", "part", "z"))
        m = materialize(g)
        assert tr("b", "near", "a") in m
        assert tr("x", "part", "z") in m

    def test_output_contains_input_and_is_idempotent(self):
        g = Graph()
        g.insert(tr("A", RDFS_SUBCLASSOF, "B"))
        g.insert(tr("x", RDF_TYPE, "A"))
        m1 = materialize(g)
        m2 = materialize(m1)
        assert g.triple_set() <= m1.triple_set()
        assert m1.triple_set() == m2.triple_set()

    def test_input_not_mutated(self):
        g = Graph()
        g.insert(tr("A", RDFS_SUBCLASSOF, "B"))
        g.insert(tr("x", RDF_TYPE, "A"))
        before = g.content_hash()
        materialize(g)
        assert g.content_hash() == before

    def test_divergence_ceiling(self):
        g = Graph()
        for i in range(20):
            g.insert(tr(f"c{i}", RDFS_SUBCLASSOF, f"c{i+1}"))
        with pytest.raises(DivergenceError):
            materialize(g, ceiling=5)


class TestConsistency:
    def test_disjoint_class_conflict(self):
        g = Graph()
        g.insert(tr("x", RDF_TYPE, "A"))
        g.insert(tr("x", RDF_TYPE, "B"))
        g.insert(tr("A", OWL_DISJOINTWITH, "B"))
        conflicts = check_consistency(materialize(g))
        assert [c.kind for c in conflicts] == [ConflictKind.DISJOINT_CLASS]
        assert conflicts[0].subject == iri("x")

    def test_functional_property_conflict(self):
        g = Graph()
        g.insert(tr("p", RDF_TYPE, OWL_FUNCTIONAL))
        g.insert(tr("s", "p", "o1"))
        g.insert(tr("s", "p", "o2"))
        conflicts = check_consistency(materialize(g))
        assert [c.kind for c in conflicts] == [ConflictKind.FUNCTIONAL_PROPERTY]

    def test_explicit_negation_conflict(self):
        g = Graph()
        statement = tr("a", "p", "b")
        g.insert(statement)
        for t in negation_overlay(statement):
            g.insert(t)
        conflicts = check_consistency(g)
        assert [c.kind for c in conflicts] == [ConflictKind.EXPLICIT_NEGATION]
        assert statement in conflicts[0].detail

    def test_negation_without_assertion_is_fine(self):
        g = Graph()
        for t in negation_overlay(tr("a", "p", "b")):
            g.insert(t)
        assert check_consistency(g) == []

    def test_consistent_fixture(self):
        # 50-triple consistent world, audited by construction
        g = Graph()
        g.insert(tr("Employee", RDFS_SUBCLASSOF, "Person"))
        g.insert(tr("worksFor", RDFS_DOMAIN, "Employee"))
        g.insert(tr("worksFor", RDFS_RANGE, "Org"))
        g.insert(tr("hired", RDF_TYPE, OWL_FUNCTIONAL))
        g.insert(tr("Org", OWL_DISJOINTWITH, "Person"))
        for i in range(15):
            g.insert(tr(f"e{i}", "worksFor", f"org{i % 3}"))
            g.insert(tr(f"e{i}", "hired", f"d{i}"))
            g.insert(tr(f"e{i}", RDF_TYPE, "Employee"))
        m = materialize(g)
        assert check_consistency(m) == []

    def test_detail_triples_present_in_graph(self):
        g = Graph()
        g.insert(tr("p", RDF_TYPE, OWL_FUNCTIONAL))
        g.insert(tr("s", "p", "o1"))
        g.insert(tr("s", "p", "o2"))
        m = materialize(g)
        for conflict in check_consistency(m):
            for t in conflict.detail:
                assert t in m

    def test_deterministic_order(self):
        g = Graph()
        g.insert(tr("p", RDF_TYPE, OWL_FUNCTIONAL))
        for s in ("s2", "s1", "s3"):
            g.insert(tr(s, "p", "o1"))
            g.insert(tr(s, "p", "o2"))
        first = check_consistency(g)
        second = check_consistency(g)
        assert first == second
        assert [c.subject.value for c in first] == sorted(c.subject.value for c in first)
        # Index buckets are read unsorted, so the insertion order of a triple
        # set must not reach the report.
        from test_factcheck import _fuzzed_graph
        rng = random.Random(13)
        with_conflicts = 0
        for _ in range(150):
            triples = list(_fuzzed_graph(rng))
            if rng.random() < 0.3:
                a, b = f"C{rng.randrange(5)}", f"C{rng.randrange(5)}"
                triples += [tr(a, OWL_DISJOINTWITH, b), tr(b, OWL_DISJOINTWITH, a),
                            tr(f"p{rng.randrange(4)}", RDF_TYPE, OWL_FUNCTIONAL)]
            reports = []
            for _ in range(2):
                rng.shuffle(triples)
                shuffled = Graph()
                for t in triples:
                    shuffled.insert(t)
                reports.append(check_consistency(materialize(shuffled)))
            first, second = reports
            assert first == second
            with_conflicts += bool(first)
        assert with_conflicts >= 30


# ---------------------------------------------------------------------------
# Randomized confluence vs the shuffled-rule oracle
# ---------------------------------------------------------------------------


def random_ontology_graph(rng: random.Random, max_triples: int) -> Graph:
    g = Graph()
    classes = [f"C{i}" for i in range(5)]
    props = [f"p{i}" for i in range(4)]
    nodes = [f"n{i}" for i in range(8)]
    axioms = [
        lambda: tr(rng.choice(classes), RDFS_SUBCLASSOF, rng.choice(classes)),
        lambda: tr(rng.choice(props), RDFS_SUBPROPERTYOF, rng.choice(props)),
        lambda: tr(rng.choice(props), RDFS_DOMAIN, rng.choice(classes)),
        lambda: tr(rng.choice(props), RDFS_RANGE, rng.choice(classes)),
        lambda: tr(rng.choice(props), OWL_INVERSEOF, rng.choice(props)),
        lambda: tr(rng.choice(props), RDF_TYPE, OWL_SYMMETRIC),
        lambda: tr(rng.choice(props), RDF_TYPE, OWL_TRANSITIVE),
    ]
    for _ in range(rng.randint(1, max_triples)):
        if rng.random() < 0.3:
            g.insert(rng.choice(axioms)())
        elif rng.random() < 0.5:
            g.insert(tr(rng.choice(nodes), RDF_TYPE, rng.choice(classes)))
        else:
            g.insert(tr(rng.choice(nodes), rng.choice(props), rng.choice(nodes)))
    return g


def test_confluence_random_quick():
    rng = random.Random(31)
    for case in range(25):
        g = random_ontology_graph(rng, 60)
        ours = materialize(g).triple_set()
        assert ours == oracle_materialize(g, seed=case)
        assert ours == oracle_materialize(g, seed=case + 1000)  # different rule order


def test_monotonicity_on_vocabulary_closure():
    rng = random.Random(77)
    for _ in range(10):
        g1 = random_ontology_graph(rng, 30)
        g2 = random_ontology_graph(rng, 30)
        union = g1.copy()
        for t in g2:
            union.insert(t)
        m1 = materialize(g1).triple_set()
        m_union = materialize(union).triple_set()
        assert m1 <= m_union


def test_derivations_match_nested_loop_reference():
    rng = random.Random(2024)
    graphs = [random_ontology_graph(rng, 60) for _ in range(120)]
    regulatory, _ = parse_turtle((DATA / "regulatory.ttl").read_text(encoding="utf-8"))
    for g in graphs + [regulatory]:
        _, derivations = materialize(g, want_derivations=True)
        assert derivations == oracle_derivations(g)


def test_extend_equals_materialize_of_union():
    rng = random.Random(5)
    for _ in range(40):
        g1 = random_ontology_graph(rng, 30)
        g2 = random_ontology_graph(rng, 30)
        closure = materialize(g1)
        before = closure.content_hash()
        extended = extend(closure, list(g2))
        union = g1.copy()
        for t in g2:
            union.insert(t)
        assert extended.triple_set() == materialize(union).triple_set()
        assert closure.content_hash() == before


def test_extend_ceiling(monkeypatch):
    import ontomem.reasoner as reasoner_module

    g = Graph()
    g.insert(tr("c0", RDFS_SUBCLASSOF, "c1"))
    closure = materialize(g)
    chain = [tr(f"c{i}", RDFS_SUBCLASSOF, f"c{i + 1}") for i in range(1, 20)]
    monkeypatch.setattr(reasoner_module, "DEFAULT_APPLICATION_CEILING", 5)
    with pytest.raises(DivergenceError):
        extend(closure, chain)
