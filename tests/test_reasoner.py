import random

import pytest

from ontomem.namespaces import (
    OWL_DISJOINTWITH,
    OWL_FUNCTIONAL,
    OWL_INVERSEOF,
    OWL_SYMMETRIC,
    OWL_TRANSITIVE,
    RDF_SUBJECT,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)
from ontomem.factcheck import negation_overlay
from ontomem.rdf_core import Graph, Iri, Literal, Triple, single_object, triple_key
from ontomem.reasoner import (
    ConflictKind,
    DivergenceError,
    check_consistency,
    extend,
    materialize,
)
from ontomem import reasoner as reasoner_module
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

    def test_divergence_ceiling(self, monkeypatch):
        import ontomem.reasoner as reasoner_module

        monkeypatch.setattr(reasoner_module, "DEFAULT_APPLICATION_CEILING", 5)
        g = Graph()
        for i in range(20):
            g.insert(tr(f"c{i}", RDFS_SUBCLASSOF, f"c{i+1}"))
        with pytest.raises(DivergenceError):
            materialize(g)


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


# ---------------------------------------------------------------------------
# Layered extend and the consistency check scoped to a delta
# ---------------------------------------------------------------------------


def _add_clashes(rng: random.Random, g: Graph) -> None:
    """Sometimes a mirrored disjoint pair, a functional property, and a
    negation overlay whose statement has a second rdf:subject."""
    if rng.random() < 0.5:
        a, b = f"C{rng.randrange(5)}", f"C{rng.randrange(5)}"
        g.insert(tr(a, OWL_DISJOINTWITH, b))
        if rng.random() < 0.6:
            g.insert(tr(b, OWL_DISJOINTWITH, a))
    if rng.random() < 0.5:
        g.insert(tr(f"p{rng.randrange(4)}", RDF_TYPE, OWL_FUNCTIONAL))
    if rng.random() < 0.4 and len(g):
        statement = rng.choice(sorted(g.triple_set(), key=triple_key))
        overlay = negation_overlay(statement)
        for t in overlay:
            g.insert(t)
        if rng.random() < 0.3:
            g.insert(Triple(overlay[0].subject, Iri(RDF_SUBJECT), iri(f"n{rng.randrange(8)}")))


def _clashing_graph(rng: random.Random) -> Graph:
    from test_factcheck import _fuzzed_graph
    g = _fuzzed_graph(rng) if rng.random() < 0.5 else random_ontology_graph(rng, 40)
    _add_clashes(rng, g)
    return g


@pytest.mark.parametrize("scoping", ["by size", "always"])
def test_scoped_consistency_equals_filtered_full_scan(monkeypatch, scoping):
    if scoping == "always":
        monkeypatch.setattr(reasoner_module, "worth_scoping", lambda delta, graph: True)
    rng = random.Random(1101)
    checked = scoped_hits = filtered_out = 0
    for _ in range(150):
        g1, g2 = _clashing_graph(rng), _clashing_graph(rng)
        closure = materialize(g1)
        layer = extend(closure, list(g2))
        flat = Graph()
        for t in layer.triple_set():
            flat.insert(t)
        assert check_consistency(layer) == check_consistency(flat)
        cases = [(layer, layer.delta.triple_set())]
        for graph in (g1, closure, layer):
            triples = sorted(graph.triple_set(), key=triple_key)
            for size in (1, 3, len(triples) // 4, len(triples) // 2):
                cases.append((graph, frozenset(rng.sample(triples, min(size, len(triples))))))
        for graph, delta in cases:
            full = check_consistency(graph)
            expected = [c for c in full if set(c.detail) & delta]
            assert check_consistency(graph, since=delta) == expected
            checked += 1
            scoped_hits += bool(expected)
            filtered_out += len(full) > len(expected)
    assert checked == 150 * 13
    assert scoped_hits >= 300 and filtered_out >= 300


def test_extend_copies_nothing_and_writes_only_its_delta(monkeypatch):
    copies = []
    real_copy = Graph.copy

    def counting_copy(self):
        copies.append(len(self))
        return real_copy(self)

    monkeypatch.setattr(Graph, "copy", counting_copy)
    rng = random.Random(1103)
    for _ in range(40):
        g1, g2 = random_ontology_graph(rng, 30), random_ontology_graph(rng, 30)
        closure = materialize(g1)
        before = closure.content_hash()
        copies.clear()
        layer = extend(closure, list(g2))
        assert copies == []

        union = g1.copy()
        for t in g2:
            union.insert(t)
        flat = materialize(union)
        whole = flat.triple_set()
        assert layer.delta.triple_set() == whole - closure.triple_set()
        assert len(layer) == len(whole) == len(closure) + len(layer.delta)
        assert layer.triple_set() - closure.triple_set() == layer.delta.triple_set()
        assert closure.triple_set() - layer.triple_set() == frozenset()
        assert list(layer) == list(flat) and layer.content_hash() == flat.content_hash()
        for t in rng.sample(sorted(whole, key=triple_key), min(8, len(whole))):
            assert t in layer
            for pattern in ((t.subject, None, None), (None, t.predicate, None), (None, None, t.object),
                            (t.subject, t.predicate, None), (None, t.predicate, t.object)):
                assert layer.match(*pattern) == flat.match(*pattern)
            assert single_object(layer, t.subject, t.predicate.value) == \
                single_object(flat, t.subject, t.predicate.value)

        fresh = Triple(iri("fresh"), iri("p0"), iri("n0"))
        assert layer.insert(fresh) and fresh in layer.delta and fresh not in closure
        assert closure.content_hash() == before

    # The base is never written through the layer: inserting a base triple
    # is a no-op, a layer cannot remove, and the base's own writers are unused.
    base_triple = next(iter(closure))
    delta_size = len(layer.delta)
    assert layer.insert(base_triple) is False
    assert len(layer.delta) == delta_size
    with pytest.raises(AttributeError):
        layer.remove(base_triple)

    def refuse(*_):
        raise AssertionError("the base was written")

    monkeypatch.setattr(closure, "insert", refuse, raising=False)
    monkeypatch.setattr(closure, "remove", refuse, raising=False)
    layer.insert(Triple(iri("another"), iri("p1"), iri("n1")))
    layer.insert(base_triple)
    assert closure.content_hash() == before
