import gc
import json
import random
from pathlib import Path

import pytest

from ontomem.factcheck import (
    Claim,
    ClaimInputError,
    ConditionInconsistencyError,
    OverallStatus,
    Polarity,
    TraceKind,
    VerdictStatus,
    check_answer,
    check_claim,
    negation_overlay,
    parse_claims,
)
from ontomem import reasoner
from ontomem.namespaces import (
    OWL_DISJOINTWITH,
    OWL_FUNCTIONAL,
    RDF_TYPE,
    RDFS_SUBCLASSOF,
    XSD_BOOLEAN,
)
from ontomem.rdf_core import Graph, Iri, Literal, Triple, term_text, triple_key, triple_text
from ontomem.reasoner import check_consistency, close, materialize
from ontomem.store import load_store
from ontomem.toolbus import ToolBus, svc_logic_check, svc_validate
from conftest import DATA
from ontomem.turtle_io import parse_turtle
from oracles import oracle_check_claim
from test_reasoner import random_ontology_graph

EX = "http://ex.org/"
REG = "http://ontomem.dev/ns/reg#"
IND = "http://ontomem.dev/ns/ind#"


def iri(local):
    return Iri(EX + local)


def _term(x):
    return Iri(x) if x.startswith("http") else iri(x)


def tr(s, p, o):
    return Triple(_term(s), _term(p), _term(o))


@pytest.fixture()
def regulatory_graph():
    graph, _ = parse_turtle((DATA / "regulatory.ttl").read_text(encoding="utf-8"))
    return graph


MAY_PROCEED = Triple(Iri(IND + "sponsor-1"), Iri(REG + "mayProceed"), Iri(IND + "IND-1"))
NO_HOLD = Triple(Iri(IND + "IND-1"), Iri(REG + "clinicalHold"), Literal("false", XSD_BOOLEAN))


class TestRegulatoryCase:
    def test_asserted_claim_supported(self, regulatory_graph):
        claim = Claim(MAY_PROCEED, Polarity.ASSERTED, (NO_HOLD,))
        verdict = check_claim(claim, regulatory_graph)
        assert verdict.status is VerdictStatus.SUPPORTED
        assert verdict.trace
        kinds = {s.kind for s in verdict.trace}
        assert TraceKind.MATCHED_FACT in kinds and TraceKind.CONDITION_CHECK in kinds

    def test_negated_claim_contradicted(self, regulatory_graph):
        claim = Claim(MAY_PROCEED, Polarity.NEGATED, (NO_HOLD,))
        verdict = check_claim(claim, regulatory_graph)
        assert verdict.status is VerdictStatus.CONTRADICTED
        assert verdict.trace  # non-empty trace required

    def test_recorded_hold_makes_condition_inconsistent(self, regulatory_graph):
        held = regulatory_graph.copy()
        held.insert(Triple(Iri(IND + "IND-1"), Iri(REG + "clinicalHold"),
                           Literal("true", XSD_BOOLEAN)))
        claim = Claim(MAY_PROCEED, Polarity.ASSERTED, (NO_HOLD,))
        with pytest.raises(ConditionInconsistencyError):
            check_claim(claim, held)


class TestCheckClaim:
    def test_absent_entity_not_found_with_lookup_trace(self):
        g = Graph()
        g.insert(tr("a", "p", "b"))
        claim = Claim(tr("ghost", "p", "b"))
        verdict = check_claim(claim, g)
        assert verdict.status is VerdictStatus.NOT_FOUND
        assert any(s.kind is TraceKind.MATCHED_FACT and claim.statement in s.triples
                   for s in verdict.trace)

    def test_supported_via_inference_carries_rule_steps(self):
        g = Graph()
        g.insert(tr("x", RDF_TYPE, "A"))
        g.insert(tr("A", RDFS_SUBCLASSOF, "B"))
        verdict = check_claim(Claim(tr("x", RDF_TYPE, "B")), g)
        assert verdict.status is VerdictStatus.SUPPORTED
        assert any(s.kind is TraceKind.INFERENCE_RULE and s.rule_id == "TYPE_VIA_SUBCLASS"
                   for s in verdict.trace)

    def test_functional_clash_contradicts(self):
        g = Graph()
        g.insert(tr("p", RDF_TYPE, OWL_FUNCTIONAL))
        g.insert(tr("s", "p", "o1"))
        verdict = check_claim(Claim(tr("s", "p", "o2")), g)
        assert verdict.status is VerdictStatus.CONTRADICTED
        assert any(s.kind is TraceKind.CONFLICT for s in verdict.trace)

    def test_explicit_negation_contradicts(self):
        g = Graph()
        statement = tr("a", "p", "b")
        for t in negation_overlay(statement):
            g.insert(t)
        verdict = check_claim(Claim(statement), g)
        assert verdict.status is VerdictStatus.CONTRADICTED

    def test_absence_is_never_contradiction(self):
        g = Graph()
        g.insert(tr("a", "p", "b"))
        verdict = check_claim(Claim(tr("a", "p", "c")), g)
        assert verdict.status is VerdictStatus.NOT_FOUND

    def test_polarity_flip_swaps_statuses(self):
        g = Graph()
        g.insert(tr("p", RDF_TYPE, OWL_FUNCTIONAL))
        g.insert(tr("s", "p", "o1"))
        g.insert(tr("a", "q", "b"))
        cases = [tr("a", "q", "b"), tr("s", "p", "o2"), tr("zz", "q", "ww")]
        swap = {VerdictStatus.SUPPORTED: VerdictStatus.CONTRADICTED,
                VerdictStatus.CONTRADICTED: VerdictStatus.SUPPORTED,
                VerdictStatus.NOT_FOUND: VerdictStatus.NOT_FOUND}
        for statement in cases:
            plain = check_claim(Claim(statement, Polarity.ASSERTED), g)
            flipped = check_claim(Claim(statement, Polarity.NEGATED), g)
            assert flipped.status is swap[plain.status]

    def test_conditions_never_leak(self, regulatory_graph):
        before = regulatory_graph.content_hash()
        for _ in range(3):
            check_claim(Claim(MAY_PROCEED, Polarity.ASSERTED, (NO_HOLD,)), regulatory_graph)
            check_claim(Claim(MAY_PROCEED, Polarity.NEGATED, (NO_HOLD,)), regulatory_graph)
        assert regulatory_graph.content_hash() == before

    def test_supported_trace_triples_in_materialization(self):
        g = Graph()
        g.insert(tr("x", RDF_TYPE, "A"))
        g.insert(tr("A", RDFS_SUBCLASSOF, "B"))
        g.insert(tr("B", RDFS_SUBCLASSOF, "C"))
        verdict = check_claim(Claim(tr("x", RDF_TYPE, "C")), g)
        m = materialize(g)
        for step in verdict.trace:
            if step.kind in (TraceKind.MATCHED_FACT, TraceKind.INFERENCE_RULE):
                for t in step.triples:
                    assert t in m

    def test_contradicted_trace_embeds_reproducible_conflict(self):
        g = Graph()
        g.insert(tr("p", RDF_TYPE, OWL_FUNCTIONAL))
        g.insert(tr("s", "p", "o1"))
        statement = tr("s", "p", "o2")
        verdict = check_claim(Claim(statement), g)
        conflict_steps = [s for s in verdict.trace if s.kind is TraceKind.CONFLICT]
        assert conflict_steps
        replay = g.copy()
        replay.insert(statement)
        kinds = {c.kind.value for c in check_consistency(materialize(replay))}
        assert {s.detail for s in conflict_steps} <= kinds


class TestCheckAnswer:
    def build(self):
        g = Graph()
        g.insert(tr("a", "q", "b"))
        g.insert(tr("p", RDF_TYPE, OWL_FUNCTIONAL))
        g.insert(tr("s", "p", "o1"))
        return g

    def test_all_supported(self):
        g = self.build()
        overall, _ = check_answer([Claim(tr("a", "q", "b"))], g)
        assert overall is OverallStatus.SUPPORTED

    def test_one_contradiction_sinks_answer(self):
        g = self.build()
        overall, _ = check_answer([Claim(tr("a", "q", "b")), Claim(tr("s", "p", "o2"))], g)
        assert overall is OverallStatus.CONTRADICTED

    def test_mixed(self):
        g = self.build()
        overall, _ = check_answer([Claim(tr("a", "q", "b")), Claim(tr("zz", "q", "yy"))], g)
        assert overall is OverallStatus.MIXED

    def test_all_not_found(self):
        g = self.build()
        overall, _ = check_answer([Claim(tr("x1", "q", "y1")), Claim(tr("x2", "q", "y2"))], g)
        assert overall is OverallStatus.NOT_FOUND

    def test_empty_claims_rejected(self):
        with pytest.raises(ClaimInputError):
            check_answer([], Graph())

    def test_check_leaves_no_cyclic_garbage(self, regulatory_graph):
        claims = parse_claims((DATA / "regulatory_claims.jsonl").read_text(encoding="utf-8")).claims
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            check_answer(claims, regulatory_graph)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestParseClaims:
    def test_single_valid_line(self):
        text = ('{"subject": "<http://ex.org/a>", "predicate": "<http://ex.org/p>", '
                '"object": "<http://ex.org/b>"}')
        result = parse_claims(text)
        assert len(result.claims) == 1 and not result.diagnostics
        assert result.claims[0].statement == tr("a", "p", "b")
        assert result.claims[0].polarity is Polarity.ASSERTED

    def test_literal_subject_diagnosed_and_skipped(self):
        text = ('{"subject": "\\"lit\\"", "predicate": "<http://ex.org/p>", '
                '"object": "<http://ex.org/b>"}')
        result = parse_claims(text)
        assert not result.claims
        assert result.diagnostics and "line 1" in result.diagnostics[0]

    def test_unicode_escapes_decode_or_diagnose(self):
        line = ('{"subject": "<http://ex.org/a>", "predicate": "<http://ex.org/p>", '
                '"object": "\\"caf\\\\u%s\\""}')
        result = parse_claims("\n".join([line % "00e9", line % "00"]))
        assert [c.statement.object for c in result.claims] == [Literal("café")]
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].startswith("line 2: malformed escape")

    def test_best_effort_over_mixed_file(self):
        good = ('{"subject": "<http://ex.org/a%d>", "predicate": "<http://ex.org/p>", '
                '"object": "<http://ex.org/b>"}')
        lines = [good % 1, good % 2, "this is not json", good % 3]
        result = parse_claims("\n".join(lines))
        assert len(result.claims) == 3
        assert len(result.diagnostics) == 1 and "line 3" in result.diagnostics[0]

    def test_lines_end_at_line_feed_only(self):
        # U+2028, U+2029 and U+0085 may stand raw inside a JSON string
        lines = [json.dumps({"subject": "<http://ex.org/a>", "predicate": "<http://ex.org/p>",
                             "object": "<http://ex.org/b>", "source_text": f"one{sep}two"},
                            ensure_ascii=False) for sep in ("\u2028", "\u2029", "\u0085")]
        for text in ("\n".join(lines), "\r\n".join(lines) + "\r\n"):
            result = parse_claims(text)
            assert not result.diagnostics
            assert [c.source_text for c in result.claims] == \
                ["one\u2028two", "one\u2029two", "one\u0085two"]

    def test_conditions_and_polarity_parsed(self, regulatory_claims):
        import json
        text = "\n".join(json.dumps(obj) for obj in regulatory_claims)
        result = parse_claims(text)
        assert [c.polarity for c in result.claims] == [Polarity.ASSERTED, Polarity.NEGATED]
        assert all(len(c.conditions) == 1 for c in result.claims)


def test_gate_verdict_coherence(regulatory_graph):
    # anything the gate admitted is subsequently SUPPORTED
    from ontomem.builder import Candidate, OntologyStore, validate_gate
    store = OntologyStore()
    store.trusted = regulatory_graph.copy()
    new_fact = Triple(Iri(IND + "IND-2"), Iri(REG + "effectiveAfterDays"),
                      Literal("30", "http://www.w3.org/2001/XMLSchema#integer"))
    from ontomem.rdf_core import Provenance
    gate = validate_gate([Candidate(new_fact, [Provenance(source_id="t")])],
                         store.trusted, [])
    assert gate.accepted and not gate.quarantined
    store.commit(gate, store.version)
    verdict = check_claim(Claim(new_fact), store.trusted)
    assert verdict.status is VerdictStatus.SUPPORTED


# ---------------------------------------------------------------------------
# A shared closure of the trusted graph changes no verdict
# ---------------------------------------------------------------------------


def _fuzzed_graph(rng: random.Random) -> Graph:
    """A random ontology, sometimes with functional properties, a disjoint
    pair and an explicit negation, so that claims can be contradicted and the
    graph itself can be inconsistent."""
    g = random_ontology_graph(rng, 40)
    if rng.random() < 0.25:
        g.insert(tr(f"p{rng.randrange(4)}", RDF_TYPE, OWL_FUNCTIONAL))
    if rng.random() < 0.3:
        g.insert(tr(f"C{rng.randrange(5)}", OWL_DISJOINTWITH, f"C{rng.randrange(5)}"))
    if rng.random() < 0.2:
        for t in negation_overlay(rng.choice(sorted(g.triple_set(), key=triple_key))):
            g.insert(t)
    return g


def _fuzzed_claims(rng: random.Random, g: Graph, count: int) -> list[Claim]:
    """Statements and conditions drawn from the closure of `g` or made of its
    terms and a fresh one."""
    derived = sorted(materialize(g).triple_set(), key=triple_key)
    terms = g.terms() + [iri("fresh")]
    iris = [t for t in terms if isinstance(t, Iri)]

    def triple() -> Triple:
        if rng.random() < 0.4:
            return rng.choice(derived)
        return Triple(rng.choice(iris), rng.choice(iris), rng.choice(terms))

    claims = []
    for _ in range(count):
        polarity = rng.choice([Polarity.ASSERTED, Polarity.NEGATED])
        conditions = ()
        if rng.random() < 0.35:
            conditions = tuple(triple() for _ in range(rng.randint(1, 2)))
        claims.append(Claim(triple(), polarity, conditions))
    return claims


def _outcome(claim: Claim, trusted: Graph, closure=None, check=check_claim):
    try:
        return check(claim, trusted, closure).to_json()
    except ConditionInconsistencyError as e:
        return ("inconsistent", [c.to_json() for c in e.conflicts])


def _oracle_outcome(claim: Claim, trusted: Graph):
    return _outcome(claim, trusted, check=lambda c, g, _: oracle_check_claim(c, g))


def test_shared_closure_matches_fresh_check_per_claim(regulatory_graph, regulatory_claims):
    rng = random.Random(606)
    cases = [(_fuzzed_graph(rng), None) for _ in range(120)]
    bundled = parse_claims("\n".join(json.dumps(c) for c in regulatory_claims)).claims
    cases.append((regulatory_graph, bundled))
    inconsistent = 0
    for g, extra in cases:
        claims = _fuzzed_claims(rng, g, 5) + (extra or [])
        before = g.content_hash()
        shared = close(g)
        shared_hash, shared_derivations = shared.graph.content_hash(), dict(shared.derivations)
        fresh = [_oracle_outcome(c, g) for c in claims]
        assert [_outcome(c, g, shared) for c in claims] == fresh
        if any(isinstance(o, tuple) for o in fresh):
            inconsistent += 1
            with pytest.raises(ConditionInconsistencyError):
                check_answer(claims, g, shared)
        else:
            _, verdicts = check_answer(claims, g, shared)
            assert [v.to_json() for v in verdicts] == fresh
            _, verdicts = check_answer(claims, g)
            assert [v.to_json() for v in verdicts] == fresh
        assert g.content_hash() == before
        assert shared.graph.content_hash() == shared_hash
        assert shared.derivations == shared_derivations
    assert 0 < inconsistent < len(cases)


def test_check_answer_materializes_once_for_condition_free_claims(monkeypatch):
    calls = []
    real = reasoner.materialize

    def counting(graph, *args, **kwargs):
        calls.append(len(graph))
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(reasoner, "materialize", counting)
    g = TestCheckAnswer().build()
    claims = [Claim(tr("a", "q", "b")), Claim(tr("s", "p", "o2")), Claim(tr("zz", "q", "yy")),
              Claim(tr("a", "q", "b"), Polarity.NEGATED)]
    check_answer(claims, g)
    assert calls == [len(g)]
    check_answer(claims + [Claim(tr("a", "q", "b"), conditions=(tr("c", "q", "d"),))], g)
    assert calls == [len(g)] * 2  # the claim with a condition extends the shared closure


def test_condition_free_claim_on_inconsistent_graph_raises():
    g = TestCheckAnswer().build()
    g.insert(tr("s", "p", "o2"))  # a second value of a functional property
    claim = Claim(tr("a", "q", "b"))
    with pytest.raises(ConditionInconsistencyError):
        check_claim(claim, g)
    with pytest.raises(ConditionInconsistencyError):
        check_claim(claim, g, close(g))
    with pytest.raises(ConditionInconsistencyError):
        check_answer([claim], g)


def test_cached_closure_unchanged_by_request_mix(regulatory_store, regulatory_claims, built_store):
    handle = load_store(regulatory_store)
    bus = ToolBus(handle)
    closure = handle.closure()
    graph_hash, derivations = closure.graph.content_hash(), dict(closure.derivations)
    conflicts = list(closure.conflicts)

    def claim(s, p, o, polarity="ASSERTED", conditions=()):
        return {"subject": f"<{IND}{s}>", "predicate": f"<{REG}{p}>", "object": o,
                "polarity": polarity, "conditions": list(conditions)}

    hold = claim("IND-1", "clinicalHold", '"true"^^<http://www.w3.org/2001/XMLSchema#boolean>')
    requests = [
        [claim("sponsor-1", "mayProceed", f"<{IND}IND-1>")],
        [claim("sponsor-1", "mayProceed", f"<{IND}IND-2>")],
        [claim("sponsor-1", "mayProceed", f"<{IND}IND-1>", "NEGATED"), hold],
        [claim("IND-9", "mayProceed", f"<{IND}IND-1>", "NEGATED")],
        [claim("sponsor-1", "mayProceed", f"<{IND}IND-1>", conditions=[hold])],
        regulatory_claims,
    ]
    for _ in range(2):
        for claims in requests:
            response = bus.dispatch({"jsonrpc": "2.0", "id": 1, "method": "fact.check",
                                     "params": {"claims": claims}})
            assert "result" in response, response
        svc_validate(handle, str(DATA / "corpus_shapes.ttl"))
        svc_logic_check(handle)
    assert bus.handle is handle and handle.closure() is closure
    assert closure.graph.content_hash() == graph_hash
    assert closure.derivations == derivations and closure.conflicts == conflicts

    # A condition that the cached closure already infers is asserted in the
    # claim's closure only: the cached derivations and firings stay as they were.
    handle = load_store(built_store)
    bus = ToolBus(handle)
    closure = handle.closure()
    exact = {t: (d, d.firing) for t, d in closure.derivations.items()}
    inferred = sorted(exact, key=triple_key)
    for condition in (inferred[0], inferred[len(inferred) // 2]):
        text = {"subject": term_text(condition.subject), "predicate": term_text(condition.predicate),
                "object": term_text(condition.object)}
        for polarity in ("ASSERTED", "NEGATED"):
            response = bus.dispatch({"jsonrpc": "2.0", "id": 1, "method": "fact.check", "params": {
                "claims": [dict(text, polarity=polarity, conditions=[text]), dict(text)]}})
            supported, plain = response["result"]["verdicts"]
            assert supported["trace"][-1] == {"kind": "MATCHED_FACT", "triples": [triple_text(condition)],
                                              "rule_id": None, "detail": ""}
            assert plain["trace"][-1]["kind"] == "INFERENCE_RULE"
    assert handle.closure() is closure
    assert {t: (d, d.firing) for t, d in closure.derivations.items()} == exact


# ---------------------------------------------------------------------------
# Claims with conditions equal the from-scratch path on the drift corpora
# ---------------------------------------------------------------------------


def test_fuzzed_conditional_claims_equal_the_from_scratch_path():
    rng = random.Random(606)
    checked = supported_via_rules = 0
    while checked < 2667:
        g = _fuzzed_graph(rng)
        shared = close(g)
        if shared.conflicts:
            continue
        for claim in _fuzzed_claims(rng, g, 20):
            if not claim.conditions or checked == 2667:
                continue
            got = _outcome(claim, g, shared)
            assert json.dumps(got) == json.dumps(_oracle_outcome(claim, g)), claim
            checked += 1
            supported_via_rules += isinstance(got, dict) and any(
                step["kind"] == "INFERENCE_RULE" for step in got["trace"])
    assert supported_via_rules > 200


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_verify_style_conditional_claims_equal_the_from_scratch_path(monkeypatch, regulatory_graph, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from gen import SyntheticOntology

    onto = SyntheticOntology(seed, 500, 40)
    g, _ = parse_turtle(onto.turtle())
    for t in regulatory_graph:
        g.insert(t)
    shared = close(g)
    # Every other claim is the benchmark's `conditional` kind; the rest are
    # its other kinds, each assuming a triple that the closure already infers.
    inferred = sorted(shared.derivations, key=triple_key)
    kinds = ("lookup", "subclass", "inverse", "transitive", "negated", "functional", "disjoint",
             "not_found", "negated_not_found")
    rng = random.Random(seed)
    lines = []
    for i in range(42):
        claim, _ = onto.claim("conditional" if i % 2 == 0 else kinds[i // 2 % len(kinds)])
        if i % 2:
            t = rng.choice(inferred)
            claim["conditions"] = [{"subject": term_text(t.subject), "predicate": term_text(t.predicate),
                                    "object": term_text(t.object)}]
        lines.append(json.dumps(claim))
    claims = parse_claims("\n".join(lines)).claims
    assert len(claims) == 42
    for claim in claims:
        assert json.dumps(_outcome(claim, g, shared)) == json.dumps(_oracle_outcome(claim, g))
