import json
import random

import pytest

from ontomem.builder import (
    AmbiguousAlias,
    Candidate,
    Chunk,
    DocKind,
    EntityRegistry,
    ExtractionRecord,
    EntityMention,
    MissingTranscriptError,
    OntologyStore,
    RelationCandidate,
    RulePatternExtractor,
    SourceDocument,
    TranscriptExtractor,
    VersionConflictError,
    chunk_hash,
    construct_triples,
    feedback,
    graph_candidates,
    ingest,
    normalize,
    record_to_json,
    run_pipeline,
    validate_gate,
)
from ontomem.factcheck import Claim
from ontomem.namespaces import OWL_FUNCTIONAL, RDF_TYPE, XSD_DATE
from ontomem.rdf_core import Graph, Iri, Literal, Origin, Provenance, Triple
from ontomem.reasoner import ConflictKind, check_consistency, extend, materialize
from ontomem.shacl import NodeShape, PropertyShape, validate
from ontomem.turtle_io import parse_turtle

EX = "http://ex.org/"
INST = "http://ontomem.dev/ns/inst#"
PROP = "http://ontomem.dev/ns/prop#"
SCHEMA = "http://ontomem.dev/ns/schema#"


def iri(x):
    return Iri(x if x.startswith("http") else EX + x)


class TestIngest:
    def test_small_text_single_chunk(self):
        doc = SourceDocument("d", DocKind.TEXT, "x" * 100)
        chunks = ingest(doc, 1000)
        assert len(chunks) == 1
        assert chunks[0].span == (0, 100)
        assert chunks[0].text == doc.body

    def test_three_paragraphs_three_chunks(self):
        body = "First paragraph here.\n\nSecond one follows.\n\nThird closes."
        chunks = ingest(SourceDocument("d", DocKind.TEXT, body), 1000)
        assert len(chunks) == 3
        assert [c.span for c in chunks] == [(0, 23), (23, 44), (44, 57)]
        assert "".join(c.text for c in chunks) == body
        for c in chunks:
            assert c.text == body[c.span[0]:c.span[1]]

    def test_rowset_one_chunk_per_record(self):
        records = tuple({"k": i} for i in range(5))
        chunks = ingest(SourceDocument("d", DocKind.TABLE_ROWSET, records), 1000)
        assert len(chunks) == 5
        assert json.loads(chunks[0].text) == {"k": 0}

    def test_empty_body_empty_list(self):
        assert ingest(SourceDocument("d", DocKind.TEXT, ""), 100) == []

    def test_chunk_limit_enforced_via_sentences(self):
        body = ("A sentence about things. " * 20).strip()
        chunks = ingest(SourceDocument("d", DocKind.TEXT, body), 100)
        assert all(len(c.text) <= 100 for c in chunks)
        assert "".join(c.text for c in chunks) == body

    def test_hard_split_for_oversize_sentence(self):
        body = "y" * 500
        chunks = ingest(SourceDocument("d", DocKind.TEXT, body), 128)
        assert all(len(c.text) <= 128 for c in chunks)
        assert "".join(c.text for c in chunks) == body

    def test_dialogue_splits_on_turns(self):
        body = "user: where is Press1\nassistant: Press1 located in Plant7"
        chunks = ingest(SourceDocument("d", DocKind.DIALOGUE, body), 1000)
        assert len(chunks) == 2

    def test_minimum_chunk_chars(self):
        with pytest.raises(ValueError):
            ingest(SourceDocument("d", DocKind.TEXT, "hello"), 63)


PATTERNS = {"is on": "is on", "works for": "works for"}
TYPES = {"Disk1": "Disk", "PegA": "Peg"}


class TestExtract:
    def test_rule_pattern_fixture(self):
        extractor = RulePatternExtractor(PATTERNS, TYPES)
        chunk = Chunk("d", 0, (0, 17), "Disk1 is on PegA.")
        record = extractor.extract(chunk)
        assert {e.mention for e in record.entities} == {"Disk1", "PegA"}
        types = {e.mention: e.type_guess for e in record.entities}
        assert types == {"Disk1": "Disk", "PegA": "Peg"}
        assert len(record.relations) == 1
        rel = record.relations[0]
        assert (rel.subject_mention, rel.predicate_label, rel.object_mention) == \
            ("Disk1", "is on", "PegA")

    def test_no_pattern_hits_empty_relations(self):
        extractor = RulePatternExtractor(PATTERNS)
        record = extractor.extract(Chunk("d", 0, (0, 20), "nothing matches here"))
        assert record.relations == ()

    def test_record_invariant_relations_reference_entities(self):
        with pytest.raises(ValueError):
            ExtractionRecord(("d", 0), (), (RelationCandidate("a", "p", "b"),), "x")

    def test_transcript_replay_verbatim(self, tmp_path):
        chunk = Chunk("d", 0, (0, 17), "Disk1 is on PegA.")
        recorded = RulePatternExtractor(PATTERNS, TYPES).extract(chunk)
        (tmp_path / f"{chunk_hash(chunk)}.json").write_text(
            json.dumps(record_to_json(recorded)), encoding="utf-8")
        replayed = TranscriptExtractor(str(tmp_path)).extract(chunk)
        assert replayed.entities == recorded.entities
        assert replayed.relations == recorded.relations

    def test_transcript_missing_errors(self, tmp_path):
        with pytest.raises(MissingTranscriptError):
            TranscriptExtractor(str(tmp_path)).extract(Chunk("d", 0, (0, 4), "text"))


class TestRegistryAndNormalize:
    def test_alias_hit_resolves_same_iri(self):
        registry = EntityRegistry()
        a = registry.resolve_or_mint("ACME Corp")
        registry.add_alias(a, "ACME")
        assert registry.resolve("ACME") == a
        assert registry.resolve("acme corp") == a  # folded

    def test_novel_mention_minted_with_slug(self):
        registry = EntityRegistry()
        assert registry.resolve_or_mint("Peg A") == INST + "peg-a"

    def test_slug_collision_counter(self):
        registry = EntityRegistry()
        first = registry.resolve_or_mint("Peg-A")
        second = registry.resolve_or_mint("Peg;A")  # same slug, not fold-equal
        assert first == INST + "peg-a"
        assert second == INST + "peg-a-2"

    def test_ambiguous_alias_raises(self):
        registry = EntityRegistry()
        a = registry.resolve_or_mint("Mercury Planet")
        b = registry.resolve_or_mint("Mercury Element")
        registry.add_alias(a, "Mercury")
        registry.add_alias(b, "Mercury")
        with pytest.raises(AmbiguousAlias):
            registry.resolve("Mercury")

    def test_registry_stability(self):
        registry = EntityRegistry()
        first = registry.resolve_or_mint("Router9")
        assert registry.resolve_or_mint("Router9") == first

    def record(self, *, relations, entities, doc="doc1", index=0):
        return ExtractionRecord((doc, index), tuple(entities), tuple(relations), "t")

    def test_normalize_quarantines_ambiguous(self):
        registry = EntityRegistry()
        a = registry.resolve_or_mint("Mercury Planet")
        b = registry.resolve_or_mint("Mercury Element")
        registry.add_alias(a, "Mercury")
        registry.add_alias(b, "Mercury")
        rec = self.record(
            entities=[EntityMention("Mercury"), EntityMention("Sun")],
            relations=[RelationCandidate("Mercury", "orbits", "Sun")])
        result = normalize([rec], registry)
        assert result.relations == []
        assert len(result.quarantined) == 1
        assert result.quarantined[0].reason == "ambiguous alias"

    def test_normalize_dates_become_typed_literals(self):
        rec = self.record(
            entities=[EntityMention("Carol Diaz", "Employee"), EntityMention("2025-04-09")],
            relations=[RelationCandidate("Carol Diaz", "hired on", "2025-04-09")])
        result = normalize([rec], EntityRegistry())
        assert len(result.relations) == 1
        assert result.relations[0].object == Literal("2025-04-09", XSD_DATE)

    def test_normalize_provenance_origin_tracks_doc_kind(self):
        rec = self.record(
            entities=[EntityMention("A1"), EntityMention("B2")],
            relations=[RelationCandidate("A1", "links", "B2")])
        result = normalize([rec], EntityRegistry(), doc_meta={"doc1": (Origin.DIALOGUE, 42)})
        assert result.relations[0].provenance.origin is Origin.DIALOGUE
        assert result.relations[0].provenance.extracted_at == 42


class TestConstructTriples:
    def test_counts_by_construction_rule(self):
        rec = ExtractionRecord(
            ("d", 0),
            (EntityMention("Disk1", "Disk"), EntityMention("PegA", "Peg")),
            (RelationCandidate("Disk1", "is on", "PegA"),),
            "t")
        result = normalize([rec], EntityRegistry())
        candidates = construct_triples(result)
        # 1 relation triple + 2 rdf:type triples
        assert len(candidates) == 3
        predicates = sorted(c.triple.predicate.value for c in candidates)
        assert predicates.count(RDF_TYPE) == 2

    def test_duplicate_relation_merges_provenance(self):
        recs = [
            ExtractionRecord(("d", i),
                             (EntityMention("A1"), EntityMention("B2")),
                             (RelationCandidate("A1", "links", "B2"),), "t")
            for i in range(2)
        ]
        candidates = construct_triples(normalize(recs, EntityRegistry()))
        assert len(candidates) == 1
        assert len(candidates[0].provenance) == 2


def shape_disk_on_peg():
    return NodeShape(
        Iri(SCHEMA + "DiskShape"), Iri(SCHEMA + "Disk"),
        (PropertyShape(path=Iri(PROP + "is-on"), min_count=1, max_count=1),))


def cand(s, p, o, confidence=1.0):
    triple = Triple(iri(s), iri(p), o if not isinstance(o, str) else iri(o))
    return Candidate(triple, [Provenance(source_id="t", confidence=confidence)])


class TestValidateGate:
    def test_clean_batch_all_accepted(self):
        trusted = Graph()
        batch = [cand(f"s{i}", "p", f"o{i}") for i in range(5)]
        gate = validate_gate(batch, trusted, [])
        assert len(gate.accepted) == 5 and not gate.quarantined

    def test_functional_second_value_quarantined(self):
        trusted = Graph()
        trusted.insert(Triple(iri("p"), Iri(RDF_TYPE), Iri(OWL_FUNCTIONAL)))
        trusted.insert(Triple(iri("s"), iri("p"), iri("o1")))
        gate = validate_gate([cand("s", "p", "o2")], trusted, [])
        assert not gate.accepted
        assert gate.quarantined[0].reason == "consistency conflict"
        assert gate.quarantined[0].conflicts

    def test_mincount_context_violation_quarantined(self):
        trusted = Graph()
        batch = [cand("d9", RDF_TYPE.replace("http", "http"), Iri(SCHEMA + "Disk"))]
        batch = [Candidate(Triple(iri("d9"), Iri(RDF_TYPE), Iri(SCHEMA + "Disk")),
                           [Provenance(source_id="t")])]
        gate = validate_gate(batch, trusted, [shape_disk_on_peg()])
        assert not gate.accepted
        q = gate.quarantined[0]
        assert q.reason == "shape violation"
        assert any(v.constraint == "minCount" for v in q.violations)

    def test_batch_satisfying_shape_jointly_accepted(self):
        trusted = Graph()
        batch = [
            Candidate(Triple(iri("d9"), Iri(RDF_TYPE), Iri(SCHEMA + "Disk")),
                      [Provenance(source_id="t")]),
            Candidate(Triple(iri("d9"), Iri(PROP + "is-on"), iri("peg1")),
                      [Provenance(source_id="t")]),
        ]
        gate = validate_gate(batch, trusted, [shape_disk_on_peg()])
        assert len(gate.accepted) == 2 and not gate.quarantined

    def test_conservation_fuzz(self):
        rng = random.Random(57)
        trusted = Graph()
        trusted.insert(Triple(iri("fp"), Iri(RDF_TYPE), Iri(OWL_FUNCTIONAL)))
        shapes = [shape_disk_on_peg()]
        total = 0
        for _ in range(25):
            batch = []
            for _ in range(rng.randint(1, 40)):
                kind = rng.random()
                if kind < 0.5:
                    batch.append(cand(f"s{rng.randrange(10)}", f"p{rng.randrange(4)}",
                                      f"o{rng.randrange(10)}", rng.random()))
                elif kind < 0.7:
                    batch.append(cand(f"s{rng.randrange(6)}", "fp", f"o{rng.randrange(4)}",
                                      rng.random()))
                else:
                    batch.append(Candidate(
                        Triple(iri(f"d{rng.randrange(6)}"), Iri(RDF_TYPE), Iri(SCHEMA + "Disk")),
                        [Provenance(source_id="t", confidence=rng.random())]))
            unique = {c.triple for c in batch}
            batch = [next(c for c in batch if c.triple == t) for t in unique]
            total += len(batch)
            gate = validate_gate(batch, trusted, shapes)
            accepted = {c.triple for c in gate.accepted}
            quarantined = {q.candidate.triple for q in gate.quarantined}
            assert accepted | quarantined == unique
            assert not (accepted & quarantined)
            # gate soundness on the would-be commit
            trial = trusted.copy()
            for t in accepted:
                trial.insert(t)
            m = materialize(trial)
            assert check_consistency(m) == []
            assert validate(m, shapes).conforms
        assert total >= 400

    def test_resubmitted_trusted_axiom_not_blamed_for_conflict(self):
        functional = Triple(iri("p"), Iri(RDF_TYPE), Iri(OWL_FUNCTIONAL))
        old_value = Triple(iri("s"), iri("p"), iri("o1"))
        trusted = Graph()
        trusted.insert(functional)
        trusted.insert(old_value)
        resubmitted = Candidate(functional, [Provenance(source_id="schema.ttl")])
        gate = validate_gate([resubmitted, cand("s", "p", "o2")], trusted, [])
        assert [c.triple for c in gate.accepted] == [functional]
        assert [q.candidate.triple for q in gate.quarantined] == [
            Triple(iri("s"), iri("p"), iri("o2"))]
        store = OntologyStore()
        store.trusted = trusted
        delta = store.commit(gate, 0)
        assert not delta.accepted
        assert len(store.trusted.provenance(functional)) == 1
        assert [q.candidate.triple for q in delta.quarantined] == [
            Triple(iri("s"), iri("p"), iri("o2"))]

    def test_resubmitted_trusted_fact_not_blamed_for_violation(self):
        disk = Triple(iri("d9"), Iri(RDF_TYPE), Iri(SCHEMA + "Disk"))
        on_peg1 = Triple(iri("d9"), Iri(PROP + "is-on"), iri("peg1"))
        on_peg2 = Triple(iri("d9"), Iri(PROP + "is-on"), iri("peg2"))
        trusted = Graph()
        trusted.insert(disk)
        trusted.insert(on_peg1)
        batch = [Candidate(on_peg1, [Provenance(source_id="t")]),
                 Candidate(on_peg2, [Provenance(source_id="t")])]
        gate = validate_gate(batch, trusted, [shape_disk_on_peg()])
        assert [c.triple for c in gate.accepted] == [on_peg1]
        assert len(gate.quarantined) == 1
        q = gate.quarantined[0]
        assert q.candidate.triple == on_peg2 and q.reason == "shape violation"
        assert [v.constraint for v in q.violations] == ["maxCount"]

    def test_mixed_batch_one_closure_per_round(self, monkeypatch):
        import ontomem.builder as builder_module

        calls = []

        def counting_materialize(graph, *args, **kwargs):
            calls.append(("materialize", len(graph)))
            return materialize(graph, *args, **kwargs)

        def counting_extend(closure, added):
            calls.append(("extend", len(added)))
            return extend(closure, added)

        monkeypatch.setattr(builder_module, "materialize", counting_materialize)
        monkeypatch.setattr(builder_module, "extend", counting_extend)
        functional = Triple(iri("p"), Iri(RDF_TYPE), Iri(OWL_FUNCTIONAL))
        old_value = Triple(iri("s"), iri("p"), iri("o1"))
        trusted = Graph()
        trusted.insert(functional)
        trusted.insert(old_value)
        clash = cand("s", "p", "o2")
        bare_disk = Candidate(Triple(iri("d9"), Iri(RDF_TYPE), Iri(SCHEMA + "Disk")),
                              [Provenance(source_id="t")])
        clean = cand("x", "q", "y")
        gate = validate_gate([clash, bare_disk, clean], trusted, [shape_disk_on_peg()])

        # one base closure, then trials of 3, 2 and 1 candidates
        assert calls == [("materialize", 2), ("extend", 3), ("extend", 2), ("extend", 1)]
        assert gate.accepted == [clean]
        shape_q, conflict_q = gate.quarantined
        assert shape_q.candidate is bare_disk
        assert shape_q.reason == "shape violation"
        assert shape_q.conflicts == []
        assert [(v.focus_node, v.path, v.constraint) for v in shape_q.violations] == [
            (iri("d9"), Iri(PROP + "is-on"), "minCount")]
        assert conflict_q.candidate is clash
        assert conflict_q.reason == "consistency conflict"
        assert conflict_q.violations == []
        assert len(conflict_q.conflicts) == 1
        conflict = conflict_q.conflicts[0]
        assert conflict.kind is ConflictKind.FUNCTIONAL_PROPERTY
        assert conflict.subject == iri("s")
        assert conflict.detail == (old_value, clash.triple, functional)


class TestCommit:
    def test_first_commit_writes_and_bumps(self):
        store = OntologyStore()
        batch = [cand(f"s{i}", "p", f"o{i}") for i in range(5)]
        gate = validate_gate(batch, store.trusted, [])
        delta = store.commit(gate, 0)
        assert delta.version_id == 1 and store.version == 1
        assert len(delta.accepted) == 5
        assert len(store.trusted) == 5

    def test_duplicate_commit_empty_delta_no_bump(self):
        store = OntologyStore()
        batch = [cand("a", "p", "b")]
        store.commit(validate_gate(batch, store.trusted, []), 0)
        delta = store.commit(validate_gate(batch, store.trusted, []), 1)
        assert delta.accepted == [] and delta.version_id == 1
        assert store.version == 1
        # duplicate's provenance merged onto the existing fact
        assert len(store.trusted.provenance(batch[0].triple)) == 2

    def test_stale_version_conflict(self):
        store = OntologyStore()
        gate = validate_gate([cand("a", "p", "b")], store.trusted, [])
        store.commit(gate, 0)
        with pytest.raises(VersionConflictError):
            store.commit(gate, 0)


class TestPipelineAndFeedback:
    def docs(self):
        return [
            SourceDocument("d1.txt", DocKind.TEXT, "Disk1 is on PegA."),
            SourceDocument("d2.txt", DocKind.TEXT, "Disk2 is on PegB."),
        ]

    def extractor(self):
        return RulePatternExtractor(
            {"is on": "is on"},
            {"Disk1": "Disk", "Disk2": "Disk", "PegA": "Peg", "PegB": "Peg"})

    def test_pipeline_idempotent(self):
        store = OntologyStore()
        first = run_pipeline(store, self.docs(), self.extractor())
        assert first.version_id == 1 and first.accepted
        second = run_pipeline(store, self.docs(), self.extractor())
        assert second.accepted == [] and store.version == 1

    def test_provenance_completeness(self):
        store = OntologyStore()
        run_pipeline(store, self.docs(), self.extractor())
        for t in store.trusted:
            provs = store.trusted.provenance(t)
            assert provs and all(p.source_id for p in provs)

    def test_feedback_accepts_novel_consistent_claim(self):
        store = OntologyStore()
        run_pipeline(store, self.docs(), self.extractor())
        claim = Claim(Triple(Iri(INST + "disk3"), Iri(PROP + "is-on"), Iri(INST + "pegc")))
        delta = feedback(store, [claim])
        assert len(delta.accepted) == 1
        provs = store.trusted.provenance(delta.accepted[0].triple)
        assert provs[0].origin is Origin.ANSWER_FEEDBACK

    def test_feedback_existing_claim_empty_delta(self):
        store = OntologyStore()
        run_pipeline(store, self.docs(), self.extractor())
        existing = Triple(Iri(INST + "disk1"), Iri(PROP + "is-on"), Iri(INST + "pega"))
        assert existing in store.trusted
        delta = feedback(store, [Claim(existing)])
        assert delta.accepted == []

    def test_feedback_functional_clash_quarantined(self):
        store = OntologyStore()
        store.trusted.insert(Triple(Iri(PROP + "is-on"), Iri(RDF_TYPE), Iri(OWL_FUNCTIONAL)),
                             Provenance(source_id="schema"))
        run_pipeline(store, self.docs(), self.extractor())
        before = store.trusted.content_hash()
        clash = Claim(Triple(Iri(INST + "disk1"), Iri(PROP + "is-on"), Iri(INST + "pegb")))
        delta = feedback(store, [clash])
        assert delta.accepted == []
        assert len(delta.quarantined) == 1
        assert store.trusted.content_hash() == before

    def test_schema_candidates_flow_through_gate(self):
        store = OntologyStore()
        schema, _ = parse_turtle(
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
            f"<{PROP}is-on> a owl:FunctionalProperty .\n")
        delta = run_pipeline(store, self.docs(), self.extractor(),
                             graph_candidates(schema, "schema.ttl"))
        assert any(c.triple.predicate.value == RDF_TYPE and
                   c.triple.object == Iri(OWL_FUNCTIONAL) for c in delta.accepted)
