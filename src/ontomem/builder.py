"""The end-to-end ontology construction pipeline: ingest and segmentation,
extraction (pluggable), normalization against the entity registry, triple
construction, the validation gate, and versioned commits.

The gate is the trust boundary: every candidate triple either enters the
trusted graph or lands in quarantine with its rejection evidence. Nothing is
silently dropped.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum

from .namespaces import INST_NS, PROP_NS, RDF_TYPE, SCHEMA_NS, SYS_NS, XSD_DATE, XSD_DECIMAL, XSD_INTEGER
from .rdf_core import (
    Blank,
    Graph,
    Iri,
    Literal,
    Origin,
    Provenance,
    Term,
    Triple,
    term_text,
    triple_key,
)
from .reasoner import Conflict, close
from .shacl import NodeShape, ValidationResult, validate
from .factcheck import Claim, Polarity, negation_overlay


class MissingTranscriptError(ValueError):
    """A chunk has no recorded extraction in the directory the caller named."""


class VersionConflictError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Sources and segmentation
# ---------------------------------------------------------------------------


class DocKind(Enum):
    TEXT = "TEXT"
    DIALOGUE = "DIALOGUE"
    API_RECORD = "API_RECORD"
    TABLE_ROWSET = "TABLE_ROWSET"


_KIND_ORIGIN = {
    DocKind.TEXT: Origin.SOURCE_DOCUMENT,
    DocKind.DIALOGUE: Origin.DIALOGUE,
    DocKind.API_RECORD: Origin.TOOL_RESULT,
    DocKind.TABLE_ROWSET: Origin.SOURCE_DOCUMENT,
}


@dataclass(frozen=True)
class SourceDocument:
    id: str
    kind: DocKind
    body: str | tuple = ""
    received_at: int = 0


@dataclass(frozen=True)
class Chunk:
    doc_id: str
    index: int
    span: tuple[int, int]
    text: str


_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+")

# The chunk size `run_pipeline` ingests with.
MAX_CHUNK_CHARS = 1000


def ingest(doc: SourceDocument, max_chunk_chars: int) -> list[Chunk]:
    """Partition the body into chunks: paragraph breaks first, sentence breaks
    when a paragraph overflows, hard splits as a last resort. Rowsets yield
    one chunk per record."""
    if max_chunk_chars < 64:
        raise ValueError("max_chunk_chars must be >= 64")
    if doc.kind is DocKind.TABLE_ROWSET:
        chunks = []
        for i, record in enumerate(doc.body):
            text = json.dumps(record, sort_keys=True, ensure_ascii=False)
            chunks.append(Chunk(doc.id, i, (0, len(text)), text))
        return chunks

    body = doc.body or ""
    if not body:
        return []
    # Dialogue turns are one-per-line; plain text breaks at blank lines.
    separator = "\n" if doc.kind is DocKind.DIALOGUE else "\n\n"
    chunks: list[Chunk] = []
    for start, end in _paragraph_spans(body, separator):
        for s, e in _fit_spans(body, start, end, max_chunk_chars):
            chunks.append(Chunk(doc.id, len(chunks), (s, e), body[s:e]))
    return chunks


def _paragraph_spans(body: str, separator: str) -> list[tuple[int, int]]:
    """Spans covering the whole body, each ending after its separator."""
    spans = []
    start = 0
    while start < len(body):
        cut = body.find(separator, start)
        if cut == -1:
            spans.append((start, len(body)))
            break
        end = cut + len(separator)
        while end < len(body) and body[end] == "\n":
            end += 1
        spans.append((start, end))
        start = end
    return spans


def _fit_spans(body: str, start: int, end: int, limit: int) -> list[tuple[int, int]]:
    if end - start <= limit:
        return [(start, end)]
    # Sentence boundaries inside the paragraph, greedy packing up to the limit.
    breaks = [start] + [start + m.end() for m in _SENTENCE_BREAK.finditer(body[start:end])] + [end]
    spans = []
    seg_start = start
    i = 1
    while i < len(breaks):
        if breaks[i] - seg_start > limit:
            if breaks[i - 1] == seg_start:
                # single oversize sentence: hard split
                hard = seg_start
                while breaks[i] - hard > limit:
                    spans.append((hard, hard + limit))
                    hard += limit
                spans.append((hard, breaks[i]))
                seg_start = breaks[i]
                i += 1
            else:
                spans.append((seg_start, breaks[i - 1]))
                seg_start = breaks[i - 1]
        else:
            i += 1
    if seg_start < end:
        spans.append((seg_start, end))
    return spans


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntityMention:
    mention: str
    type_guess: str = ""
    aliases: tuple[str, ...] = ()
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class RelationCandidate:
    subject_mention: str
    predicate_label: str
    object_mention: str
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("relation confidence must be in [0,1]")


@dataclass(frozen=True)
class ExtractionRecord:
    chunk_ref: tuple[str, int]
    entities: tuple[EntityMention, ...]
    relations: tuple[RelationCandidate, ...]
    extractor_id: str

    def __post_init__(self) -> None:
        mentions = {e.mention for e in self.entities}
        for r in self.relations:
            if r.subject_mention not in mentions or r.object_mention not in mentions:
                raise ValueError(f"relation references unknown mention: {r}")


class Extractor:
    """Interface: chunk in, hypothesis-space ExtractionRecord out. No graph
    mutation happens here."""

    extractor_id = "abstract"

    def extract(self, chunk: Chunk) -> ExtractionRecord:
        raise NotImplementedError


_NAME_TOKEN = r"[A-Z0-9][A-Za-z0-9_\-]*"
_NAME_RUN_BEFORE = re.compile(r"((?:%s)(?:[ ]%s)*)[ ]*$" % (_NAME_TOKEN, _NAME_TOKEN))
_NAME_RUN_AFTER = re.compile(r"^[ ]*((?:%s)(?:[ ]%s)*)" % (_NAME_TOKEN, _NAME_TOKEN))


class RulePatternExtractor(Extractor):
    """Deterministic reference extractor: a pattern table maps relation
    phrases to predicate labels; subject/object mentions are the name-token
    runs flanking each phrase occurrence."""

    CONFIDENCE = 0.9

    def __init__(self, patterns: dict[str, str], entity_types: dict[str, str] | None = None,
                 aliases: dict[str, list[str]] | None = None):
        if not patterns:
            raise ValueError("pattern table must not be empty")
        self.patterns = dict(patterns)
        self.entity_types = dict(entity_types or {})
        self.aliases = {k: tuple(v) for k, v in (aliases or {}).items()}
        self.extractor_id = "rule_pattern"

    def extract(self, chunk: Chunk) -> ExtractionRecord:
        entities: dict[str, EntityMention] = {}
        relations: list[RelationCandidate] = []
        for phrase in sorted(self.patterns, key=len, reverse=True):
            label = self.patterns[phrase]
            for m in re.finditer(r"(?<![\w])" + re.escape(phrase) + r"(?![\w])", chunk.text):
                before = _NAME_RUN_BEFORE.search(chunk.text[:m.start()])
                after = _NAME_RUN_AFTER.search(chunk.text[m.end():])
                if before is None or after is None:
                    continue
                subject, obj = before.group(1), after.group(1)
                for mention, offset in ((subject, before.start(1)), (obj, m.end() + after.start(1))):
                    if mention not in entities:
                        entities[mention] = EntityMention(
                            mention=mention,
                            type_guess=self.entity_types.get(mention, ""),
                            aliases=self.aliases.get(mention, ()),
                            span=(offset, offset + len(mention)),
                        )
                relations.append(RelationCandidate(subject, label, obj, self.CONFIDENCE))
        ordered = tuple(sorted(entities.values(), key=lambda e: (e.span, e.mention)))
        return ExtractionRecord((chunk.doc_id, chunk.index), ordered, tuple(relations), self.extractor_id)


def chunk_hash(chunk: Chunk) -> str:
    return hashlib.sha256(chunk.text.encode("utf-8")).hexdigest()[:16]


def record_to_json(record: ExtractionRecord) -> dict:
    return {
        "chunk_ref": list(record.chunk_ref),
        "entities": [
            {"mention": e.mention, "type_guess": e.type_guess, "aliases": list(e.aliases),
             "span": list(e.span)}
            for e in record.entities
        ],
        "relations": [
            {"subject": r.subject_mention, "predicate": r.predicate_label,
             "object": r.object_mention, "confidence": r.confidence}
            for r in record.relations
        ],
        "extractor_id": record.extractor_id,
    }


def record_from_json(obj: dict) -> ExtractionRecord:
    return ExtractionRecord(
        chunk_ref=(obj["chunk_ref"][0], obj["chunk_ref"][1]),
        entities=tuple(
            EntityMention(e["mention"], e.get("type_guess", ""), tuple(e.get("aliases", ())),
                          tuple(e.get("span", (0, 0))))
            for e in obj.get("entities", ())
        ),
        relations=tuple(
            RelationCandidate(r["subject"], r["predicate"], r["object"], r.get("confidence", 1.0))
            for r in obj.get("relations", ())
        ),
        extractor_id=obj.get("extractor_id", "transcript"),
    )


class TranscriptExtractor(Extractor):
    """Replays recorded extraction output keyed by chunk hash: the offline
    stand-in for an external model."""

    def __init__(self, directory: str):
        self.directory = directory
        self.extractor_id = "transcript"

    def extract(self, chunk: Chunk) -> ExtractionRecord:
        path = f"{self.directory}/{chunk_hash(chunk)}.json"
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as e:
            raise MissingTranscriptError(
                f"no recorded extraction for chunk {chunk.doc_id}#{chunk.index} "
                f"(hash {chunk_hash(chunk)}): {e}") from e
        record = record_from_json(obj)
        return ExtractionRecord((chunk.doc_id, chunk.index), record.entities, record.relations,
                                self.extractor_id)


# ---------------------------------------------------------------------------
# Entity registry and normalization
# ---------------------------------------------------------------------------


def slugify(text: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    return slug or "entity"


def _fold(text: str) -> str:
    return re.sub(r"\s+", " ", text.strip().lower())


@dataclass
class RegistryEntry:
    iri: str
    preferred_label: str
    aliases: set[str] = field(default_factory=set)
    first_seen: str | None = None  # source id of the mention's first document


class AmbiguousAlias(Exception):
    def __init__(self, alias: str, candidates: list[str]):
        self.alias = alias
        self.candidates = candidates
        super().__init__(f"alias {alias!r} is ambiguous across {candidates}")


class EntityRegistry:
    """Stable identifiers for mentions. Resolution order: exact alias,
    folded alias, then mint slug+counter under the instance namespace.
    An alias claimed by two entities is flagged ambiguous and stops resolving."""

    def __init__(self, instance_ns: str = INST_NS):
        self.instance_ns = instance_ns
        self.entries: dict[str, RegistryEntry] = {}
        self._exact: dict[str, set[str]] = {}
        self._folded: dict[str, set[str]] = {}
        self.ambiguous: set[str] = set()
        # What was added since the last save, three items per addition (kind,
        # iri, value): "entry", iri, None; "alias", iri, alias; "ambiguous",
        # None, alias. A flat list of the strings themselves, so a large
        # build allocates no object per addition. `store.save_commit` writes
        # and clears it. An entity's type is a `CanonicalEntity` candidate.
        self.unsaved: list[str | None] = []

    def resolve(self, mention: str) -> str | None:
        """Existing IRI for the mention, None when unknown; raises on ambiguity."""
        for owners in (self._exact.get(mention), self._folded.get(_fold(mention))):
            if owners:
                if len(owners) > 1:
                    raise AmbiguousAlias(mention, sorted(owners))
                return next(iter(owners))
        return None

    def resolve_or_mint(self, mention: str, source_id: str | None = None) -> str:
        existing = self.resolve(mention)
        if existing is not None:
            return existing
        slug = slugify(mention)
        iri = self.instance_ns + slug
        counter = 2
        while iri in self.entries:
            iri = f"{self.instance_ns}{slug}-{counter}"
            counter += 1
        self.entries[iri] = RegistryEntry(iri, mention, first_seen=source_id)
        self.unsaved += ("entry", iri, None)
        self.add_alias(iri, mention)
        return iri

    def add_alias(self, iri: str, alias: str) -> None:
        entry = self.entries[iri]
        if alias not in entry.aliases:
            entry.aliases.add(alias)
            self.unsaved += ("alias", iri, alias)
        owners = self._exact.setdefault(alias, set())
        owners.add(iri)
        if len(owners) > 1 and alias not in self.ambiguous:
            self.ambiguous.add(alias)
            self.unsaved += ("ambiguous", None, alias)
        self._folded.setdefault(_fold(alias), set()).add(iri)

    def __len__(self) -> int:
        return len(self.entries)


_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_DEC_RE = re.compile(r"^[+-]?\d+\.\d+$")


def literal_for_mention(mention: str) -> Literal | None:
    """Literal-shaped object mentions become typed literals, not entities."""
    if _DATE_RE.match(mention):
        return Literal(mention, XSD_DATE)
    if _INT_RE.match(mention):
        return Literal(mention, XSD_INTEGER)
    if _DEC_RE.match(mention):
        return Literal(mention, XSD_DECIMAL)
    return None


def sanitize_class_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9]", "", label) or "Thing"


@dataclass(frozen=True)
class CanonicalRelation:
    subject: Iri
    predicate: Iri
    object: Term
    provenance: Provenance


@dataclass(frozen=True)
class CanonicalEntity:
    iri: Iri
    type_iri: Iri
    provenance: Provenance


@dataclass(frozen=True)
class QuarantinedRelation:
    subject_mention: str
    predicate_label: str
    object_mention: str
    reason: str
    provenance: Provenance

    def describe(self) -> str:
        return f"{self.subject_mention} --{self.predicate_label}--> {self.object_mention}"


@dataclass
class NormalizeResult:
    relations: list[CanonicalRelation] = field(default_factory=list)
    entities: list[CanonicalEntity] = field(default_factory=list)
    quarantined: list[QuarantinedRelation] = field(default_factory=list)


@dataclass(frozen=True)
class BuilderConfig:
    predicate_table: tuple[tuple[str, str], ...] = ()

    def predicate_iri(self, label: str) -> Iri:
        for key, iri in self.predicate_table:
            if key == label:
                return Iri(iri)
        return Iri(PROP_NS + slugify(label))


def normalize(records: list[ExtractionRecord], registry: EntityRegistry,
              config: BuilderConfig | None = None,
              doc_meta: dict[str, tuple[Origin, int]] | None = None) -> NormalizeResult:
    """Resolve mentions to stable IRIs, mint what is new, quarantine what is
    ambiguous. The registry is updated in place and carried in the result."""
    config = config or BuilderConfig()
    doc_meta = doc_meta or {}
    result = NormalizeResult()

    for record in sorted(records, key=lambda r: r.chunk_ref):
        doc_id, index = record.chunk_ref
        origin, received_at = doc_meta.get(doc_id, (Origin.SOURCE_DOCUMENT, 0))
        base_prov = Provenance(source_id=doc_id, chunk_id=str(index),
                               extracted_at=received_at, origin=origin)

        for entity in record.entities:
            if literal_for_mention(entity.mention) is not None:
                continue  # literal-shaped mentions are data values, not entities
            try:
                iri = registry.resolve_or_mint(entity.mention, doc_id)
            except AmbiguousAlias:
                continue  # relations through this mention are quarantined below
            for alias in entity.aliases:
                registry.add_alias(iri, alias)
            if entity.type_guess:
                type_iri = SCHEMA_NS + sanitize_class_name(entity.type_guess)
                result.entities.append(CanonicalEntity(Iri(iri), Iri(type_iri), base_prov))

        for rel in record.relations:
            prov = Provenance(source_id=doc_id, chunk_id=str(index), extracted_at=received_at,
                              confidence=rel.confidence, origin=origin)
            try:
                subject_iri = registry.resolve_or_mint(rel.subject_mention, doc_id)
                literal = literal_for_mention(rel.object_mention)
                if literal is not None:
                    obj: Term = literal
                else:
                    obj = Iri(registry.resolve_or_mint(rel.object_mention, doc_id))
            except AmbiguousAlias:
                result.quarantined.append(QuarantinedRelation(
                    rel.subject_mention, rel.predicate_label, rel.object_mention,
                    "ambiguous alias", prov))
                continue
            result.relations.append(CanonicalRelation(
                Iri(subject_iri), config.predicate_iri(rel.predicate_label), obj, prov))
    return result


# ---------------------------------------------------------------------------
# Triple construction
# ---------------------------------------------------------------------------


@dataclass
class Candidate:
    triple: Triple
    provenance: list[Provenance]

    def confidence(self) -> float:
        return max((p.confidence for p in self.provenance), default=1.0)


def _candidates(pairs: Iterable[tuple[Triple, Provenance]]) -> list[Candidate]:
    """One candidate per distinct triple of the (triple, provenance) pairs, in
    triple order, holding its records in pair order. A blank node becomes the
    skolem IRI `sys:genid-<hash>` of the pair's source and the node's label
    (RDF 1.1 Concepts, section 3.5), so the store never holds a blank node:
    its files could not keep one's label, nor its provenance find it again."""
    by_triple: dict[Triple, list[Provenance]] = {}
    for triple, prov in pairs:
        s, o = triple.subject, triple.object
        if isinstance(s, Blank) or isinstance(o, Blank):
            triple = Triple(_skolem(s, prov.source_id), triple.predicate, _skolem(o, prov.source_id))
        by_triple.setdefault(triple, []).append(prov)
    return [Candidate(t, by_triple[t]) for t in sorted(by_triple, key=triple_key)]


def _skolem(term: Term, source_id: str) -> Term:
    if not isinstance(term, Blank):
        return term
    key = json.dumps([source_id, term.label]).encode("utf-8")
    return Iri(f"{SYS_NS}genid-{hashlib.sha256(key).hexdigest()[:16]}")


def construct_triples(normalized: NormalizeResult) -> list[Candidate]:
    """One triple per relation plus rdf:type triples for typed entities;
    duplicates collapse with merged provenance lists."""
    rdf_type = Iri(RDF_TYPE)
    return _candidates(
        [(Triple(rel.subject, rel.predicate, rel.object), rel.provenance) for rel in normalized.relations]
        + [(Triple(ent.iri, rdf_type, ent.type_iri), ent.provenance) for ent in normalized.entities])


# ---------------------------------------------------------------------------
# Validation gate
# ---------------------------------------------------------------------------


@dataclass
class QuarantinedCandidate:
    candidate: Candidate
    reason: str
    conflicts: list[Conflict] = field(default_factory=list)
    violations: list[ValidationResult] = field(default_factory=list)


@dataclass
class GateResult:
    accepted: list[Candidate]
    quarantined: list[QuarantinedCandidate]


def _violation_key(v: ValidationResult) -> tuple:
    return (term_text(v.focus_node), v.path.value if v.path else "", v.constraint)


def _touches(triple: Triple, evidence: Conflict | ValidationResult) -> bool:
    """A candidate is named by a conflict it takes part in, or by a violation
    on a node it mentions as subject or object."""
    if isinstance(evidence, Conflict):
        return triple in evidence.detail
    return evidence.focus_node in (triple.subject, triple.object)


def validate_gate(candidates: list[Candidate], trusted: Graph,
                  shapes: list[NodeShape]) -> GateResult:
    """Admit candidates that keep the materialized trusted graph consistent
    and shape-conforming; quarantine the rest with their evidence.

    The trusted graph is closed once (`close`); each round extends that
    closure with the remaining candidates (`Closure.extend`), so every trial
    keeps the derivations a from-scratch run would, and a round costs what
    the candidates add. Fresh conflicts are the trial's that the trusted
    closure lacks: a conflict whose detail holds no triple of the trial's
    delta lies wholly in the trusted closure. Fresh consistency conflicts are
    blamed first; only a round without them looks at fresh shape violations:
    those on the delta's subjects that the trusted closure does not already
    show there. Candidates directly participating in a conflict or sharing a
    focus node with a fresh violation go first; if the evidence names no
    candidate (purely inferred clash), the lowest-confidence candidate is
    removed and the check repeats. A candidate whose triple is already
    trusted is never blamed: it stays accepted and the commit merges its
    provenance.
    """
    remaining = list(candidates)
    quarantined: list[QuarantinedCandidate] = []

    base = close(trusted)
    known_conflicts = set(base.conflicts)

    # Conflicts only grow with the asserted set, so a round that removes
    # candidates cannot create a fresh one: every conflict round comes before
    # every shape round.
    while remaining:
        trial = base.extend([cand.triple for cand in remaining])
        evidence = [c for c in trial.conflicts if c not in known_conflicts]
        if not evidence:
            fresh = trial.graph.delta.triple_set()
            known = {_violation_key(v) for v in validate(base.graph, shapes, since=fresh).results}
            evidence = [v for v in validate(trial.graph, shapes, since=fresh).results
                        if _violation_key(v) not in known]
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
# Store state and commits
# ---------------------------------------------------------------------------


@dataclass
class OntologyDelta:
    version_id: int
    accepted: list[Candidate]
    quarantined: list[QuarantinedCandidate]
    quarantined_relations: list[QuarantinedRelation] = field(default_factory=list)
    chunks: list[Chunk] = field(default_factory=list)  # for logs.jsonl


class OntologyStore:
    """In-memory pipeline state: the trusted graph (committed triples only),
    each trusted triple's provenance records, the version and the entity
    registry. `commit` returns the delta that `store.save_commit` persists,
    quarantine lines included. `unsaved` maps each trusted triple that gained
    merged records since the last save to how many records it had before."""

    def __init__(self, config: BuilderConfig | None = None,
                 shapes: list[NodeShape] | None = None):
        self.config = config or BuilderConfig()
        self.shapes = shapes or []
        self.trusted = Graph()
        self.provenance: dict[Triple, list[Provenance]] = {}
        self.unsaved: dict[Triple, int] = {}
        self.version = 0
        self.registry = EntityRegistry()

    def commit(self, gate: GateResult, base_version: int,
               quarantined_relations: list[QuarantinedRelation] | None = None) -> OntologyDelta:
        """Apply gate output at the expected version; duplicates of trusted
        facts merge provenance and drop out of the delta, so replaying the
        same sources commits nothing."""
        if base_version != self.version:
            raise VersionConflictError(
                f"commit against version {base_version}, store is at {self.version}")

        new: list[Candidate] = []
        for cand in gate.accepted:
            if cand.triple in self.trusted:
                records = self.provenance.setdefault(cand.triple, [])
                self.unsaved.setdefault(cand.triple, len(records))
                records.extend(cand.provenance)
            else:
                new.append(cand)

        quarantined_relations = quarantined_relations or []
        if not new:
            return OntologyDelta(self.version, [], gate.quarantined, quarantined_relations)

        self.version += 1
        for cand in new:
            self.trusted.insert(cand.triple)
            self.provenance[cand.triple] = list(cand.provenance)
        return OntologyDelta(self.version, new, gate.quarantined, quarantined_relations)


def graph_candidates(graph: Graph, source_id: str,
                     origin: Origin = Origin.SOURCE_DOCUMENT) -> list[Candidate]:
    """Wrap a parsed graph (e.g. a curated schema file) as gate candidates."""
    prov = Provenance(source_id=source_id, origin=origin)
    return _candidates((t, prov) for t in graph.find())


def run_pipeline(store: OntologyStore, docs: list[SourceDocument], extractor: Extractor,
                 extra_candidates: list[Candidate] | None = None) -> OntologyDelta:
    """ingest -> extract -> normalize -> construct -> gate -> commit."""
    chunks: list[Chunk] = []
    doc_meta: dict[str, tuple[Origin, int]] = {}
    for doc in sorted(docs, key=lambda d: d.id):
        doc_meta[doc.id] = (_KIND_ORIGIN[doc.kind], doc.received_at)
        chunks += ingest(doc, MAX_CHUNK_CHARS)
    records = [extractor.extract(chunk) for chunk in chunks]

    normalized = normalize(records, store.registry, store.config, doc_meta)
    candidates = construct_triples(normalized)
    if extra_candidates:
        candidates = list(extra_candidates) + candidates
    gate = validate_gate(candidates, store.trusted, store.shapes)
    delta = store.commit(gate, store.version, normalized.quarantined)
    delta.chunks = chunks
    return delta


def feedback(store: OntologyStore, claims: list[Claim]) -> OntologyDelta:
    """Answer-feedback loop: claims re-enter the pipeline as candidates with
    ANSWER_FEEDBACK provenance. Negated claims carry the negation overlay."""
    prov = Provenance(source_id="answer-feedback", origin=Origin.ANSWER_FEEDBACK)
    candidates = _candidates(
        (t, prov) for claim in claims
        for t in ([claim.statement] if claim.polarity is Polarity.ASSERTED
                  else negation_overlay(claim.statement)))
    gate = validate_gate(candidates, store.trusted, store.shapes)
    return store.commit(gate, store.version)
