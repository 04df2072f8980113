"""In-memory RDF graph store: terms, triples, provenance, triple indexes.

The graph is the structured half of the engine's dual memory. Triples are
immutable values held in a set plus three indexes (subject-first,
predicate-first, object-first); provenance records live in a side table keyed
by triple, never inside the graph itself.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from enum import Enum

from .namespaces import RDF_LANGSTRING, XSD_STRING


class StructuralError(ValueError):
    """A term or triple violates the data model invariants."""


class CapacityError(RuntimeError):
    """A test-scale guard was exceeded."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


_IRI_FORBIDDEN = set('<>"{}|^`\\')


@dataclass(frozen=True)
class Iri:
    value: str

    def __post_init__(self) -> None:
        if not self.value or any(c.isspace() or c in _IRI_FORBIDDEN for c in self.value):
            raise StructuralError(
                f"IRI must be non-empty, without whitespace or <>\"{{}}|^`\\: {self.value!r}")


@dataclass(frozen=True)
class Blank:
    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise StructuralError("blank node label must be non-empty")


@dataclass(frozen=True)
class Literal:
    lexical: str
    datatype: str = XSD_STRING
    language: str | None = None

    def __post_init__(self) -> None:
        if self.language is not None and self.datatype != RDF_LANGSTRING:
            raise StructuralError("language tag requires the rdf:langString datatype")


Term = Iri | Blank | Literal

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def escape_literal(text: str) -> str:
    return "".join(_ESCAPES.get(c, c) for c in text)


def unescape_literal(text: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text):
            n = text[i + 1]
            mapped = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}.get(n)
            if mapped is not None:
                out.append(mapped)
                i += 2
                continue
        out.append(c)
        i += 1
    return "".join(out)


def term_text(term: Term) -> str:
    """Canonical text form: <iri>, _:label, or "lexical" with datatype/lang suffix."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, Blank):
        return f"_:{term.label}"
    body = f'"{escape_literal(term.lexical)}"'
    if term.language is not None:
        return f"{body}@{term.language}"
    if term.datatype == XSD_STRING:
        return body
    return f"{body}^^<{term.datatype}>"


def term_key(term: Term) -> tuple[int, str]:
    """Sort key: IRIs before blanks before literals, then canonical text."""
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, Blank):
        return (1, term.label)
    return (2, term_text(term))


def parse_term_text(text: str) -> Term:
    """Inverse of term_text; accepts only the canonical forms."""
    text = text.strip()
    if text.startswith("<") and text.endswith(">"):
        return Iri(text[1:-1])
    if text.startswith("_:"):
        return Blank(text[2:])
    if text.startswith('"'):
        end = _closing_quote(text)
        if end is None:
            raise StructuralError(f"unterminated literal in term text: {text!r}")
        lexical = unescape_literal(text[1:end])
        suffix = text[end + 1:]
        if not suffix:
            return Literal(lexical)
        if suffix.startswith("@"):
            return Literal(lexical, RDF_LANGSTRING, suffix[1:])
        if suffix.startswith("^^<") and suffix.endswith(">"):
            return Literal(lexical, suffix[3:-1])
        raise StructuralError(f"malformed literal suffix: {suffix!r}")
    raise StructuralError(f"unrecognized term text: {text!r}")


def _closing_quote(text: str) -> int | None:
    i = 1
    while i < len(text):
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == '"':
            return i
        i += 1
    return None


# ---------------------------------------------------------------------------
# Triples and provenance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise StructuralError("literal in subject position")
        if not isinstance(self.predicate, Iri):
            raise StructuralError("predicate must be an IRI")


def triple_text(t: Triple) -> str:
    return f"{term_text(t.subject)} {term_text(t.predicate)} {term_text(t.object)} ."


def triple_key(t: Triple) -> tuple:
    return (term_key(t.subject), term_key(t.predicate), term_key(t.object))


class Origin(Enum):
    SOURCE_DOCUMENT = "SOURCE_DOCUMENT"
    DIALOGUE = "DIALOGUE"
    ANSWER_FEEDBACK = "ANSWER_FEEDBACK"
    TOOL_RESULT = "TOOL_RESULT"


@dataclass(frozen=True)
class Provenance:
    source_id: str
    chunk_id: str | None = None
    extracted_at: int = 0
    confidence: float = 1.0
    origin: Origin = Origin.SOURCE_DOCUMENT

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise StructuralError(f"confidence out of [0,1]: {self.confidence}")

    def to_json(self) -> dict:
        return {
            "source_id": self.source_id,
            "chunk_id": self.chunk_id,
            "extracted_at": self.extracted_at,
            "confidence": self.confidence,
            "origin": self.origin.value,
        }


REASONER_SOURCE = "reasoner"


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------


class Graph:
    """Triple set with three always-coherent indexes and per-triple provenance.

    Set semantics: re-inserting a triple never grows the set, though its
    provenance list may grow. Iteration is in canonical triple order so every
    consumer is deterministic by construction.
    """

    def __init__(self) -> None:
        self._triples: set[Triple] = set()
        self._prov: dict[Triple, list[Provenance]] = {}
        self._by_s: dict[Term, set[Triple]] = {}
        self._by_p: dict[Term, set[Triple]] = {}
        self._by_o: dict[Term, set[Triple]] = {}

    # -- mutation ------------------------------------------------------------

    def insert(self, triple: Triple, prov: Provenance | None = None) -> bool:
        """Add a triple; returns True when it was not already present."""
        if not isinstance(triple, Triple):
            raise StructuralError(f"not a triple: {triple!r}")
        was_new = triple not in self._triples
        if was_new:
            self._triples.add(triple)
            self._by_s.setdefault(triple.subject, set()).add(triple)
            self._by_p.setdefault(triple.predicate, set()).add(triple)
            self._by_o.setdefault(triple.object, set()).add(triple)
        if prov is not None:
            self._prov.setdefault(triple, []).append(prov)
        return was_new

    def remove(self, triple: Triple) -> bool:
        if triple not in self._triples:
            return False
        self._triples.discard(triple)
        self._prov.pop(triple, None)
        for index, key in ((self._by_s, triple.subject), (self._by_p, triple.predicate), (self._by_o, triple.object)):
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(triple)
                if not bucket:
                    del index[key]
        return True

    def add_provenance(self, triple: Triple, prov: Provenance) -> None:
        if triple not in self._triples:
            raise StructuralError("cannot attach provenance to an absent triple")
        self._prov.setdefault(triple, []).append(prov)

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __iter__(self):
        return iter(sorted(self._triples, key=triple_key))

    def triple_set(self) -> frozenset[Triple]:
        return frozenset(self._triples)

    def provenance(self, triple: Triple) -> tuple[Provenance, ...]:
        return tuple(self._prov.get(triple, ()))

    def match(self, subject: Term | None = None, predicate: Term | None = None,
              object: Term | None = None) -> list[Triple]:
        """All triples matching the bound positions (None = wildcard), in canonical order."""
        return sorted(self.find(subject, predicate, object), key=triple_key)

    def find(self, subject: Term | None = None, predicate: Term | None = None,
             object: Term | None = None) -> list[Triple]:
        """All triples matching the bound positions (None = wildcard), unordered."""
        pools = [index.get(term, ()) for index, term in
                 ((self._by_s, subject), (self._by_o, object), (self._by_p, predicate)) if term is not None]
        if not pools:
            return list(self._triples)
        pool = min(pools, key=len)  # the most selective index fixes its own position
        if len(pools) == 1:
            return list(pool)
        return [t for t in pool if (subject is None or t.subject == subject)
                and (predicate is None or t.predicate == predicate) and (object is None or t.object == object)]

    def terms(self) -> list[Term]:
        """Every distinct term appearing anywhere in the graph, sorted."""
        seen: set[Term] = set()
        for t in self._triples:
            seen.add(t.subject)
            seen.add(t.predicate)
            seen.add(t.object)
        return sorted(seen, key=term_key)

    def copy(self) -> Graph:
        g = Graph()
        g._triples = set(self._triples)
        g._prov = {t: list(ps) for t, ps in self._prov.items()}
        g._by_s = {k: set(v) for k, v in self._by_s.items()}
        g._by_p = {k: set(v) for k, v in self._by_p.items()}
        g._by_o = {k: set(v) for k, v in self._by_o.items()}
        return g

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for t in self:
            h.update(triple_text(t).encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


def single_object(graph: Graph, subject: Term, predicate: str) -> Term | None:
    """Object of the first (subject, predicate, ?) triple in canonical order."""
    hits = graph.match(subject, Iri(predicate), None)
    return hits[0].object if hits else None


def diff(before: Graph, after: Graph) -> tuple[frozenset[Triple], frozenset[Triple]]:
    """(added, removed) = (after \\ before, before \\ after)."""
    b, a = before.triple_set(), after.triple_set()
    return frozenset(a - b), frozenset(b - a)


# ---------------------------------------------------------------------------
# Blank-node isomorphism (test-scale)
# ---------------------------------------------------------------------------

MAX_ISO_TRIPLES = 10_000
MAX_ISO_BLANKS = 12


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """True iff some blank-node relabeling maps g1 onto g2 exactly.

    Exhaustive search with degree-signature pruning, bounded at
    MAX_ISO_BLANKS blanks per graph; ground graphs compare as sets.
    """
    if len(g1) > MAX_ISO_TRIPLES or len(g2) > MAX_ISO_TRIPLES:
        raise CapacityError(f"isomorphism check limited to {MAX_ISO_TRIPLES} triples")
    if len(g1) != len(g2):
        return False

    t1, t2 = g1.triple_set(), g2.triple_set()
    ground1 = {t for t in t1 if not _has_blank(t)}
    ground2 = {t for t in t2 if not _has_blank(t)}
    if ground1 != ground2:
        return False

    blank_triples1 = sorted(t1 - ground1, key=triple_key)
    blank_triples2 = t2 - ground2
    blanks1 = _blank_labels(blank_triples1)
    blanks2 = _blank_labels(blank_triples2)
    if len(blanks1) != len(blanks2):
        return False
    if not blanks1:
        return True
    if len(blanks1) > MAX_ISO_BLANKS or len(blanks2) > MAX_ISO_BLANKS:
        raise CapacityError(f"isomorphism check limited to {MAX_ISO_BLANKS} blank nodes")

    sig1 = {b: _signature(b, blank_triples1) for b in blanks1}
    sig2 = {b: _signature(b, blank_triples2) for b in blanks2}
    candidates = {b: [c for c in blanks2 if sig2[c] == sig1[b]] for b in blanks1}
    if any(not cs for cs in candidates.values()):
        return False

    order = sorted(blanks1, key=lambda b: len(candidates[b]))
    for perm in itertools.product(*(candidates[b] for b in order)):
        if len(set(perm)) != len(perm):
            continue
        mapping = dict(zip(order, perm))
        if {_rename(t, mapping) for t in blank_triples1} == blank_triples2:
            return True
    return False


def _has_blank(t: Triple) -> bool:
    return isinstance(t.subject, Blank) or isinstance(t.object, Blank)


def _blank_labels(triples) -> list[str]:
    labels = set()
    for t in triples:
        if isinstance(t.subject, Blank):
            labels.add(t.subject.label)
        if isinstance(t.object, Blank):
            labels.add(t.object.label)
    return sorted(labels)


def _signature(label: str, triples) -> tuple:
    """Occurrence profile of one blank: positions, predicates, ground partners."""
    marks = []
    for t in triples:
        s_is = isinstance(t.subject, Blank) and t.subject.label == label
        o_is = isinstance(t.object, Blank) and t.object.label == label
        if not (s_is or o_is):
            continue
        partner_s = "*" if isinstance(t.subject, Blank) else term_text(t.subject)
        partner_o = "*" if isinstance(t.object, Blank) else term_text(t.object)
        marks.append(("s" if s_is else "", "o" if o_is else "", term_text(t.predicate), partner_s, partner_o))
    return tuple(sorted(marks))


def _rename(t: Triple, mapping: dict[str, str]) -> Triple:
    s = Blank(mapping[t.subject.label]) if isinstance(t.subject, Blank) else t.subject
    o = Blank(mapping[t.object.label]) if isinstance(t.object, Blank) else t.object
    return Triple(s, t.predicate, o)
