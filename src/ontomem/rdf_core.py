"""In-memory RDF graph store: terms, triples, provenance records, triple indexes.

The graph is the structured half of the engine's dual memory. Triples are
immutable values held in a set plus three indexes (subject-first,
predicate-first, object-first). A graph carries no provenance: the ontology
store keeps the provenance records beside its trusted graph, keyed by triple.
A `Layer` reads a shared graph plus a small graph of triples added on top.
"""

from __future__ import annotations

import hashlib
import itertools
import re
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


# In a str pattern `\s` is exactly the characters for which str.isspace holds.
_IRI_FORBIDDEN = re.compile(r'[\s<>"{}|^`\\]').search


@dataclass(frozen=True, slots=True)
class Iri:
    value: str

    def __post_init__(self) -> None:
        if not self.value or _IRI_FORBIDDEN(self.value):
            raise StructuralError(
                f"IRI must be non-empty, without whitespace or <>\"{{}}|^`\\: {self.value!r}")


@dataclass(frozen=True, slots=True)
class Blank:
    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise StructuralError("blank node label must be non-empty")


@dataclass(frozen=True, slots=True)
class Literal:
    lexical: str
    datatype: str = XSD_STRING
    language: str | None = None

    def __post_init__(self) -> None:
        if self.language is not None and self.datatype != RDF_LANGSTRING:
            raise StructuralError("language tag requires the rdf:langString datatype")


Term = Iri | Blank | Literal

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {escaped[1]: c for c, escaped in _ESCAPES.items()}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_ESCAPE_RE = re.compile(r'\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|([\\"nrt])|[uU])')


def escape_literal(text: str) -> str:
    return text.translate(_ESCAPE_TABLE)


def unescape_literal(text: str) -> str:
    """Decode the escapes of a literal body: \\\\ \\" \\n \\r \\t, and \\uXXXX or
    \\UXXXXXXXX naming a Unicode scalar value. Any other backslash pair stays as
    written; a malformed \\u or \\U raises StructuralError."""
    return _ESCAPE_RE.sub(_unescape, text) if "\\" in text else text


def _unescape(m: re.Match) -> str:
    if m.group(3):
        return _UNESCAPES[m.group(3)]
    code = m.group(1) or m.group(2)
    if code is not None:
        value = int(code, 16)
        if value <= 0x10FFFF and not 0xD800 <= value <= 0xDFFF:
            return chr(value)
    raise StructuralError(f"malformed escape {m.group()}: \\u takes 4 and \\U 8 hex digits "
                          "naming a Unicode scalar value")


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


def node_text(term: Term) -> str:
    """The text a regex runs against (SPARQL regex, sh:pattern): a literal's
    lexical form, an IRI's value, a blank node's label."""
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, Iri):
        return term.value
    return term.label


def regex_error(pattern: str) -> str | None:
    """Why `pattern` does not compile as a SPARQL regex or sh:pattern, or None
    when it does."""
    try:
        re.compile(pattern)
    except (re.error, OverflowError, RecursionError) as e:
        return str(e)
    return None


def regex_matches(pattern: str, term: Term) -> bool:
    """True when `pattern` matches somewhere in the node text of `term`."""
    return re.search(pattern, node_text(term)) is not None


def term_key(term: Term) -> tuple[int, str]:
    """Sort key: IRIs before blanks before literals, then canonical text."""
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, Blank):
        return (1, term.label)
    return (2, term_text(term))


def parse_term_text(text: str) -> Term:
    """Inverse of term_text; accepts only the canonical forms."""
    if not isinstance(text, str):
        raise StructuralError(f"term text must be a string: {text!r}")
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
        # a language tag must be Turtle's LANGTAG for canonical Turtle to read it back
        if suffix.startswith("@") and re.fullmatch(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*", suffix[1:]):
            return Literal(lexical, RDF_LANGSTRING, suffix[1:])
        if suffix.startswith("^^<") and suffix.endswith(">"):
            return Literal(lexical, Iri(suffix[3:-1]).value)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------


class Graph:
    """Triple set with three always-coherent indexes.

    Set semantics: re-inserting a triple never grows the set. Iteration is in
    canonical triple order so every consumer is deterministic by construction.
    """

    def __init__(self) -> None:
        self._triples: set[Triple] = set()
        self._by_s: dict[Term, set[Triple]] = {}
        self._by_p: dict[Term, set[Triple]] = {}
        self._by_o: dict[Term, set[Triple]] = {}

    # -- mutation ------------------------------------------------------------

    def insert(self, triple: Triple) -> bool:
        """Add a triple; returns True when it was not already present."""
        if not isinstance(triple, Triple):
            raise StructuralError(f"not a triple: {triple!r}")
        if triple in self._triples:
            return False
        self._triples.add(triple)
        self._by_s.setdefault(triple.subject, set()).add(triple)
        self._by_p.setdefault(triple.predicate, set()).add(triple)
        self._by_o.setdefault(triple.object, set()).add(triple)
        return True

    def remove(self, triple: Triple) -> bool:
        if triple not in self._triples:
            return False
        self._triples.discard(triple)
        for index, key in ((self._by_s, triple.subject), (self._by_p, triple.predicate), (self._by_o, triple.object)):
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(triple)
                if not bucket:
                    del index[key]
        return True

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __iter__(self):
        return iter(sorted(self._triples, key=triple_key))

    def triple_set(self) -> frozenset[Triple]:
        return frozenset(self._triples)

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


class Layer:
    """A graph read as a shared `base` plus a small `delta` graph on top.

    `insert` writes only to the delta and skips triples the base holds, so
    the two never overlap; a layer has no `remove`, so nothing written
    through it reaches the base.
    Reads union the base and the delta, so building a layer copies nothing:
    this is path copying as in persistent data structures (Driscoll, Sarnak,
    Sleator & Tarjan, 1989). The base must not change while the layer lives.
    """

    def __init__(self, base: Graph | Layer) -> None:
        self.base = base
        self.delta = Graph()

    def insert(self, triple: Triple) -> bool:
        """Add a triple to the delta; returns True when the layer lacked it."""
        if triple in self.base:
            return False
        return self.delta.insert(triple)

    def __len__(self) -> int:
        return len(self.base) + len(self.delta)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.delta or triple in self.base

    def __iter__(self):
        return iter(sorted(self.find(), key=triple_key))

    def triple_set(self) -> frozenset[Triple]:
        return self.base.triple_set() | self.delta.triple_set()

    def find(self, subject: Term | None = None, predicate: Term | None = None,
             object: Term | None = None) -> list[Triple]:
        """All triples matching the bound positions, unordered: the base's
        matches followed by the delta's."""
        found = self.base.find(subject, predicate, object)
        found.extend(self.delta.find(subject, predicate, object))
        return found

    match = Graph.match
    content_hash = Graph.content_hash


def single_object(graph: Graph, subject: Term, predicate: str) -> Term | None:
    """Object of the first (subject, predicate, ?) triple in canonical order."""
    hits = graph.match(subject, Iri(predicate), None)
    return hits[0].object if hits else None


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
