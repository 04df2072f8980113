"""In-memory RDF graph store: terms, triples, provenance records, triple indexes.

The graph is the structured half of the engine's dual memory. Terms are
hash-consed (Ershov, 1958; Filliâtre & Conchon, 2006): `Iri`, `Blank` and
`Literal` return the one live object for their value, so equality is
identity and hashing is object's, both in C. A `Triple` is a tuple of
interned terms, which hashes and compares in C too and equals the plain
3-tuple of the same terms. The intern tables hold terms by weak reference,
so a term that nothing holds is freed. Term hashes are addresses, so a set
of terms iterates in no fixed order: every output sorts by `term_key` or
`triple_key`.

Triples are held in a set plus three indexes (subject-first,
predicate-first, object-first). A graph carries no provenance: the ontology
store keeps the provenance records beside its trusted graph, keyed by triple.
A `Layer` reads a shared graph plus a small graph of triples added on top.

The indexes are read here alone. `compile_lookup` turns the positions a
pattern binds into a function over `indexes`, the (by subject, by
predicate, by object, triple set) of each graph a `Graph` or `Layer`
unions, and `bucket_size` counts what such a lookup can return.
`Graph.find` runs these lookups, and so do the join plans: `join_slots`
lays out a join over atoms in env slots, and `walk` runs its steps depth
first. The reasoner compiles each rule body into such steps once, and
SPARQL each basic graph pattern when the query runs.
"""

from __future__ import annotations

import hashlib
import itertools
import re
import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from operator import itemgetter

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


class _InternTable(dict):
    """One kind's intern table: each value maps to a weak reference to the
    one live term for it, so a term that nothing else holds is freed. Dead
    entries are swept when the table has doubled since its last sweep (and
    holds over 64 entries), so it stays within about twice the live terms."""

    __slots__ = ("swept_at",)

    def __init__(self) -> None:
        super().__init__()
        self.swept_at = 0  # the table's size after its last sweep

    def intern(self, key, term: Term) -> Term:
        """`term` as the live term for `key`, unless another thread made
        one first: the lock and re-check keep one object per value."""
        with _intern_lock:
            live = self.get(key, _NO_REF)()
            if live is not None:
                return live
            self[key] = weakref.ref(term)
            if len(self) > 2 * self.swept_at + 64:
                for dead in [k for k, ref in self.items() if ref() is None]:
                    del self[dead]
                self.swept_at = len(self)
        return term


# Reentrant: a finalizer that a collection runs while it is held may make terms.
_intern_lock = threading.RLock()
_NO_REF = type(None)  # called, it returns None, as a dead weak reference does
_IRIS, _BLANKS, _LITERALS = _InternTable(), _InternTable(), _InternTable()
_set = object.__setattr__  # terms refuse assignment; a new term's slots are filled through this


class _Term:
    """An interned, immutable term: equal values give the identical object,
    so equality is identity and the hash is object's, both in C."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy, deepcopy and pickle rebuild through the intern table
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Iri(_Term):
    __slots__ = _fields = ("value",)

    def __new__(cls, value: str) -> Iri:
        term = _IRIS.get(value, _NO_REF)()
        if term is None:
            if not value or _IRI_FORBIDDEN(value):
                raise StructuralError(
                    f"IRI must be non-empty, without whitespace or <>\"{{}}|^`\\: {value!r}")
            term = object.__new__(cls)
            _set(term, "value", value)
            term = _IRIS.intern(value, term)
        return term


class Blank(_Term):
    __slots__ = _fields = ("label",)

    def __new__(cls, label: str) -> Blank:
        term = _BLANKS.get(label, _NO_REF)()
        if term is None:
            if not label:
                raise StructuralError("blank node label must be non-empty")
            term = object.__new__(cls)
            _set(term, "label", label)
            term = _BLANKS.intern(label, term)
        return term


class Literal(_Term):
    __slots__ = _fields = ("lexical", "datatype", "language")

    def __new__(cls, lexical: str, datatype: str = XSD_STRING, language: str | None = None) -> Literal:
        key = (lexical, datatype, language)
        term = _LITERALS.get(key, _NO_REF)()
        if term is None:
            if language is not None and datatype != RDF_LANGSTRING:
                raise StructuralError("language tag requires the rdf:langString datatype")
            term = object.__new__(cls)
            _set(term, "lexical", lexical)
            _set(term, "datatype", datatype)
            _set(term, "language", language)
            term = _LITERALS.intern(key, term)
        return term


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


# Turtle's lexical forms of the terms of this subset (Turtle 1.1, section
# 6.5), written once: turtle_io and sparql tokenize with them, and
# parse_term_text reads the canonical forms that term_text writes.
IRIREF = r"<[^>\n]*>"
BLANK = r"_:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"
STRING = r'"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*"'
LANGTAG = r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"
PN_PREFIX = r"(?:[A-Za-z_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)?"
PNAME = rf"{PN_PREFIX}:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)?"

_TERM_TEXT_RE = re.compile(
    rf"(?P<iri>{IRIREF})|(?P<blank>{BLANK})"
    rf"|(?P<string>{STRING})(?:(?P<language>{LANGTAG})|\^\^(?P<datatype>{IRIREF}))?")


def parse_term_text(text: str) -> Term:
    """Inverse of term_text; accepts only the canonical forms, surrounding
    whitespace aside."""
    if not isinstance(text, str):
        raise StructuralError(f"term text must be a string: {text!r}")
    text = text.strip()
    m = _TERM_TEXT_RE.fullmatch(text)
    if m is None:
        raise StructuralError(f"unrecognized term text: {text!r}")
    iri, blank, string, language, datatype = m.groups()
    if iri:
        return Iri(iri[1:-1])
    if blank:
        return Blank(blank[2:])
    lexical = unescape_literal(string[1:-1])
    if language:
        return Literal(lexical, RDF_LANGSTRING, language[1:])
    if datatype:
        return Literal(lexical, Iri(datatype[1:-1]).value)
    return Literal(lexical)


# ---------------------------------------------------------------------------
# Triples and provenance
# ---------------------------------------------------------------------------


class Triple(tuple):
    """A (subject, predicate, object) tuple of interned terms: it hashes and
    compares in C, and equals the plain 3-tuple of the same terms."""

    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Term, object: Term) -> Triple:
        if isinstance(subject, Literal):
            raise StructuralError("literal in subject position")
        if not isinstance(predicate, Iri):
            raise StructuralError("predicate must be an IRI")
        return tuple.__new__(cls, (subject, predicate, object))

    def __reduce__(self):
        return Triple, tuple(self)

    def __repr__(self) -> str:
        return f"Triple(subject={self[0]!r}, predicate={self[1]!r}, object={self[2]!r})"

    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))


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


def compile_lookup(bound: tuple):
    """A function (indexes, env) -> the triples, of the graph whose `indexes`
    are passed, that hold at each position of `bound`'s (position, env slot)
    pairs the term in that slot. It returns a new list, so the graph may grow
    while the list is walked, and each triple of the graph once, since the
    graphs a Layer unions never overlap."""
    if len(bound) == 3:
        key = itemgetter(*(slot for _, slot in bound))

        def lookup(indexes, env):
            k = key(env)  # tested before it is made a Triple, which may refuse it
            return [Triple(*k)] if any(k in ix[3] for ix in indexes) else []
    elif len(bound) == 2:
        (p1, s1), (p2, s2) = bound

        def lookup(indexes, env):
            a, b = env[s1], env[s2]
            out = []
            for ix in indexes:  # walk the smaller bucket, test the other position
                x, y = ix[p1].get(a, ()), ix[p2].get(b, ())
                out += [t for t in x if t[p2] is b] if len(x) <= len(y) else [t for t in y if t[p1] is a]
            return out
    elif bound:
        ((p1, s1),) = bound

        def lookup(indexes, env):
            out = []
            for ix in indexes:
                out += ix[p1].get(env[s1], ())
            return out
    else:
        def lookup(indexes, env):
            out = []
            for ix in indexes:
                out += ix[3]
            return out
    return lookup


def bucket_size(indexes, bound: tuple) -> int:
    """The size of the smallest index bucket, in the graph whose `indexes`
    are passed, under `bound`'s (position, term) pairs: at most what the
    lookup that binds those positions returns. With no pair, the number of
    triples."""
    if not bound:
        return sum(len(ix[3]) for ix in indexes)
    return min(sum(len(ix[pos].get(term, ())) for ix in indexes) for pos, term in bound)


def join_slots(atoms, constants=()) -> tuple[dict, list[tuple], list]:
    """The slot plan of a join over `atoms`, (s, p, o) patterns of terms and
    variables (str), taken in the order given.

    A match is built in an env list: three slots per atom, which take the
    terms of the triple matched there, then one slot per constant, those of
    `constants` first. A variable's slot is the first one that binds it, so
    binding an atom is one slice assignment and each later atom's lookup
    reads fixed slots. A variable repeated within one atom binds at its
    first position there; the caller tests the others. Returns each
    variable's and constant's slot, each atom's (position, slot) pairs for
    `compile_lookup` (its constants and the variables earlier atoms bind),
    and the env every match starts from."""
    constants = dict.fromkeys(itertools.chain(constants, (
        x for atom in atoms for x in atom if not isinstance(x, str))))
    slots = {c: 3 * len(atoms) + k for k, c in enumerate(constants)}
    bounds = []
    for k, atom in enumerate(atoms):
        bounds.append(tuple((pos, slots[x]) for pos, x in enumerate(atom) if x in slots))
        for pos, x in enumerate(atom):
            slots.setdefault(x, 3 * k + pos)
    return slots, bounds, [None] * 3 * len(atoms) + list(constants)


ONCE = (None,)  # one pass of a loop whose match is already whole


def walk(steps, indexes: tuple, env: list, chosen: list):
    """Bind the atoms of `steps`, each an (atom index, env offset, lookup),
    in turn: every triple a step's lookup returns fills the step's three env
    slots and `chosen` at its atom index. Yields once per match of them
    all, depth first, so a caller may stop at the first."""
    (i, at, lookup), rest = steps[0], steps[1:]
    for u in lookup(indexes, env):
        env[at:at + 3] = u
        chosen[i] = u
        yield from walk(rest, indexes, env, chosen) if rest else ONCE


# `Graph.find`'s lookups, by bound positions: bit 0 subject, 1 predicate, 2 object.
_FIND = tuple(compile_lookup(tuple((pos, pos) for pos in range(3) if mask >> pos & 1)) for mask in range(8))


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
        self.indexes = ((self._by_s, self._by_p, self._by_o, self._triples),)

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
        return iter(sorted(self.find(), key=triple_key))

    def triple_set(self) -> frozenset[Triple]:
        return frozenset(self.find())

    def match(self, subject: Term | None = None, predicate: Term | None = None,
              object: Term | None = None) -> list[Triple]:
        """All triples matching the bound positions (None = wildcard), in canonical order."""
        return sorted(self.find(subject, predicate, object), key=triple_key)

    def find(self, subject: Term | None = None, predicate: Term | None = None,
             object: Term | None = None) -> list[Triple]:
        """All triples matching the bound positions (None = wildcard), unordered."""
        mask = (subject is not None) + 2 * (predicate is not None) + 4 * (object is not None)
        return _FIND[mask](self.indexes, (subject, predicate, object))

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
        g.indexes = ((g._by_s, g._by_p, g._by_o, g._triples),)
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
    Sleator & Tarjan, 1989). Its `indexes` are the base's followed by the
    delta's, so `Graph`'s readers serve it unchanged: `find` lists the base's
    matches, then the delta's. The base must not change while the layer lives.
    """

    def __init__(self, base: Graph | Layer) -> None:
        self.base = base
        self.delta = Graph()
        self.indexes = base.indexes + self.delta.indexes

    def insert(self, triple: Triple) -> bool:
        """Add a triple to the delta; returns True when the layer lacked it."""
        if triple in self.base:
            return False
        return self.delta.insert(triple)

    def __len__(self) -> int:
        return len(self.base) + len(self.delta)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.delta or triple in self.base

    __iter__ = Graph.__iter__
    triple_set = Graph.triple_set
    match = Graph.match
    find = Graph.find
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
