import copy
import dataclasses
import pickle
import random
import re
import sys
import threading

import pytest

from ontomem import rdf_core
from ontomem.namespaces import RDF_LANGSTRING, XSD_INTEGER, XSD_STRING
from ontomem.rdf_core import (
    BLANK,
    Blank,
    CapacityError,
    Graph,
    Iri,
    Layer,
    Literal,
    StructuralError,
    Triple,
    isomorphic,
    parse_term_text,
    term_text,
    triple_key,
    unescape_literal,
)
from ontomem.turtle_io import parse_turtle, serialize_turtle


def t(s, p, o):
    return Triple(Iri(f"http://ex.org/{s}"), Iri(f"http://ex.org/{p}"), Iri(f"http://ex.org/{o}"))


class TestTerms:
    def test_iri_rejects_whitespace_and_empty(self):
        with pytest.raises(StructuralError):
            Iri("http://ex.org/a b")
        with pytest.raises(StructuralError):
            Iri("")

    def test_iri_rejects_framing_breakers(self):
        # characters that would corrupt <...> serialization
        for bad in ("http://ex.org/a>b", 'http://ex.org/a"b', "http://ex.org/a\\b",
                    "http://ex.org/{x}"):
            with pytest.raises(StructuralError):
                Iri(bad)

    def test_iri_check_agrees_with_isspace_on_every_code_point(self):
        # Iri uses one regex class; `\s` must be exactly str.isspace.
        forbidden = set('<>"{}|^`\\')
        everything = "".join(map(chr, range(0x110000)))
        by_regex = set(re.findall(r'[\s<>"{}|^`\\]', everything))
        assert by_regex == {c for c in everything if c.isspace() or c in forbidden}
        for c in sorted(by_regex)[:5] + sorted(by_regex)[-5:]:
            with pytest.raises(StructuralError):
                Iri(f"http://ex.org/a{c}b")

    def test_unescape_is_shared_by_term_text(self):
        assert parse_term_text('"caf\\u00e9 \\U0001F600 \\q"') == Literal("café \U0001F600 \\q")
        for bad in ('"\\u00e"', '"\\uD800"', '"\\U00110000"', '"\\u 123"'):
            with pytest.raises(StructuralError, match="malformed escape"):
                parse_term_text(bad)

    def test_literal_language_needs_langstring(self):
        with pytest.raises(StructuralError):
            Literal("x", XSD_INTEGER, language="en")

    def test_term_equality_is_bit_exact(self):
        assert Literal("30", XSD_INTEGER) == Literal("30", XSD_INTEGER)
        assert Literal("30", XSD_INTEGER) != Literal("030", XSD_INTEGER)
        assert Iri("http://ex.org/a") != Blank("a")

    def test_term_text_round_trip(self):
        terms = [
            Iri("http://ex.org/a"),
            Blank("b0"),
            Literal("plain"),
            Literal("hi", "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString", "en"),
            Literal("30", XSD_INTEGER),
            Literal('quote " and \\ slash\nnewline'),
        ]
        for term in terms:
            assert parse_term_text(term_text(term)) == term

    @pytest.mark.parametrize("text", ['"x"@', '"x"@en us', '"x"^^<>', '"x"^^<a b>', 5, None])
    def test_term_text_turtle_cannot_read_back_is_structural(self, text):
        # a literal read from these would serialize to Turtle that parse_turtle rejects
        with pytest.raises(StructuralError):
            parse_term_text(text)

    @pytest.mark.parametrize("text", ['"x"@en-US', f'"30"^^<{XSD_INTEGER}>'])
    def test_literal_suffix_round_trips_through_turtle(self, text):
        term = parse_term_text(text)
        assert parse_term_text(term_text(term)) == term
        graph = Graph()
        graph.insert(Triple(Iri("http://ex.org/s"), Iri("http://ex.org/p"), term))
        assert parse_turtle(serialize_turtle(graph, {}))[0].triple_set() == {
            Triple(Iri("http://ex.org/s"), Iri("http://ex.org/p"), term)}


def reference_parse_term_text(text):
    """The hand-written scanner that `parse_term_text` replaced, kept as the
    reference for the grammar that reads term text now."""
    if not isinstance(text, str):
        raise StructuralError(f"term text must be a string: {text!r}")
    text = text.strip()
    if text.startswith("<") and text.endswith(">"):
        return Iri(text[1:-1])
    if text.startswith("_:"):
        return Blank(text[2:])
    if text.startswith('"'):
        end = _reference_closing_quote(text)
        if end is None:
            raise StructuralError(f"unterminated literal in term text: {text!r}")
        lexical = unescape_literal(text[1:end])
        suffix = text[end + 1:]
        if not suffix:
            return Literal(lexical)
        if suffix.startswith("@") and re.fullmatch(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*", suffix[1:]):
            return Literal(lexical, RDF_LANGSTRING, suffix[1:])
        if suffix.startswith("^^<") and suffix.endswith(">"):
            return Literal(lexical, Iri(suffix[3:-1]).value)
        raise StructuralError(f"malformed literal suffix: {suffix!r}")
    raise StructuralError(f"unrecognized term text: {text!r}")


def _reference_closing_quote(text):
    i = 1
    while i < len(text):
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == '"':
            return i
        i += 1
    return None


def _outcome(parse, text):
    try:
        return parse(text)
    except StructuralError:
        return StructuralError


_LETTERS = "abcXYZ019_-.:/#"
_LEXICAL = _LETTERS + ' "\\\n\r\t@^<>\u00e9\u2028\U0001F600'


def _random_term(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return Iri("http://ex.org/" + "".join(rng.choice(_LETTERS) for _ in range(rng.randrange(6))))
    if kind == 1:  # a label of Turtle's BLANK: no '.' or ':' at either end
        inner = "".join(rng.choice("ab09_-.") for _ in range(rng.randrange(5)))
        return Blank(rng.choice("aZ_7") + (inner + rng.choice("b_-") if inner else ""))
    lexical = "".join(rng.choice(_LEXICAL) for _ in range(rng.randrange(8)))
    suffix = rng.randrange(3)
    if suffix == 0:
        return Literal(lexical)
    if suffix == 1:
        return Literal(lexical, RDF_LANGSTRING, rng.choice(["en", "en-US", "x-a1-B2", "de"]))
    return Literal(lexical, rng.choice([XSD_INTEGER, "http://ex.org/dt#x", RDF_LANGSTRING]))


class TestTermTextGrammar:
    """`parse_term_text` is one match of Turtle's term forms. Against the
    scanner it replaced, it reads every canonical text alike and rejects all
    that the scanner rejected; it rejects more in two cases only: a raw line
    feed inside a literal, and a blank label outside Turtle's BLANK."""

    def test_reads_term_text_as_the_reference_did(self):
        rng = random.Random(20)
        for _ in range(3000):
            term = _random_term(rng)
            text = term_text(term)
            assert parse_term_text(text) == reference_parse_term_text(text) == term, text
            padded = rng.choice(" \t\n") + text + rng.choice(" \t\n")
            assert parse_term_text(padded) == term

    def test_rejects_whatever_the_reference_rejected(self):
        rng = random.Random(21)
        alphabet = '<>"_:@^\\ \n\tuU0e-aZx.#'
        seen = {"both reject": 0, "raw line feed": 0, "blank label": 0}
        for i in range(20000):
            if i % 2:
                text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 10)))
            else:  # a canonical text with one character inserted, replaced or dropped
                text = list(term_text(_random_term(rng)))
                at = rng.randrange(len(text) + 1)
                text[at:at + rng.randrange(2)] = rng.choice(["", rng.choice(alphabet)])
                text = "".join(text)
            old, new = _outcome(reference_parse_term_text, text), _outcome(parse_term_text, text)
            if old is StructuralError:
                assert new is StructuralError, text
                seen["both reject"] += 1
            elif new is not StructuralError:
                assert new == old, text
            elif isinstance(old, Literal) and "\n" in text.strip():
                seen["raw line feed"] += 1
            else:
                assert isinstance(old, Blank) and not re.fullmatch(BLANK, text.strip()), text
                seen["blank label"] += 1
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("text", ['"a\nb"', '"a\\\nb"@en', "_:a b", "_:-a", "_:a."])
    def test_rejected_beyond_the_reference(self, text):
        assert isinstance(reference_parse_term_text(text), (Literal, Blank))
        with pytest.raises(StructuralError, match="unrecognized term text"):
            parse_term_text(text)


# Each kind of term: its fields and a valid value, as the dataclasses that
# terms were spelt with, and invalid arguments with the message each raised.
_TERM_KINDS = [
    (Iri, (("value", "x"),), [
        (("",), "IRI must be non-empty, without whitespace or <>\"{}|^`\\: ''"),
        (("http://ex.org/a b",), "IRI must be non-empty, without whitespace or <>\"{}|^`\\: "
                                 "'http://ex.org/a b'"),
        (("http://ex.org/a>b",), "IRI must be non-empty, without whitespace or <>\"{}|^`\\: "
                                 "'http://ex.org/a>b'"),
    ]),
    (Blank, (("label", "x"),), [(("",), "blank node label must be non-empty")]),
    (Literal, (("lexical", "x"), ("datatype", XSD_STRING), ("language", None)), [
        (("x", XSD_INTEGER, "en"), "language tag requires the rdf:langString datatype"),
        (("x", XSD_STRING, "en"), "language tag requires the rdf:langString datatype"),
    ]),
]


@pytest.mark.parametrize("kind, fields, invalid", _TERM_KINDS, ids=lambda v: getattr(v, "__name__", ""))
def test_term_contract(kind, fields, invalid):
    names, values = [f for f, _ in fields], [v for _, v in fields]
    term = kind(*values)
    # equal values, spelt as other string objects, give the identical object
    again = kind(*("".join(v) if isinstance(v, str) else v for v in values))
    assert again is term and again == term and hash(again) == hash(term)
    assert term == kind(*values[:1]) and all(term != other("x") for other in (Iri, Blank, Literal)
                                             if other is not kind)
    reference = dataclasses.make_dataclass(kind.__name__, names, frozen=True, slots=True)
    assert repr(term) == repr(reference(*values))
    assert [getattr(term, name) for name in names] == values
    for name in names:
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(term, name, "y")
        with pytest.raises(AttributeError):
            delattr(term, name)
    assert copy.copy(term) is term and copy.deepcopy(term) is term
    assert pickle.loads(pickle.dumps(term)) is term
    for args, message in invalid:
        with pytest.raises(StructuralError) as caught:
            kind(*args)
        assert str(caught.value) == message


def test_triple_is_a_tuple_of_interned_terms():
    s, p, o = Iri("http://ex.org/s"), Iri("http://ex.org/p"), Literal("1", XSD_INTEGER)
    triple = Triple(s, p, o)
    assert triple == (s, p, o) and hash(triple) == hash((s, p, o)) and triple in {(s, p, o)}
    assert (triple.subject, triple.predicate, triple.object) == (s, p, o)
    reference = dataclasses.make_dataclass("Triple", ["subject", "predicate", "object"], frozen=True)
    assert repr(triple) == repr(reference(s, p, o))
    with pytest.raises(AttributeError):
        triple.subject = o
    for twin in (copy.copy(triple), copy.deepcopy(triple), pickle.loads(pickle.dumps(triple))):
        assert type(twin) is Triple and twin == triple and all(a is b for a, b in zip(twin, triple))


def _live(table) -> int:
    return sum(ref() is not None for ref in list(table.values()))


def test_intern_tables_stay_bounded():
    held = [Iri(f"http://ex.org/held/{i}") for i in range(100)] + [Literal(f"held {i}") for i in range(100)]
    live = {name: _live(getattr(rdf_core, name)) for name in ("_IRIS", "_LITERALS")}
    for i in range(100_000):
        Iri(f"http://ex.org/transient/{i}")
        Literal(f"transient {i}", XSD_INTEGER)
    for name, before in live.items():
        table = getattr(rdf_core, name)
        # dead entries are swept once a table doubles, so what is left is
        # bounded by the live terms (and the one being made at the sweep),
        # not by the terms ever made
        assert table.swept_at <= before + 1
        assert len(table) <= 2 * (before + 1) + 64
        assert _live(table) <= before
    assert all(Iri(f"http://ex.org/held/{i}") is held[i] for i in range(100))
    assert all(Literal(f"held {i}") is held[100 + i] for i in range(100))


def test_interning_is_thread_safe():
    # each thread builds the same fresh values; the switch interval is cut
    # so that the threads interleave inside the miss path
    threads, barrier, results = 8, threading.Barrier(8), [None] * 8
    values = [f"http://ex.org/race/{id(barrier)}/{i}" for i in range(3000)]

    def build(slot):
        barrier.wait(timeout=60)
        results[slot] = [Iri(v) for v in values] + [Literal(v, XSD_INTEGER) for v in values] + [
            Blank(f"race{id(barrier)}x{i}") for i in range(len(values))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(slot,)) for slot in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for terms in results[1:]:
        assert all(a is b for a, b in zip(terms, results[0], strict=True))


class TestTripleInvariants:
    def test_literal_subject_rejected(self):
        with pytest.raises(StructuralError):
            Triple(Literal("x"), Iri("http://ex.org/p"), Iri("http://ex.org/o"))

    def test_non_iri_predicate_rejected(self):
        with pytest.raises(StructuralError):
            Triple(Iri("http://ex.org/s"), Blank("p"), Iri("http://ex.org/o"))


class TestInsert:
    def test_insert_into_empty(self):
        g = Graph()
        assert g.insert(t("a", "p", "b")) is True
        assert len(g) == 1

    def test_insert_twice_is_set_semantics(self):
        g = Graph()
        g.insert(t("a", "p", "b"))
        assert g.insert(t("a", "p", "b")) is False
        assert len(g) == 1

    def test_insert_remove_round_trip(self):
        g = Graph()
        g.insert(t("a", "p", "b"))
        before = g.triple_set()
        extra = t("x", "y", "z")
        g.insert(extra)
        g.remove(extra)
        assert g.triple_set() == before


class TestMatch:
    def test_empty_graph(self):
        assert Graph().match() == []

    def test_bound_subject_predicate(self):
        g = Graph()
        for spo in [("a", "p", "b"), ("a", "p", "c"), ("b", "p", "c")]:
            g.insert(t(*spo))
        got = g.match(Iri("http://ex.org/a"), Iri("http://ex.org/p"), None)
        assert got == [t("a", "p", "b"), t("a", "p", "c")]

    def test_fully_ground_membership(self):
        g = Graph()
        trip = t("a", "p", "b")
        g.insert(trip)
        assert g.match(trip.subject, trip.predicate, trip.object) == [trip]

    def test_match_determinism(self):
        g = Graph()
        rng = random.Random(5)
        triples = [t(f"s{rng.randrange(5)}", f"p{rng.randrange(3)}", f"o{rng.randrange(5)}")
                   for _ in range(40)]
        for trip in triples:
            g.insert(trip)
        assert g.match(None, Iri("http://ex.org/p1"), None) == g.match(None, Iri("http://ex.org/p1"), None)

    def test_index_coherence_random(self):
        # match via the chosen index always equals a full linear scan
        rng = random.Random(11)
        g = Graph()
        universe = [t(f"s{rng.randrange(8)}", f"p{rng.randrange(4)}", f"o{rng.randrange(8)}")
                    for _ in range(300)]
        for trip in universe:
            g.insert(trip)
        subjects = [Iri(f"http://ex.org/s{i}") for i in range(8)] + [None]
        preds = [Iri(f"http://ex.org/p{i}") for i in range(4)] + [None]
        objects = [Iri(f"http://ex.org/o{i}") for i in range(8)] + [None]
        for _ in range(200):
            s, p, o = rng.choice(subjects), rng.choice(preds), rng.choice(objects)
            expected = sorted(
                (x for x in g.triple_set()
                 if (s is None or x.subject == s) and (p is None or x.predicate == p)
                 and (o is None or x.object == o)),
                key=triple_key)
            assert g.match(s, p, o) == expected


class TestIsomorphic:
    def test_ground_graphs_by_set_equality(self):
        g1, g2 = Graph(), Graph()
        g1.insert(t("a", "p", "b"))
        g2.insert(t("a", "p", "b"))
        assert isomorphic(g1, g2)
        g2.insert(t("a", "p", "c"))
        assert not isomorphic(g1, g2)

    def test_single_blank_relabel(self):
        g1, g2 = Graph(), Graph()
        g1.insert(Triple(Blank("x"), Iri("http://ex.org/p"), Iri("http://ex.org/b")))
        g2.insert(Triple(Blank("y"), Iri("http://ex.org/p"), Iri("http://ex.org/b")))
        assert isomorphic(g1, g2)

    def test_self_loop_vs_two_blanks(self):
        g1, g2 = Graph(), Graph()
        g1.insert(Triple(Blank("x"), Iri("http://ex.org/p"), Blank("x")))
        g2.insert(Triple(Blank("a"), Iri("http://ex.org/p"), Blank("b")))
        assert not isomorphic(g1, g2)

    def test_blank_capacity_guard(self):
        g1, g2 = Graph(), Graph()
        for i in range(13):
            g1.insert(Triple(Blank(f"x{i}"), Iri("http://ex.org/p"), Blank(f"x{(i+1) % 13}")))
            g2.insert(Triple(Blank(f"y{i}"), Iri("http://ex.org/p"), Blank(f"y{(i+1) % 13}")))
        with pytest.raises(CapacityError):
            isomorphic(g1, g2)


def test_snapshot_immutability():
    g = Graph()
    g.insert(t("a", "p", "b"))
    got = g.match()
    got.append(t("x", "y", "z"))
    assert len(g) == 1


def test_indexes_track_triple_set_through_churn():
    rng = random.Random(99)
    g = Graph()
    pool = [t(f"s{rng.randrange(6)}", f"p{rng.randrange(3)}", f"o{rng.randrange(6)}")
            for _ in range(150)]
    for step, trip in enumerate(pool):
        if step % 3 == 2:
            g.remove(rng.choice(pool))
        else:
            g.insert(trip)
        expected = g.triple_set()
        for index in (g._by_s, g._by_p, g._by_o):
            union = set().union(*index.values()) if index else set()
            assert union == expected
        # find, under each set of bound positions, filters the triple set, on
        # the graph and on a fresh two-deep Layer chain over it, which holds
        # each triple once
        chain = Layer(Layer(g))
        held = set(expected)
        for layer in (chain.base, chain):
            for added in rng.sample(pool, 3):
                layer.insert(added)
                held.add(added)
        assert chain.triple_set() == held
        probe = rng.choice(pool)
        for graph, triples in ((g, expected), (chain, held)):
            for mask in range(8):
                bound = [term if mask >> pos & 1 else None for pos, term in enumerate(probe)]
                found = graph.find(*bound)
                assert len(found) == len(set(found)), (mask, bound)
                assert set(found) == {x for x in triples
                                      if all(b is None or x[pos] == b for pos, b in enumerate(bound))}, (mask, bound)
            assert graph.find(Literal("s0"), probe.predicate, probe.object) == []
