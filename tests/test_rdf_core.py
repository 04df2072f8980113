import random
import re

import pytest

from ontomem.namespaces import XSD_INTEGER
from ontomem.rdf_core import (
    Blank,
    CapacityError,
    Graph,
    Iri,
    Literal,
    StructuralError,
    Triple,
    isomorphic,
    parse_term_text,
    term_text,
    triple_key,
)


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
