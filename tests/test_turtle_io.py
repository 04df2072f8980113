import random
from pathlib import Path

import pytest

from ontomem.namespaces import RDF_TYPE, XSD_DECIMAL, XSD_INTEGER
from ontomem.rdf_core import Graph, Iri, Literal, Triple, isomorphic
from ontomem.turtle_io import Severity, TurtleParseError, parse_turtle, serialize_turtle

FIXTURES = sorted(Path(__file__).parent.glob("fixtures/turtle/*.ttl"))


def test_fixture_corpus_is_large_enough():
    assert len(FIXTURES) >= 30


class TestParse:
    def test_minimal_document(self):
        g, prefixes = parse_turtle("@prefix ex: <http://ex.org/> . ex:a ex:p ex:b .")
        assert len(g) == 1
        assert prefixes == {"ex": "http://ex.org/"}
        assert Triple(Iri("http://ex.org/a"), Iri("http://ex.org/p"), Iri("http://ex.org/b")) in g

    def test_unknown_prefix_reports_position(self):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle("ex:a ex:p ex:b .")
        diag = exc.value.diagnostics[0]
        assert "unknown prefix 'ex'" in diag.message
        assert diag.line == 1 and diag.column == 1
        assert diag.severity is Severity.ERROR

    def test_abbreviations_expand(self):
        g, _ = parse_turtle(
            "@prefix ex: <http://ex.org/> . ex:a ex:p ex:b , ex:c ; ex:q ex:d .")
        # expanding by hand: (a,p,b), (a,p,c), (a,q,d)
        e = "http://ex.org/"
        assert g.triple_set() == {
            Triple(Iri(e + "a"), Iri(e + "p"), Iri(e + "b")),
            Triple(Iri(e + "a"), Iri(e + "p"), Iri(e + "c")),
            Triple(Iri(e + "a"), Iri(e + "q"), Iri(e + "d")),
        }

    def test_numeric_and_boolean_shorthand(self):
        g, _ = parse_turtle("@prefix ex: <http://ex.org/> . ex:a ex:n 30 ; ex:d 2.5 ; ex:f true .")
        objects = {t.object for t in g.triple_set()}
        assert Literal("30", XSD_INTEGER) in objects
        assert Literal("2.5", XSD_DECIMAL) in objects

    def test_a_keyword_is_rdf_type(self):
        g, _ = parse_turtle("@prefix ex: <http://ex.org/> . ex:x a ex:T .")
        assert next(iter(g)).predicate == Iri(RDF_TYPE)

    def test_unterminated_literal(self):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle('@prefix ex: <http://ex.org/> .\nex:a ex:p "oops .')
        diag = exc.value.diagnostics[0]
        assert "unterminated literal" in diag.message
        assert diag.line == 2

    def test_literal_in_subject_position(self):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle('@prefix ex: <http://ex.org/> . "lit" ex:p ex:b .')
        assert "literal in subject position" in exc.value.diagnostics[0].message

    def test_error_positions_lie_within_input(self):
        bad_docs = [
            "ex:a ex:p ex:b .",
            '@prefix ex: <http://ex.org/> . ex:a ex:p "x',
            "@prefix ex: <http://ex.org/> . ex:a ex:p .",
            "@prefix ex: <http://ex.org/> . ex:a .",
            "@base <http://x/> .",
        ]
        for doc in bad_docs:
            with pytest.raises(TurtleParseError) as exc:
                parse_turtle(doc)
            lines = doc.split("\n")
            diag = exc.value.diagnostics[0]
            assert 1 <= diag.line <= len(lines)
            assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1

    def test_comments_ignored(self):
        g, _ = parse_turtle("# top\n@prefix ex: <http://ex.org/> . # mid\nex:a ex:p ex:b . # end\n")
        assert len(g) == 1

    def test_escapes(self):
        g, _ = parse_turtle('@prefix ex: <http://ex.org/> . ex:a ex:p "l1\\nl2\\t\\"q\\" \\u2605" .')
        lit = next(iter(g)).object
        assert lit.lexical == 'l1\nl2\t"q" ★'

    def test_number_in_subject_position_rejected(self):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle("@prefix ex: <http://ex.org/> . 30 ex:p ex:b .")
        assert "literal in subject position" in exc.value.diagnostics[0].message

    def test_blank_in_predicate_position_rejected(self):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle("@prefix ex: <http://ex.org/> . ex:a _:p ex:b .")
        assert "predicate must be an IRI" in exc.value.diagnostics[0].message

    def test_integer_then_terminator_tokenizes(self):
        g, _ = parse_turtle("@prefix ex: <http://ex.org/> . ex:a ex:n 30.")
        assert next(iter(g)).object == Literal("30", XSD_INTEGER)

    def test_pname_with_trailing_dot_is_terminator(self):
        g, _ = parse_turtle("@prefix ex: <http://ex.org/> . ex:a ex:p ex:b.")
        assert next(iter(g)).object == Iri("http://ex.org/b")

    def test_collections_rejected(self):
        with pytest.raises(TurtleParseError):
            parse_turtle("@prefix ex: <http://ex.org/> . ex:a ex:p (ex:b ex:c) .")

    def test_one_object_per_distinct_term(self):
        g, _ = parse_turtle('@prefix ex: <http://ex.org/> .\n'
                            'ex:a a ex:C ; ex:p ex:b , "x" .\n'
                            '<http://ex.org/b> a ex:C ; ex:p ex:a , "x" .\n')
        objects = {id(term) for t in g.triple_set() for term in (t.subject, t.predicate, t.object)}
        assert len(objects) == len(g.terms()) == 6

    def test_anonymous_blank_rejected(self):
        with pytest.raises(TurtleParseError):
            parse_turtle("@prefix ex: <http://ex.org/> . ex:a ex:p [ ex:q ex:b ] .")


class TestSerialize:
    def test_empty_graph_only_prefix_lines(self):
        text = serialize_turtle(Graph(), {"ex": "http://ex.org/", "ab": "http://ab.org/"})
        assert text == "@prefix ab: <http://ab.org/> .\n@prefix ex: <http://ex.org/> .\n"

    def test_trailing_newline_and_one_triple_per_line(self):
        g, prefixes = parse_turtle("@prefix ex: <http://ex.org/> . ex:a ex:p ex:b ; ex:q ex:c .")
        text = serialize_turtle(g, prefixes)
        assert text.endswith(".\n")
        triple_lines = [ln for ln in text.splitlines() if ln and not ln.startswith("@prefix")]
        assert len(triple_lines) == 2
        assert all(";" not in ln and "," not in ln for ln in triple_lines)

    def test_insertion_order_never_leaks(self):
        doc = FIXTURES[0].read_text(encoding="utf-8")
        g, prefixes = parse_turtle(doc)
        baseline = serialize_turtle(g, prefixes)
        triples = list(g.triple_set())
        rng = random.Random(3)
        for _ in range(20):
            rng.shuffle(triples)
            shuffled = Graph()
            for t in triples:
                shuffled.insert(t)
            assert serialize_turtle(shuffled, prefixes) == baseline

    def test_blank_labels_renumbered_canonically(self):
        g1, p = parse_turtle("@prefix ex: <http://ex.org/> . _:zz ex:p ex:b .")
        g2, _ = parse_turtle("@prefix ex: <http://ex.org/> . _:aa ex:p ex:b .")
        assert serialize_turtle(g1, p) == serialize_turtle(g2, p)
        assert "_:b0" in serialize_turtle(g1, p)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_round_trip_corpus(path):
    doc = path.read_text(encoding="utf-8")
    g1, prefixes = parse_turtle(doc)
    text = serialize_turtle(g1, prefixes)
    g2, _ = parse_turtle(text)
    assert isomorphic(g1, g2)
    # serializing the reparse of canonical text is a fixpoint
    assert serialize_turtle(g2, prefixes) == text
