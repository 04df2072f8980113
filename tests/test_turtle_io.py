import random
import re
import time
from pathlib import Path

import pytest

from ontomem.namespaces import RDF_TYPE, XSD_DECIMAL, XSD_INTEGER
from ontomem.rdf_core import Graph, Iri, Literal, Triple, isomorphic
from ontomem.turtle_io import TurtleParseError, _tokenize, parse_turtle, serialize_turtle
from oracles import oracle_tokenize

FIXTURES = sorted(Path(__file__).parent.glob("fixtures/turtle/*.ttl"))
EX = "@prefix ex: <http://ex.org/> .\n"


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

    def test_other_escapes_stay_as_written(self):
        g, _ = parse_turtle(EX + 'ex:a ex:p "\\q \\\\u0041 \\U0001F600 \\r" .')
        assert next(iter(g)).object.lexical == "\\q \\u0041 \U0001F600 \r"

    @pytest.mark.parametrize("body", ["\\u00", "star \\u265 here", "\\uD800", "\\uDFFF",
                                      "\\U00110000", "\\U0001F60", "\\u+123", "\\u1_00", "end \\u"])
    def test_malformed_unicode_escape_is_positioned_error(self, body):
        # The parent read the first three as a bare ValueError, as U+0265 with
        # the space swallowed, and as a lone surrogate that no file can hold.
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle(EX + f'ex:a ex:p "{body}" .\n')
        diag = exc.value.diagnostics[0]
        assert "malformed escape" in diag.message
        assert (diag.line, diag.column) == (2, 11)

    def test_backslash_before_newline_is_unterminated_literal(self):
        doc = EX + 'ex:a ex:p "one\\\ntwo" .\nex:b ex:p ex:c .\n'
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle(doc)
        diag = exc.value.diagnostics[0]
        assert diag.message == "unterminated literal"
        assert (diag.line, diag.column) == (2, 11)

    def test_eof_after_trailing_comment_is_past_the_comment(self):
        assert _tokenize("ex:a ex:p ex:b . # end")[-1] == ("EOF", "", 1, 23)
        assert _tokenize("# only\n  # two")[-1] == ("EOF", "", 2, 8)

    @pytest.mark.parametrize("doc, column", [
        ("<a b> ex:p ex:o .", 1),
        ("ex:s <a b> ex:o .", 6),
        ("ex:s ex:p <a b> .", 11),
        ('ex:s ex:p "x"^^<a b> .', 16),
        ('ex:s ex:p "x"^^<> .', 16),
    ])
    def test_bad_iri_is_positioned_error(self, doc, column):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle(EX + doc)
        diag = exc.value.diagnostics[0]
        assert diag.message.startswith("IRI must be non-empty")
        assert (diag.line, diag.column) == (2, column)

    def test_bad_iri_through_prefix_is_positioned_error(self):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle("@prefix ex: <http://ex.org/a b#> .\nex:s ex:p ex:o .")
        assert (exc.value.diagnostics[0].line, exc.value.diagnostics[0].column) == (2, 1)

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



# ---------------------------------------------------------------------------
# The token table against the character loop it replaced (tests/oracles.py)
# ---------------------------------------------------------------------------

_PIECES = ["\\", "\\u", "\\U", "\\u00", "\\u265 ", "\\uD800", "\\u00e9", "\\U0001F600",
           "\\U00110000", '"', "<", ">", "@", "#", "# c", "\n", "\\\n", " ", ".", ";", ",",
           ":", "_:", "^^", "a", "0", "e", "\t", "\r", "é", "-", "+", "@en", "@prefix"]
_LITERAL_RE = re.compile(r'"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*"')
_OPEN_LITERAL_RE = re.compile(r'"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*\\\n')


def _mutate(doc: str, rng: random.Random, pieces: list[str] = _PIECES) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(doc))
        op = rng.random()
        if op < 0.45:
            doc = doc[:i] + rng.choice(pieces) + doc[i:]
        elif op < 0.7:
            doc = doc[:i] + doc[i + rng.randint(1, 3):]
        elif op < 0.9:
            doc = doc[:i] + rng.choice(pieces) + doc[i + 1:]
        else:
            doc = doc[:i]
    return doc


def _outcome(tokenize, text: str):
    try:
        return "tokens", [tuple(tok) for tok in tokenize(text)]
    except TurtleParseError as e:
        diag = e.diagnostics[0]
        return "error", (diag.message, diag.line, diag.column)
    except Exception as e:  # the oracle's crashes: ValueError, IndexError, ...
        return "crash", type(e).__name__


def _offset(text: str, line: int, column: int) -> int:
    return sum(len(ln) + 1 for ln in text.split("\n")[:line - 1]) + column - 1


def _bad_unicode_escape(body: str) -> bool:
    """A \\u or \\U in a literal body not followed by 4 or 8 hex digits naming a
    Unicode scalar value, read one escape pair at a time."""
    i = 0
    while i < len(body) - 1:
        if body[i] != "\\":
            i += 1
            continue
        width = {"u": 4, "U": 8}.get(body[i + 1])
        if width is not None:
            digits = body[i + 2:i + 2 + width]
            if len(digits) < width or any(c not in "0123456789abcdefABCDEF" for c in digits):
                return True
            value = int(digits, 16)
            if value > 0x10FFFF or 0xD800 <= value <= 0xDFFF:
                return True
        i += 2
    return False


def _difference(text: str, old, new) -> str:
    """Which named difference separates the two outcomes; fails on any other."""
    if old[0] == "crash":
        assert new[0] == "error", (text, old, new)
        return "oracle crash"
    if new[0] == "error":
        message, line, column = new[1]
        at = _offset(text, line, column)
        # Both read the text before the failing literal alike.
        assert _outcome(oracle_tokenize, text[:at]) == _outcome(_tokenize, text[:at]), text
        if message.startswith("malformed escape"):
            m = _LITERAL_RE.match(text, at)
            assert m and _bad_unicode_escape(m.group()[1:-1]), (text, old, new)
            return "1: malformed unicode escape"
        if message == "unterminated literal":
            if _OPEN_LITERAL_RE.match(text, at):
                return "2: backslash before newline"
            # The oracle read a newline as one of a \u's four digits.
            assert _bad_unicode_escape(text[at + 1:].split("\n", 1)[0]), (text, old, new)
            return "1: malformed unicode escape"
    if old[0] == new[0] == "tokens":
        last_line = text.rsplit("\n", 1)[-1]
        assert old[1][:-1] == new[1][:-1] and old[1][-1][:3] == new[1][-1][:3], (text, old, new)
        assert "#" in last_line and new[1][-1][3] == len(last_line) + 1, (text, old, new)
        return "3: EOF after trailing comment"
    raise AssertionError(f"unexplained difference on {text!r}: {old} vs {new}")


def test_token_table_matches_character_loop():
    started = time.perf_counter()
    docs = [path.read_text(encoding="utf-8") for path in FIXTURES]
    rng = random.Random(20260418)
    inputs = docs + [_mutate(rng.choice(docs), rng) for _ in range(12_000)]
    tally: dict[str, int] = {}
    for text in inputs:
        old, new = _outcome(oracle_tokenize, text), _outcome(_tokenize, text)
        kind = "identical" if old == new else _difference(text, old, new)
        tally[kind] = tally.get(kind, 0) + 1
        # Whatever is wrong with a document, the parser names a place in it.
        try:
            parse_turtle(text)
        except TurtleParseError as e:
            lines, diag = text.split("\n"), e.diagnostics[0]
            assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1, (text, diag)
    assert set(tally) == {"identical", "oracle crash", "1: malformed unicode escape",
                          "2: backslash before newline", "3: EOF after trailing comment"}, tally
    assert tally["identical"] > 0.95 * len(inputs), tally
    assert time.perf_counter() - started < 10
