import random

import pytest

from ontomem.namespaces import RDF_TYPE, XSD_DATE, XSD_INTEGER, XSD_STRING
from ontomem.rdf_core import Graph, Iri, Layer, Literal, Triple, triple_key
from ontomem.shacl import (
    NodeShape,
    PropertyShape,
    ShapeError,
    parse_shapes,
    validate,
)
from ontomem.turtle_io import parse_turtle
from oracles import naive_validate

EX = "http://ex.org/"


def iri(local):
    return Iri(EX + local)


def typed(g, node, cls):
    g.insert(Triple(node, Iri(RDF_TYPE), cls))


DISK_SHAPES_TTL = """
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://ex.org/> .
ex:DiskShape a sh:NodeShape ;
  sh:targetClass ex:Disk ;
  sh:property _:p1 .
_:p1 sh:path ex:onPeg ;
  sh:minCount 1 ;
  sh:maxCount 1 .
"""


class TestParseShapes:
    def test_fixture_fields(self):
        g, _ = parse_turtle(DISK_SHAPES_TTL)
        shapes, warnings = parse_shapes(g)
        assert warnings == []
        assert len(shapes) == 1
        shape = shapes[0]
        assert shape.id == iri("DiskShape")
        assert shape.target_class == iri("Disk")
        assert not shape.closed
        assert len(shape.property_shapes) == 1
        prop = shape.property_shapes[0]
        assert prop.path == iri("onPeg")
        assert (prop.min_count, prop.max_count) == (1, 1)
        assert prop.datatype is None and prop.value_class is None

    def test_empty_graph(self):
        assert parse_shapes(Graph()) == ([], [])

    def test_missing_path_names_shape(self):
        doc = """
        @prefix sh: <http://www.w3.org/ns/shacl#> .
        @prefix ex: <http://ex.org/> .
        ex:Bad a sh:NodeShape ; sh:targetClass ex:T ; sh:property _:p .
        _:p sh:minCount 1 .
        """
        g, _ = parse_turtle(doc)
        with pytest.raises(ShapeError) as exc:
            parse_shapes(g)
        assert "http://ex.org/Bad" in str(exc.value)

    def test_unknown_shacl_terms_warn(self):
        doc = """
        @prefix sh: <http://www.w3.org/ns/shacl#> .
        @prefix ex: <http://ex.org/> .
        ex:S a sh:NodeShape ; sh:targetClass ex:T ; sh:severity sh:Warning .
        """
        g, _ = parse_turtle(doc)
        shapes, warnings = parse_shapes(g)
        assert len(shapes) == 1
        assert any("sh:severity" in w for w in warnings)

    def test_sh_in_list_walked(self):
        doc = """
        @prefix sh: <http://www.w3.org/ns/shacl#> .
        @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
        @prefix ex: <http://ex.org/> .
        ex:S a sh:NodeShape ; sh:targetClass ex:T ; sh:property _:p .
        _:p sh:path ex:status ; sh:in _:l1 .
        _:l1 rdf:first "open" ; rdf:rest _:l2 .
        _:l2 rdf:first "closed" ; rdf:rest rdf:nil .
        """
        g, _ = parse_turtle(doc)
        shapes, _ = parse_shapes(g)
        assert shapes[0].property_shapes[0].value_in == (Literal("open"), Literal("closed"))

    def test_pattern_that_does_not_compile_rejected(self):
        doc = """
        @prefix sh: <http://www.w3.org/ns/shacl#> .
        @prefix ex: <http://ex.org/> .
        ex:S a sh:NodeShape ; sh:targetClass ex:T ; sh:property _:p .
        _:p sh:path ex:code ; sh:pattern "(" .
        """
        g, _ = parse_turtle(doc)
        with pytest.raises(ShapeError) as exc:
            parse_shapes(g)
        assert "sh:pattern of http://ex.org/code does not compile" in str(exc.value)

    def test_min_above_max_rejected(self):
        with pytest.raises(ShapeError):
            PropertyShape(path=iri("p"), min_count=3, max_count=1)

    def test_shape_needs_target_or_properties(self):
        with pytest.raises(ShapeError):
            NodeShape(id=iri("S"))


def disk_shape(**overrides):
    defaults = dict(path=iri("onPeg"), min_count=1, max_count=1)
    defaults.update(overrides)
    return NodeShape(iri("DiskShape"), iri("Disk"), (PropertyShape(**defaults),))


class TestValidate:
    def test_conforming_fixture(self):
        g = Graph()
        for d in range(3):
            typed(g, iri(f"d{d}"), iri("Disk"))
            g.insert(Triple(iri(f"d{d}"), iri("onPeg"), iri("peg0")))
        report = validate(g, [disk_shape()])
        assert report.conforms and report.results == []

    def test_min_count_violation(self):
        g = Graph()
        typed(g, iri("d0"), iri("Disk"))
        report = validate(g, [disk_shape()])
        assert not report.conforms
        only = report.results[0]
        assert (only.focus_node, only.path, only.constraint) == (iri("d0"), iri("onPeg"), "minCount")

    def test_empty_shape_list_vacuous(self):
        g = Graph()
        typed(g, iri("d0"), iri("Disk"))
        assert validate(g, []).conforms

    def test_conforms_iff_no_results(self):
        g = Graph()
        typed(g, iri("d0"), iri("Disk"))
        report = validate(g, [disk_shape()])
        assert report.conforms == (not report.results)

    def test_validate_does_not_infer(self):
        # instance typed with a subclass only: not a focus node without materialization
        g = Graph()
        g.insert(Triple(iri("Small"), Iri("http://www.w3.org/2000/01/rdf-schema#subClassOf"),
                        iri("Disk")))
        typed(g, iri("d0"), iri("Small"))
        assert validate(g, [disk_shape()]).conforms

    def test_closed_shape_flags_extra_predicates(self):
        g = Graph()
        typed(g, iri("d0"), iri("Disk"))
        g.insert(Triple(iri("d0"), iri("onPeg"), iri("peg0")))
        g.insert(Triple(iri("d0"), iri("color"), Literal("red")))
        shape = NodeShape(iri("DiskShape"), iri("Disk"),
                          (PropertyShape(path=iri("onPeg")),), closed=True)
        report = validate(g, [shape])
        assert [r.constraint for r in report.results] == ["closed"]
        assert report.results[0].path == iri("color")

    def test_report_order_deterministic(self):
        g = Graph()
        for d in ("b", "a", "c"):
            typed(g, iri(d), iri("Disk"))
        report = validate(g, [disk_shape()])
        focuses = [r.focus_node.value for r in report.results]
        assert focuses == sorted(focuses)


# ---------------------------------------------------------------------------
# Randomized oracle equivalence
# ---------------------------------------------------------------------------


def random_data(rng: random.Random, max_triples: int) -> Graph:
    g = Graph()
    classes = [iri(f"C{i}") for i in range(3)]
    props = [iri(f"q{i}") for i in range(4)]
    nodes = [iri(f"n{i}") for i in range(8)]
    for _ in range(rng.randint(1, max_triples)):
        kind = rng.random()
        if kind < 0.3:
            g.insert(Triple(rng.choice(nodes), Iri(RDF_TYPE), rng.choice(classes)))
        elif kind < 0.8:
            g.insert(Triple(rng.choice(nodes), rng.choice(props), rng.choice(nodes)))
        else:
            dt = rng.choice([XSD_STRING, XSD_INTEGER, XSD_DATE])
            g.insert(Triple(rng.choice(nodes), rng.choice(props),
                            Literal(str(rng.randrange(10)), dt)))
    return g


def random_shapes(rng: random.Random, count: int) -> list[NodeShape]:
    shapes = []
    for i in range(count):
        props = []
        for _ in range(rng.randint(1, 3)):
            path = iri(f"q{rng.randrange(4)}")
            kwargs = {"path": path}
            if rng.random() < 0.5:
                kwargs["min_count"] = rng.randint(0, 2)
            if rng.random() < 0.5:
                kwargs["max_count"] = rng.randint(kwargs.get("min_count", 0), 3)
            if rng.random() < 0.3:
                kwargs["datatype"] = Iri(rng.choice([XSD_STRING, XSD_INTEGER]))
            if rng.random() < 0.3:
                kwargs["value_class"] = iri(f"C{rng.randrange(3)}")
            if rng.random() < 0.2:
                kwargs["value_in"] = tuple(
                    Literal(str(v), rng.choice([XSD_STRING, XSD_INTEGER])) for v in range(3))
            if rng.random() < 0.2:
                kwargs["pattern"] = rng.choice([r"^n", r"[03]$", r"ex\.org"])
            props.append(PropertyShape(**kwargs))
        shapes.append(NodeShape(iri(f"S{i}"), iri(f"C{rng.randrange(3)}"), tuple(props),
                                closed=rng.random() < 0.2))
    return shapes


def report_keys(report):
    return sorted({(r.focus_node, r.path.value if r.path else "", r.constraint)
                   for r in report.results})


def test_min_count_violations_monotone_under_removal():
    # dropping value triples can only deepen a count shortfall
    rng = random.Random(29)
    shape = NodeShape(iri("S"), iri("C0"),
                      (PropertyShape(path=iri("q0"), min_count=2),))
    for _ in range(30):
        data = random_data(rng, 60)
        before = {(r.focus_node, r.constraint) for r in validate(data, [shape]).results
                  if r.constraint == "minCount"}
        non_typing = [t for t in data.triple_set() if t.predicate.value != RDF_TYPE]
        if not non_typing:
            continue
        data.remove(rng.choice(non_typing))
        after = {(r.focus_node, r.constraint) for r in validate(data, [shape]).results
                 if r.constraint == "minCount"}
        assert before <= after


def test_oracle_equivalence_quick():
    from ontomem.rdf_core import term_text
    rng = random.Random(13)
    for _ in range(50):
        data = random_data(rng, 80)
        shapes = random_shapes(rng, rng.randint(1, 3))
        report = validate(data, shapes)
        got = {(term_text(r.focus_node), r.path.value if r.path else "", r.constraint)
               for r in report.results}
        expected = set(naive_validate(data, shapes))
        assert got == expected
        assert report.conforms == (not expected)


def test_scoped_validate_equals_filtered_full_report():
    rng = random.Random(1104)
    checked = scoped_hits = filtered_out = 0
    for _ in range(150):
        data = random_data(rng, 60)
        shapes = random_shapes(rng, rng.randint(1, 3))
        layer = Layer(data)
        for t in random_data(rng, 20).triple_set():
            layer.insert(t)
        cases = [(layer, layer.delta.triple_set())]
        for graph in (data, layer):
            triples = sorted(graph.triple_set(), key=triple_key)
            for size in (1, 4, len(triples) // 3):
                cases.append((graph, frozenset(rng.sample(triples, min(size, len(triples))))))
        for graph, delta in cases:
            full = validate(graph, shapes).results
            subjects = {t.subject for t in delta}
            expected = [r for r in full if r.focus_node in subjects]
            scoped = validate(graph, shapes, since=delta)
            assert scoped.results == expected
            assert scoped.conforms == (not expected)
            checked += 1
            scoped_hits += bool(expected)
            filtered_out += len(full) > len(expected)
    assert checked == 150 * 7
    assert scoped_hits >= 300 and filtered_out >= 300
