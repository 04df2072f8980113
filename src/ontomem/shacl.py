"""SHACL subset: node shapes with targetClass, property constraints
(minCount/maxCount/datatype/class/in/pattern) and closed-shape checking.

Validation never infers: focus nodes and class membership come from rdf:type
edges already present in the data graph. Callers wanting inference
materialize first (the builder pipeline does exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .namespaces import RDF_FIRST, RDF_NIL, RDF_REST, RDF_TYPE, SH_NS, XSD_BOOLEAN, XSD_INTEGER
from .rdf_core import (Graph, Iri, Literal, Term, Triple, regex_error, regex_matches, single_object, term_key,
                       term_text)

SH_NODESHAPE = SH_NS + "NodeShape"
SH_TARGETCLASS = SH_NS + "targetClass"
SH_PROPERTY = SH_NS + "property"
SH_PATH = SH_NS + "path"
SH_MINCOUNT = SH_NS + "minCount"
SH_MAXCOUNT = SH_NS + "maxCount"
SH_DATATYPE = SH_NS + "datatype"
SH_CLASS = SH_NS + "class"
SH_IN = SH_NS + "in"
SH_PATTERN = SH_NS + "pattern"
SH_CLOSED = SH_NS + "closed"

_TYPE = Iri(RDF_TYPE)
_KNOWN_SHAPE_TERMS = {SH_TARGETCLASS, SH_PROPERTY, SH_CLOSED, RDF_TYPE}
_KNOWN_PROPERTY_TERMS = {SH_PATH, SH_MINCOUNT, SH_MAXCOUNT, SH_DATATYPE, SH_CLASS, SH_IN, SH_PATTERN, RDF_TYPE}


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class PropertyShape:
    path: Iri
    min_count: int | None = None
    max_count: int | None = None
    datatype: Iri | None = None
    value_class: Iri | None = None
    value_in: tuple[Term, ...] | None = None
    pattern: str | None = None

    def __post_init__(self) -> None:
        if self.min_count is not None and self.max_count is not None and self.min_count > self.max_count:
            raise ShapeError(f"minCount {self.min_count} exceeds maxCount {self.max_count}")
        if self.pattern is not None and (error := regex_error(self.pattern)) is not None:
            raise ShapeError(f"sh:pattern of {self.path.value} does not compile: {error}")


@dataclass(frozen=True)
class NodeShape:
    id: Iri
    target_class: Iri | None = None
    property_shapes: tuple[PropertyShape, ...] = ()
    closed: bool = False

    def __post_init__(self) -> None:
        if self.target_class is None and not self.property_shapes:
            raise ShapeError(f"shape {self.id.value} declares no targetClass and no properties")


@dataclass(frozen=True)
class ValidationResult:
    focus_node: Term
    path: Iri | None
    constraint: str
    message: str

    def to_json(self) -> dict:
        return {
            "focus_node": term_text(self.focus_node),
            "path": self.path.value if self.path else None,
            "constraint": self.constraint,
            "message": self.message,
        }


@dataclass
class ValidationReport:
    conforms: bool
    results: list[ValidationResult] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"conforms": self.conforms, "results": [r.to_json() for r in self.results]}


# ---------------------------------------------------------------------------
# Shapes parsing (shapes are themselves RDF)
# ---------------------------------------------------------------------------


def parse_shapes(graph: Graph) -> tuple[list[NodeShape], list[str]]:
    """One NodeShape per sh:NodeShape node, plus warnings for unknown sh: terms."""
    warnings: list[str] = []
    shapes: list[NodeShape] = []
    shape_nodes = [t.subject for t in graph.match(None, Iri(RDF_TYPE), Iri(SH_NODESHAPE))]
    for node in sorted(shape_nodes, key=term_key):
        if not isinstance(node, Iri):
            raise ShapeError(f"node shape must be an IRI: {term_text(node)}")
        target = single_object(graph, node, SH_TARGETCLASS)
        if target is not None and not isinstance(target, Iri):
            raise ShapeError(f"sh:targetClass of {node.value} must be an IRI")
        closed = _bool_object(graph, node, SH_CLOSED)
        props = []
        for t in graph.match(node, Iri(SH_PROPERTY), None):
            props.append(_parse_property(graph, node, t.object, warnings))
        _warn_unknown(graph, node, _KNOWN_SHAPE_TERMS, warnings)
        props.sort(key=lambda p: p.path.value)
        shapes.append(NodeShape(node, target, tuple(props), closed))
    return shapes, warnings


def _parse_property(graph: Graph, shape: Iri, node: Term, warnings: list[str]) -> PropertyShape:
    path = single_object(graph, node, SH_PATH)
    if path is None:
        raise ShapeError(f"property shape of {shape.value} is missing sh:path")
    if not isinstance(path, Iri):
        raise ShapeError(f"sh:path of {shape.value} must be a single predicate IRI")
    value_in = None
    in_head = single_object(graph, node, SH_IN)
    if in_head is not None:
        value_in = tuple(_walk_list(graph, in_head))
    pattern_term = single_object(graph, node, SH_PATTERN)
    datatype = single_object(graph, node, SH_DATATYPE)
    value_class = single_object(graph, node, SH_CLASS)
    _warn_unknown(graph, node, _KNOWN_PROPERTY_TERMS, warnings)
    return PropertyShape(
        path=path,
        min_count=_int_object(graph, node, SH_MINCOUNT),
        max_count=_int_object(graph, node, SH_MAXCOUNT),
        datatype=datatype if isinstance(datatype, Iri) else None,
        value_class=value_class if isinstance(value_class, Iri) else None,
        value_in=value_in,
        pattern=pattern_term.lexical if isinstance(pattern_term, Literal) else None,
    )


def _walk_list(graph: Graph, head: Term) -> list[Term]:
    items: list[Term] = []
    node = head
    seen: set[Term] = set()
    while not (isinstance(node, Iri) and node.value == RDF_NIL):
        if node in seen:
            raise ShapeError("cyclic rdf list in sh:in")
        seen.add(node)
        first = single_object(graph, node, RDF_FIRST)
        rest = single_object(graph, node, RDF_REST)
        if first is None or rest is None:
            raise ShapeError("malformed rdf list in sh:in")
        items.append(first)
        node = rest
    return items


def _int_object(graph: Graph, subject: Term, predicate: str) -> int | None:
    obj = single_object(graph, subject, predicate)
    if obj is None:
        return None
    if not isinstance(obj, Literal) or obj.datatype != XSD_INTEGER:
        raise ShapeError(f"{predicate} requires an xsd:integer literal")
    return int(obj.lexical)


def _bool_object(graph: Graph, subject: Term, predicate: str) -> bool:
    obj = single_object(graph, subject, predicate)
    return isinstance(obj, Literal) and obj.datatype == XSD_BOOLEAN and obj.lexical == "true"


def _warn_unknown(graph: Graph, node: Term, known: set[str], warnings: list[str]) -> None:
    for t in graph.match(node, None, None):
        pred = t.predicate.value
        if pred.startswith(SH_NS) and pred not in known:
            warnings.append(f"unknown SHACL term sh:{pred[len(SH_NS):]} on {term_text(node)}")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(data: Graph, shapes: list[NodeShape], since=None) -> ValidationReport:
    """Check every focus node of every shape; conforms iff no results.

    `since`, a set of triples such as a Layer's delta, scopes the check to
    the focus nodes that are subjects of its triples: the report then holds
    exactly the full report's results on those nodes, in the same order.
    """
    scope = None if since is None else {t.subject for t in since}
    results: list[ValidationResult] = []
    for shape in shapes:
        for focus in _focus_nodes(data, shape, scope):
            results.extend(_check_focus(data, shape, focus))
    results.sort(key=lambda r: (term_key(r.focus_node), r.path.value if r.path else "", r.constraint))
    return ValidationReport(conforms=not results, results=results)


def _focus_nodes(data: Graph, shape: NodeShape, scope: set[Term] | None) -> list[Term]:
    if shape.target_class is None:
        return []
    if scope is None:
        nodes = {t.subject for t in data.find(None, _TYPE, shape.target_class)}
    else:
        nodes = {n for n in scope if Triple(n, _TYPE, shape.target_class) in data}
    return sorted(nodes, key=term_key)


def _check_focus(data: Graph, shape: NodeShape, focus: Term) -> list[ValidationResult]:
    results: list[ValidationResult] = []
    for prop in shape.property_shapes:
        values = [t.object for t in data.match(focus, prop.path, None)]
        count = len(values)
        if prop.min_count is not None and count < prop.min_count:
            results.append(ValidationResult(
                focus, prop.path, "minCount",
                f"expected at least {prop.min_count} values of {prop.path.value}, found {count}"))
        if prop.max_count is not None and count > prop.max_count:
            results.append(ValidationResult(
                focus, prop.path, "maxCount",
                f"expected at most {prop.max_count} values of {prop.path.value}, found {count}"))
        for value in sorted(values, key=term_key):
            if prop.datatype is not None:
                if not isinstance(value, Literal) or value.datatype != prop.datatype.value:
                    results.append(ValidationResult(
                        focus, prop.path, "datatype",
                        f"value {term_text(value)} is not a literal of {prop.datatype.value}"))
            if prop.value_class is not None:
                if isinstance(value, Literal) or Triple(value, _TYPE, prop.value_class) not in data:
                    results.append(ValidationResult(
                        focus, prop.path, "class",
                        f"value {term_text(value)} is not typed {prop.value_class.value}"))
            if prop.value_in is not None and value not in prop.value_in:
                results.append(ValidationResult(
                    focus, prop.path, "in",
                    f"value {term_text(value)} not in the allowed list"))
            if prop.pattern is not None and not regex_matches(prop.pattern, value):
                results.append(ValidationResult(
                    focus, prop.path, "pattern",
                    f"value {term_text(value)} does not match /{prop.pattern}/"))
    if shape.closed:
        allowed = {p.path.value for p in shape.property_shapes} | {RDF_TYPE}
        extra = sorted({t.predicate.value for t in data.match(focus, None, None)} - allowed)
        for pred in extra:
            results.append(ValidationResult(
                focus, Iri(pred), "closed",
                f"predicate {pred} not allowed on closed shape {shape.id.value}"))
    return results
