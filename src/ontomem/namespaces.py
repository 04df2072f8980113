"""Namespace IRIs, and the few other constants, shared across the engine."""

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
SH_NS = "http://www.w3.org/ns/shacl#"

# Project namespaces. SYS_NS carries engine-reserved terms (explicit negation,
# statement identifiers, registry metadata); INST_NS, SCHEMA_NS and PROP_NS are
# the namespaces the builder mints instances, classes and properties under.
SYS_NS = "http://ontomem.dev/ns/sys#"
INST_NS = "http://ontomem.dev/ns/inst#"
SCHEMA_NS = "http://ontomem.dev/ns/schema#"
PROP_NS = "http://ontomem.dev/ns/prop#"
HANOI_NS = "http://ontomem.dev/ns/hanoi#"

RDF_TYPE = RDF_NS + "type"
RDF_STATEMENT = RDF_NS + "Statement"
RDF_SUBJECT = RDF_NS + "subject"
RDF_PREDICATE = RDF_NS + "predicate"
RDF_OBJECT = RDF_NS + "object"
RDF_FIRST = RDF_NS + "first"
RDF_REST = RDF_NS + "rest"
RDF_NIL = RDF_NS + "nil"
RDF_LANGSTRING = RDF_NS + "langString"

RDFS_SUBCLASSOF = RDFS_NS + "subClassOf"
RDFS_SUBPROPERTYOF = RDFS_NS + "subPropertyOf"
RDFS_DOMAIN = RDFS_NS + "domain"
RDFS_RANGE = RDFS_NS + "range"
RDFS_LABEL = RDFS_NS + "label"

OWL_INVERSEOF = OWL_NS + "inverseOf"
OWL_SYMMETRIC = OWL_NS + "SymmetricProperty"
OWL_TRANSITIVE = OWL_NS + "TransitiveProperty"
OWL_FUNCTIONAL = OWL_NS + "FunctionalProperty"
OWL_DISJOINTWITH = OWL_NS + "disjointWith"

XSD_STRING = XSD_NS + "string"
XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_DOUBLE = XSD_NS + "double"
XSD_BOOLEAN = XSD_NS + "boolean"
XSD_DATE = XSD_NS + "date"

SYS_NOT = SYS_NS + "not"
SYS_ALIAS = SYS_NS + "alias"
SYS_AMBIGUOUS_ALIAS = SYS_NS + "ambiguousAlias"
SYS_REGISTRY = SYS_NS + "registry"
SYS_FIRST_SEEN = SYS_NS + "firstSeenSource"

# Datatypes whose literals compare numerically in SPARQL filters.
NUMERIC_DATATYPES = frozenset({
    XSD_INTEGER,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_NS + "float",
    XSD_NS + "long",
    XSD_NS + "int",
    XSD_NS + "short",
    XSD_NS + "nonNegativeInteger",
})

# Prefix map used when the engine serializes its own artifacts.
DEFAULT_PREFIXES = {
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "owl": OWL_NS,
    "xsd": XSD_NS,
    "sh": SH_NS,
    "sys": SYS_NS,
    "inst": INST_NS,
    "schema": SCHEMA_NS,
    "prop": PROP_NS,
}

# Components of a `fusion.embed` vector, and of the store's log memory.
DEFAULT_DIMENSION = 256
