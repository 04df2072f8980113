"""Forward-chaining materialization over a fixed RDFS/OWL-lite rule slice,
plus consistency checking (disjointness, functional properties, explicit
negation overlay).

The rule set is deliberately small enough that termination is structural:
every rule's conclusions stay inside the vocabulary closure of its premises,
so the fixpoint is reached in finitely many rounds. A rule-application
ceiling guards against regressions all the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .namespaces import (
    OWL_DISJOINTWITH,
    OWL_FUNCTIONAL,
    OWL_INVERSEOF,
    OWL_SYMMETRIC,
    OWL_TRANSITIVE,
    RDF_OBJECT,
    RDF_PREDICATE,
    RDF_SUBJECT,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    SYS_NOT,
    XSD_BOOLEAN,
)
from .rdf_core import (
    Graph,
    Iri,
    Literal,
    Origin,
    Provenance,
    REASONER_SOURCE,
    Term,
    Triple,
    single_object,
    term_key,
    term_text,
    triple_key,
    triple_text,
)


class DivergenceError(RuntimeError):
    pass


class RuleId(Enum):
    SUBCLASS_TRANS = "SUBCLASS_TRANS"
    SUBPROP_TRANS = "SUBPROP_TRANS"
    TYPE_VIA_SUBCLASS = "TYPE_VIA_SUBCLASS"
    DOMAIN_TYPING = "DOMAIN_TYPING"
    RANGE_TYPING = "RANGE_TYPING"
    INVERSE_OF = "INVERSE_OF"
    SYMMETRIC = "SYMMETRIC"
    TRANSITIVE_PROP = "TRANSITIVE_PROP"


DEFAULT_APPLICATION_CEILING = 1_000_000

_TYPE = Iri(RDF_TYPE)
_SUBCLASS = Iri(RDFS_SUBCLASSOF)
_SUBPROP = Iri(RDFS_SUBPROPERTYOF)
_DOMAIN = Iri(RDFS_DOMAIN)
_RANGE = Iri(RDFS_RANGE)
_INVERSE = Iri(OWL_INVERSEOF)
_SYMMETRIC_CLS = Iri(OWL_SYMMETRIC)
_TRANSITIVE_CLS = Iri(OWL_TRANSITIVE)
_FUNCTIONAL_CLS = Iri(OWL_FUNCTIONAL)
_DISJOINT = Iri(OWL_DISJOINTWITH)


@dataclass(frozen=True)
class Derivation:
    rule_id: RuleId
    premises: tuple[Triple, ...]


def _rule_conclusions(rule: RuleId, triples: set[Triple], index) -> dict[Triple, tuple[Triple, ...]]:
    """New conclusions for one rule against the current triple set."""
    out: dict[Triple, tuple[Triple, ...]] = {}

    def emit(conclusion: Triple, *premises: Triple) -> None:
        if conclusion not in triples and conclusion not in out:
            out[conclusion] = premises

    if rule is RuleId.SUBCLASS_TRANS:
        for a in index.by_pred(_SUBCLASS):
            for b in index.by_pred_subj(_SUBCLASS, a.object):
                emit(Triple(a.subject, _SUBCLASS, b.object), a, b)
    elif rule is RuleId.SUBPROP_TRANS:
        for a in index.by_pred(_SUBPROP):
            for b in index.by_pred_subj(_SUBPROP, a.object):
                emit(Triple(a.subject, _SUBPROP, b.object), a, b)
    elif rule is RuleId.TYPE_VIA_SUBCLASS:
        for sub in index.by_pred(_SUBCLASS):
            for typed in index.by_pred_obj(_TYPE, sub.subject):
                emit(Triple(typed.subject, _TYPE, sub.object), typed, sub)
    elif rule is RuleId.DOMAIN_TYPING:
        for decl in index.by_pred(_DOMAIN):
            for use in index.by_pred(_as_iri(decl.subject)):
                emit(Triple(use.subject, _TYPE, decl.object), use, decl)
    elif rule is RuleId.RANGE_TYPING:
        for decl in index.by_pred(_RANGE):
            for use in index.by_pred(_as_iri(decl.subject)):
                if not isinstance(use.object, Literal):
                    emit(Triple(use.object, _TYPE, decl.object), use, decl)
    elif rule is RuleId.INVERSE_OF:
        for decl in index.by_pred(_INVERSE):
            p, q = _as_iri(decl.subject), _as_iri(decl.object)
            if p is None or q is None:
                continue
            for use in index.by_pred(p):
                if not isinstance(use.object, Literal):
                    emit(Triple(use.object, q, use.subject), use, decl)
            for use in index.by_pred(q):
                if not isinstance(use.object, Literal):
                    emit(Triple(use.object, p, use.subject), use, decl)
    elif rule is RuleId.SYMMETRIC:
        for decl in index.by_pred_obj(_TYPE, _SYMMETRIC_CLS):
            p = _as_iri(decl.subject)
            if p is None:
                continue
            for use in index.by_pred(p):
                if not isinstance(use.object, Literal):
                    emit(Triple(use.object, p, use.subject), use, decl)
    elif rule is RuleId.TRANSITIVE_PROP:
        for decl in index.by_pred_obj(_TYPE, _TRANSITIVE_CLS):
            p = _as_iri(decl.subject)
            if p is None:
                continue
            for a in index.by_pred(p):
                for b in index.by_pred_subj(p, a.object):
                    emit(Triple(a.subject, p, b.object), a, b)
    return out


def _as_iri(term: Term) -> Iri | None:
    return term if isinstance(term, Iri) else None


class _WorkIndex:
    """Predicate-keyed views over the working triple set, rebuilt after each
    rule that fires."""

    def __init__(self, triples: set[Triple]):
        self._by_p: dict[Iri, list[Triple]] = {}
        self._by_ps: dict[tuple[Iri, Term], list[Triple]] = {}
        self._by_po: dict[tuple[Iri, Term], list[Triple]] = {}
        for t in sorted(triples, key=triple_key):
            self._by_p.setdefault(t.predicate, []).append(t)
            self._by_ps.setdefault((t.predicate, t.subject), []).append(t)
            self._by_po.setdefault((t.predicate, t.object), []).append(t)

    def by_pred(self, p: Iri | None) -> list[Triple]:
        if p is None:
            return []
        return self._by_p.get(p, [])

    def by_pred_subj(self, p: Iri, s: Term) -> list[Triple]:
        return self._by_ps.get((p, s), [])

    def by_pred_obj(self, p: Iri, o: Term) -> list[Triple]:
        return self._by_po.get((p, o), [])


def materialize(graph: Graph, ceiling: int = DEFAULT_APPLICATION_CEILING,
                want_derivations: bool = False):
    """Least fixpoint of the rule slice; input graph is not mutated.

    Inferred triples carry Provenance(source_id="reasoner", origin=TOOL_RESULT).
    Returns the new graph, or (graph, derivations) when want_derivations is set.
    """
    working = set(graph.triple_set())
    derivations: dict[Triple, Derivation] = {}
    applications = 0
    index = _WorkIndex(working)
    changed = True
    while changed:
        changed = False
        for rule in RuleId:
            conclusions = _rule_conclusions(rule, working, index)
            if not conclusions:
                continue
            applications += len(conclusions)
            if applications > ceiling:
                raise DivergenceError(f"rule applications exceeded ceiling {ceiling}")
            working.update(conclusions)
            for conclusion, premises in conclusions.items():
                derivations[conclusion] = Derivation(rule, premises)
            changed = True
            index = _WorkIndex(working)

    result = graph.copy()
    inferred_prov = Provenance(source_id=REASONER_SOURCE, origin=Origin.TOOL_RESULT)
    for t in working - graph.triple_set():
        result.insert(t, inferred_prov)
    if want_derivations:
        return result, derivations
    return result


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------


class ConflictKind(Enum):
    DISJOINT_CLASS = "DISJOINT_CLASS"
    FUNCTIONAL_PROPERTY = "FUNCTIONAL_PROPERTY"
    EXPLICIT_NEGATION = "EXPLICIT_NEGATION"


@dataclass(frozen=True)
class Conflict:
    kind: ConflictKind
    subject: Term
    detail: tuple[Triple, ...]

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "subject": term_text(self.subject),
            "detail": [triple_text(t) for t in self.detail],
        }


_KIND_ORDER = {ConflictKind.DISJOINT_CLASS: 0, ConflictKind.FUNCTIONAL_PROPERTY: 1,
               ConflictKind.EXPLICIT_NEGATION: 2}


def check_consistency(graph: Graph) -> list[Conflict]:
    """Conflicts visible in a materialized graph; empty list means consistent."""
    conflicts: list[Conflict] = []

    # (a) instance typed into two owl:disjointWith classes
    types_of: dict[Term, set[Term]] = {}
    for t in graph.match(None, _TYPE, None):
        types_of.setdefault(t.subject, set()).add(t.object)
    for decl in graph.match(None, _DISJOINT, None):
        a_cls, b_cls = decl.subject, decl.object
        for node, classes in types_of.items():
            if a_cls in classes and b_cls in classes and a_cls != b_cls:
                detail = (Triple(node, _TYPE, a_cls), Triple(node, _TYPE, b_cls), decl)
                conflicts.append(Conflict(ConflictKind.DISJOINT_CLASS, node, detail))

    # (b) functional property with two distinct objects on one subject
    for decl in graph.match(None, _TYPE, _FUNCTIONAL_CLS):
        prop = decl.subject
        if not isinstance(prop, Iri):
            continue
        values: dict[Term, list[Triple]] = {}
        for use in graph.match(None, prop, None):
            values.setdefault(use.subject, []).append(use)
        for subject, uses in values.items():
            if len({u.object for u in uses}) > 1:
                detail = tuple(sorted(uses, key=triple_key)) + (decl,)
                conflicts.append(Conflict(ConflictKind.FUNCTIONAL_PROPERTY, subject, detail))

    # (c) triple asserted positively while its negation overlay is recorded
    true_lit = Literal("true", XSD_BOOLEAN)
    for neg in graph.match(None, Iri(SYS_NOT), true_lit):
        stmt = neg.subject
        s = single_object(graph, stmt, RDF_SUBJECT)
        p = single_object(graph, stmt, RDF_PREDICATE)
        o = single_object(graph, stmt, RDF_OBJECT)
        if s is None or not isinstance(p, Iri) or o is None:
            continue
        positive = Triple(s, p, o)
        if positive in graph:
            detail = (positive, Triple(stmt, Iri(RDF_SUBJECT), s), Triple(stmt, Iri(RDF_PREDICATE), p),
                      Triple(stmt, Iri(RDF_OBJECT), o), neg)
            conflicts.append(Conflict(ConflictKind.EXPLICIT_NEGATION, s, detail))

    # Deterministic report order; drop mirror-image disjoint duplicates.
    conflicts.sort(key=lambda c: (_KIND_ORDER[c.kind], term_key(c.subject),
                                  tuple(triple_text(t) for t in c.detail)))
    deduped: dict[tuple, Conflict] = {}
    for c in conflicts:
        if c.kind is ConflictKind.DISJOINT_CLASS:
            key = (c.kind.value, term_key(c.subject),
                   frozenset(triple_text(t) for t in c.detail[:2]))
        else:
            key = (c.kind.value, term_key(c.subject), tuple(triple_text(t) for t in c.detail))
        deduped.setdefault(key, c)
    return list(deduped.values())

