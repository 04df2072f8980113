"""Forward-chaining materialization over a fixed RDFS/OWL-lite rule slice,
plus consistency checking (disjointness, functional properties, explicit
negation overlay).

The rules are one table that a single semi-naive loop evaluates: `materialize`
closes a copy of a graph from scratch, and `extend` closes a materialized graph
plus added triples, each rule joining only the triples it has not yet seen.
`extend` copies nothing: it returns a `Layer` whose read-only base is the
closure and whose delta holds the added triples and what they infer.
`check_consistency(graph, since=delta)` then looks only where that delta can
make a conflict, so a claim or a gate round costs what it adds.

The rule set is deliberately small enough that termination is structural:
every rule's conclusions stay inside the vocabulary closure of its premises,
so the fixpoint is reached in finitely many rounds. A rule-application
ceiling guards against regressions all the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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
    Layer,
    Literal,
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


@dataclass(frozen=True, slots=True)
class Derivation:
    rule_id: RuleId
    premises: tuple[Triple, ...]


# One row per rule body: (rule, body atoms, head, atoms the Derivation records).
# Strings are variables. Each body lists its atoms in the order the reference
# nested loops (tests/oracles.py, oracle_derivations) walk them over
# triple_key-sorted lists, so the derivation kept for a conclusion is the least
# (atom 0, row within the rule, atom 1, ...) in triple_key order.
_RULES = (
    (RuleId.SUBCLASS_TRANS, (("a", _SUBCLASS, "b"), ("b", _SUBCLASS, "c")), ("a", _SUBCLASS, "c"), (0, 1)),
    (RuleId.SUBPROP_TRANS, (("a", _SUBPROP, "b"), ("b", _SUBPROP, "c")), ("a", _SUBPROP, "c"), (0, 1)),
    (RuleId.TYPE_VIA_SUBCLASS, (("c", _SUBCLASS, "d"), ("x", _TYPE, "c")), ("x", _TYPE, "d"), (1, 0)),
    (RuleId.DOMAIN_TYPING, (("p", _DOMAIN, "c"), ("x", "p", "y")), ("x", _TYPE, "c"), (1, 0)),
    (RuleId.RANGE_TYPING, (("p", _RANGE, "c"), ("x", "p", "y")), ("y", _TYPE, "c"), (1, 0)),
    (RuleId.INVERSE_OF, (("p", _INVERSE, "q"), ("x", "p", "y")), ("y", "q", "x"), (1, 0)),
    (RuleId.INVERSE_OF, (("p", _INVERSE, "q"), ("x", "q", "y")), ("y", "p", "x"), (1, 0)),
    (RuleId.SYMMETRIC, (("p", _TYPE, _SYMMETRIC_CLS), ("x", "p", "y")), ("y", "p", "x"), (1, 0)),
    (RuleId.TRANSITIVE_PROP, (("p", _TYPE, _TRANSITIVE_CLS), ("x", "p", "y"), ("y", "p", "z")),
     ("x", "p", "z"), (1, 2)),
)


def _pattern(atom, binding: dict) -> tuple:
    """`atom` with its variables replaced by their bindings, None where unbound."""
    return tuple(binding.get(x) if isinstance(x, str) else x for x in atom)


def _join(body, order: list[int], graph: Graph, triples, binding: dict, chosen: tuple):
    """Matches of `body` that extend `binding`, whose atoms order[:k] matched
    as `chosen`: atom order[k] is drawn from `triples` and later ones from
    `graph`. Yields the bindings and each atom's triple, in body order."""
    k = len(body) - chosen.count(None)
    i = order[k]
    for t in triples:
        bound = dict(binding)
        for x, term in zip(body[i], (t.subject, t.predicate, t.object)):
            if isinstance(x, str):
                bound[x] = term
        now = chosen[:i] + (t,) + chosen[i + 1:]
        if k + 1 == len(body):
            yield bound, now
        else:
            yield from _join(body, order, graph, graph.find(*_pattern(body[order[k + 1]], bound)), bound, now)


def _fire(graph: Graph, rows, fresh: list[Triple]) -> dict[Triple, tuple[int, tuple[Triple, ...]]]:
    """Conclusions of one rule that `graph` lacks, each with the row and body
    match of its least derivation. Every match takes at least one atom from
    `fresh`, the triples added since the rule last fired; when those are the
    whole graph, every match is visited once."""
    found: dict[Triple, tuple[int, tuple[Triple, ...]]] = {}

    def order_key(row: int, chosen: tuple[Triple, ...]) -> tuple:
        return (triple_key(chosen[0]), row) + tuple(triple_key(t) for t in chosen[1:])

    whole = len(fresh) == len(graph)
    for row, (_, body, head, _) in enumerate(rows):
        for first in range(1 if whole else len(body)):
            s, p, o = _pattern(body[first], {})
            matches = graph.find(s, p, o) if whole else [
                t for t in fresh if (s is None or t.subject == s)
                and (p is None or t.predicate == p) and (o is None or t.object == o)]
            order = [first] + [i for i in range(len(body)) if i != first]
            for binding, chosen in _join(body, order, graph, matches, {}, (None,) * len(body)):
                s, p, o = _pattern(head, binding)
                if isinstance(s, Literal) or not isinstance(p, Iri):
                    continue
                conclusion = Triple(s, p, o)
                if conclusion in graph:
                    continue
                best = found.get(conclusion)
                if best is None or order_key(row, chosen) < order_key(*best):
                    found[conclusion] = (row, chosen)
    return found


_BY_RULE = {rule: [row for row in _RULES if row[0] is rule] for rule in RuleId}


def _saturate(graph: Graph, new, ceiling: int) -> dict[Triple, Derivation]:
    """Close `graph` in place under the rules, given that it was closed before
    the triples in `new` were added; returns each inferred triple's derivation.

    Rules fire in RuleId order, round after round, and each one joins only the
    triples added since it last fired (semi-naive evaluation): a conclusion
    whose premises are all older was drawn by that earlier firing.
    """
    log = list(new)
    fired_upto = dict.fromkeys(RuleId, 0)
    derivations: dict[Triple, Derivation] = {}
    applications = 0
    while any(upto < len(log) for upto in fired_upto.values()):
        for rule, rows in _BY_RULE.items():
            fresh = log[fired_upto[rule]:]
            fired_upto[rule] = len(log)
            conclusions = _fire(graph, rows, fresh)
            if not conclusions:
                continue
            applications += len(conclusions)
            if applications > ceiling:
                raise DivergenceError(f"rule applications exceeded ceiling {ceiling}")
            for conclusion, (row, chosen) in conclusions.items():
                graph.insert(conclusion)
                derivations[conclusion] = Derivation(rule, tuple(chosen[i] for i in rows[row][3]))
            log.extend(conclusions)
    return derivations


def materialize(graph: Graph, ceiling: int = DEFAULT_APPLICATION_CEILING,
                want_derivations: bool = False, added=()):
    """Least fixpoint of the rule slice over `graph` plus the triples of
    `added`; the input graph is not mutated. Returns the new graph, or
    (graph, derivations) when want_derivations is set.
    """
    result = graph.copy()
    for t in added:
        result.insert(t)
    derivations = _saturate(result, result.find(), ceiling)
    if want_derivations:
        return result, derivations
    return result


def extend(closure: Graph | Layer, added) -> Layer:
    """materialize(closure + added) for a `closure` that materialize returned,
    at the cost of what `added` brings: a Layer over `closure`, which is
    neither copied nor mutated and must not change while the layer is read.
    The layer's delta holds exactly the added triples that `closure` lacks
    plus the triples they infer."""
    result = Layer(closure)
    _saturate(result, [t for t in added if result.insert(t)], DEFAULT_APPLICATION_CEILING)
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


_NOT = Iri(SYS_NOT)
_TRUE = Literal("true", XSD_BOOLEAN)
_RDF_SUBJECT = Iri(RDF_SUBJECT)
_REIFICATION = {_RDF_SUBJECT, Iri(RDF_PREDICATE), Iri(RDF_OBJECT), _NOT}


def worth_scoping(delta, graph: Graph | Layer) -> bool:
    """True when a consistency check scoped to `delta` costs less than one
    scan of the whole `graph`. The scoped check pays index lookups and triple
    hashes for each delta triple, the scan one pass over each graph triple:
    4 to 9 us per delta triple, depending on what the delta holds, against
    0.35 us per graph triple (deltas of the builder's corpus closure and of a
    15,010-triple synthetic closure, 2-core VM, CPython 3.11). So scoping
    wins below a twelfth to a twenty-fifth of the graph; the cut is a
    twentieth."""
    return 20 * len(delta) < len(graph)


def check_consistency(graph: Graph | Layer, since=None) -> list[Conflict]:
    """Conflicts visible in a materialized graph; empty list means consistent.

    `since`, a set of triples of `graph` such as a Layer's delta, scopes the
    check to them: the result is then exactly the conflicts of the full report
    whose detail holds a triple of `since`. They are found through its keys
    alone: the nodes it types, the (subject, property) pairs it uses, and the
    reified statements whose rdf:subject is one of its subjects or whose
    reification or sys:not triple it holds. Only a disjointness or functional
    declaration in `since` is checked across the graph. This is integrity
    checking by simplification (Nicolas, 1982). A delta of a twentieth of
    the graph or more, such as a store's first build, is checked by the full
    scan and then filtered, which gives the same list faster.
    """
    if since is not None and not worth_scoping(since, graph):
        return [c for c in check_consistency(graph) if any(t in since for t in c.detail)]
    disjoint = graph.find(None, _DISJOINT, None)
    types_of: dict[Term, set[Term]] = {}
    if since is None:
        for t in graph.find(None, _TYPE, None):
            types_of.setdefault(t.subject, set()).add(t.object)
        negations = graph.find(None, _NOT, _TRUE)
    else:
        nodes: set[Term] = set()
        used: dict[Term, set[Term]] = {}
        stmts: set[Term] = set()
        for t in since:
            used.setdefault(t.predicate, set()).add(t.subject)
            if t.predicate == _TYPE:
                nodes.add(t.subject)
            elif t.predicate == _DISJOINT:
                nodes.update({u.subject for u in graph.find(None, _TYPE, t.subject)}
                             & {u.subject for u in graph.find(None, _TYPE, t.object)})
            elif t.predicate in _REIFICATION:
                stmts.add(t.subject)
        # Only the classes a disjointness names matter, so a node's other
        # types are never looked up.
        classes = {c for decl in disjoint for c in (decl.subject, decl.object)}
        for node in nodes:
            types_of[node] = {c for c in classes if Triple(node, _TYPE, c) in graph}
        for subject in {t.subject for t in since}:
            stmts.update(r.subject for r in graph.find(None, _RDF_SUBJECT, subject))
        negations = [neg for neg in (Triple(stmt, _NOT, _TRUE) for stmt in stmts) if neg in graph]
    conflicts: list[Conflict] = []

    # (a) instance typed into two owl:disjointWith classes
    for decl in disjoint:
        a_cls, b_cls = decl.subject, decl.object
        for node, classes in types_of.items():
            if a_cls in classes and b_cls in classes and a_cls != b_cls:
                detail = (Triple(node, _TYPE, a_cls), Triple(node, _TYPE, b_cls), decl)
                conflicts.append(Conflict(ConflictKind.DISJOINT_CLASS, node, detail))

    # (b) functional property with two distinct objects on one subject
    for decl in graph.find(None, _TYPE, _FUNCTIONAL_CLS):
        prop = decl.subject
        if not isinstance(prop, Iri):
            continue
        if since is None or decl in since:
            uses = graph.find(None, prop, None)
        else:
            uses = [u for subject in used.get(prop, ()) for u in graph.find(subject, prop, None)]
        values: dict[Term, list[Triple]] = {}
        for use in uses:
            values.setdefault(use.subject, []).append(use)
        for subject, uses in values.items():
            if len({u.object for u in uses}) > 1:
                detail = tuple(sorted(uses, key=triple_key)) + (decl,)
                conflicts.append(Conflict(ConflictKind.FUNCTIONAL_PROPERTY, subject, detail))

    # (c) triple asserted positively while its negation overlay is recorded
    for neg in negations:
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
    if since is None:
        return list(deduped.values())
    return [c for c in deduped.values() if any(t in since for t in c.detail)]


class Closure(NamedTuple):
    """A materialized graph, each inferred triple's derivation, and the
    conflicts the graph holds. Shared by readers, so never mutated."""

    graph: Graph
    derivations: dict[Triple, Derivation]
    conflicts: list[Conflict]


def close(graph: Graph) -> Closure:
    """The closure of `graph`: materialize with derivations, then check_consistency."""
    m, derivations = materialize(graph, want_derivations=True)
    return Closure(m, derivations, check_consistency(m))
