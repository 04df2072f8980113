"""Forward-chaining materialization over a fixed RDFS/OWL-lite rule slice,
plus consistency checking (disjointness, functional properties, explicit
negation overlay).

The rules are one table. `materialize` closes a copy of a graph from scratch
with a semi-naive loop: rules fire in RuleId order, round after round, each
joining only the triples it has not yet seen. Every inferred triple records
its firing, the index of the rule firing that first drew it, and its least
match at that firing. A triple's firing is a minimum over its matches of the
rule's next firing after the latest premise's, so firings are shortest-path
labels (Knuth, "A generalization of Dijkstra's algorithm", IPL 1977), and
adding triples can only lower them.

`extend` maintains those labels under insertion, as Dijkstra's algorithm
would: it pops the triples whose firing dropped in firing order, starting
with the added ones at 0, and re-evaluates only the matches they take part
in (insertion maintenance as in Motik, Nenov, Piro & Horrocks, AAAI 2015).
So an extended closure keeps exactly the derivations a from-scratch run
would. It copies nothing: it returns a `Layer` whose read-only base is the
closure and whose delta holds the added triples and what they infer, and
its derivations overlay the closure's. `check_consistency(graph,
since=delta)` then looks only where that delta can make a conflict, so a
claim or a gate round costs what it adds.

The rule set is deliberately small enough that termination is structural:
every rule's conclusions stay inside the vocabulary closure of its premises,
so the fixpoint is reached in finitely many rounds. A ceiling on inferred
triples guards against regressions all the same.
"""

from __future__ import annotations

import heapq
import itertools
from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass, field
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
    """How an inferred triple was drawn: the rule and the premises of its
    least match, at `firing` = 8·(round − 1) + the rule's place in RuleId + 1
    (an asserted triple is at firing 0 and has no Derivation). The firing is
    what `extend` maintains; a derivation is its rule and premises, so the
    firing takes no part in equality."""

    rule_id: RuleId
    premises: tuple[Triple, ...]
    firing: int = field(default=0, compare=False)


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


def _order_key(row: int, chosen: tuple[Triple, ...]) -> tuple:
    """Where a match of one rule stands among that rule's matches."""
    return (triple_key(chosen[0]), row) + tuple(triple_key(t) for t in chosen[1:])


def _conclusion(head, binding: dict) -> Triple | None:
    s, p, o = _pattern(head, binding)
    if isinstance(s, Literal) or not isinstance(p, Iri):
        return None
    return Triple(s, p, o)


def _fire(graph: Graph, rows, fresh: list[Triple]) -> dict[Triple, tuple[int, tuple[Triple, ...]]]:
    """Conclusions of one rule that `graph` lacks, each with the row and body
    match of its least derivation. Every match takes at least one atom from
    `fresh`, the triples added since the rule last fired; when those are the
    whole graph, every match is visited once."""
    found: dict[Triple, tuple[int, tuple[Triple, ...]]] = {}
    whole = len(fresh) == len(graph)
    for row, (_, body, head, _) in enumerate(rows):
        for first in range(1 if whole else len(body)):
            s, p, o = _pattern(body[first], {})
            matches = graph.find(s, p, o) if whole else [
                t for t in fresh if (s is None or t.subject == s)
                and (p is None or t.predicate == p) and (o is None or t.object == o)]
            order = [first] + [i for i in range(len(body)) if i != first]
            for binding, chosen in _join(body, order, graph, matches, {}, (None,) * len(body)):
                conclusion = _conclusion(head, binding)
                if conclusion is None or conclusion in graph:
                    continue
                best = found.get(conclusion)
                if best is None or _order_key(row, chosen) < _order_key(*best):
                    found[conclusion] = (row, chosen)
    return found


_BY_RULE = {rule: [row for row in _RULES if row[0] is rule] for rule in RuleId}


def _atoms_by_predicate() -> tuple[dict, list]:
    """Every body atom a triple can stand in, with what `extend` needs to
    re-evaluate the matches it takes part in there: (rule, its place in
    RuleId, row within the rule, body, head, recorded atoms, the atom's
    subject and object constants, join order). Keyed by the predicate the
    atom fixes; the atoms that fix none are the list returned beside, and
    are part of every entry too."""
    by: dict = {}
    for place, (rule, rows) in enumerate(_BY_RULE.items()):
        for row, (_, body, head, kept) in enumerate(rows):
            for i, atom in enumerate(body):
                s, p, o = _pattern(atom, {})
                order = [i] + [j for j in range(len(body)) if j != i]
                by.setdefault(p, []).append((rule, place, row, body, head, kept, s, o, order))
    anywhere = by.pop(None)
    return {p: atoms + anywhere for p, atoms in by.items()}, anywhere


_ATOMS, _ANY_ATOMS = _atoms_by_predicate()


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
    firing = 0
    while any(upto < len(log) for upto in fired_upto.values()):
        for rule, rows in _BY_RULE.items():
            firing += 1
            fresh = log[fired_upto[rule]:]
            fired_upto[rule] = len(log)
            conclusions = _fire(graph, rows, fresh)
            if not conclusions:
                continue
            if len(derivations) + len(conclusions) > ceiling:
                raise DivergenceError(f"inferred triples exceeded ceiling {ceiling}")
            for conclusion, (row, chosen) in conclusions.items():
                graph.insert(conclusion)
                derivations[conclusion] = Derivation(
                    rule, tuple(chosen[i] for i in rows[row][3]), firing)
            log.extend(conclusions)
    return derivations


def materialize(graph: Graph, want_derivations: bool = False):
    """Least fixpoint of the rule slice over `graph`, which is not mutated.
    Returns the new graph, or (graph, derivations) when want_derivations is
    set."""
    result = graph.copy()
    derivations = _saturate(result, result.find(), DEFAULT_APPLICATION_CEILING)
    if want_derivations:
        return result, derivations
    return result


class Extension(Layer):
    """The Layer `extend` returns. `derivations` reads the closure's
    derivations under the ones the added triples changed; an added triple
    that the closure inferred maps to None there, as it is now asserted."""

    def __init__(self, base: Graph | Layer, derivations: Mapping[Triple, Derivation | None]) -> None:
        super().__init__(base)
        self.derivations = ChainMap({}, derivations)


def _bind(atom, t: Triple, binding: dict) -> bool:
    """Unify `atom` with `t` under `binding`, which it extends."""
    for x, term in zip(atom, (t.subject, t.predicate, t.object)):
        if not isinstance(x, str):
            if x != term:
                return False
        elif binding.setdefault(x, term) != term:
            return False
    return True


def _derivation_key(derivation: Derivation, conclusion: Triple) -> tuple:
    """The `_order_key` of the least match that `derivation` records."""
    keys = []
    for row, (_, body, head, kept) in enumerate(_BY_RULE[derivation.rule_id]):
        binding: dict = {}
        if all(_bind(body[i], t, binding) for i, t in zip(kept, derivation.premises)) \
                and _conclusion(head, binding) == conclusion:
            keys.append(_order_key(row, tuple(Triple(*_pattern(atom, binding)) for atom in body)))
    return min(keys)


def worth_extending(added, closure: Graph | Layer) -> bool:
    """True when extending `closure` by `added` costs less than closing its
    asserted triples plus `added` from scratch. Extending pays for each
    triple whose firing drops, and an added triple infers two or three more;
    closing pays for the whole closure. On random splits of
    `bench/gen.SyntheticOntology(1, 500, 40)` (2-core VM, CPython 3.11),
    extending took 119 ms and closing 216 ms when `added` was a twentieth of
    the closure, 143 and 218 ms at a ninth, and 258 and 191 ms at a fifth;
    the cut is an eighth."""
    return 8 * len(added) < len(closure)


def extend(closure: Graph | Layer, added,
           derivations: Mapping[Triple, Derivation | None] = {}) -> Extension:
    """materialize(closure + added) for a `closure` that materialize or extend
    returned, at the cost of what `added` brings: a Layer over `closure`,
    which is neither copied nor mutated and must not change while the layer
    is read. The layer's delta holds exactly the added triples that
    `closure` lacks plus the triples they infer.

    `derivations` are the closure's, as materialize or extend gave them; a
    triple of `closure` without one counts as asserted. The layer's
    `derivations` then equal those of materialize(asserted + added), firings
    included: each triple whose firing drops is popped in firing order, and
    only the matches it takes part in are re-evaluated. A conclusion takes
    the lower firing, or at an equal firing the smaller match. When that
    costs more than a from-scratch run (`worth_extending`), the asserted
    triples plus `added` are closed from scratch instead, with the same
    result.
    """
    added = list(added)
    result = Extension(closure, derivations)
    changed = result.derivations.maps[0]
    if not worth_extending(added, closure):
        _reclose(result, added)
        return result

    def firing_of(t: Triple) -> int:
        d = changed.get(t, derivations.get(t))
        return 0 if d is None else d.firing

    order = itertools.count()
    heap = []
    for t in added:
        if result.insert(t):
            heap.append((0, next(order), t))
        elif firing_of(t):  # inferred until now: asserted from here on
            changed[t] = None
            heap.append((0, next(order), t))
    heapq.heapify(heap)
    ceiling, inferred = DEFAULT_APPLICATION_CEILING, 0
    while heap:
        f, _, t = heapq.heappop(heap)
        if firing_of(t) != f:  # popped before at a lower firing
            continue
        for rule, place, row, body, head, kept, s, o, join_order in _ATOMS.get(t.predicate, _ANY_ATOMS):
            if (s is not None and s != t.subject) or (o is not None and o != t.object):
                continue
            for binding, chosen in _join(body, join_order, result, (t,), {}, (None,) * len(body)):
                c = _conclusion(head, binding)
                if c is None:
                    continue
                latest = max(map(firing_of, chosen))
                v = latest + 1 + (place - latest) % len(RuleId)  # the rule's next firing
                if c in result:
                    now = firing_of(c)
                    if v > now or (v == now and _order_key(row, chosen)
                                   >= _derivation_key(result.derivations[c], c)):
                        continue
                else:
                    result.insert(c)
                    inferred += 1
                    if inferred > ceiling:
                        raise DivergenceError(f"inferred triples exceeded ceiling {ceiling}")
                    now = None
                changed[c] = Derivation(rule, tuple(chosen[i] for i in kept), v)
                if v != now:
                    heapq.heappush(heap, (v, next(order), c))
    return result


def _reclose(result: Extension, added: list[Triple]) -> None:
    """Fill `result` by closing the asserted triples of its base plus `added`
    from scratch, then keeping what differs from the base."""
    derived = result.derivations
    asserted = Graph()
    for t in result.base.find():
        if derived.get(t) is None:
            asserted.insert(t)
    for t in added:
        asserted.insert(t)
        if derived.get(t) is not None:
            derived.maps[0][t] = None
    for t, d in _saturate(asserted, asserted.find(), DEFAULT_APPLICATION_CEILING).items():
        old = derived.get(t)
        if old != d or old.firing != d.firing:
            derived.maps[0][t] = d
    for t in asserted.find():
        result.insert(t)


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
    scan of the whole `graph`. The scoped check pays index lookups for each
    delta triple, the scan one pass over each graph triple. With interned
    terms: 4 to 8.5 us per delta triple against 0.37 to 0.70 us per graph
    triple, a ratio of 8 to 14 (the deltas of extending the closures of
    `bench/gen.SyntheticOntology(1, 500, 40)` and `(1, 4000, 300)`, 3,790 and
    29,850 triples, by a twentieth or a fortieth of their asserted triples;
    2-core VM, CPython 3.11, medians of 5). So scoping wins below an eighth to
    a fourteenth of the graph; the cut is a twentieth."""
    return 20 * len(delta) < len(graph)


def check_consistency(graph: Graph | Layer, since=None) -> list[Conflict]:
    """Conflicts visible in a materialized graph; empty list means consistent.

    Both paths look only at candidates: the nodes typed into a class that a
    disjointness names, the uses of each functional property, and the reified
    statements with a sys:not. `since`, a set of triples of `graph` such as
    the delta `Closure.extend` passes, scopes the check to them: the result
    is then exactly the conflicts of the full report whose detail holds a
    triple of `since`, and the candidates come from its keys alone: the nodes
    it types, the (subject, property) pairs it uses, and the reified
    statements whose rdf:subject is one of its subjects or whose reification
    or sys:not triple it holds. Only a disjointness or functional declaration
    in `since` is checked across the graph. This is integrity checking by
    simplification (Nicolas, 1982). A delta of a twentieth of the graph or
    more, such as a store's first build, takes the full scan's candidates,
    which gives the same list faster.
    """
    scoped = since is not None and worth_scoping(since, graph)
    disjoint = graph.find(None, _DISJOINT, None)
    # Only the classes a disjointness names matter, so a node's other types
    # are never looked up.
    classes = {c for decl in disjoint for c in (decl.subject, decl.object)}
    if not scoped:
        nodes = {t.subject for c in classes for t in graph.find(None, _TYPE, c)}
        stmts = {t.subject for t in graph.find(None, _NOT, None)}
    else:
        nodes, stmts = set(), set()
        used: dict[Term, set[Term]] = {}
        for t in since:
            used.setdefault(t.predicate, set()).add(t.subject)
            if t.predicate == _TYPE:
                nodes.add(t.subject)
            elif t.predicate == _DISJOINT:
                nodes.update({u.subject for u in graph.find(None, _TYPE, t.subject)}
                             & {u.subject for u in graph.find(None, _TYPE, t.object)})
            elif t.predicate in _REIFICATION:
                stmts.add(t.subject)
        for subject in {t.subject for t in since}:
            stmts.update(r.subject for r in graph.find(None, _RDF_SUBJECT, subject))
    types_of = {node: {c for c in classes if Triple(node, _TYPE, c) in graph} for node in nodes}
    negations = [neg for neg in (Triple(stmt, _NOT, _TRUE) for stmt in stmts) if neg in graph]
    conflicts: list[Conflict] = []

    # (a) instance typed into two owl:disjointWith classes; a declaration and
    # its mirror image give one conflict, the one whose first type triple sorts first
    for decl in disjoint:
        a_cls, b_cls = decl.subject, decl.object
        mirrored = Triple(b_cls, _DISJOINT, a_cls) in graph
        for node, classes in types_of.items():
            if a_cls in classes and b_cls in classes and a_cls != b_cls:
                detail = (Triple(node, _TYPE, a_cls), Triple(node, _TYPE, b_cls), decl)
                if not mirrored or triple_text(detail[0]) < triple_text(detail[1]):
                    conflicts.append(Conflict(ConflictKind.DISJOINT_CLASS, node, detail))

    # (b) functional property with two distinct objects on one subject
    for decl in graph.find(None, _TYPE, _FUNCTIONAL_CLS):
        prop = decl.subject
        if not isinstance(prop, Iri):
            continue
        if not scoped or decl in since:
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

    # Deterministic report order.
    conflicts.sort(key=lambda c: (_KIND_ORDER[c.kind], term_key(c.subject),
                                  tuple(triple_text(t) for t in c.detail)))
    return [c for c in conflicts if since is None or any(t in since for t in c.detail)]


class Closure(NamedTuple):
    """A materialized graph, each inferred triple's derivation, and the
    conflicts the graph holds. Shared by readers, so never mutated."""

    graph: Graph | Layer
    derivations: Mapping[Triple, Derivation | None]
    conflicts: list[Conflict]

    def extend(self, added) -> Closure:
        """The closure of this one's asserted triples plus `added`, over a
        Layer on this one. Its conflicts come from the layer's delta alone
        when this closure has none, and from the full check otherwise."""
        layer = extend(self.graph, added, self.derivations)
        since = None if self.conflicts else layer.delta.triple_set()
        return Closure(layer, layer.derivations, check_consistency(layer, since=since))


def close(graph: Graph) -> Closure:
    """The closure of `graph`: materialize with derivations, then
    check_consistency."""
    m, derivations = materialize(graph, want_derivations=True)
    return Closure(m, derivations, check_consistency(m))
