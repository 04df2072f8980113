"""Forward-chaining materialization over a fixed RDFS/OWL-lite rule slice,
plus consistency checking (disjointness, functional properties, explicit
negation overlay).

The rules are one table, compiled at import into join plans: one per rule
row and body atom to start from. The join itself is `rdf_core`'s, which
SPARQL shares: `join_slots` binds terms into fixed slots of a list,
`compile_lookup` reads the graph's indexes once per atom, and `walk` runs
the atoms, so no binding dict or pattern is built per candidate triple.
What is the reasoner's own is the rest of a plan: the first atom's
per-key memo in `_run`, the conclusions it skips, and a head type check
only where a body position cannot guarantee its type (rule
specialization as in Soufflé: Jordan, Scholz & Subotić, CAV 2016; rule
plans as in RDFox: Motik et al., AAAI 2014). Everything below runs the
plans.

`materialize` closes a copy of a graph from scratch with a semi-naive loop:
rules fire in RuleId order, round after round, each joining only the
triples it has not yet seen. Every inferred triple records its firing, the
index of the rule firing that first drew it, and its least match at that
firing. A triple's firing is a minimum over its matches of the rule's next
firing after the latest premise's, so firings are shortest-path labels
(Knuth, "A generalization of Dijkstra's algorithm", IPL 1977), and adding
triples can only lower them.

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
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
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
    ONCE,
    Term,
    Triple,
    compile_lookup,
    join_slots,
    single_object,
    term_key,
    term_text,
    triple_key,
    triple_text,
    walk,
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


class _Plan(NamedTuple):
    """One row of `_RULES` compiled to join from one of its body atoms, then
    from the others in body order.

    A match is built in the env list that `join_slots` lays out for the
    atoms in join order, with the row's constants after them, so the head
    is an itemgetter over the env."""

    rule: RuleId
    place: int  # the rule's place in RuleId
    row: int  # the row's place among its rule's rows
    first: int  # the body index of the first atom
    test: tuple  # the first atom's (s, p, o) constants, None at a variable
    start: Callable  # the first atom's lookup, from its constants alone
    reads: itemgetter  # the env slots the second atom's lookup reads
    second: tuple  # the second atom's (body index, env offset, lookup)
    rest: tuple  # the same for each atom after it, in join order
    env: list  # the env every match starts from
    head: itemgetter  # the conclusion's (s, p, o) from the env
    subject_check: bool  # the head's subject comes only from object positions
    predicate_check: bool  # the head's predicate comes from no predicate position
    kept: tuple  # the body indexes of the atoms the Derivation records
    premises: itemgetter  # those atoms' triples from a body-ordered match


def _compile(place: int, row: int, rule: RuleId, body, head, kept, first: int) -> _Plan:
    """The plan of one `_RULES` row that joins from body atom `first`."""
    order = [first] + [i for i in range(len(body)) if i != first]
    slots, bounds, env = join_slots([body[i] for i in order],
                                    [x for atom in body + (head,) for x in atom if not isinstance(x, str)])
    steps = [(i, 3 * k, compile_lookup(bound)) for k, (i, bound) in enumerate(zip(order, bounds))]

    def bound_at(x, positions) -> bool:
        return not isinstance(x, str) or any(atom[pos] == x for atom in body for pos in positions)

    # Every row keeps two atoms or more, so `premises` gives a tuple.
    return _Plan(rule, place, row, first, tuple(None if isinstance(x, str) else x for x in body[first]),
                 steps[0][2], itemgetter(*(slot for _, slot in bounds[1])), steps[1], tuple(steps[2:]),
                 env, itemgetter(*(slots[x] for x in head)),
                 not bound_at(head[0], (0, 1)), not bound_at(head[1], (1,)), kept, itemgetter(*kept))


# Every rule's plans, one per (row, first atom), in row order.
_PLANS = {rule: [_compile(place, row, rule, body, head, kept, first)
                 for row, (_, body, head, kept) in enumerate(r for r in _RULES if r[0] is rule)
                 for first in range(len(body))]
          for place, rule in enumerate(RuleId)}


def _fits(test: tuple, t: Triple) -> bool:
    """Whether `t` holds the constants of a plan's first atom."""
    s, p, o = test
    return (s is None or t[0] is s) and (p is None or t[1] is p) and (o is None or t[2] is o)


def _run(plan: _Plan, indexes: tuple, firsts, skip):
    """Each match of `plan`'s body whose first atom is drawn from `firsts`,
    triples that `_fits` the plan, and whose later atoms are drawn from the
    graph of `indexes`, when its head is well typed and not in `skip`: the
    head's (s, p, o) and the match's triples in body order, in a list that
    the next match overwrites. The second atom's lookup runs once per
    distinct value of the slots it reads."""
    (second, at, lookup), rest = plan.second, plan.rest
    env, chosen = plan.env.copy(), [None] * (len(rest) + 2)
    first, reads, head = plan.first, plan.reads, plan.head
    subject_check, predicate_check = plan.subject_check, plan.predicate_check
    looked_up: dict = {}
    for t in firsts:
        env[:3] = t
        chosen[first] = t
        key = reads(env)
        us = looked_up.get(key)
        if us is None:
            us = looked_up[key] = lookup(indexes, env)
        for u in us:
            env[at:at + 3] = u
            chosen[second] = u
            for _ in walk(rest, indexes, env, chosen) if rest else ONCE:
                h = head(env)
                if h in skip or (subject_check and type(h[0]) is Literal) \
                        or (predicate_check and type(h[1]) is not Iri):
                    continue
                yield h, chosen


def _order_key(row: int, chosen) -> tuple:
    """Where a match of one rule stands among that rule's matches."""
    return (triple_key(chosen[0]), row) + tuple(triple_key(t) for t in chosen[1:])


def _fire(graph: Graph, plans: list[_Plan], fresh: list[Triple]) -> dict[tuple, list]:
    """Conclusions of one rule that `graph` lacks, each mapped to [plan, body
    match, order key or None] of its least derivation. Every match takes at
    least one atom from `fresh`, the triples added since the rule last fired;
    when those are the whole graph, every match is visited once. An order key
    is computed only once a conclusion has a second match."""
    found: dict[tuple, list] = {}
    indexes = graph.indexes
    held = indexes[0][3]  # `graph` is a Graph: its one entry's triple set
    whole = len(fresh) == len(graph)
    by_predicate: dict[Term, list[Triple]] = {}
    if not whole:
        for t in fresh:
            by_predicate.setdefault(t[1], []).append(t)
    for plan in plans:
        if whole:
            if plan.first:
                continue
            firsts = plan.start(indexes, plan.env)
        else:
            s, p, o = plan.test
            firsts = fresh if p is None else by_predicate.get(p, ())
            if s is not None or o is not None:
                firsts = [t for t in firsts if _fits(plan.test, t)]
        for h, chosen in _run(plan, indexes, firsts, held):
            best = found.get(h)
            if best is None:
                found[h] = [plan, tuple(chosen), None]
                continue
            if best[2] is None:
                best[2] = _order_key(best[0].row, best[1])
            key = _order_key(plan.row, chosen)
            if key < best[2]:
                found[h] = [plan, tuple(chosen), key]
    return found


def _atoms_by_predicate() -> tuple[dict, list]:
    """Every plan, keyed by the predicate its first atom fixes: the plans a
    triple with that predicate can start. The plans whose first atom fixes
    none are the list returned beside, and are part of every entry too."""
    by: dict = {}
    for plans in _PLANS.values():
        for plan in plans:
            by.setdefault(plan.test[1], []).append(plan)
    anywhere = by.pop(None)
    return {p: plans + anywhere for p, plans in by.items()}, anywhere


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
        for rule, plans in _PLANS.items():
            firing += 1
            fresh = log[fired_upto[rule]:]
            fired_upto[rule] = len(log)
            conclusions = _fire(graph, plans, fresh)
            if not conclusions:
                continue
            if len(derivations) + len(conclusions) > ceiling:
                raise DivergenceError(f"inferred triples exceeded ceiling {ceiling}")
            for head, (plan, chosen, _) in conclusions.items():
                conclusion = Triple(*head)
                graph.insert(conclusion)
                derivations[conclusion] = Derivation(rule, plan.premises(chosen), firing)
                log.append(conclusion)
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


def _derivation_key(derivation: Derivation, conclusion: Triple, indexes: tuple) -> tuple:
    """The `_order_key` of the least match that `derivation` records, in the
    graph of `indexes`: each row's plan that starts from the first recorded
    atom is run from the first premise."""
    first = derivation.premises[0]
    return min(_order_key(plan.row, chosen)
               for plan in _PLANS[derivation.rule_id] if plan.first == plan.kept[0] and _fits(plan.test, first)
               for head, chosen in _run(plan, indexes, (first,), ())
               if head == conclusion and plan.premises(chosen) == derivation.premises)


def worth_extending(added, closure: Graph | Layer) -> bool:
    """True when extending `closure` by `added` costs less than closing its
    asserted triples plus `added` from scratch. Extending pays for each
    triple whose firing drops, and an added triple infers two or three more;
    closing pays for the whole closure. On random splits of
    `bench/gen.SyntheticOntology(1, 500, 40)`, with `added` drawn from its
    asserted triples and the rest closed (2-core VM, CPython 3.11, medians of
    7 splits in each of three runs, both paths of `extend`): where `added` was
    0.058 of that closure, extending took 18 ms and closing 26-31 ms; at
    0.071, 22-24 and 27-28 ms; at 0.084, 26-27 and 27 ms; at 0.10-0.11, 30-31
    and 26-27 ms; at 0.16, 42-46 and 27-35 ms. The cut is a twelfth, at the
    crossover."""
    return 12 * len(added) < len(closure)


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
    indexes = result.indexes
    while heap:
        f, _, t = heapq.heappop(heap)
        if firing_of(t) != f:  # popped before at a lower firing
            continue
        for plan in _ATOMS.get(t.predicate, _ANY_ATOMS):
            if not _fits(plan.test, t):
                continue
            for head, chosen in _run(plan, indexes, (t,), ()):
                latest = max(map(firing_of, chosen))
                v = latest + 1 + (plan.place - latest) % len(RuleId)  # the rule's next firing
                now = firing_of(head) if head in result else None
                if now is not None and (v > now or (v == now and _order_key(plan.row, chosen)
                                                    >= _derivation_key(result.derivations[head], head, indexes))):
                    continue
                c = Triple(*head)
                if now is None:
                    result.insert(c)
                    inferred += 1
                    if inferred > ceiling:
                        raise DivergenceError(f"inferred triples exceeded ceiling {ceiling}")
                changed[c] = Derivation(plan.rule, plan.premises(chosen), v)
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
