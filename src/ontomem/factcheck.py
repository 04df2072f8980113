"""Claim verification against the trusted graph: SUPPORTED when the statement
is derivable, CONTRADICTED when asserting it creates a conflict (functional
clash, disjointness, or a stored explicit negation), NOT_FOUND otherwise.

Open-world: absence alone never contradicts. A claim's conditions, and then
a statement the closure lacks, are assumed hypothetically on Layers over the
trusted graph's closure (`Closure.extend`), and only each layer's delta is
checked for conflicts. An extended closure keeps exactly the derivations a
from-scratch closure of trusted plus the conditions would, so a trace does
not depend on whether the closure was shared. Neither the trusted graph nor
a shared closure of it is ever touched.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

from .namespaces import (
    RDF_OBJECT,
    RDF_PREDICATE,
    RDF_STATEMENT,
    RDF_SUBJECT,
    RDF_TYPE,
    SYS_NOT,
    SYS_NS,
    XSD_BOOLEAN,
)
from .rdf_core import (
    Graph,
    Iri,
    Literal,
    StructuralError,
    Triple,
    parse_term_text,
    triple_text,
)
from .reasoner import Closure, Conflict, close


class ClaimInputError(ValueError):
    pass


class ConditionInconsistencyError(ValueError):
    """Claim conditions clash with the trusted graph; distinct from CONTRADICTED."""

    def __init__(self, conflicts: list[Conflict]):
        self.conflicts = conflicts
        super().__init__(f"claim conditions are inconsistent with the trusted graph "
                         f"({len(conflicts)} conflict(s))")


class Polarity(Enum):
    ASSERTED = "ASSERTED"
    NEGATED = "NEGATED"


class VerdictStatus(Enum):
    SUPPORTED = "SUPPORTED"
    CONTRADICTED = "CONTRADICTED"
    NOT_FOUND = "NOT_FOUND"


class OverallStatus(Enum):
    SUPPORTED = "SUPPORTED"
    CONTRADICTED = "CONTRADICTED"
    MIXED = "MIXED"
    NOT_FOUND = "NOT_FOUND"


class TraceKind(Enum):
    MATCHED_FACT = "MATCHED_FACT"
    INFERENCE_RULE = "INFERENCE_RULE"
    CONDITION_CHECK = "CONDITION_CHECK"
    CONFLICT = "CONFLICT"


@dataclass(frozen=True)
class Claim:
    statement: Triple
    polarity: Polarity = Polarity.ASSERTED
    conditions: tuple[Triple, ...] = ()
    source_text: str | None = None

    def to_json(self) -> dict:
        return {
            "statement": triple_text(self.statement),
            "polarity": self.polarity.value,
            "conditions": [triple_text(t) for t in self.conditions],
            "source_text": self.source_text,
        }


@dataclass(frozen=True)
class TraceStep:
    kind: TraceKind
    triples: tuple[Triple, ...]
    rule_id: str | None = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "triples": [triple_text(t) for t in self.triples],
            "rule_id": self.rule_id,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    trace: tuple[TraceStep, ...]
    claim: Claim

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "trace": [s.to_json() for s in self.trace],
            "claim": self.claim.to_json(),
        }


def statement_id(statement: Triple) -> Iri:
    """Deterministic statement-identifier node for the negation overlay."""
    digest = hashlib.sha256(triple_text(statement).encode("utf-8")).hexdigest()[:16]
    return Iri(f"{SYS_NS}stmt-{digest}")


def negation_overlay(statement: Triple) -> list[Triple]:
    """Reified explicit negation: (stmt-id, sys:not, true) over the statement."""
    stmt = statement_id(statement)
    return [
        Triple(stmt, Iri(RDF_TYPE), Iri(RDF_STATEMENT)),
        Triple(stmt, Iri(RDF_SUBJECT), statement.subject),
        Triple(stmt, Iri(RDF_PREDICATE), statement.predicate),
        Triple(stmt, Iri(RDF_OBJECT), statement.object),
        Triple(stmt, Iri(SYS_NOT), Literal("true", XSD_BOOLEAN)),
    ]


def check_claim(claim: Claim, trusted: Graph, closure: Closure | None = None) -> Verdict:
    """Evaluate one claim over materialize(trusted + conditions).

    `closure`, when given, must be `close(trusted)`; the claim's conditions
    extend it rather than `trusted` being materialized again."""
    if closure is None:
        closure = close(trusted)
    if claim.conditions:
        closure = closure.extend(claim.conditions)
    if closure.conflicts:
        raise ConditionInconsistencyError(closure.conflicts)

    condition_steps = tuple(
        TraceStep(TraceKind.CONDITION_CHECK, (c,), detail="condition assumed hypothetically")
        for c in claim.conditions
    )

    asserted = _check_asserted(claim.statement, closure, condition_steps)
    if claim.polarity is Polarity.NEGATED:
        asserted = _swap(asserted)
    return Verdict(asserted[0], asserted[1], claim)


def _check_asserted(statement: Triple, closure: Closure, condition_steps):
    if statement in closure.graph:
        steps = list(condition_steps)
        _walk(statement, closure.derivations, set(), steps)
        return (VerdictStatus.SUPPORTED, tuple(steps))

    conflicts = closure.extend([statement]).conflicts
    if conflicts:
        steps = condition_steps + tuple(
            TraceStep(TraceKind.CONFLICT, c.detail, detail=c.kind.value) for c in conflicts
        )
        return (VerdictStatus.CONTRADICTED, steps)

    lookup = TraceStep(TraceKind.MATCHED_FACT, (statement,),
                       detail="lookup attempted: no match in materialized graph")
    return (VerdictStatus.NOT_FOUND, condition_steps + (lookup,))


def _walk(t: Triple, derivations, seen: set[Triple], steps: list[TraceStep]) -> None:
    """Append the derivation chain of `t` to `steps` bottom-up: matched leaves
    first, then rule firings."""
    # Module-level rather than nested: a self-recursive closure is a reference
    # cycle that would keep `derivations` alive until a cyclic collection.
    if t in seen:
        return
    seen.add(t)
    derivation = derivations.get(t)
    if derivation is None:
        steps.append(TraceStep(TraceKind.MATCHED_FACT, (t,)))
        return
    for premise in derivation.premises:
        _walk(premise, derivations, seen, steps)
    steps.append(TraceStep(TraceKind.INFERENCE_RULE, derivation.premises + (t,),
                           rule_id=derivation.rule_id.value))


def _swap(result):
    status, trace = result
    if status is VerdictStatus.SUPPORTED:
        return (VerdictStatus.CONTRADICTED, trace)
    if status is VerdictStatus.CONTRADICTED:
        return (VerdictStatus.SUPPORTED, trace)
    return result


def check_answer(claims: list[Claim], trusted: Graph,
                 closure: Closure | None = None) -> tuple[OverallStatus, list[Verdict]]:
    """Strict aggregation: any contradiction sinks the answer. The claims
    share one `closure` of `trusted`, computed here when the caller holds
    none."""
    if not claims:
        raise ClaimInputError("at least one claim is required")
    if closure is None:
        closure = close(trusted)
    verdicts = [check_claim(c, trusted, closure) for c in claims]
    statuses = {v.status for v in verdicts}
    if VerdictStatus.CONTRADICTED in statuses:
        overall = OverallStatus.CONTRADICTED
    elif statuses == {VerdictStatus.SUPPORTED}:
        overall = OverallStatus.SUPPORTED
    elif statuses == {VerdictStatus.NOT_FOUND}:
        overall = OverallStatus.NOT_FOUND
    else:
        overall = OverallStatus.MIXED
    return overall, verdicts


# ---------------------------------------------------------------------------
# Structured claim intake (JSON Lines)
# ---------------------------------------------------------------------------


@dataclass
class ClaimParse:
    claims: list[Claim] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


def parse_claims(text: str) -> ClaimParse:
    """Best-effort JSONL intake: bad lines produce diagnostics, not failure.
    Lines end at a line feed only, as U+2028, U+2029 and U+0085 may stand
    raw inside a JSON string."""
    result = ClaimParse()
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            result.diagnostics.append(f"line {lineno}: invalid JSON: {e.msg}")
            continue
        try:
            result.claims.append(_claim_from_json(obj))
        except (ClaimInputError, StructuralError, TypeError, ValueError) as e:
            result.diagnostics.append(f"line {lineno}: {e}")
    return result


def _claim_from_json(obj: object) -> Claim:
    if not isinstance(obj, dict):
        raise ClaimInputError("claim must be a JSON object")
    statement = _triple_from_json(obj)
    polarity = Polarity(obj.get("polarity", "ASSERTED"))
    conditions = obj.get("conditions", [])
    if not isinstance(conditions, list) or not all(isinstance(c, dict) for c in conditions):
        raise ClaimInputError("'conditions' must be a list of objects")
    source_text = obj.get("source_text")
    if source_text is not None and not isinstance(source_text, str):
        raise ClaimInputError("'source_text' must be a string or null")
    return Claim(statement, polarity, tuple(map(_triple_from_json, conditions)), source_text)


def _triple_from_json(obj: dict) -> Triple:
    terms = []
    for key in ("subject", "predicate", "object"):
        if key not in obj:
            raise ClaimInputError(f"missing {key!r}")
        terms.append(parse_term_text(obj[key]))
    return Triple(*terms)
