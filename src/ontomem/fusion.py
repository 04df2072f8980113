"""Dual-memory retrieval: deterministic hashing embeddings, exact vector
search, graph neighborhood expansion, and the composite-context fusion that
merges the four retrieval channels into one ranked bundle.

Fusion ranks with exact rational arithmetic so that rescaling every channel
weight by the same positive factor provably cannot reorder the result.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

from .namespaces import DEFAULT_DIMENSION
from .rdf_core import Graph, Term, Triple, triple_key, triple_text

MAX_RADIUS = 4

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class FusionConfigError(ValueError):
    pass


def embed(text: str, dimension: int = DEFAULT_DIMENSION) -> tuple[float, ...]:
    """Feature-hashing bag-of-tokens embedding; same text, same vector, always.

    Tokens are lowercased alphanumeric runs; each hashes to one component with
    a hash-derived sign. Empty text yields the zero vector.
    """
    acc = [0.0] * dimension
    for token in _TOKEN_RE.findall(text.lower()):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        idx = int.from_bytes(digest[:4], "big") % dimension
        sign = 1.0 if digest[4] % 2 == 0 else -1.0
        acc[idx] += sign
    norm = math.sqrt(sum(x * x for x in acc))
    if norm == 0.0:
        return tuple(acc)
    return tuple(x / norm for x in acc)


@dataclass
class VectorStore:
    """Exact-search vector memory: entry id -> (embedding, payload).

    Each embedding is kept as an array of doubles, a quarter of the memory of
    a tuple of boxed floats, holding the same values, so every score is the
    same. `add` mutates `entries`; a store that other threads may be searching
    is extended by copying it (`VectorStore(dimension, dict(entries))`),
    adding to the copy and publishing that."""

    dimension: int = DEFAULT_DIMENSION
    entries: dict[str, tuple[array, str]] = field(default_factory=dict)

    def add(self, entry_id: str, payload: str) -> None:
        self.entries[entry_id] = (array("d", embed(payload, self.dimension)), payload)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class VectorHit:
    entry_id: str
    payload: str
    score: float


def vector_search(store: VectorStore, query: str, k: int) -> list[VectorHit]:
    """Exact top-k by cosine similarity; ties broken by entry id."""
    if k < 1:
        raise FusionConfigError("k must be >= 1")
    qvec = embed(query, store.dimension)
    scored = [
        VectorHit(entry_id, payload, sum(x * y for x, y in zip(qvec, vec)))
        for entry_id, (vec, payload) in store.entries.items()
    ]
    scored.sort(key=lambda h: (-h.score, h.entry_id))
    return scored[:k]


def graph_retrieve(graph: Graph, seeds: list[Term], radius: int) -> list[tuple[Triple, int]]:
    """Triples within `radius` hops of any seed, BFS over undirected
    subject/object adjacency; each triple reported at its first-reached hop.

    Only the index buckets of the nodes within `radius` are read, and only the
    result is sorted, so the cost follows the neighbourhood, not the graph."""
    if radius < 0 or radius > MAX_RADIUS:
        raise FusionConfigError(f"radius must be in [0, {MAX_RADIUS}]")
    present = {s for s in seeds if graph.find(s, None, None) or graph.find(None, None, s)}
    hop: dict[Term, int] = {s: 0 for s in present}
    reached: set[Triple] = set()
    frontier = list(present)
    for depth in range(radius + 1):
        nxt: list[Term] = []
        for node in frontier:
            for t in graph.find(node, None, None) + graph.find(None, None, node):
                reached.add(t)
                other = t.object if t.subject == node else t.subject
                if other not in hop:
                    hop[other] = depth + 1
                    nxt.append(other)
        frontier = nxt

    out = [(t, min(hop[x] for x in (t.subject, t.object) if x in hop)) for t in reached]
    out.sort(key=lambda pair: (pair[1], triple_key(pair[0])))
    return out


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

# Channel tags in tie-break priority order.
CHANNEL_GRAPH = "graph"
CHANNEL_VECTOR = "vector"
CHANNEL_TOOL = "tool"
CHANNEL_USER = "user"
_CHANNEL_PRIORITY = {CHANNEL_GRAPH: 0, CHANNEL_VECTOR: 1, CHANNEL_TOOL: 2, CHANNEL_USER: 3}


@dataclass(frozen=True)
class FusionWeights:
    vector: float = 1.0
    graph: float = 1.0
    tool: float = 1.0
    user: float = 1.0

    def validate(self) -> None:
        values = (self.vector, self.graph, self.tool, self.user)
        if any(w < 0 for w in values):
            raise FusionConfigError("channel weights must be non-negative")
        if all(w == 0 for w in values):
            raise FusionConfigError("at least one channel weight must be positive")


@dataclass(frozen=True)
class FusedItem:
    text: str
    channel: str
    score: float


@dataclass
class ContextBundle:
    vector_hits: list[VectorHit]
    graph_facts: list[tuple[Triple, int]]
    tool_results: list[tuple[str, str]]
    user_memory: list[Triple]
    fused: list[FusedItem]

    def to_json(self) -> dict:
        return {
            "vector_hits": [{"id": h.entry_id, "payload": h.payload, "score": h.score}
                            for h in self.vector_hits],
            "graph_facts": [{"triple": triple_text(t), "hop": hop} for t, hop in self.graph_facts],
            "tool_results": [{"tool": name, "result": text} for name, text in self.tool_results],
            "user_memory": [triple_text(t) for t in self.user_memory],
            "fused": [{"text": i.text, "channel": i.channel, "score": i.score} for i in self.fused],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, ensure_ascii=False)


def _minmax(raw: list[Fraction]) -> list[Fraction]:
    if not raw:
        return []
    lo, hi = min(raw), max(raw)
    if hi == lo:
        return [Fraction(1)] * len(raw)
    return [(x - lo) / (hi - lo) for x in raw]


def fuse(vector_hits: list[VectorHit],
         graph_facts: list[tuple[Triple, int]],
         tool_results: list[tuple[str, str]],
         user_memory: list[Triple],
         weights: FusionWeights | None = None,
         budget: int = 10) -> ContextBundle:
    """Min-max normalize per channel, weight, dedupe, sort, truncate.

    Reported scores are weighted scores divided by the maximum weight so they
    stay in [0,1] whatever the weight scale; the ranking is identical to raw
    weighting.
    """
    weights = weights or FusionWeights()
    weights.validate()
    if budget < 1:
        raise FusionConfigError("budget must be >= 1")

    channels: list[tuple[str, list[str], list[Fraction]]] = []

    channels.append((CHANNEL_VECTOR, [h.payload for h in vector_hits],
                     _minmax([Fraction(h.score).limit_denominator(10**12) for h in vector_hits])))
    channels.append((CHANNEL_GRAPH, [triple_text(t) for t, _ in graph_facts],
                     _minmax([Fraction(1, 1 + hop) for _, hop in graph_facts])))
    channels.append((CHANNEL_TOOL, [f"{name}: {text}" for name, text in tool_results],
                     [Fraction(1)] * len(tool_results)))
    channels.append((CHANNEL_USER, [triple_text(t) for t in user_memory],
                     [Fraction(1)] * len(user_memory)))

    weight_of = {
        CHANNEL_VECTOR: Fraction(weights.vector).limit_denominator(10**9),
        CHANNEL_GRAPH: Fraction(weights.graph).limit_denominator(10**9),
        CHANNEL_TOOL: Fraction(weights.tool).limit_denominator(10**9),
        CHANNEL_USER: Fraction(weights.user).limit_denominator(10**9),
    }
    max_weight = max(weight_of.values())

    best: dict[str, tuple[Fraction, int, str]] = {}  # text -> (score, channel priority, channel)
    for channel, texts, scores in channels:
        for text, score in zip(texts, scores):
            weighted = score * weight_of[channel]
            prior = best.get(text)
            cand = (weighted, _CHANNEL_PRIORITY[channel], channel)
            if prior is None or weighted > prior[0] or (weighted == prior[0] and cand[1] < prior[1]):
                best[text] = cand

    ranked = sorted(best.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))
    fused = [FusedItem(text, channel, float(score / max_weight))
             for text, (score, _prio, channel) in ranked[:budget]]
    return ContextBundle(vector_hits, graph_facts, tool_results, user_memory, fused)
