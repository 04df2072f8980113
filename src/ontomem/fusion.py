"""Dual-memory retrieval: deterministic hashing embeddings, exact vector
search, graph neighborhood expansion, and the composite-context fusion that
merges the four retrieval channels into one ranked bundle.

A hashed bag of tokens has few nonzero components, so the vector memory keeps
only those, with an inverted index over them, and a search reads only the
postings of the query's own components; its scores and ranking are those of
the dense dot product over every entry.

Fusion ranks with exact rational arithmetic so that rescaling every channel
weight by the same positive factor provably cannot reorder the result.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import re
from array import array
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, islice

from .namespaces import DEFAULT_DIMENSION
from .rdf_core import Graph, Term, Triple, triple_key, triple_text

MAX_RADIUS = 4
_COMPONENTS = range(DEFAULT_DIMENSION)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class FusionConfigError(ValueError):
    pass


def embed(text: str) -> tuple[float, ...]:
    """Feature-hashing bag-of-tokens embedding of `DEFAULT_DIMENSION`
    components; same text, same vector, always.

    Tokens are lowercased alphanumeric runs; each hashes to one component with
    a hash-derived sign. Empty text yields the zero vector.
    """
    acc = [0.0] * DEFAULT_DIMENSION
    for token in _TOKEN_RE.findall(text.lower()):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        idx = int.from_bytes(digest[:4], "big") % DEFAULT_DIMENSION
        sign = 1.0 if digest[4] % 2 == 0 else -1.0
        acc[idx] += sign
    norm = math.sqrt(sum(x * x for x in acc))
    if norm == 0.0:
        return tuple(acc)
    return tuple(x / norm for x in acc)


@dataclass
class VectorStore:
    """Exact-search vector memory: entry id -> (components, values, payload).

    An embedding is kept sparse, as its nonzero components: an array of the
    component numbers, in increasing order, and an array of their doubles,
    the same values `embed` gives, so every score is the same as over the
    dense vector. Beside the entries the store keeps the inverted index that
    `vector_search` reads: `postings` maps a component to the ids of the
    entries that have it and their values there, in the order they were
    added; `ids` holds every entry id in order. A store built by the same
    `add` calls equals it.

    `add` mutates the store, and an id added again replaces its entry. A
    store that other threads may be searching is extended by adding to its
    `copy()` and publishing that."""

    entries: dict[str, tuple[array, array, str]] = field(default_factory=dict)
    postings: dict[int, tuple[list[str], array]] = field(default_factory=dict)
    ids: list[str] = field(default_factory=list)

    def add(self, entry_id: str, payload: str) -> None:
        old = self.entries.get(entry_id)
        if old is None:
            insort(self.ids, entry_id)
        else:
            for component in old[0]:
                ids, values = self.postings[component]
                at = ids.index(entry_id)
                del ids[at], values[at]
        vec = embed(payload)
        nonzero = list(compress(_COMPONENTS, vec))
        components, values = array("i", nonzero), array("d", [vec[c] for c in nonzero])
        self.entries[entry_id] = (components, values, payload)
        for component, x in zip(components, values):
            if component not in self.postings:
                self.postings[component] = ([], array("d"))
            ids, posted = self.postings[component]
            ids.append(entry_id)
            posted.append(x)

    def copy(self) -> VectorStore:
        """A store with the same entries whose index `add` may change
        without changing this one's; the entries themselves are shared."""
        return VectorStore(dict(self.entries),
                           {c: (ids[:], values[:]) for c, (ids, values) in self.postings.items()},
                           self.ids[:])

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class VectorHit:
    entry_id: str
    payload: str
    score: float


def _rank(scored: tuple[str, float]) -> tuple[float, str]:
    return -scored[1], scored[0]


def vector_search(store: VectorStore, query: str, k: int) -> list[VectorHit]:
    """Exact top-k by cosine similarity; ties broken by entry id.

    Term at a time: only the postings of the query's nonzero components are
    read. Each entry that shares one collects its products in increasing
    component order and sums them with `sum`, so its score is bit for bit
    the dense `sum(x * y for x, y in zip(q, v))`, whose other terms are exact
    zeros. An entry that shares no component scores 0.0, ranks by id among
    the entries that score 0.0 and above the negative scores, so only the k
    least such ids are read."""
    if k < 1:
        raise FusionConfigError("k must be >= 1")
    products: defaultdict[str, list[float]] = defaultdict(list)
    for component, x in enumerate(embed(query)):
        if x and component in store.postings:
            ids, values = store.postings[component]
            for entry_id, y in zip(ids, values):
                products[entry_id].append(x * y)
    scores = {entry_id: sum(terms) for entry_id, terms in products.items()}
    untouched = islice((entry_id for entry_id in store.ids if entry_id not in scores), k)
    ranked = sorted([*heapq.nsmallest(k, scores.items(), key=_rank),
                     *((entry_id, 0.0) for entry_id in untouched)], key=_rank)
    return [VectorHit(entry_id, store.entries[entry_id][2], score)
            for entry_id, score in ranked[:k]]


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

    # (channel, texts, normalized scores, weight)
    channels = [
        (CHANNEL_VECTOR, [h.payload for h in vector_hits],
         _minmax([Fraction(h.score).limit_denominator(10**12) for h in vector_hits]), weights.vector),
        (CHANNEL_GRAPH, [triple_text(t) for t, _ in graph_facts],
         _minmax([Fraction(1, 1 + hop) for _, hop in graph_facts]), weights.graph),
        (CHANNEL_TOOL, [f"{name}: {text}" for name, text in tool_results],
         [Fraction(1)] * len(tool_results), weights.tool),
        (CHANNEL_USER, [triple_text(t) for t in user_memory],
         [Fraction(1)] * len(user_memory), weights.user),
    ]

    best: dict[str, tuple[Fraction, int, str]] = {}  # text -> (score, channel priority, channel)
    max_weight = Fraction(0)
    for channel, texts, scores, weight in channels:
        weight = Fraction(weight).limit_denominator(10**9)
        max_weight = max(max_weight, weight)
        for text, score in zip(texts, scores):
            weighted = score * weight
            prior = best.get(text)
            cand = (weighted, _CHANNEL_PRIORITY[channel], channel)
            if prior is None or weighted > prior[0] or (weighted == prior[0] and cand[1] < prior[1]):
                best[text] = cand

    ranked = sorted(best.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))
    fused = [FusedItem(text, channel, float(score / max_weight))
             for text, (score, _prio, channel) in ranked[:budget]]
    return ContextBundle(vector_hits, graph_facts, tool_results, user_memory, fused)
