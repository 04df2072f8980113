import itertools
import json
import math
import random

import pytest

from ontomem.fusion import (
    CHANNEL_GRAPH,
    CHANNEL_VECTOR,
    FusionConfigError,
    FusionWeights,
    VectorHit,
    VectorStore,
    embed,
    fuse,
    graph_retrieve,
    vector_search,
)
from ontomem.rdf_core import Graph, Iri, Triple, triple_text
from ontomem.store import init_store, load_log_entries
from oracles import oracle_graph_retrieve
from test_reasoner import random_ontology_graph

EX = "http://ex.org/"


def iri(local):
    return Iri(EX + local)


def tr(s, p, o):
    return Triple(iri(s), iri(p), iri(o))


def _dense_top(texts: dict[str, str], query: str, k: int) -> list[tuple[str, str, str]]:
    """The top k by the dense dot product of `embed`'s tuples over every
    entry, ties by id, as (id, payload, repr(score))."""
    q = embed(query)
    scored = sorted(((sum(x * y for x, y in zip(q, embed(text))), entry_id)
                     for entry_id, text in texts.items()), key=lambda pair: (-pair[0], pair[1]))
    return [(entry_id, texts[entry_id], repr(score)) for score, entry_id in scored[:k]]


def _opposite_tokens() -> tuple[str, str]:
    """Two tokens that hash to one component with opposite signs, so that
    products can be negative or cancel to exactly 0.0."""
    first: dict[int, tuple[str, float]] = {}
    for n in itertools.count():
        token = f"w{n}"
        (component, x), = [(c, x) for c, x in enumerate(embed(token)) if x]
        if component in first and first[component][1] == -x:
            return first[component][0], token
        first.setdefault(component, (token, x))


class TestEmbed:
    def test_deterministic(self):
        assert embed("tower of hanoi") == embed("tower of hanoi")

    def test_empty_text_zero_vector(self):
        v = embed("")
        assert all(x == 0.0 for x in v)

    def test_unit_norm(self):
        v = embed("some text with several tokens")
        norm = math.sqrt(sum(x * x for x in v))
        assert abs(norm - 1.0) <= 1e-9

    def test_bag_of_tokens_symmetry(self):
        a, b = embed("tower of hanoi"), embed("hanoi tower of")
        assert sum(x * y for x, y in zip(a, b)) == pytest.approx(1.0)

    def test_case_and_punctuation_folded(self):
        assert embed("Alice, Reyes!") == embed("alice reyes")


class TestVectorSearch:
    def test_verbatim_entry_ranks_first_with_unit_score(self):
        store = VectorStore()
        store.add("e1", "the exact query text")
        store.add("e2", "something unrelated entirely")
        hits = vector_search(store, "the exact query text", k=2)
        assert hits[0].entry_id == "e1"
        assert hits[0].score == pytest.approx(1.0)

    def test_k_larger_than_store(self):
        store = VectorStore()
        store.add("a", "one")
        store.add("b", "two")
        assert len(vector_search(store, "one", k=10)) == 2

    def test_brute_force_oracle(self):
        rng = random.Random(9)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
        store = VectorStore()
        payloads = {}
        for i in range(10):
            text = " ".join(rng.choices(words, k=rng.randint(2, 6)))
            store.add(f"e{i}", text)
            payloads[f"e{i}"] = text
        query = "alpha beta gamma"
        got = vector_search(store, query, k=10)
        # independent cosine computation
        qv = embed(query)
        expected = sorted(
            ((sum(a * b for a, b in zip(qv, embed(text))), eid)
             for eid, text in payloads.items()),
            key=lambda pair: (-pair[0], pair[1]))
        assert [h.entry_id for h in got] == [eid for _, eid in expected]
        for hit, (score, _) in zip(got, expected):
            assert hit.score == pytest.approx(score)

    def test_scores_equal_tuple_cosine_exactly(self):
        rng = random.Random(4)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
        store = VectorStore()
        texts = {f"e{i}": " ".join(rng.choices(words, k=rng.randint(1, 8))) for i in range(40)}
        for eid, text in texts.items():
            store.add(eid, text)
        query = "beta gamma gamma theta"
        for hit in vector_search(store, query, k=40):
            a, b = embed(query), embed(texts[hit.entry_id])
            assert hit.score == sum(x * y for x, y in zip(a, b))

    def test_inverted_index_equals_dense_brute_force(self):
        """Hits, payloads and score reprs equal a ranking of every entry by
        the dense dot product, over seeded corpora whose postings are long."""
        plus, minus = _opposite_tokens()
        words = [plus, minus, "alpha", "beta", "gamma", "delta", "epsilon"]
        cases = {"negative": 0, "cancelled": 0, "untouched ties": 0}
        for seed in range(12):
            rng = random.Random(seed)
            store, texts = VectorStore(), {}
            for n in rng.sample(range(1000), rng.randint(1, 40)):  # ids out of id order
                texts[f"d{n}"] = " ".join(rng.choices(words, k=rng.randint(0, 4)))
                store.add(f"d{n}", texts[f"d{n}"])
            for entry_id in rng.sample(sorted(texts), len(texts) // 4):  # added again
                texts[entry_id] = " ".join(rng.choices(words, k=rng.randint(1, 3)))
                store.add(entry_id, texts[entry_id])
            queries = ["", "omega psi"] + [" ".join(rng.choices(words, k=rng.randint(1, 3)))
                                           for _ in range(10)]
            for query in queries:
                for k in (1, 5, len(texts), len(texts) + 3):
                    got = [(h.entry_id, h.payload, repr(h.score))
                           for h in vector_search(store, query, k)]
                    assert got == _dense_top(texts, query, k), (seed, query, k)
                q = embed(query)
                untouched = 0
                for text in texts.values():
                    v = embed(text)
                    score = sum(x * y for x, y in zip(q, v))
                    if any(x and y for x, y in zip(q, v)):
                        cases["negative"] += score < 0
                        cases["cancelled"] += score == 0.0
                    else:
                        untouched += 1
                cases["untouched ties"] += untouched >= 2
            hits = vector_search(store, "", 5)
            assert [(h.entry_id, repr(h.score)) for h in hits] == \
                [(entry_id, "0.0") for entry_id in sorted(texts)[:5]]
        assert all(cases.values()), cases

    def test_log_memory_grows_to_the_store_built_from_scratch(self, tmp_path):
        """Each grown `log_memory()` equals a store built over the whole log;
        a store once published never changes; a chunk logged again with new
        text scores by its last line only."""
        root = tmp_path / "s"
        handle = init_store(root)
        rng = random.Random(3)
        words = ["pump", "valve", "plant", "north", "south", "acme", "press", "site"]
        lines = [(f"doc{n // 4}.txt#{n % 4}", " ".join(rng.choices(words, k=rng.randint(1, 6))))
                 for n in range(24)]
        old_text, new_text = "pump valve", "turbine spins"
        lines[3] = ("doc0.txt#3", old_text)
        lines.append(("doc0.txt#3", new_text))  # logged again, sharing no token
        text = "".join(json.dumps({"id": i, "text": t}) + "\n" for i, t in lines)
        cuts = [0, len(text) // 3, len(text) // 3 + 7, 2 * len(text) // 3, len(text)]
        published = []
        for start, end in zip(cuts, cuts[1:]):  # a cut may tear a line
            with (root / "logs.jsonl").open("a", encoding="utf-8") as fh:
                fh.write(text[start:end])
            memory = handle.log_memory()
            entries, _ = load_log_entries(root)
            scratch = VectorStore()
            for entry_id, payload in entries:
                scratch.add(entry_id, payload)
            assert memory == scratch
            texts = dict(entries)
            assert {i: e[2] for i, e in memory.entries.items()} == texts
            for components, values, payload in memory.entries.values():
                vec = embed(payload)
                assert list(components) == [c for c, x in enumerate(vec) if x]
                assert list(values) == [x for x in vec if x]
            for query in texts.values():
                for k in (1, 5):
                    got = vector_search(memory, query, k)
                    assert got == vector_search(scratch, query, k)
                    assert [(h.entry_id, h.payload, repr(h.score)) for h in got] == \
                        _dense_top(texts, query, k)
            published.append((memory, scratch))
        assert len(published[-1][0]) == 24
        for memory, scratch in published:
            assert memory == scratch
        hits = vector_search(published[-1][0], old_text, 24)
        assert [(h.payload, h.score) for h in hits if h.entry_id == "doc0.txt#3"] == [(new_text, 0.0)]
        assert published[1][0].entries["doc0.txt#3"][2] == old_text


class TestGraphRetrieve:
    def build_chain(self):
        g = Graph()
        g.insert(tr("a", "p", "b"))
        g.insert(tr("b", "q", "c"))
        g.insert(tr("c", "r", "d"))
        return g

    def test_radius_zero_incident_only(self):
        g = self.build_chain()
        got = graph_retrieve(g, [iri("a")], 0)
        assert got == [(tr("a", "p", "b"), 0)]

    def test_hand_bfs_radius_one(self):
        g = self.build_chain()
        got = graph_retrieve(g, [iri("a")], 1)
        assert got == [(tr("a", "p", "b"), 0), (tr("b", "q", "c"), 1)]

    def test_absent_seed(self):
        assert graph_retrieve(self.build_chain(), [iri("zz")], 2) == []

    def test_radius_ceiling(self):
        with pytest.raises(FusionConfigError):
            graph_retrieve(Graph(), [iri("a")], 5)

    def test_bfs_oracle_random(self):
        rng = random.Random(17)
        for _ in range(20):
            g = Graph()
            for _ in range(40):
                g.insert(tr(f"n{rng.randrange(10)}", f"p{rng.randrange(3)}", f"n{rng.randrange(10)}"))
            seeds = [iri(f"n{rng.randrange(10)}") for _ in range(2)]
            radius = rng.randint(0, 3)
            got = graph_retrieve(g, seeds, radius)
            # independent shortest-path BFS over term adjacency
            adj = {}
            for t in g.triple_set():
                adj.setdefault(t.subject, set()).add(t.object)
                adj.setdefault(t.object, set()).add(t.subject)
            dist = {}
            frontier = [s for s in set(seeds) if s in adj]
            for s in frontier:
                dist[s] = 0
            while frontier:
                node = frontier.pop(0)
                for nxt in adj.get(node, ()):
                    if nxt not in dist:
                        dist[nxt] = dist[node] + 1
                        frontier.append(nxt)
            expected = {}
            for t in g.triple_set():
                hops = [dist[x] for x in (t.subject, t.object) if x in dist]
                if hops and min(hops) <= radius:
                    expected[t] = min(hops)
            assert dict(got) == expected

    def test_matches_whole_graph_scan_reference(self):
        rng = random.Random(2026)
        for case in range(120):
            g = random_ontology_graph(rng, 60)
            nodes = [term for term in g.terms() if isinstance(term, Iri)]
            seeds = rng.sample(nodes, min(len(nodes), rng.randint(0, 3)))
            seeds += [iri(f"absent{case}")] * rng.randint(0, 1)
            for radius in range(5):
                assert graph_retrieve(g, seeds, radius) == oracle_graph_retrieve(g, seeds, radius)


class TestFuse:
    def test_single_channel_degenerate(self):
        hits = [VectorHit("a", "payload one", 0.9), VectorHit("b", "payload two", 0.5)]
        bundle = fuse(hits, [], [], [], budget=5)
        assert [i.text for i in bundle.fused] == ["payload one", "payload two"]
        assert all(i.channel == CHANNEL_VECTOR for i in bundle.fused)

    def test_graph_beats_vector_on_duplicate(self):
        fact = tr("a", "p", "b")
        hits = [VectorHit("v", triple_text(fact), 0.99)]
        bundle = fuse(hits, [(fact, 0)], [], [],
                      FusionWeights(vector=1.0, graph=1.0), budget=5)
        assert len(bundle.fused) == 1
        assert bundle.fused[0].channel == CHANNEL_GRAPH

    def test_budget_truncation(self):
        facts = [(tr(f"s{i}", "p", "o"), i % 3) for i in range(10)]
        bundle = fuse([], facts, [], [], budget=3)
        assert len(bundle.fused) == 3
        unbounded = fuse([], facts, [], [], budget=100)
        assert [i.text for i in bundle.fused] == [i.text for i in unbounded.fused[:3]]

    def test_all_zero_weights_rejected(self):
        with pytest.raises(FusionConfigError):
            fuse([], [], [], [], FusionWeights(0, 0, 0, 0), budget=3)

    def test_tie_breaks_by_channel_priority_then_text(self):
        # equal scores everywhere: graph first, then vector, then tool, then user
        bundle = fuse(
            [VectorHit("v", "m item", 0.5)],
            [(tr("a", "p", "b"), 0)],
            [("t", "z item")],
            [tr("u", "p", "w")],
            FusionWeights(1, 1, 1, 1), budget=10)
        assert [i.channel for i in bundle.fused] == ["graph", "vector", "tool", "user"]
        two_tools = fuse([], [], [("t", "beta"), ("t", "alpha")], [], budget=10)
        assert [i.text for i in two_tools.fused] == ["t: alpha", "t: beta"]

    def test_each_channel_takes_its_own_weight(self):
        # one item per channel, each normalized to 1: its score is its weight over the largest
        bundle = fuse([VectorHit("v", "m item", 0.5)], [(tr("a", "p", "b"), 0)], [("t", "z item")],
                      [tr("u", "p", "w")], FusionWeights(vector=1.0, graph=2.0, tool=3.0, user=4.0),
                      budget=10)
        assert [(i.channel, i.score) for i in bundle.fused] == [
            ("user", 1.0), ("tool", 0.75), ("graph", 0.5), ("vector", 0.25)]

    def test_scores_in_unit_interval_even_with_big_weights(self):
        facts = [(tr(f"s{i}", "p", "o"), i % 4) for i in range(8)]
        bundle = fuse([VectorHit("a", "x", 0.7)], facts, [("t", "r")], [tr("u", "p", "v")],
                      FusionWeights(vector=10.0, graph=3.0, tool=0.5, user=2.0), budget=20)
        assert all(0.0 <= i.score <= 1.0 for i in bundle.fused)

    def _random_inputs(self, rng):
        hits = [VectorHit(f"e{i}", f"payload {rng.randrange(50)}", rng.uniform(-1, 1))
                for i in range(rng.randint(0, 6))]
        facts = [(tr(f"s{rng.randrange(8)}", f"p{rng.randrange(3)}", f"o{rng.randrange(8)}"),
                  rng.randint(0, 3)) for _ in range(rng.randint(0, 6))]
        tools = [(f"tool{i}", f"result {rng.randrange(50)}") for i in range(rng.randint(0, 3))]
        user = [tr(f"u{rng.randrange(5)}", "p", f"v{rng.randrange(5)}")
                for _ in range(rng.randint(0, 3))]
        weights = FusionWeights(*(rng.choice([0.0, 0.25, 1.0, 2.5, 7.0]) for _ in range(4)))
        try:
            weights.validate()
        except FusionConfigError:
            weights = FusionWeights()
        return hits, facts, tools, user, weights

    def test_determinism_and_scale_invariance_quick(self):
        rng = random.Random(41)
        for _ in range(40):
            hits, facts, tools, user, weights = self._random_inputs(rng)
            budget = rng.randint(1, 12)
            a = fuse(hits, facts, tools, user, weights, budget)
            b = fuse(hits, facts, tools, user, weights, budget)
            assert a.to_json_text() == b.to_json_text()
            for lam in (0.5, 2, 10):
                scaled = FusionWeights(weights.vector * lam, weights.graph * lam,
                                       weights.tool * lam, weights.user * lam)
                c = fuse(hits, facts, tools, user, scaled, budget)
                assert [(i.text, i.channel) for i in c.fused] == \
                       [(i.text, i.channel) for i in a.fused]
