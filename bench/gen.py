"""Seeded input generators and their expected answers.

Everything here is computed from the generators' own structures (fact
templates, parent arrays, BFS distances, brute-force joins). Nothing imports
`ontomem`: the program under test only ever sees the files written here.
"""

from __future__ import annotations

import json
import random
import re
from collections import deque
from pathlib import Path

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
INST = "http://ontomem.dev/ns/inst#"
SCHEMA = "http://ontomem.dev/ns/schema#"
PROP = "http://ontomem.dev/ns/prop#"

def iri(value: str) -> str:
    return f"<{value}>"


def typed(lexical: str, datatype: str) -> str:
    return f'"{lexical}"^^<{XSD}{datatype}>'


def triple(s: str, p: str, o: str) -> str:
    """Canonical triple text, the same form `quarantine.jsonl` records."""
    return f"{s} {p} {o} ."


def split_triple(text: str) -> tuple[str, str, str]:
    s, p, rest = text.split(" ", 2)
    return s, p, rest[:-2]


def slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


# ---------------------------------------------------------------------------
# Reading canonical Turtle written by the store (independent line reader)
# ---------------------------------------------------------------------------

_PREFIX_RE = re.compile(r"^@prefix ([A-Za-z0-9_\-]*): <([^>]*)> \.$")


def _expand(token: str, prefixes: dict[str, str]) -> str:
    if token == "a":
        return iri(RDF_TYPE)
    if token.startswith("<"):
        return token
    if token.startswith('"'):
        body, sep, dt = token.rpartition("^^")
        if sep and not dt.startswith("<"):
            return body + "^^" + _expand(dt, prefixes)
        return token
    label, _, local = token.partition(":")
    return iri(prefixes[label] + local)


def read_canonical_turtle(text: str) -> set[str]:
    """Triple texts of a canonical store file: one triple per line, terms
    separated by single spaces (the bench data has no spaces in literals)."""
    prefixes: dict[str, str] = {}
    out: set[str] = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _PREFIX_RE.match(line)
        if m:
            prefixes[m.group(1)] = m.group(2)
            continue
        parts = line.split(" ")
        if len(parts) != 4 or parts[3] != ".":
            raise ValueError(f"unexpected line in canonical Turtle: {line!r}")
        out.add(triple(*(_expand(t, prefixes) for t in parts[:3])))
    return out


# ---------------------------------------------------------------------------
# Brute-force oracles over a set of triple texts
# ---------------------------------------------------------------------------


def join_count(facts: set[str], patterns: list[tuple[str, str, str]]) -> int:
    """Number of solutions of a conjunctive pattern list; `?x` are variables."""
    rows = [split_triple(t) for t in facts]
    solutions: list[dict[str, str]] = [{}]
    for pattern in patterns:
        candidates = [row for row in rows
                      if all(slot.startswith("?") or slot == value
                             for slot, value in zip(pattern, row))]
        nxt = []
        for binding in solutions:
            for row in candidates:
                new = dict(binding)
                for slot, value in zip(pattern, row):
                    if slot.startswith("?"):
                        if new.setdefault(slot, value) != value:
                            break
                    elif slot != value:
                        break
                else:
                    nxt.append(new)
        solutions = nxt
    return len(solutions)


def closure_pairs(facts: set[str], predicate: str) -> int:
    edges: dict[str, set[str]] = {}
    for t in facts:
        s, p, o = split_triple(t)
        if p == predicate:
            edges.setdefault(s, set()).add(o)
    count = 0
    for start in edges:
        seen: set[str] = set()
        stack = list(edges[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(edges.get(node, ()))
        count += len(seen)
    return count


def neighbourhood(facts: set[str], seed: str, radius: int) -> dict[str, int]:
    """Triples whose nearer endpoint lies within `radius` undirected hops of
    the seed, each with that hop count."""
    adjacent: dict[str, list[tuple[str, str]]] = {}
    for t in facts:
        s, _p, o = split_triple(t)
        adjacent.setdefault(s, []).append((o, t))
        adjacent.setdefault(o, []).append((s, t))
    if seed not in adjacent:
        return {}
    dist = {seed: 0}
    queue = deque([seed])
    while queue:
        node = queue.popleft()
        if dist[node] >= radius:
            continue
        for other, _t in adjacent[node]:
            if other not in dist:
                dist[other] = dist[node] + 1
                queue.append(other)
    out: dict[str, int] = {}
    for node, d in dist.items():
        for _other, t in adjacent[node]:
            if t not in out or d < out[t]:
                out[t] = d
    return out


# ---------------------------------------------------------------------------
# Corpus replicas (ingest, recall)
# ---------------------------------------------------------------------------

_SENTENCE_RE = re.compile(r"(?<=\.)\s+")


class CorpusTemplate:
    """The bundled 20-document corpus read as a fact template: each sentence
    is `<name> <phrase> <name or value>.`"""

    def __init__(self, data_dir: Path):
        patterns = json.loads((data_dir / "corpus_patterns.json").read_text(encoding="utf-8"))
        self.relations = patterns["relations"]
        self.predicates = patterns["predicates"]
        self.types: dict[str, str] = patterns["entity_types"]
        self.alias_of = {a: name for name, aliases in patterns["aliases"].items() for a in aliases}
        self.docs = {p.name: p.read_text(encoding="utf-8")
                     for p in sorted((data_dir / "corpus").glob("*.txt"))}
        names = sorted(set(self.types) | set(self.alias_of), key=len, reverse=True)
        self._name_re = re.compile(r"\b(" + "|".join(re.escape(n) for n in names) + r")\b")
        phrases = sorted(self.relations, key=len, reverse=True)
        self._fact_re = re.compile(r"^(.+?) (" + "|".join(map(re.escape, phrases)) + r") (.+)\.$")
        self.facts: list[tuple[str, str, str]] = []  # (subject name, predicate IRI, object)
        for text in self.docs.values():
            for sentence in _SENTENCE_RE.split(text.strip()):
                m = self._fact_re.match(sentence.strip())
                if m is None:
                    raise ValueError(f"corpus sentence outside the template: {sentence!r}")
                s, phrase, o = m.groups()
                self.facts.append((s, self.predicates[self.relations[phrase]], o))

    def entity(self, name: str, replica: int) -> str:
        return iri(INST + slug(f"{self.alias_of.get(name, name)} R{replica}"))

    def term(self, mention: str, replica: int) -> str:
        if re.fullmatch(r"\d{4}-\d{2}-\d{2}", mention):
            return typed(mention, "date")
        if re.fullmatch(r"[+-]?\d+", mention):
            return typed(mention, "integer")
        return self.entity(mention, replica)

    def replica_text(self, doc: str, replica: int) -> str:
        return self._name_re.sub(lambda m: f"{m.group(1)} R{replica}", self.docs[doc])

    def replica_facts(self, replica: int) -> set[str]:
        out = {triple(self.entity(s, replica), iri(p), self.term(o, replica))
               for s, p, o in self.facts}
        out |= {triple(self.entity(n, replica), iri(RDF_TYPE), iri(SCHEMA + t))
                for n, t in self.types.items()}
        return out

    def pattern_table(self, replicas, extra_names=()) -> dict:
        types = {f"{n} R{r}": t for r in replicas for n, t in self.types.items()}
        for name, type_name in extra_names:
            types[name] = type_name
        aliases = {f"{n} R{r}": [f"{a} R{r}" for a, owner in self.alias_of.items() if owner == n]
                   for r in replicas for n in set(self.alias_of.values())}
        return {"relations": self.relations, "predicates": self.predicates,
                "entity_types": types, "aliases": aliases}

    def write_replicas(self, out_dir: Path, replicas) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for r in replicas:
            for doc in self.docs:
                (out_dir / f"r{r:04d}_{doc}").write_text(self.replica_text(doc, r), encoding="utf-8")


class ClashBatch:
    """One ingest batch: a fresh replica plus a document with three clashes.

    - `Oven7 Rk` gets a second `locatedIn` inside the same batch (both sides new);
    - `Press1 Rj` of an earlier, committed replica gets a second `locatedIn`;
    - `Nova Rk` manages someone, so it is inferred an Employee without `worksFor`.
    """

    def __init__(self, template: CorpusTemplate, replica: int, earlier: int):
        t = self.template = template
        self.replica = replica
        self.text = (f"Oven7 R{replica} located in Plant7 R{replica}. "
                     f"Press1 R{earlier} located in DepotWest R{replica}. "
                     f"Nova R{replica} manages Liam Ford R{replica}.\n")
        oven, press = t.entity("Oven7", replica), t.entity("Press1", earlier)
        nova = iri(INST + slug(f"Nova R{replica}"))
        loc, manages = iri(PROP + "locatedIn"), iri(PROP + "manages")
        self.wrong = {
            triple(oven, loc, t.entity("Plant7", replica)),
            triple(press, loc, t.entity("DepotWest", replica)),
            triple(nova, manages, t.entity("Liam Ford", replica)),
        }
        clash_entities = {oven, press, nova}
        self.clean = {f for f in t.replica_facts(replica)
                      if not (set(split_triple(f)) & clash_entities)}
        self.patterns = t.pattern_table([replica], [(f"Press1 R{earlier}", "Device")])

    def write(self, out_dir: Path) -> None:
        self.template.write_replicas(out_dir, [self.replica])
        (out_dir / f"r{self.replica:04d}_clash.txt").write_text(self.text, encoding="utf-8")
        (out_dir / "patterns.json").write_text(json.dumps(self.patterns), encoding="utf-8")


# ---------------------------------------------------------------------------
# Narrative filler (recall): paragraphs that contain no pattern phrase
# ---------------------------------------------------------------------------

_FILLER_WORDS = (
    "amber", "anchor", "autumn", "badge", "basket", "beacon", "bridge", "bright", "cabin",
    "canvas", "cedar", "chalk", "circle", "cloud", "copper", "corner", "cotton", "crystal",
    "current", "dawn", "delta", "desert", "drift", "echo", "ember", "engine", "evening",
    "fabric", "falcon", "feather", "field", "flint", "forest", "fountain", "garden", "glacier",
    "granite", "gravel", "harbor", "harvest", "hollow", "horizon", "island", "ivory", "jacket",
    "journey", "kernel", "lantern", "ledger", "lemon", "meadow", "mirror", "morning", "mosaic",
    "needle", "north", "oak", "ocean", "orbit", "paper", "pebble", "pepper", "pillar", "planet",
    "quarry", "quiet", "radar", "rain", "ribbon", "river", "saddle", "salt", "shadow", "signal",
    "silver", "slate", "spruce", "stone", "summer", "sunset", "tangle", "thunder", "timber",
    "tower", "valley", "velvet", "violet", "walnut", "willow", "winter", "yarrow", "zephyr",
    "slowly", "quietly", "across", "beneath", "toward", "under", "along", "beyond", "near",
    "the", "a", "of", "and", "with", "some", "every", "old", "new", "small", "large", "warm",
    "cold", "early", "late", "soft", "loud", "walked", "watched", "carried", "painted",
    "folded", "counted", "listened", "waited", "turned", "opened", "closed", "gathered",
)


def filler_paragraphs(rng: random.Random, count: int, words: int = 36) -> list[str]:
    """`count` unique lower-case paragraphs; the serial word keeps every
    paragraph's token bag distinct, so its own text is its nearest neighbour."""
    out = []
    for i in range(count):
        body = " ".join(rng.choice(_FILLER_WORDS) for _ in range(words))
        out.append(f"entry {i:05d} {body}.")
    return out


# ---------------------------------------------------------------------------
# Synthetic ontology (verify, cold_cli)
# ---------------------------------------------------------------------------

# A fixed 20-class tree: every leaf sits at depth 3, so every seed gives the
# same amount of inference; the seed only permutes names and assignments.
PARENT = (None, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8, 9, 9)
ORG_ROOT = 3                # subtree whose leaves type organisations
DISJOINT = (1, 3)           # people under class 1 are disjoint from organisations
PERSON_LEAVES = (10, 11, 12, 13, 14, 15, 16)
ORG_LEAVES = (17, 18, 19)
CHAIN = 5                   # organisations form partOf chains of this length


def ancestors(node: int) -> list[int]:
    out = []
    while PARENT[node] is not None:
        node = PARENT[node]
        out.append(node)
    return out


class SyntheticOntology:
    """Schema, people, organisations and the facts linking them."""

    def __init__(self, seed: int, people: int, orgs: int):
        rng = random.Random(seed)
        self.rng = rng
        names = rng.sample(range(100, 1000), 20)
        self.cls = [iri(f"{SCHEMA}K{n}") for n in names]
        tag = rng.randrange(16 ** 4)
        self.people = [iri(f"{INST}p{tag:04x}-{i}") for i in rng.sample(range(people * 10), people)]
        self.orgs = [iri(f"{INST}o{tag:04x}-{i}") for i in rng.sample(range(orgs * 10), orgs)]
        self.member_of = iri(PROP + "memberOf")
        self.supervises = iri(PROP + "supervises")
        self.supervised_by = iri(PROP + "supervisedBy")
        self.part_of = iri(PROP + "partOf")
        a = iri(RDF_TYPE)

        self.schema: set[str] = set()
        for node, parent in enumerate(PARENT):
            if parent is not None:
                self.schema.add(triple(self.cls[node], iri(RDFS + "subClassOf"), self.cls[parent]))
        self.schema |= {
            triple(self.cls[DISJOINT[0]], iri(OWL + "disjointWith"), self.cls[DISJOINT[1]]),
            triple(self.member_of, iri(RDFS + "domain"), self.cls[0]),
            triple(self.member_of, iri(RDFS + "range"), self.cls[ORG_ROOT]),
            triple(self.member_of, a, iri(OWL + "FunctionalProperty")),
            triple(self.supervises, iri(RDFS + "domain"), self.cls[0]),
            triple(self.supervises, iri(OWL + "inverseOf"), self.supervised_by),
            triple(self.part_of, a, iri(OWL + "TransitiveProperty")),
        }

        self.leaf_of: dict[str, int] = {}
        self.org_of: dict[str, str] = {}
        self.facts: set[str] = set(self.schema)
        for i, p in enumerate(self.people):
            leaf = PERSON_LEAVES[i % len(PERSON_LEAVES)]
            self.leaf_of[p] = leaf
            self.org_of[p] = self.orgs[i % orgs]
            self.facts.add(triple(p, a, self.cls[leaf]))
            self.facts.add(triple(p, self.member_of, self.org_of[p]))
            if i:
                self.facts.add(triple(self.people[(i - 1) // 2], self.supervises, p))
        for j, o in enumerate(self.orgs):
            self.leaf_of[o] = ORG_LEAVES[j % len(ORG_LEAVES)]
            self.facts.add(triple(o, a, self.cls[self.leaf_of[o]]))
            if j % CHAIN != CHAIN - 1 and j + 1 < orgs:
                self.facts.add(triple(o, self.part_of, self.orgs[j + 1]))

    def turtle(self) -> str:
        """The facts as plain N-Triples-style Turtle."""
        return "".join(f + "\n" for f in sorted(self.facts))

    # -- claims ---------------------------------------------------------------

    def _person(self, under: int | None = None) -> str:
        while True:
            p = self.rng.choice(self.people)
            if under is None or under in ancestors(self.leaf_of[p]):
                return p

    def claim(self, kind: str) -> tuple[dict, str]:
        """One claim of the given kind and the verdict the structure fixes."""
        rng, a = self.rng, iri(RDF_TYPE)
        polarity, conditions = "ASSERTED", []
        if kind == "lookup":
            p = self._person()
            s, pr, o, verdict = p, self.member_of, self.org_of[p], "SUPPORTED"
        elif kind == "subclass":
            p = self._person()
            s, pr, o, verdict = p, a, self.cls[rng.choice(ancestors(self.leaf_of[p]))], "SUPPORTED"
        elif kind == "inverse":
            i = rng.randrange(1, len(self.people))
            s, pr, o = self.people[i], self.supervised_by, self.people[(i - 1) // 2]
            verdict = "SUPPORTED"
        elif kind == "transitive":
            j = rng.randrange(len(self.orgs) // CHAIN) * CHAIN + rng.randrange(CHAIN - 2)
            s, pr, o = self.orgs[j], self.part_of, self.orgs[j + 2]
            verdict = "SUPPORTED"
        elif kind == "conditional":
            leaf = rng.choice(PERSON_LEAVES)
            visitor = iri(f"{INST}visitor-{rng.randrange(10 ** 6)}")
            conditions = [(visitor, a, self.cls[leaf])]
            s, pr, o, verdict = visitor, a, self.cls[rng.choice(ancestors(leaf))], "SUPPORTED"
        elif kind == "negated":
            p = self._person()
            s, pr, o, polarity, verdict = p, self.member_of, self.org_of[p], "NEGATED", "CONTRADICTED"
        elif kind == "functional":
            p = self._person()
            other = rng.choice([x for x in self.orgs if x != self.org_of[p]])
            s, pr, o, verdict = p, self.member_of, other, "CONTRADICTED"
        elif kind == "disjoint":
            p = self._person(under=DISJOINT[0])
            s, pr, o, verdict = p, a, self.cls[rng.choice(ORG_LEAVES)], "CONTRADICTED"
        elif kind in ("not_found", "negated_not_found"):
            p, q = self._person(), self._person()
            while q == p or triple(p, self.supervises, q) in self.facts:
                q = self._person()
            s, pr, o, verdict = p, self.supervises, q, "NOT_FOUND"
            if kind == "negated_not_found":
                polarity = "NEGATED"
        else:
            raise ValueError(kind)
        claim = {"subject": s, "predicate": pr, "object": o, "polarity": polarity,
                 "conditions": [{"subject": cs, "predicate": cp, "object": co}
                                for cs, cp, co in conditions]}
        return claim, verdict


# Each request pairs a claim found in the materialized graph with one that is
# not, so every request costs the same number of materializations.
VERIFY_REQUESTS = (
    ("lookup", "functional"),
    ("subclass", "disjoint"),
    ("inverse", "not_found"),
    ("transitive", "negated_not_found"),
    ("conditional", "functional"),
    ("negated", "disjoint"),
    ("regulatory_supported", "not_found"),
    ("regulatory_negated", "negated_not_found"),
)


def regulatory_claims(data_dir: Path) -> list[tuple[dict, str]]:
    """The two bundled claims: SUPPORTED, then (negated) CONTRADICTED."""
    lines = (data_dir / "regulatory_claims.jsonl").read_text(encoding="utf-8").splitlines()
    claims = [json.loads(line) for line in lines if line.strip()]
    return [(claims[0], "SUPPORTED"), (claims[1], "CONTRADICTED")]
