"""The four workloads. Each is a closed loop with one caller and one thread:
the next operation starts only after the previous one has returned.

A workload sets itself up in a directory (`setup` returns the seconds spent in
the program), then hands out whole rounds of operations. An operation is a
pair of callables: `run` calls the program and is timed; `check` compares
what it returned with the generators' answers, is not timed, and returns a
description of the first problem found, or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gen
from ontomem.builder import GateResult, graph_candidates
from ontomem.cli import main as cli_main
from ontomem.store import init_store, load_store, save_commit
from ontomem.toolbus import ToolBus
from ontomem.turtle_io import parse_turtle

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DATA = SRC / "ontomem" / "data"
SHAPES = DATA / "corpus_shapes.ttl"
SCHEMA = DATA / "corpus_schema.ttl"

LOCATED_IN = gen.iri(gen.PROP + "locatedIn")
WORKS_FOR = gen.iri(gen.PROP + "worksFor")
A = gen.iri(gen.RDF_TYPE)
EMPLOYEE = gen.iri(gen.SCHEMA + "Employee")


class SetupError(RuntimeError):
    pass


def _cli(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    return code, out.getvalue()


def _commit_turtle(handle, text: str, source: str) -> None:
    """Commit a file's triples through the store's commit path, without the gate."""
    graph, _ = parse_turtle(text)
    delta = handle.store.commit(GateResult(graph_candidates(graph, source), []), handle.store.version)
    save_commit(handle, delta)


def _request(method: str, params: dict) -> str:
    return json.dumps({"jsonrpc": "2.0", "id": 1, "method": method, "params": params})


def _result(line: str) -> dict:
    response = json.loads(line)
    if "result" not in response:
        raise AssertionError(f"error response: {response.get('error')}")
    return response["result"]


class Workload:
    """Sizes scale with `scale`; the self-test runs every workload tiny."""

    name = ""
    rss_of_children = False
    store: Path

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        self.span_dir: Path | None = None

    def size(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def setup(self, work: Path) -> float:
        raise NotImplementedError

    def round(self) -> list:
        raise NotImplementedError

    def store_bytes_per_triple(self) -> float:
        size = sum(p.stat().st_size for p in self.store.iterdir() if p.is_file())
        return size / len(gen.read_canonical_turtle((self.store / "trusted.ttl").read_text("utf-8")))


class Ingest(Workload):
    """`build` of one fresh corpus replica plus a clash document, in-process
    through `cli.main`, on a store that already holds ~30 replicas. Every
    round restores the base store, so all rounds are the same builds."""

    name = "ingest"

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.template = gen.CorpusTemplate(DATA)
        self.schema_facts = gen.read_canonical_turtle(SCHEMA.read_text("utf-8"))

    def setup(self, work: Path) -> float:
        rng = random.Random(self.seed)
        first = rng.randrange(1000, 9000 - 200)
        base = range(first, first + self.size(30))
        self.template.write_replicas(work / "base", base)
        patterns = work / "patterns.json"
        patterns.write_text(json.dumps(self.template.pattern_table(base)), "utf-8")
        self.batch = gen.ClashBatch(self.template, base.stop, rng.choice(base))
        self.batch.write(work / "batch")

        self.store = work / "store"
        t0 = time.perf_counter()
        code_init, _ = _cli("--store", self.store, "init")
        code, _ = _cli("--json", "--store", self.store, "build", "--sources", work / "base",
                       "--shapes", SHAPES, "--schema", SCHEMA, "--patterns", patterns)
        elapsed = time.perf_counter() - t0

        expected = set().union(*(self.template.replica_facts(r) for r in base)) | self.schema_facts
        if code_init or code or self._trusted() != expected:
            raise SetupError("the base store does not hold exactly the corpus replicas")
        self.snapshot = work / "base-store"
        shutil.copytree(self.store, self.snapshot)
        return elapsed

    def _trusted(self) -> set[str]:
        return gen.read_canonical_turtle((self.store / "trusted.ttl").read_text("utf-8"))

    def round(self) -> list:
        shutil.rmtree(self.store)
        shutil.copytree(self.snapshot, self.store)
        self.quarantine_seen = len(self._quarantine_lines())
        return [self._op()]

    def _quarantine_lines(self) -> list[str]:
        return (self.store / "quarantine.jsonl").read_text("utf-8").splitlines()

    def _op(self):
        batch, directory = self.batch, self.snapshot.parent / "batch"
        argv = ("--json", "--store", self.store, "build", "--sources", directory,
                "--shapes", SHAPES, "--schema", SCHEMA, "--patterns", directory / "patterns.json")

        def run():
            return _cli(*argv)

        def check(result) -> str | None:
            code, out = result
            if code != 0:
                return f"build exited {code}"
            version = int((self.store / "version").read_text("utf-8"))
            if json.loads(out)["version"] != 2 or version != 2:
                return f"version is {version} after one build on version 1"
            trusted = self._trusted()
            lines = self._quarantine_lines()
            quarantined = {json.loads(line).get("triple") for line in lines[self.quarantine_seen:]}
            self.quarantine_seen = len(lines)
            if batch.wrong & trusted:
                return f"injected wrong triples were trusted: {sorted(batch.wrong & trusted)}"
            if not batch.wrong <= quarantined:
                return f"injected wrong triples missing from quarantine: {sorted(batch.wrong - quarantined)}"
            if not batch.clean <= trusted:
                return f"{len(batch.clean - trusted)} clean facts were not trusted"
            rows = [gen.split_triple(t) for t in trusted]
            located = [s for s, p, _ in rows if p == LOCATED_IN]
            if len(located) != len(set(located)):
                return "a device has two locatedIn values"
            employees = {s for s, p, o in rows if p == A and o == EMPLOYEE}
            if employees - {s for s, p, _ in rows if p == WORKS_FOR}:
                return "an asserted Employee has no worksFor"
            deltas: set[str] = set()
            for path in self.store.glob("delta-*.ttl"):
                deltas |= gen.read_canonical_turtle(path.read_text("utf-8"))
            if deltas != trusted:
                return "trusted.ttl differs from the union of the delta files"
            return None

        return run, check


class Verify(Workload):
    """`fact.check` requests with inline claims to a warm ToolBus over a
    seeded synthetic ontology plus the bundled regulatory graph."""

    name = "verify"

    def setup(self, work: Path) -> float:
        self.onto = gen.SyntheticOntology(self.seed, self.size(500), 5 * self.size(8))
        regulatory = (DATA / "regulatory.ttl").read_text("utf-8")
        self.store = work / "store"
        t0 = time.perf_counter()
        handle = init_store(self.store)
        _commit_turtle(handle, self.onto.turtle(), "synthetic.ttl")
        _commit_turtle(handle, regulatory, "regulatory.ttl")
        self.bus = ToolBus(load_store(self.store))
        elapsed = time.perf_counter() - t0
        expected = self.onto.facts | gen.read_canonical_turtle(regulatory)
        if gen.read_canonical_turtle((self.store / "trusted.ttl").read_text("utf-8")) != expected:
            raise SetupError("the verify store does not hold the generated ontology")
        self.regulatory = gen.regulatory_claims(DATA)
        return elapsed

    def _claim(self, kind: str) -> tuple[dict, str]:
        if kind == "regulatory_supported":
            return self.regulatory[0]
        if kind == "regulatory_negated":
            return self.regulatory[1]
        return self.onto.claim(kind)

    def round(self) -> list:
        return [self._op([self._claim(k) for k in kinds]) for kinds in gen.VERIFY_REQUESTS]

    def _op(self, claims: list[tuple[dict, str]]):
        line = _request("fact.check", {"claims": [c for c, _ in claims]})

        def run():
            return self.bus.dispatch_line(line)

        def check(result) -> str | None:
            verdicts = _result(result)["verdicts"]
            got = [v["status"] for v in verdicts]
            want = [v for _, v in claims]
            if got != want:
                return f"verdicts {got}, expected {want}"
            for v, (claim, status) in zip(verdicts, claims):
                if status == "SUPPORTED" and claim["polarity"] == "ASSERTED":
                    statement = gen.triple(claim["subject"], claim["predicate"], claim["object"])
                    if v["trace"][-1]["triples"][-1] != statement:
                        return f"SUPPORTED trace does not end at {statement}"
            return None

        return run, check


# SPARQL text and the brute-force pattern list that answers it.
_PFX = f"PREFIX prop: <{gen.PROP}> PREFIX schema: <{gen.SCHEMA}> "
RECALL_QUERIES = (
    ("SELECT ?e ?c ?s WHERE { ?e prop:worksFor ?c . ?c prop:owns ?s }",
     [("?e", WORKS_FOR, "?c"), ("?c", gen.iri(gen.PROP + "owns"), "?s")]),
    ("SELECT ?m ?d ?s WHERE { ?m prop:maintains ?d . ?d prop:locatedIn ?s }",
     [("?m", gen.iri(gen.PROP + "maintains"), "?d"), ("?d", LOCATED_IN, "?s")]),
    ("SELECT ?a ?b ?c WHERE { ?a prop:worksFor ?c . ?b prop:worksFor ?c }",
     [("?a", WORKS_FOR, "?c"), ("?b", WORKS_FOR, "?c")]),
    ("SELECT ?x ?y WHERE { ?x prop:supplies+ ?y }", gen.iri(gen.PROP + "supplies")),
    ("ASK WHERE { ?d prop:locatedIn ?s . ?s prop:hasCapacity ?n . ?c prop:owns ?s }",
     [("?d", LOCATED_IN, "?s"), ("?s", gen.iri(gen.PROP + "hasCapacity"), "?n"),
      ("?c", gen.iri(gen.PROP + "owns"), "?s")]),
)


def _expected_count(facts: set[str], text: str, answer) -> int:
    """Rows of a SELECT, or 1/0 for the answer of an ASK."""
    if isinstance(answer, str):
        return gen.closure_pairs(facts, answer)
    count = gen.join_count(facts, answer)
    return int(count > 0) if text.startswith("ASK") else count


class Recall(Workload):
    """A warm ToolBus over corpus replicas plus narrative filler: each round
    is two `memory.retrieve` requests (radius 1 and 2) and twelve passes over
    five `graph.query` requests: the median request is a query, while the
    retrievals take most of the time."""

    name = "recall"
    PER_DOC = 100

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.template = gen.CorpusTemplate(DATA)

    def setup(self, work: Path) -> float:
        rng = random.Random(self.seed)
        first = rng.randrange(1000, 9000)
        replicas = range(first, first + self.size(25))
        src = work / "src"
        self.template.write_replicas(src, replicas)
        paragraphs = gen.filler_paragraphs(rng, self.size(2400))
        self.chunks = []
        for n in range(0, len(paragraphs), self.PER_DOC):
            doc = f"zfiller{n // self.PER_DOC:03d}.txt"
            group = paragraphs[n:n + self.PER_DOC]
            (src / doc).write_text("\n\n".join(group) + "\n", "utf-8")
            self.chunks += [(f"{doc}#{j}", text) for j, text in enumerate(group)]
        patterns = work / "patterns.json"
        patterns.write_text(json.dumps(self.template.pattern_table(replicas)), "utf-8")

        self.store = work / "store"
        t0 = time.perf_counter()
        code_init, _ = _cli("--store", self.store, "init")
        code, _ = _cli("--store", self.store, "build", "--sources", src, "--patterns", patterns)
        self.bus = ToolBus(load_store(self.store))
        elapsed = time.perf_counter() - t0

        self.facts = set().union(*(self.template.replica_facts(r) for r in replicas))
        trusted = gen.read_canonical_turtle((self.store / "trusted.ttl").read_text("utf-8"))
        if code_init or code or trusted != self.facts:
            raise SetupError("the recall store does not hold exactly the corpus replicas")
        # Seeds play one role of the template in a random replica, so every
        # seed of the benchmark retrieves the same amount of graph.
        self.entities = [self.template.entity("Alice Reyes", r) for r in replicas]
        self.queries = [(_PFX + text, _expected_count(self.facts, text, answer))
                        for text, answer in RECALL_QUERIES]
        self.rng = rng
        self.query_passes = self.size(12)
        return elapsed

    def round(self) -> list:
        ops = [self._retrieve(radius) for radius in (1, 2)]
        for _ in range(self.query_passes):
            ops += [self._query(text, want) for text, want in self.queries]
        return ops

    def _retrieve(self, radius: int):
        chunk_id, text = self.rng.choice(self.chunks)
        seed = self.rng.choice(self.entities)
        want = gen.neighbourhood(self.facts, seed, radius)
        line = _request("memory.retrieve", {"query": text, "seeds": [seed], "radius": radius,
                                            "k": 5, "budget": 10})

        def run():
            return self.bus.dispatch_line(line)

        def check(result) -> str | None:
            bundle = _result(result)
            if not bundle["vector_hits"] or bundle["vector_hits"][0]["id"] != chunk_id:
                return f"top vector hit is not {chunk_id}"
            got = {f["triple"]: f["hop"] for f in bundle["graph_facts"]}
            if got != want:
                return f"graph facts within radius {radius} of {seed} differ from the BFS"
            return None

        return run, check

    def _query(self, text: str, want: int):
        line = _request("graph.query", {"query": text})

        def run():
            return self.bus.dispatch_line(line)

        def check(result) -> str | None:
            answer = _result(result)
            got = int(answer["ask"]) if "ask" in answer else len(answer["rows"])
            return None if got == want else f"{got} rows, expected {want}: {text}"

        return run, check


COLD_QUERIES = (
    ("SELECT ?p ?o ?x WHERE { ?p prop:memberOf ?o . ?o prop:partOf ?x }",
     [("?p", gen.iri(gen.PROP + "memberOf"), "?o"), ("?o", gen.iri(gen.PROP + "partOf"), "?x")]),
    ("SELECT ?a ?b WHERE { ?a prop:partOf+ ?b }", gen.iri(gen.PROP + "partOf")),
)


class ColdCli(Workload):
    """`python -m ontomem.cli --json query` as one subprocess at a time
    against a committed synthetic ontology of about 2k triples."""

    name = "cold_cli"
    rss_of_children = True

    def setup(self, work: Path) -> float:
        onto = gen.SyntheticOntology(self.seed, self.size(600), 5 * self.size(10))
        self.store = work / "store"
        self.queries = [(_PFX + text, _expected_count(onto.facts, text, answer))
                        for text, answer in COLD_QUERIES]
        t0 = time.perf_counter()
        _commit_turtle(init_store(self.store), onto.turtle(), "synthetic.ttl")
        # One cold query, which also leaves the byte-code caches warm.
        problem = self._check(self._run(self.queries[0][0]), self.queries[0][1])
        elapsed = time.perf_counter() - t0
        if problem:
            raise SetupError(f"the first cold query failed: {problem}")
        return elapsed

    def _run(self, text: str):
        argv = ["--json", "--store", str(self.store), "query", text]
        if self.span_dir is None:
            cmd = [sys.executable, "-m", "ontomem.cli"] + argv
        else:
            self.span_dir.mkdir(parents=True, exist_ok=True)
            out = self.span_dir / f"{len(list(self.span_dir.iterdir()))}.json"
            cmd = [sys.executable, str(BENCH / "cli_shim.py"), str(out)] + argv
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(cmd, env=env, cwd=BENCH.parent, capture_output=True, text=True,
                              timeout=120)

    @staticmethod
    def _check(proc, want: int) -> str | None:
        if proc.returncode != 0:
            return f"query exited {proc.returncode}: {proc.stderr.strip()[-200:]}"
        got = len(json.loads(proc.stdout)["rows"])
        return None if got == want else f"{got} rows, expected {want}"

    def round(self) -> list:
        return [self._op(text, want) for text, want in self.queries]

    def _op(self, text: str, want: int):
        return (lambda: self._run(text)), (lambda proc: self._check(proc, want))


WORKLOADS = {w.name: w for w in (Ingest, Verify, Recall, ColdCli)}
