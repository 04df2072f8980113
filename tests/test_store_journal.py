"""trusted.ttl, provenance.jsonl and registry.ttl as append-only journals.

Every commit sequence must load exactly as the full rewrite per commit that
the journals replace (`oracles.oracle_save_commit`) loads: the same trusted
graph, the same provenance lists in the same order, the same registry. A
block whose commit never wrote `version` stays invisible, a torn last line is
ignored, and stores written as one full rewrite per commit load unchanged. A
crash at any file operation of a commit leaves the old state or the new one."""

import dataclasses
import json
import os
import random
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from ontomem import store as store_module
from ontomem.builder import (
    Candidate,
    Chunk,
    DocKind,
    OntologyDelta,
    RulePatternExtractor,
    SourceDocument,
    graph_candidates,
    run_pipeline,
    validate_gate,
)
from ontomem.namespaces import (
    RDF_TYPE,
    RDFS_LABEL,
    SYS_ALIAS,
    SYS_AMBIGUOUS_ALIAS,
    SYS_FIRST_SEEN,
    SYS_REGISTRY,
)
from ontomem.rdf_core import (
    Blank, Graph, Iri, Literal, Origin, Provenance, Triple, escape_literal, triple_key, triple_text)
from ontomem.store import (
    StoreError, init_store, load_log_entries, load_shapes_file, load_store, load_trusted,
    read_version, rebuild_trusted, registry_from_graph, save_commit)
from ontomem.turtle_io import TurtleParseError, parse_turtle, serialize_turtle, triple_lines
from ontomem.builder import feedback
from ontomem.factcheck import Claim
from ontomem.namespaces import INST_NS, RDF_LANGSTRING
from ontomem.store import graph_at_version
from ontomem.sparql import QueryParseError, evaluate, parse_query
from conftest import DATA, run_cli
from oracles import oracle_load_provenance, oracle_registry_from_graph, oracle_save_commit

PATTERNS = json.loads((DATA / "corpus_patterns.json").read_text(encoding="utf-8"))
CORPUS = {p.name: p.read_text(encoding="utf-8") for p in sorted((DATA / "corpus").glob("*.txt"))}
SCHEMA, _ = parse_turtle((DATA / "corpus_schema.ttl").read_text(encoding="utf-8"))
SHAPES = load_shapes_file(DATA / "corpus_shapes.ttl")
JOURNALS = ("trusted.ttl", "provenance.jsonl", "registry.ttl")


def _open(root):
    """A handle set up as `cli build` sets it up for the bundled corpus."""
    handle = load_store(root)
    handle.store.shapes = SHAPES
    handle.store.config = dataclasses.replace(
        handle.store.config, predicate_table=tuple(sorted(PATTERNS["predicates"].items())))
    return handle


def _state(store) -> dict:
    return {
        "version": store.version,
        "trusted": store.trusted.content_hash(),
        "provenance": dict(store.provenance),
        "entries": dict(store.registry.entries),
        "ambiguous": set(store.registry.ambiguous),
    }


def _loaded(root) -> dict:
    return _state(load_store(root).store)


def _extractor(entity_types=None, aliases=None) -> RulePatternExtractor:
    return RulePatternExtractor(PATTERNS["relations"],
                                {**PATTERNS["entity_types"], **(entity_types or {})},
                                {**PATTERNS["aliases"], **(aliases or {})})


class _Sequence:
    """A seeded sequence of builds over the bundled corpus and generated
    documents. Each step is drawn once and then run on every handle, which
    all hold the same state."""

    KINDS = ("corpus", "corpus", "schema", "dialogue", "said", "fresh", "fresh",
             "clash", "repeat", "reload")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.sites: dict[int, int] = {}  # generated device -> its first site
        self.last: tuple | None = None
        self.sessions = 0

    def draw(self, step: int, handle) -> tuple:
        """(kind, run) where run(store) returns the step's delta."""
        rng = self.rng
        kind = "schema" if step == 0 else rng.choice(self.KINDS)
        if kind == "repeat" and self.last is None:
            kind = "corpus"
        if kind == "reload":
            return kind, None
        if kind == "said":
            trusted = sorted(handle.store.trusted, key=triple_key)
            said = rng.sample(trusted, min(len(trusted), rng.randint(1, 6)))
            self.sessions += 1
            graph = Graph()
            for t in said:
                graph.insert(t)
            candidates = graph_candidates(graph, f"chat-{self.sessions}", Origin.DIALOGUE)

            def run(store):
                return store.commit(validate_gate(candidates, store.trusted, store.shapes),
                                    store.version)
            return kind, run
        if kind == "repeat":
            docs, extractor, extra = self.last
        else:
            docs, extractor, extra = self._docs(kind)
            self.last = (docs, extractor, extra)

        def run(store):
            return run_pipeline(store, docs, extractor, extra)
        return kind, run

    def _docs(self, kind: str):
        rng = self.rng
        names = rng.sample(sorted(CORPUS), rng.randint(1, 4))
        docs = [SourceDocument(n, DocKind.TEXT, CORPUS[n]) for n in names]
        extra = []
        types: dict[str, str] = {}
        aliases: dict[str, list[str]] = {}
        if kind == "schema":
            extra = graph_candidates(SCHEMA, "corpus_schema.ttl")
        elif kind == "dialogue":
            self.sessions += 1
            docs = [SourceDocument(f"chat-{self.sessions}.dialogue.txt", DocKind.DIALOGUE,
                                   CORPUS[n].replace("\n\n", "\n")) for n in names]
        elif kind == "fresh":
            lines = []
            for _ in range(rng.randint(1, 5)):
                n = rng.randrange(100)
                site = self.sites.setdefault(n, rng.randrange(20))
                lines.append(f"Dev{n} located in Site{site}.")
                if rng.random() < 0.5:
                    types[f"Dev{n}"] = "Device"
                if rng.random() < 0.3:
                    aliases[f"Dev{n}"] = [f"D{n}", f"Unit {n % 7}"]
                if rng.random() < 0.3:
                    lines.append(f"Acme Labs supplies Vendor{rng.randrange(9)}.")
                    aliases["Acme Labs"] = ["Acme"]  # Acme Corp's alias too
            docs.append(SourceDocument(f"gen-{rng.randrange(10**6)}.txt", DocKind.TEXT,
                                       " ".join(lines)))
        elif kind == "clash":  # another site for a known device, an ambiguous mention
            lines = [f"Dev{n} located in Site{site + 1}."
                     for n, site in sorted(self.sites.items())[:3]]
            lines.append("Acme supplies Globex.")
            docs = [SourceDocument(f"clash-{rng.randrange(10**6)}.txt", DocKind.TEXT,
                                   " ".join(lines))]
        return docs, _extractor(types, aliases), extra


def _run_differential(tmp_path, seed: int, steps: int = 50, switch: int = 17) -> dict:
    """Run one sequence through the journal writer, the full-rewrite writer,
    and a store written by the full rewrite up to step `switch` and by the
    journal writer after it; compare their loaded state after every step."""
    roots = {name: tmp_path / name for name in ("journal", "rewrite", "upgraded")}
    for root in roots.values():
        init_store(root)
    handles = {name: _open(root) for name, root in roots.items()}
    seq = _Sequence(seed)
    kinds: dict[str, int] = {}
    for step in range(steps):
        kind, run = seq.draw(step, handles["journal"])
        if kind == "reload" or step == switch:  # a new process, which drops unsaved state
            handles = {name: _open(root) for name, root in roots.items()}
        if run is None:
            continue
        deltas = {}
        for name, handle in handles.items():
            delta = run(handle.store)
            writer = save_commit if name == "journal" or (name == "upgraded" and step >= switch) \
                else oracle_save_commit
            writer(handle, delta)
            deltas[name] = delta
        accepted = {name: [c.triple for c in d.accepted] for name, d in deltas.items()}
        assert accepted["journal"] == accepted["rewrite"] == accepted["upgraded"], (seed, step)
        delta = deltas["journal"]
        if not delta.accepted:
            kinds["accepts nothing"] = kinds.get("accepts nothing", 0) + 1
            if delta.quarantined or delta.quarantined_relations:
                kinds["all quarantined"] = kinds.get("all quarantined", 0) + 1
        kinds[kind] = kinds.get(kind, 0) + 1

        expected = _loaded(roots["rewrite"])
        assert _loaded(roots["journal"]) == expected, (seed, step, kind)
        assert _loaded(roots["upgraded"]) == expected, (seed, step, kind)
        if delta.accepted:  # every unsaved addition is on disk now
            for handle in handles.values():
                assert _state(handle.store) == expected, (seed, step, kind)
    return kinds


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_journal_loads_as_the_full_rewrite(tmp_path, seed):
    kinds = _run_differential(tmp_path, seed)
    # the sequence reached every case it is meant to cover
    for kind in ("corpus", "schema", "dialogue", "said", "fresh", "clash", "repeat",
                 "accepts nothing", "all quarantined"):
        assert kinds.get(kind), (kind, kinds)
    registry = load_store(tmp_path / "journal").store.registry
    assert "Acme" in registry.ambiguous
    assert any(e.first_seen for e in registry.entries.values())


def _corpus_store(tmp_path, builds=2):
    """A store with a few journal commits, and its loaded state."""
    root = tmp_path / "s"
    init_store(root)
    for names, extra in [(["doc01.txt", "doc02.txt"], graph_candidates(SCHEMA, "corpus_schema.ttl")),
                         (["doc03.txt", "doc04.txt"], []),
                         (["doc05.txt", "doc06.txt"], [])][:builds]:
        handle = _open(root)
        docs = [SourceDocument(n, DocKind.TEXT, CORPUS[n]) for n in names]
        save_commit(handle, run_pipeline(handle.store, docs, _extractor(), extra))
    return root


def test_dead_commit_stays_invisible(tmp_path, monkeypatch):
    root = _corpus_store(tmp_path)
    before = _loaded(root)

    handle = _open(root)
    dead = [SourceDocument("dead.txt", DocKind.TEXT,
                           "Zed1 located in Zone9. Alice Reyes works for Zed Co.")]
    delta = run_pipeline(handle.store, dead, _extractor({"Zed1": "Device"}, {"Zed Co": ["ZC"]}))
    assert delta.accepted and handle.store.registry.unsaved and handle.store.unsaved
    write_text = Path.write_text

    def failing_write(path, *args, **kwargs):
        if path.name == "version.tmp":  # the file that replaces `version`
            raise OSError("disk full")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write)
    with pytest.raises(OSError):
        save_commit(handle, delta)
    monkeypatch.undo()

    after = _loaded(root)
    assert after == before

    # the next commit reuses the version number; the dead block stays gone
    handle = _open(root)
    live = [SourceDocument("live.txt", DocKind.TEXT, "Pump4 located in SiteD.")]
    delta = run_pipeline(handle.store, live, _extractor({"Pump4": "Device"}))
    save_commit(handle, delta)
    assert delta.version_id == before["version"] + 1
    loaded = _loaded(root)
    assert loaded == _state(handle.store)
    assert not any(p.source_id == "dead.txt" for ps in loaded["provenance"].values() for p in ps)
    assert not any(iri.endswith(("zed1", "zed-co")) for iri in loaded["entries"])
    for name in JOURNALS:
        assert "dead.txt" not in (root / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# trusted.ttl as the third journal: the commit point, compaction, crash states
# ---------------------------------------------------------------------------


def _files(root) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}


def _label(n: int) -> Triple:
    return Triple(Iri(f"{INST_NS}dev{n}"), Iri(RDFS_LABEL), Literal(f"Dev {n}"))


def test_an_empty_version_file_is_refused_not_read_as_zero(tmp_path):
    """An in-place write of `version` that died after its truncate left it
    empty, and it loaded as version 0: the next commit then overwrote
    delta-1.ttl and cut every journal back to nothing. A commit now replaces
    `version` whole, and a file that holds no version number is refused."""
    root = tmp_path / "s"
    build = ("--store", str(root), "--json", "build", "--sources", str(DATA / "corpus"),
             "--shapes", str(DATA / "corpus_shapes.ttl"),
             "--schema", str(DATA / "corpus_schema.ttl"),
             "--patterns", str(DATA / "corpus_patterns.json"))
    assert run_cli("--store", str(root), "init")[0] == 0
    code, out, err = run_cli(*build)
    assert code == 0 and json.loads(out)["version"] == 1, err
    committed = _files(root)
    for text in ("", "\n", "1x\n", "-1\n", "\u0661\n"):  # U+0661 is an Arabic-Indic digit
        (root / "version").write_text(text, encoding="utf-8")
        with pytest.raises(StoreError, match=r"^the version file holds .*, not a version number$"):
            read_version(root)
        with pytest.raises(StoreError, match=r"^the version file holds"):
            load_store(root)
    (root / "version").write_text("", encoding="utf-8")
    code, out, err = run_cli("--store", str(root), "--json", "query", "ASK WHERE { ?s ?p ?o }")
    assert (code, out) == (2, "") and err == "error: the version file holds '', not a version number\n"
    code, out, err = run_cli(*build)
    assert (code, out) == (2, "")
    assert _files(root) == {**committed, "version": b""}  # no journal was cut


def test_a_commit_that_holds_a_blank_node_is_refused(tmp_path):
    """An appended line names a node by its text, which a blank label does
    not keep across a reload (the builder skolemizes them)."""
    root = _corpus_store(tmp_path, builds=1)
    committed = _files(root)
    handle = _open(root)
    blank = Triple(Blank("b1"), Iri(RDFS_LABEL), Literal("x"))
    delta = OntologyDelta(handle.store.version + 1, [Candidate(blank, [Provenance("x.ttl")])], [])
    with pytest.raises(StoreError, match=r"^a commit cannot hold a blank node: _:b1 "):
        save_commit(handle, delta)
    assert _files(root) == committed


def test_trusted_blocks_compact_once_they_hold_an_eighth(tmp_path):
    """A commit appends its block to trusted.ttl until the blocks hold an
    eighth of the file; that commit replaces it with the canonical text."""
    root = _corpus_store(tmp_path, builds=1)
    prefixes = load_store(root).prefixes
    head = (root / "trusted.ttl").read_bytes()
    # the first build into an empty store compacted it already
    assert head.decode("utf-8") == serialize_turtle(load_trusted(root), prefixes)
    for n in range(1, 100):
        handle = _open(root)
        before = (root / "trusted.ttl").read_bytes()
        save_commit(handle, feedback(handle.store, [Claim(_label(n))]))
        after = (root / "trusted.ttl").read_bytes()
        loaded = load_store(root)
        assert loaded.store.trusted.triple_set() == handle.store.trusted.triple_set() \
            == rebuild_trusted(root).triple_set()
        assert loaded.journal_ends["trusted.ttl"] == len(after)
        block = f'# version {handle.store.version}\ninst:dev{n} rdfs:label "Dev {n}" .\n'.encode()
        end = len(before) + len(block)
        if (end - len(head)) * 8 < end:
            assert after == before + block
            continue
        assert after.decode("utf-8") == serialize_turtle(load_trusted(root), prefixes)
        assert n > 2 and b"# version" not in after
        break
    else:
        raise AssertionError("trusted.ttl never compacted")
    # the next commit appends to the compacted file
    handle = _open(root)
    save_commit(handle, feedback(handle.store, [Claim(_label(0))]))
    assert (root / "trusted.ttl").read_bytes().startswith(after + b"# version ")


def test_a_commit_formats_its_delta_once(tmp_path, monkeypatch):
    """delta-N.ttl is the delta's `serialize_turtle` text and the trusted.ttl
    block its lines in triple order under trusted.ttl's header prefixes. When
    the handle's prefixes are those, the block reuses delta-N.ttl's lines;
    otherwise it formats the delta, already sorted, once more."""
    root = _corpus_store(tmp_path, builds=1)
    formatted: list[list[Triple]] = []
    blocks: list[bytes] = []

    def counted(triples, prefixes):
        triples = list(triples)
        formatted.append(triples)
        return triple_lines(triples, prefixes)

    def replace(path, text):
        if path.name == "version":  # the block is appended, and not compacted yet
            blocks.append((root / "trusted.ttl").read_bytes())
        replaced(path, text)

    replaced = store_module._replace
    monkeypatch.setattr(store_module, "triple_lines", counted)
    monkeypatch.setattr(store_module, "_replace", replace)
    for n, extra_prefix in enumerate((False, True)):
        handle = _open(root)
        header = dict(handle.journal_prefixes["trusted.ttl"])
        if extra_prefix:
            handle.prefixes["ex"] = "http://ex.org/"
        claims = [Claim(_label(n)), Claim(Triple(Iri(f"http://ex.org/a{n}"), Iri(RDFS_LABEL),
                                                 Literal(f"A {n}")))]
        delta = feedback(handle.store, claims)
        assert len(delta.accepted) == 2
        before = (root / "trusted.ttl").read_bytes()
        formatted.clear()
        path = save_commit(handle, delta)
        triples = sorted((c.triple for c in delta.accepted), key=triple_key)
        graph = Graph()
        for t in triples:
            graph.insert(t)
        assert path.read_text(encoding="utf-8") == serialize_turtle(graph, handle.prefixes)
        block = blocks[-1][len(before):].decode("utf-8")
        assert block == f"# version {delta.version_id}\n" + "".join(
            line + "\n" for line in triple_lines(triples, header))
        assert f"<http://ex.org/a{n}>" in block
        assert (f"ex:a{n} " in path.read_text(encoding="utf-8")) is extra_prefix
        assert formatted.count(triples) == 1 + extra_prefix
        assert (root / "trusted.ttl").read_bytes() == (
            serialize_turtle(load_trusted(root), handle.prefixes).encode("utf-8")
            if extra_prefix else blocks[-1])


def test_a_load_that_a_compaction_overtakes_reads_the_store_again(tmp_path, monkeypatch):
    """A reader reads `version`, then trusted.ttl. A commit that lands in
    between and compacts trusted.ttl would give it the new triples under the
    old version, so it reads `version` again, and both again if it moved."""
    root = init_store(tmp_path / "s").root
    writer = load_store(root)
    writer.prefixes["ex"] = "http://ex.org/"  # not in the header: the commit compacts
    committed, overtaken = store_module._committed, []

    def commit_first(path, version):
        if path.name == "trusted.ttl" and not overtaken:
            overtaken.append(version)
            save_commit(writer, feedback(writer.store, [Claim(_label(1))]))
        return committed(path, version)

    monkeypatch.setattr(store_module, "_committed", commit_first)
    loaded = load_store(root)
    monkeypatch.undo()
    assert overtaken == [0] and b"# version" not in (root / "trusted.ttl").read_bytes()
    assert _state(loaded.store) == _loaded(root) == _state(writer.store)


class _Appending:
    """A file opened "ab" that records its `truncate` and `write` calls."""

    def __init__(self, path: Path, fh, ops: list):
        self.path, self.fh, self.ops = path, fh, ops

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def truncate(self, size: int) -> int:
        self.ops.append(("truncate", self.path.name, size))
        return self.fh.truncate(size)

    def write(self, data: bytes) -> int:
        self.ops.append(("write", self.path.name, bytes(data)))
        return self.fh.write(data)

    def tell(self) -> int:
        return self.fh.tell()


def _recorded(monkeypatch, commit) -> list[tuple]:
    """The file operations that `commit()` makes, as ALICE (Pillai et al.,
    OSDI 2014) lists them: each `write_text`, `open("ab")`, `truncate`,
    `write` and `os.replace`, with the file names and bytes."""
    ops: list[tuple] = []
    open_, replace = Path.open, os.replace

    def record_write_text(path, text, encoding=None, errors=None, newline=None):
        ops.append(("write_text", path.name, text.encode(encoding or "utf-8")))
        with open_(path, "w", encoding=encoding, errors=errors, newline=newline) as fh:
            return fh.write(text)

    def record_open(path, mode="r", *args, **kwargs):
        fh = open_(path, mode, *args, **kwargs)
        if mode != "ab":
            assert "r" in mode and "+" not in mode, mode  # every other write is recorded
            return fh
        ops.append(("open", path.name))
        return _Appending(path, fh, ops)

    def record_replace(source, target):
        ops.append(("replace", Path(source).name, Path(target).name))
        return replace(source, target)

    monkeypatch.setattr(Path, "write_text", record_write_text)
    monkeypatch.setattr(Path, "open", record_open)
    monkeypatch.setattr(os, "replace", record_replace)
    try:
        commit()
    finally:
        monkeypatch.undo()
    return ops


def _crash_states(files: dict[str, bytes], ops: list[tuple], rng: random.Random):
    """(label, files) for each prefix of `ops` applied to `files`, and, where
    the prefix ends in a write, for the same prefix with that write torn at a
    random byte."""
    for n in range(len(ops) + 1):
        tears = [None]
        if n and ops[n - 1][0] in ("write_text", "write") and ops[n - 1][2]:
            tears.append(rng.randrange(len(ops[n - 1][2])))
        for tear in tears:
            state = dict(files)
            for i, (kind, name, *args) in enumerate(ops[:n]):
                if kind == "open":
                    state.setdefault(name, b"")
                elif kind == "truncate":
                    state[name] = state[name][:args[0]]
                elif kind == "replace":
                    state[args[0]] = state.pop(name)
                else:  # write_text or write, torn if it is the last operation
                    data = args[0][:tear] if tear is not None and i == n - 1 else args[0]
                    state[name] = data if kind == "write_text" else state[name] + data
            torn = "" if tear is None else f", torn at byte {tear}"
            yield f"after {n} of {len(ops)} operations{torn}", state


@pytest.mark.parametrize("case", ["appends", "compacts"])
def test_a_crash_at_any_file_operation_of_a_commit_leaves_the_old_or_the_new_state(
        tmp_path, monkeypatch, case):
    root = _corpus_store(tmp_path, builds=2 if case == "appends" else 1)
    handle = _open(root)
    docs = {"appends": [SourceDocument("new.txt", DocKind.TEXT, "Pump4 located in SiteD.")],
            "compacts": [SourceDocument(n, DocKind.TEXT, CORPUS[n])
                         for n in ("doc03.txt", "doc04.txt")]}[case]
    delta = run_pipeline(handle.store, docs, _extractor({"Pump4": "Device"}))
    assert delta.accepted and handle.store.registry.unsaved and delta.chunks
    old, files = _loaded(root), _files(root)
    ops = _recorded(monkeypatch, lambda: save_commit(handle, delta))
    new = _state(handle.store)
    assert new != old and _loaded(root) == new
    replaced = [op[2] for op in ops if op[0] == "replace"]
    assert replaced == {"appends": ["version"], "compacts": ["version", "trusted.ttl"]}[case]

    rng = random.Random(f"crash states: {case}")
    crashed = tmp_path / "crashed"
    for label, state in _crash_states(files, ops, rng):
        shutil.rmtree(crashed, ignore_errors=True)
        crashed.mkdir()
        for name, data in state.items():
            (crashed / name).write_bytes(data)
        loaded = _loaded(crashed)
        assert loaded in (old, new), label
        assert rebuild_trusted(crashed).triple_set() == load_trusted(crashed).triple_set(), label
        # the store is not wedged: the next commit lands on the state it loaded
        after = _open(crashed)
        next_delta = feedback(after.store, [Claim(_label(1))])
        assert next_delta.version_id == loaded["version"] + 1, label
        save_commit(after, next_delta)
        assert _loaded(crashed) == _state(after.store), label


@pytest.mark.parametrize("name", JOURNALS)
def test_torn_last_line_is_ignored(tmp_path, name):
    root = _corpus_store(tmp_path)
    before = _loaded(root)
    text = (root / name).read_text(encoding="utf-8")
    last = text.splitlines()[-1]
    with (root / name).open("a", encoding="utf-8") as fh:
        fh.write(last[:len(last) // 2])  # a line cut short, without its newline
    assert _loaded(root) == before

    # the next commit cuts the torn line off before it appends
    handle = _open(root)
    docs = [SourceDocument("doc07.txt", DocKind.TEXT, CORPUS["doc07.txt"])]
    save_commit(handle, run_pipeline(handle.store, docs, _extractor()))
    assert _loaded(root) == _state(handle.store)
    assert last[:len(last) // 2] + "{" not in (root / name).read_text(encoding="utf-8")


def test_provenance_blocks_are_in_triple_order(tmp_path):
    """So two processes that make the same commits write the same bytes."""
    root = _corpus_store(tmp_path, builds=3)
    by_text = {triple_text(t): t for t in load_store(root).store.trusted}
    blocks: list[list[Triple]] = []
    for line in (root / "provenance.jsonl").read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        if "triple" in obj:
            blocks[-1].append(by_text[obj["triple"]])
        else:
            blocks.append([])
    assert len(blocks) == 3 and all(len(block) > 1 for block in blocks)
    for block in blocks:
        assert block == sorted(block, key=triple_key)


def test_store_without_markers_loads_unchanged(tmp_path):
    """A store written as one full rewrite per commit: no version markers."""
    root = tmp_path / "s"
    init_store(root)
    for names in (["doc01.txt"], ["doc02.txt", "doc03.txt"]):
        handle = _open(root)
        docs = [SourceDocument(n, DocKind.TEXT, CORPUS[n]) for n in names]
        oracle_save_commit(handle, run_pipeline(handle.store, docs, _extractor(),
                                                graph_candidates(SCHEMA, "corpus_schema.ttl")))
    for name in JOURNALS:
        assert "version" not in (root / name).read_text(encoding="utf-8")
    assert _loaded(root) == _state(handle.store)


def test_identical_rebuild_leaves_journals_byte_identical(tmp_path):
    store = tmp_path / "s"
    argv = ("--store", str(store), "--json", "build", "--sources", str(DATA / "corpus"),
            "--shapes", str(DATA / "corpus_shapes.ttl"),
            "--schema", str(DATA / "corpus_schema.ttl"),
            "--patterns", str(DATA / "corpus_patterns.json"))
    assert run_cli("--store", str(store), "init")[0] == 0
    code, out, err = run_cli(*argv)
    assert code == 0, err
    before = {name: (store / name).read_bytes() for name in JOURNALS}
    code, out, err = run_cli(*argv)
    assert code == 0, err
    assert json.loads(out)["accepted"] == 0
    assert {name: (store / name).read_bytes() for name in JOURNALS} == before


def test_commit_appends_only_its_own_block(tmp_path):
    root = _corpus_store(tmp_path)
    before = {name: (root / name).read_bytes() for name in JOURNALS}
    handle = _open(root)
    docs = [SourceDocument("new.txt", DocKind.TEXT, "Pump4 located in SiteD.")]
    delta = run_pipeline(handle.store, docs, _extractor({"Pump4": "Device"}))
    save_commit(handle, delta)
    for name in JOURNALS:
        data = (root / name).read_bytes()
        assert data.startswith(before[name])
        block = data[len(before[name]):].decode("utf-8").splitlines()
        marker = {"trusted.ttl": "# version 3", "provenance.jsonl": '{"version": 3}',
                  "registry.ttl": "# version 3"}[name]
        assert block[0] == marker
    block = (root / "provenance.jsonl").read_bytes()[len(before["provenance.jsonl"]):]
    assert len(block.splitlines()) == 1 + len(delta.accepted)
    # registry.ttl stays one Turtle document with the prefixes of its header
    graph, _ = parse_turtle((root / "registry.ttl").read_text(encoding="utf-8"))
    assert Triple(Iri("http://ontomem.dev/ns/inst#pump4"), Iri(RDFS_LABEL), Literal("Pump4")) \
        in graph
    assert "inst:pump4 rdfs:label \"Pump4\" ." in (root / "registry.ttl").read_text("utf-8")


# ---------------------------------------------------------------------------
# provenance.jsonl is read on first use, and logs.jsonl only where it must be
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_deferred_provenance_equals_the_eager_load(tmp_path, seed):
    """Each step is one build in a new process, on three stores kept equal.
    Whenever `store.provenance` is first read, it equals the map that the
    eager load gives (`oracle_load_provenance`) with the build's merges
    applied: right after load, after `commit` before `save_commit`, after
    the save, and after a build that accepts nothing, whose merges stay
    unsaved. The store files do not depend on when it was read."""
    roots = {when: tmp_path / when for when in ("load", "commit", "save")}
    for root in roots.values():
        init_store(root)
    seq = _Sequence(seed)
    kinds: dict[str, int] = {}
    for step in range(50):
        handles = {when: _open(root) for when, root in roots.items()}
        eager = handles["load"].store.provenance
        assert eager == oracle_load_provenance(roots["load"]), (seed, step)
        kind, run = seq.draw(step, handles["load"])
        if run is None:
            continue
        deltas = {when: run(handle.store) for when, handle in handles.items()}
        assert handles["commit"].store.provenance == eager, (seed, step, kind)
        for when, handle in handles.items():
            save_commit(handle, deltas[when])
        assert handles["save"].store.provenance == eager, (seed, step, kind)
        for name in ("trusted.ttl", "logs.jsonl", "quarantine.jsonl", *JOURNALS):
            assert len({(root / name).read_bytes() for root in roots.values()}) == 1, name
        if deltas["load"].accepted:
            assert oracle_load_provenance(roots["load"]) == eager, (seed, step, kind)
        elif handles["save"].store.unsaved:
            kinds["unsaved merges"] = kinds.get("unsaved merges", 0) + 1
        kinds[kind] = kinds.get(kind, 0) + 1
    for kind in ("corpus", "dialogue", "said", "fresh", "clash", "repeat", "unsaved merges"):
        assert kinds.get(kind), (kind, kinds)


def test_a_merge_replaces_the_placeholder_however_the_records_are_read(tmp_path, monkeypatch):
    """A triple of a commit that died before `version` has only the
    placeholder record. A merge into it gives the same records whether
    `store.provenance` was first read before the merge, after it, or after
    a save and a reload: the placeholder stands only for no record."""
    root = init_store(tmp_path / "s").root
    dead, new = (Triple(Iri("http://ex.org/c"), Iri("http://ex.org/p"), Iri(f"http://ex.org/{o}"))
                 for o in "de")
    handle = load_store(root)
    write_text = Path.write_text

    def failing_write(path, *args, **kwargs):
        if path.name == "provenance.jsonl":
            raise OSError("disk full")
        return write_text(path, *args, **kwargs)

    # the full-rewrite writer of older code left such stores when it died
    # after trusted.ttl: `save_commit` appends to trusted.ttl, so its dead
    # block stays invisible
    monkeypatch.setattr(Path, "write_text", failing_write)
    with pytest.raises(OSError):
        oracle_save_commit(handle, feedback(handle.store, [Claim(dead)]))
    monkeypatch.undo()

    said = Graph()
    for t in (dead, new):
        said.insert(t)
    candidates = graph_candidates(said, "chat-1", Origin.DIALOGUE)
    early, late = load_store(root), load_store(root)
    assert [p.source_id for p in early.store.provenance[dead]] == ["trusted.ttl"]
    deltas = [h.store.commit(validate_gate(candidates, h.store.trusted, []), h.store.version)
              for h in (early, late)]
    assert [p.source_id for p in early.store.provenance[dead]] == ["chat-1"]
    assert early.store.provenance == late.store.provenance
    save_commit(early, deltas[0])
    assert load_store(root).store.provenance == early.store.provenance \
        == oracle_load_provenance(root)


def test_marker_text_inside_a_line_is_not_a_marker(tmp_path):
    root = _corpus_store(tmp_path, builds=1)
    handle = _open(root)
    name = "Pump # version 9"
    iri = handle.store.registry.resolve_or_mint(name, "m.txt")
    label = Triple(Iri(iri), Iri(RDFS_LABEL), Literal(name))
    save_commit(handle, feedback(handle.store, [Claim(label)]))
    with (root / "registry.ttl").open("a", encoding="utf-8") as fh:
        fh.write("inst:zed rdfs:label \"Zed\" . # version 9\n")  # a comment after a statement
    text = (root / "registry.ttl").read_text(encoding="utf-8")
    assert f'"{name}" .' in text and text.count("# version 9") == 3  # label, alias, comment
    loaded = load_store(root)
    assert set(loaded.store.registry.entries) == {*handle.store.registry.entries, INST_NS + "zed"}
    assert loaded.journal_ends == {j: (root / j).stat().st_size for j in JOURNALS}


def _count_provenance_loads(monkeypatch) -> list:
    calls = []
    load = store_module._load_provenance

    def counted(*args):
        calls.append(args)
        return load(*args)
    monkeypatch.setattr(store_module, "_load_provenance", counted)
    return calls


def test_build_reads_no_provenance_and_a_session_retrieve_reads_it_once(tmp_path, monkeypatch):
    calls = _count_provenance_loads(monkeypatch)
    store = tmp_path / "s"
    build = ("--store", str(store), "--json", "build", "--sources", str(DATA / "corpus"),
             "--shapes", str(DATA / "corpus_shapes.ttl"),
             "--schema", str(DATA / "corpus_schema.ttl"),
             "--patterns", str(DATA / "corpus_patterns.json"))
    assert run_cli("--store", str(store), "init")[0] == 0
    for accepted in (True, False):  # the first build, then one on the corpus store
        code, out, err = run_cli(*build)
        assert code == 0, err
        assert bool(json.loads(out)["accepted"]) is accepted
    assert calls == []
    code, out, err = run_cli("--store", str(store), "--json", "retrieve", "--query", "Acme",
                             "--session", "nobody")
    assert code == 0, err
    assert json.loads(out)["user_memory"] == []
    assert len(calls) == 1


def test_provenance_is_read_once_per_handle_across_threads(tmp_path, monkeypatch):
    root = _corpus_store(tmp_path)
    calls = _count_provenance_loads(monkeypatch)
    handle = load_store(root)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            maps = list(pool.map(lambda _: handle.store.provenance, range(32), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 1 and all(m is maps[0] for m in maps)
    assert handle.store.provenance is maps[0]  # a second read on the handle loads nothing
    assert len(calls) == 1
    assert maps[0] == oracle_load_provenance(root)


def test_malformed_provenance_line_is_named_at_its_first_read(tmp_path):
    """A build only appends to provenance.jsonl, so it commits over a bad
    committed line; the first read of the records names the line."""
    root = _corpus_store(tmp_path)
    path = root / "provenance.jsonl"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[3] = "{not a record"
    path.write_text("\n".join(lines), encoding="utf-8")
    sources = tmp_path / "docs"
    sources.mkdir()
    (sources / "doc07.txt").write_text(CORPUS["doc07.txt"], encoding="utf-8")
    code, out, err = run_cli("--store", str(root), "--json", "build", "--sources", str(sources),
                             "--patterns", str(DATA / "corpus_patterns.json"))
    assert code == 0, err
    assert json.loads(out)["version"] == 3
    with pytest.raises(StoreError, match=r"^provenance\.jsonl line 4 is not a provenance record"):
        load_store(root).store.provenance
    # `main` reports a store error with exit code 2
    code, out, err = run_cli("--store", str(root), "--json", "retrieve", "--query", "Acme",
                             "--session", "nobody")
    assert (code, out) == (2, "")
    assert err.startswith("error: provenance.jsonl line 4 is not a provenance record: ")


def test_chunk_dedupe_parses_only_the_lines_it_needs(tmp_path):
    """A build logs a chunk unless the last line of its id holds its text.
    The lines are matched by the bytes of their id; the outcome is that of
    parsing every line, whatever the id's escapes or the line's key order."""
    root = tmp_path / "s"
    handle = init_store(root)
    log = root / "logs.jsonl"

    def build(*chunks: tuple[str, int, str]) -> list[str]:
        last = dict(load_log_entries(root)[0])  # the reference: parse every line
        expected = [json.dumps({"id": f"{d}#{i}", "text": text}, ensure_ascii=False)
                    for d, i, text in chunks if last.get(f"{d}#{i}") != text]
        before = log.read_bytes() if log.exists() else b""
        save_commit(handle, OntologyDelta(handle.store.version, [], [], chunks=[
            Chunk(d, i, (0, len(text)), text) for d, i, text in chunks]))
        assert log.read_bytes() == before + "".join(line + "\n" for line in expected).encode()
        return expected

    quoted, accented = 'say "hi"\\now.txt', "ünïcode – doc.txt"
    first = [(quoted, 0, 'a "quoted"\ttext'), (accented, 0, "naïve façade"),
             ("plain.txt", 0, "a"), ("plain.txt", 1, "b")]
    assert len(build(*first)) == 4
    assert '"id": "say \\"hi\\"\\\\now.txt#0"' in log.read_text(encoding="utf-8")
    assert len(build(*first)) == 0
    with log.open("a", encoding="utf-8") as fh:
        fh.write('{"text": "B", "id": "plain.txt#1"}\n')  # another key order
        fh.write('{"id": "pl\\u0061in.txt#0", "text": "A"}\n')  # an escape in a plain id
    assert build(*first) == ['{"id": "plain.txt#0", "text": "a"}',
                             '{"id": "plain.txt#1", "text": "b"}']
    assert build((accented, 0, "naïve façade, edited"), (quoted, 0, 'a "quoted"\ttext')) == [
        '{"id": "ünïcode – doc.txt#0", "text": "naïve façade, edited"}']
    assert build((accented, 0, "naïve façade")) == [
        '{"id": "ünïcode – doc.txt#0", "text": "naïve façade"}']


# ---------------------------------------------------------------------------
# The one-pass registry reader and the Turtle kernel trims
# ---------------------------------------------------------------------------


def _random_registry_graph(rng: random.Random) -> Graph:
    nodes = [Iri(f"http://ontomem.dev/ns/inst#n{i}") for i in range(6)] + [Blank("b0")]
    values = [Literal(v) for v in ("Acme", "acme", "Bolt", "doc1.txt", "doc2.txt", "x\ny")]
    objects = values + [Iri(f"http://ontomem.dev/ns/schema#C{i}") for i in range(3)]
    predicates = [RDFS_LABEL, SYS_ALIAS, RDF_TYPE, SYS_FIRST_SEEN, SYS_AMBIGUOUS_ALIAS,
                  "http://ex.org/other"]
    g = Graph()
    for _ in range(rng.randint(0, 30)):
        s = rng.choice(nodes + [Iri(SYS_REGISTRY)])
        g.insert(Triple(s, Iri(rng.choice(predicates)), rng.choice(objects)))
    return g


def test_one_pass_registry_reader_equals_the_match_reader():
    rng = random.Random(7)
    for _ in range(500):
        g = _random_registry_graph(rng)
        got = registry_from_graph(g, "http://ontomem.dev/ns/inst#")
        want = oracle_registry_from_graph(g, "http://ontomem.dev/ns/inst#")
        assert list(got.entries.items()) == list(want.entries.items())
        assert got.ambiguous == want.ambiguous
        assert got.unsaved == []


def test_escape_literal_table_equals_per_character_escapes():
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    rng = random.Random(3)
    alphabet = 'ab\\"\n\r\t é \U0001F600'
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert escape_literal(text) == "".join(escapes.get(c, c) for c in text)


def test_parser_resolves_names_again_after_each_prefix():
    g, _ = parse_turtle("@prefix ex: <http://a/> .\nex:s ex:p ex:o .\n"
                        "@prefix ex: <http://b/> .\nex:s ex:p ex:o .\n")
    assert sorted(t.subject.value for t in g) == ["http://a/s", "http://b/s"]


def test_parser_checks_positions_of_resolved_names_on_every_use():
    with pytest.raises(TurtleParseError) as err:
        parse_turtle("@prefix ex: <http://a/> .\n_:x ex:p ex:o .\nex:s _:x ex:o .\n")
    assert str(err.value) == "3:6: predicate must be an IRI"


def test_language_tags_spelt_like_prefix_round_trip(tmp_path):
    # Right after a closing quote, `@prefix…` is a language tag, not the
    # directive: a store holding `"x"@prefixfr` loads and answers queries.
    root = tmp_path / "s"
    handle = init_store(root)
    labels = [Triple(Iri(INST_NS + name), Iri(RDFS_LABEL), Literal(text, RDF_LANGSTRING, tag))
              for name, text, tag in (("a", "x", "prefixfr"), ("b", "y", "prefix"))]
    delta = feedback(handle.store, [Claim(t) for t in labels])
    assert {c.triple for c in delta.accepted} == set(labels)
    save_commit(handle, delta)
    assert '"x"@prefixfr .\n' in (root / "trusted.ttl").read_text(encoding="utf-8")
    loaded = load_store(root).store
    assert loaded.trusted.triple_set() == handle.store.trusted.triple_set() == frozenset(labels)
    code, out, _ = run_cli("--store", str(root), "--json", "query",
                           "SELECT ?s ?o WHERE { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?o }")
    assert code == 0 and sorted(row["o"] for row in json.loads(out)["rows"]) == ['"x"@prefixfr', '"y"@prefix']


def test_dotted_prefix_label_reads_in_turtle_and_sparql(tmp_path):
    # PN_PREFIX allows an inner '.': a prefix that Turtle reads, SPARQL reads too.
    graph, _ = parse_turtle("@prefix ex.v: <http://e/> .\nex.v:a ex.v:p ex.v:b .\n")
    query = parse_query("PREFIX ex.v: <http://e/> SELECT ?s WHERE { ?s ex.v:p ?o }")
    assert evaluate(query, graph).to_json()["rows"] == [{"s": "<http://e/a>"}]
    root = tmp_path / "s"
    handle = init_store(root)
    handle.prefixes["ex.v"] = "http://e/"
    save_commit(handle, feedback(handle.store, [Claim(t) for t in graph.find()]))
    assert "\nex.v:a ex.v:p ex.v:b .\n" in (root / "trusted.ttl").read_text(encoding="utf-8")
    code, out, _ = run_cli("--store", str(root), "--json", "query",
                           "PREFIX ex.v: <http://e/> SELECT ?s ?o WHERE { ?s ex.v:p ?o }")
    assert code == 0 and json.loads(out)["rows"] == [{"s": "<http://e/a>", "o": "<http://e/b>"}]


def test_prefix_label_ending_in_a_dot_is_refused_in_turtle_and_sparql():
    # W3C Turtle and SPARQL: PN_PREFIX may hold a '.', but not as its last character.
    document = "@prefix e.: <http://e/> .\ne.:a e.:p e.:b .\n"
    with pytest.raises(TurtleParseError):
        parse_turtle(document)
    with pytest.raises(TurtleParseError):  # so the serializer can no longer write one back
        serialize_turtle(*parse_turtle(document))
    with pytest.raises(QueryParseError):
        parse_query("PREFIX e.: <http://e/> ASK WHERE { e.:a e.:p ?o }")


def test_graph_at_version_is_the_union_of_its_deltas(tmp_path):
    root = _corpus_store(tmp_path, builds=3)
    version = load_store(root).store.version
    assert version >= 3
    deltas = [frozenset(parse_turtle((root / f"delta-{v}.ttl").read_text(encoding="utf-8"))[0].triple_set())
              for v in range(1, version + 1)]
    for since in range(version + 1):
        for v in range(since, version + 1):
            expected = frozenset().union(*deltas[since:v])
            assert graph_at_version(root, v, since=since).triple_set() == expected, (since, v)
