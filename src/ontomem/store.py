"""On-disk store layout: trusted.ttl, delta-N.ttl files, quarantine.jsonl,
registry.ttl, provenance.jsonl, logs.jsonl, a version file, a flat
key=value config, and an empty `.lock` that carries the writer's `flock`.

This is the only module that knows these file formats. `init_store` creates a
store and `save_commit` is the only code that writes to an existing one: each
commit writes the files named by its `OntologyDelta` and the `version` file
last. trusted.ttl always equals the union of the delta files in version
order; the deltas are the canonical, diffable history.

provenance.jsonl and registry.ttl are append-only journals. A commit that
accepts triples opens a block in each with a version marker line
(`{"version": N}`, and the Turtle comment `# version N`), then appends only
what the store gained since the last save: a provenance line per new triple
and per triple that gained records, in triple order, and a registry line per
new label, first source, alias or ambiguous alias. Every line file is read by
`_lines`, which drops a last line without its newline and stops a journal at
its first marker above `version`, so a block whose commit never wrote
`version` stays invisible; and appended to by `_append`, which first cuts the
file back to its committed lines. Lines before any marker are committed, so
stores written as one full rewrite per commit load unchanged. registry.ttl
is valid Turtle but no longer in canonical order.
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from .namespaces import (
    DEFAULT_DIMENSION,
    DEFAULT_PREFIXES,
    INST_NS,
    PROP_NS,
    RDFS_LABEL,
    SCHEMA_NS,
    SYS_ALIAS,
    SYS_AMBIGUOUS_ALIAS,
    SYS_FIRST_SEEN,
    SYS_REGISTRY,
)
from .rdf_core import (
    Graph, Iri, Literal, Origin, Provenance, Term, Triple, term_key, triple_key, triple_text)
from .turtle_io import PrefixMap, parse_triples, parse_turtle, serialize_turtle, triple_line

# The layers above the store are imported where they are used, so that a
# process that only reads trusted.ttl (`load_trusted`) does not import them.
if TYPE_CHECKING:
    from .builder import EntityRegistry, OntologyDelta, OntologyStore
    from .fusion import FusionWeights, VectorStore
    from .reasoner import Closure
    from .shacl import NodeShape


class StoreError(RuntimeError):
    pass


class StoreLockError(StoreError):
    pass


DEFAULT_CONFIG: dict[str, str] = {
    "instance_ns": INST_NS,
    "schema_ns": SCHEMA_NS,
    "property_ns": PROP_NS,
    "embedding_dimension": str(DEFAULT_DIMENSION),
    "chunk_size": "1000",
    "weight_vector": "1.0",
    "weight_graph": "1.0",
    "weight_tool": "1.0",
    "weight_user": "1.0",
}

_DELTA_RE = re.compile(r"^delta-(\d+)\.ttl$")
_PROVENANCE = "provenance.jsonl"
_REGISTRY = "registry.ttl"
# The line that opens a commit's block in each journal, and its pattern.
_MARKERS = {_PROVENANCE: ('{{"version": {}}}', re.compile(rb'\{"version": (\d+)\}$')),
            _REGISTRY: ("# version {}", re.compile(rb"# version (\d+)$"))}


def _write_config(path: Path, config: dict[str, str]) -> None:
    lines = [f"{k}={v}" for k, v in sorted(config.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_config(path: Path) -> dict[str, str]:
    config = dict(DEFAULT_CONFIG)
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    return config


@dataclass
class StoreHandle:
    """An open store: its in-memory state plus a snapshot of state derived
    from it, each part computed on first use and reused until it goes stale.

    - `closure()`: `reasoner.close` of the trusted graph, recomputed when
      `store.version` changes or `store.trusted` is replaced.
    - `log_memory()`: a `VectorStore` over logs.jsonl. It follows the file,
      not the version (a build whose candidates are all quarantined logs its
      chunks at an unchanged version): each call embeds only the complete
      lines appended since the last one, and rebuilds when the file shrank or
      was replaced.

    Neither is ever mutated once published, so threads share them without
    locks; the lock only keeps two threads from computing the same part."""

    root: Path
    store: OntologyStore
    config: dict[str, str]
    prefixes: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_PREFIXES))
    # The committed byte length of each journal, and the prefixes that
    # registry.ttl's header declares, which its appended lines use.
    journal_ends: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    registry_prefixes: dict[str, str] = field(default_factory=dict, repr=False, compare=False)
    # (version, trusted graph, closure) and (vector store, (device, inode), offset)
    _closure: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _log: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False,
                                  compare=False)

    def closure(self) -> Closure:
        from .reasoner import close
        with self._lock:
            version, trusted = self.store.version, self.store.trusted
            cached = self._closure
            if cached is None or cached[0] != version or cached[1] is not trusted:
                cached = self._closure = (version, trusted, close(trusted))
            return cached[2]

    def log_memory(self) -> VectorStore:
        from .fusion import VectorStore
        with self._lock:
            memory, file_id, offset = self._log or (VectorStore(self.dimension), None, 0)
            try:
                st = (self.root / "logs.jsonl").stat()
                now_id, size = (st.st_dev, st.st_ino), st.st_size
            except FileNotFoundError:
                now_id, size = None, 0
            if now_id != file_id or size < offset:  # a new, shrunk or replaced log
                memory, offset = VectorStore(self.dimension), 0
            if size > offset:
                entries, offset = load_log_entries(self.root, offset)
                if entries:
                    memory = VectorStore(self.dimension, dict(memory.entries))
                    for entry_id, payload in entries:
                        memory.add(entry_id, payload)
            self._log = (memory, now_id, offset)
            return memory

    def reloaded(self) -> StoreHandle:
        """A fresh handle on the committed store, with the same shapes; the log
        memory carries over, since logs.jsonl only grows."""
        handle = load_store(self.root, self.store.shapes)
        handle._log = self._log
        return handle

    @property
    def weights(self) -> FusionWeights:
        from .fusion import FusionWeights
        return FusionWeights(
            vector=float(self.config["weight_vector"]),
            graph=float(self.config["weight_graph"]),
            tool=float(self.config["weight_tool"]),
            user=float(self.config["weight_user"]),
        )

    @property
    def dimension(self) -> int:
        return int(self.config["embedding_dimension"])


def init_store(root: str | Path) -> StoreHandle:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if (root / "version").exists():
        raise StoreError(f"store already initialized at {root}")
    _write_config(root / "config", DEFAULT_CONFIG)
    (root / "version").write_text("0\n", encoding="utf-8")
    (root / "trusted.ttl").write_text(serialize_turtle(Graph(), DEFAULT_PREFIXES), encoding="utf-8")
    (root / "registry.ttl").write_text(serialize_turtle(Graph(), DEFAULT_PREFIXES), encoding="utf-8")
    (root / "quarantine.jsonl").write_text("", encoding="utf-8")
    (root / "provenance.jsonl").write_text("", encoding="utf-8")
    return load_store(root)


def load_store(root: str | Path, shapes: list[NodeShape] | None = None) -> StoreHandle:
    from .builder import BuilderConfig, OntologyStore
    root = Path(root)
    graph, prefixes = _read_trusted(root)
    config = _read_config(root / "config")
    builder_config = BuilderConfig(
        instance_ns=config["instance_ns"],
        schema_ns=config["schema_ns"],
        property_ns=config["property_ns"],
        max_chunk_chars=int(config["chunk_size"]),
    )
    store = OntologyStore(builder_config, shapes or [])
    store.version = read_version(root)

    prov_by_triple, prov_end = _load_provenance(root / _PROVENANCE, store.version)
    fallback = Provenance(source_id="trusted.ttl", origin=Origin.SOURCE_DOCUMENT)
    store.trusted = graph
    store.provenance = {t: prov_by_triple.get(triple_text(t)) or [fallback] for t in graph.find()}

    reg_data = b"".join(_lines(root / _REGISTRY, version=store.version))
    reg_triples, reg_prefixes = parse_triples(reg_data.decode("utf-8"))
    store.registry = registry_from_graph(reg_triples, builder_config.instance_ns)
    merged_prefixes = dict(DEFAULT_PREFIXES)
    merged_prefixes.update(prefixes)
    return StoreHandle(root=root, store=store, config=config, prefixes=merged_prefixes,
                       journal_ends={_PROVENANCE: prov_end, _REGISTRY: len(reg_data)},
                       registry_prefixes=reg_prefixes)


def load_trusted(root: str | Path) -> Graph:
    """The committed trusted graph, read from trusted.ttl alone: all that a
    query needs of the store."""
    return _read_trusted(Path(root))[0]


def _read_trusted(root: Path) -> tuple[Graph, PrefixMap]:
    if not (root / "version").exists():
        raise StoreError(f"no store at {root} (run init first)")
    return parse_turtle((root / "trusted.ttl").read_text(encoding="utf-8"))


def read_version(root: str | Path) -> int:
    """The committed version: the content of the `version` file."""
    return int((Path(root) / "version").read_text(encoding="utf-8").strip() or "0")


def save_commit(handle: StoreHandle, delta: OntologyDelta) -> Path | None:
    """Persist a commit; the store's only writer after `init_store`.

    A delta with accepted triples writes delta-N.ttl, rewrites trusted.ttl,
    and appends a version-N block to provenance.jsonl and registry.ttl:
    every provenance record and registry addition the store gained since the
    last save, including those of commits that accepted nothing, the
    provenance lines in triple order, so equal commits write equal bytes.
    Every commit appends its quarantine lines, stamped with
    `delta.version_id`, and the chunks whose ids logs.jsonl does not hold
    yet. Each append first cuts its file back to its committed lines: a
    journal's dead block, or a torn last line. `version` is written last."""
    root = handle.root
    store = handle.store

    delta_path: Path | None = None
    ends: dict[str, int] = {}
    if delta.accepted:
        delta_graph = Graph()
        for cand in delta.accepted:
            delta_graph.insert(cand.triple)
        delta_path = root / f"delta-{delta.version_id}.ttl"
        delta_path.write_text(serialize_turtle(delta_graph, handle.prefixes), encoding="utf-8")
        (root / "trusted.ttl").write_text(
            serialize_turtle(store.trusted, handle.prefixes), encoding="utf-8")
        # a new triple gained all its records, a merged one those past `saved`
        gained = sorted([(t, 0) for t in delta_graph.find()] + list(store.unsaved.items()),
                        key=lambda item: triple_key(item[0]))
        ends[_PROVENANCE] = _append_block(handle, _PROVENANCE, delta.version_id, (
            _json({"triple": triple_text(t),
                   "provenance": [p.to_json() for p in store.provenance[t][saved:]]})
            for t, saved in gained if len(store.provenance[t]) > saved))
        registry, items = store.registry, iter(store.registry.unsaved)
        ends[_REGISTRY] = _append_block(handle, _REGISTRY, delta.version_id, (
            triple_line(t, handle.registry_prefixes)
            for addition in zip(items, items, items)
            for t in _registry_triples(registry, *addition)))

    quarantine = root / "quarantine.jsonl"
    _append(quarantine, _committed_end(quarantine), [_json({
        "triple": triple_text(q.candidate.triple),
        "reason": q.reason,
        "conflicts": [c.to_json() for c in q.conflicts],
        "violations": [v.to_json() for v in q.violations],
        "provenance": [p.to_json() for p in q.candidate.provenance],
        "version": delta.version_id,
    }) for q in delta.quarantined] + [_json({
        "relation": qr.describe(),
        "reason": qr.reason,
        "provenance": [qr.provenance.to_json()],
        "version": delta.version_id,
    }) for qr in delta.quarantined_relations])

    texts = {f"{chunk.doc_id}#{chunk.index}": chunk.text for chunk in delta.chunks}
    if texts:  # a commit that logs nothing need not read the log
        logged, log_end = load_log_entries(root)
        last = dict(logged)  # the last line of an id wins, as in log_memory
        texts = {i: text for i, text in texts.items() if last.get(i) != text}
        _append(root / "logs.jsonl", log_end,
                (_json({"id": i, "text": text}) for i, text in texts.items()))

    if delta.accepted:  # the commit point, after every other write
        (root / "version").write_text(f"{delta.version_id}\n", encoding="utf-8")
        handle.journal_ends.update(ends)
        store.unsaved.clear()
        store.registry.unsaved.clear()
    return delta_path


def _json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def _append_block(handle: StoreHandle, name: str, version: int, lines: Iterable[str]) -> int:
    return _append(handle.root / name, handle.journal_ends[name],
                   chain([_MARKERS[name][0].format(version)], lines))


def _append(path: Path, end: int, lines: Iterable[str]) -> int:
    """Cut a line file back to `end`, the end of its committed lines, then
    append `lines`, each written with its newline as it comes; returns the
    new length."""
    with path.open("ab") as fh:
        fh.truncate(end)
        for line in lines:
            fh.write(line.encode("utf-8") + b"\n")
        return fh.tell()


def _committed_end(path: Path) -> int:
    """The end of a line file's last complete line: its size when it ends
    in a newline, so only a torn file is read through."""
    try:
        with path.open("rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            fh.seek(max(size - 1, 0))
            if fh.read(1) in (b"", b"\n"):
                return size
    except FileNotFoundError:
        return 0
    return sum(map(len, _lines(path)))


def _lines(path: Path, start: int = 0, version: int | None = None) -> Iterator[bytes]:
    """The complete lines of a line file from byte `start`, each with its
    newline, read one at a time. A last line without its newline is still
    being written, or was torn, and is left out. Given `version`, stop at
    the journal's first block marker above it."""
    marker = _MARKERS[path.name][1] if version is not None else None
    try:
        fh = path.open("rb")
    except FileNotFoundError:
        return
    with fh:
        fh.seek(start)
        for line in fh:
            if not line.endswith(b"\n"):
                return
            if marker and (m := marker.match(line)) and int(m.group(1)) > version:
                return
            yield line


def load_log_entries(root: str | Path, start: int = 0) -> tuple[list[tuple[str, str]], int]:
    """The (id, text) chunk payloads of logs.jsonl that back the vector memory,
    read from byte offset `start`, and the offset just past the last complete
    line read; a last line without its newline is left for a later call."""
    entries: list[tuple[str, str]] = []
    end = start
    for line in _lines(Path(root) / "logs.jsonl", start):
        end += len(line)
        if line.strip():
            obj = json.loads(line)
            entries.append((obj["id"], obj["text"]))
    return entries, end


def _load_provenance(path: Path, version: int) -> tuple[dict[str, list[Provenance]], int]:
    """Each triple's records, concatenated in journal order, read line by
    line through `_lines`; and the length in bytes of the lines read."""
    out: dict[str, list[Provenance]] = {}
    records: dict[Provenance, Provenance] = {}  # one object per distinct record
    end = 0
    for line in _lines(path, version=version):
        end += len(line)
        obj = json.loads(line) if line.strip() else {}
        if "triple" not in obj:  # a blank line or a block marker
            continue
        provs = out.setdefault(obj["triple"], [])
        for p in obj["provenance"]:
            prov = Provenance(
                source_id=p["source_id"],
                chunk_id=p.get("chunk_id"),
                extracted_at=p.get("extracted_at", 0),
                confidence=p.get("confidence", 1.0),
                origin=Origin(p.get("origin", "SOURCE_DOCUMENT")),
            )
            provs.append(records.setdefault(prov, prov))
    return out, end


# ---------------------------------------------------------------------------
# Registry <-> RDF
# ---------------------------------------------------------------------------


_LABEL, _ALIAS, _SEEN = Iri(RDFS_LABEL), Iri(SYS_ALIAS), Iri(SYS_FIRST_SEEN)


def _registry_triples(registry: EntityRegistry, kind: str, iri: str | None,
                      value: str | None) -> Iterator[Triple]:
    """The registry.ttl triples of one registry addition (see
    `EntityRegistry.unsaved`): a new entry is its label and first source."""
    if kind == "ambiguous":
        yield Triple(Iri(SYS_REGISTRY), Iri(SYS_AMBIGUOUS_ALIAS), Literal(value))
        return
    node = Iri(iri)
    if kind == "entry":
        entry = registry.entries[iri]
        yield Triple(node, _LABEL, Literal(entry.preferred_label))
        if entry.first_seen is not None:
            yield Triple(node, _SEEN, Literal(entry.first_seen))
    else:
        yield Triple(node, _ALIAS, Literal(value))


def registry_from_graph(triples: Iterable[Triple], instance_ns: str) -> EntityRegistry:
    """The registry that a graph, or any stream of its triples, describes,
    read in one pass; a triple repeated in the stream changes nothing. An
    entry is an IRI with a literal label; where a node has several labels
    the greatest wins, and of several first sources the least, in term
    order. Other triples, such as the `a` lines that older stores wrote
    for entity types, are skipped."""
    from .builder import EntityRegistry, RegistryEntry
    labels: dict[str, Literal] = {}
    seen: dict[str, Term] = {}
    aliases: list[tuple[str, str]] = []
    ambiguous: list[str] = []
    for t in triples:
        s, p, o = t.subject, t.predicate, t.object
        if not isinstance(s, Iri):
            continue
        p = p.value
        if p == RDFS_LABEL:
            if isinstance(o, Literal):
                old = labels.get(s.value)
                if old is None or term_key(o) > term_key(old):
                    labels[s.value] = o
        elif p == SYS_ALIAS:
            if isinstance(o, Literal):
                aliases.append((s.value, o.lexical))
        elif p == SYS_FIRST_SEEN:
            old = seen.get(s.value)
            if old is None or term_key(o) < term_key(old):
                seen[s.value] = o
        elif p == SYS_AMBIGUOUS_ALIAS and s.value == SYS_REGISTRY and isinstance(o, Literal):
            ambiguous.append(o.lexical)

    registry = EntityRegistry(instance_ns)
    for iri in sorted(labels):
        first = seen.get(iri)
        registry.entries[iri] = RegistryEntry(
            iri, labels[iri].lexical,
            first_seen=first.lexical if isinstance(first, Literal) else None)
    for iri, alias in aliases:
        if iri in registry.entries:
            registry.add_alias(iri, alias)
    registry.ambiguous.update(ambiguous)
    registry.unsaved.clear()  # all of it is on disk already
    return registry


# ---------------------------------------------------------------------------
# Versioned graphs and shapes loading
# ---------------------------------------------------------------------------


def delta_files(root: str | Path) -> list[tuple[int, Path]]:
    root = Path(root)
    out = []
    for path in root.iterdir():
        m = _DELTA_RE.match(path.name)
        if m:
            out.append((int(m.group(1)), path))
    out.sort()
    return out


def graph_at_version(root: str | Path, version: int, since: int = 0) -> Graph:
    """Union of delta-(since+1) .. delta-version; version 0 is the empty graph."""
    g = Graph()
    for v, path in delta_files(root):
        if v > version:
            break
        if v <= since:
            continue
        delta_graph, _ = parse_turtle(path.read_text(encoding="utf-8"))
        for t in delta_graph:
            g.insert(t)
    return g


def rebuild_trusted(root: str | Path) -> Graph:
    versions = [v for v, _ in delta_files(root)]
    return graph_at_version(root, max(versions) if versions else 0)


def load_shapes_file(path: str | Path) -> list[NodeShape]:
    from .shacl import parse_shapes
    graph, _ = parse_turtle(Path(path).read_text(encoding="utf-8"))
    shapes, _warnings = parse_shapes(graph)
    return shapes


# ---------------------------------------------------------------------------
# Store lock (one writer at a time)
# ---------------------------------------------------------------------------


class StoreLock:
    """An exclusive, non-blocking `flock` on the store's `.lock`, which
    stays as an empty file. The system releases the lock however its holder
    exits, so a writer that dies leaves the store unlocked. POSIX only."""

    def __init__(self, root: str | Path):
        self.path = Path(root) / ".lock"

    def __enter__(self) -> StoreLock:
        import fcntl
        self._fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o666)
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self._fd)
            raise StoreLockError(f"store is locked by another process: {self.path}") from None
        return self

    def __exit__(self, *exc) -> None:
        os.close(self._fd)  # which releases the lock
