"""On-disk store layout: trusted.ttl, delta-N.ttl files, quarantine.jsonl,
registry.ttl, provenance.jsonl, logs.jsonl, a version file, and an empty
`.lock` that carries the writer's `flock`. A store holds no settings: the
minting namespaces, the chunk size, the embedding dimension and the fusion
weights are constants of the code, and a `config` file that older code wrote
is ignored.

This is the only module that knows these file formats. `init_store` creates a
store and `save_commit` is the only code that writes to an existing one: each
commit writes the files named by its `OntologyDelta`, then replaces the
`version` file, its commit point. trusted.ttl's committed triples always
equal the union of the delta files in version order; the deltas are the
canonical, diffable history.

trusted.ttl, provenance.jsonl and registry.ttl are the store's three
append-only journals. A commit that accepts triples opens a block in each
with a version marker line (the Turtle comment `# version N`, and
`{"version": N}`), then appends only what the store gained: the delta's
triples in triple order, a provenance line per new triple and per triple
that gained records since the last save, in triple order, and a registry
line per new label, first source, alias or ambiguous alias. The Turtle
lines use the prefixes that the file's header declares. A journal's
committed lines (`_committed`) end before its first marker above `version`,
so a block whose commit never wrote `version` stays invisible. Every line
file drops a last line without its newline, and is appended to by
`_append`, which first cuts the file back to its committed lines. Lines
before any marker are committed, so stores written as one full rewrite per
commit load unchanged. registry.ttl is valid Turtle but no longer in
canonical order.

Once a commit's blocks in trusted.ttl hold at least an eighth of its bytes
(`_COMPACT_SHARE`), or the handle's prefixes are not those of its header,
the commit compacts it, after `version`: the trusted graph, serialized
canonically with the handle's prefixes, goes to a temporary file that
replaces trusted.ttl, as every commit replaces `version`. So a crash or a
concurrent reader sees the old file or the new one, both of which hold the
committed graph; between compactions trusted.ttl is not canonical Turtle.
An appended line names the same node after a reload because a commit holds
no blank node: `save_commit` refuses one. No write is fsynced, so this holds
against a process that dies, not against a power loss.

`load_store` reads registry.ttl but only finds where provenance.jsonl's
committed lines end: a commit appends what it gained (`OntologyStore.unsaved`)
without reading the journal back, and `store.provenance` reads the records on
first use (`_read_provenance`), so a build never parses them.
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from .namespaces import (
    DEFAULT_PREFIXES,
    INST_NS,
    RDFS_LABEL,
    SYS_ALIAS,
    SYS_AMBIGUOUS_ALIAS,
    SYS_FIRST_SEEN,
    SYS_REGISTRY,
)
from .rdf_core import (
    Blank, Graph, Iri, Literal, Origin, Provenance, Term, Triple, term_key, triple_key, triple_text)
from .turtle_io import (
    PrefixMap, parse_triples, parse_turtle, serialize_turtle, triple_lines, turtle_text)

# The layers above the store are imported where they are used, so that a
# process that only reads trusted.ttl (`load_trusted`) does not import them.
if TYPE_CHECKING:
    from .builder import EntityRegistry, OntologyDelta, OntologyStore
    from .fusion import VectorStore
    from .reasoner import Closure
    from .shacl import NodeShape


class StoreError(RuntimeError):
    pass


class StoreLockError(StoreError):
    pass


_TRUSTED = "trusted.ttl"
_PROVENANCE = "provenance.jsonl"
_REGISTRY = "registry.ttl"
# The line that opens a commit's block in each journal: its text before and
# after the version number.
_MARKERS = {_TRUSTED: ("# version ", ""), _PROVENANCE: ('{"version": ', "}"),
            _REGISTRY: ("# version ", "")}
# A commit compacts trusted.ttl once the blocks appended since its canonical
# head hold at least this share (1/8) of its bytes.
_COMPACT_SHARE = 8
# The start of a logs.jsonl line as `_json` writes it, with an id that holds
# no escape, so that its bytes are the id's own UTF-8 bytes.
_LOG_ID = re.compile(rb'\{"id": "([^"\\]*)", "text": ')


@dataclass
class StoreHandle:
    """An open store: its root, the in-memory state read from its files, and
    a snapshot of state derived from them, each part computed on first use
    and reused until it goes stale. A store has no settings to carry.

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
    prefixes: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_PREFIXES))
    # The committed byte length of each journal; the prefixes that each Turtle
    # journal's header declares, which its appended lines use; and the length
    # of trusted.ttl's canonical head, before its first block.
    journal_ends: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    journal_prefixes: dict[str, PrefixMap] = field(default_factory=dict, repr=False,
                                                   compare=False)
    trusted_head: int = field(default=0, repr=False, compare=False)
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
            memory, file_id, offset = self._log or (VectorStore(), None, 0)
            try:
                st = (self.root / "logs.jsonl").stat()
                now_id, size = (st.st_dev, st.st_ino), st.st_size
            except FileNotFoundError:
                now_id, size = None, 0
            if now_id != file_id or size < offset:  # a new, shrunk or replaced log
                memory, offset = VectorStore(), 0
            if size > offset:
                entries, offset = load_log_entries(self.root, offset)
                if entries:
                    memory = memory.copy()
                    for entry_id, payload in entries:
                        memory.add(entry_id, payload)
            self._log = (memory, now_id, offset)
            return memory

    def reloaded(self) -> StoreHandle:
        """A fresh handle on the committed store; the log memory carries over,
        since logs.jsonl only grows."""
        handle = load_store(self.root)
        handle._log = self._log
        return handle


def init_store(root: str | Path) -> StoreHandle:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if (root / "version").exists():
        raise StoreError(f"store already initialized at {root}")
    _replace(root / "version", "0\n")
    (root / _TRUSTED).write_text(serialize_turtle(Graph(), DEFAULT_PREFIXES), encoding="utf-8")
    (root / "registry.ttl").write_text(serialize_turtle(Graph(), DEFAULT_PREFIXES), encoding="utf-8")
    (root / "quarantine.jsonl").write_text("", encoding="utf-8")
    (root / "provenance.jsonl").write_text("", encoding="utf-8")
    return load_store(root)


def load_store(root: str | Path) -> StoreHandle:
    from .builder import OntologyStore
    root = Path(root)
    version, data = _read_trusted(root)
    graph, prefixes = parse_turtle(data.decode("utf-8"))
    reg_data = _committed(root / _REGISTRY, version)
    # `save_commit` moves these ends in place, so a first read of
    # `store.provenance` after a save reads the saved block too
    ends = {_TRUSTED: len(data), _PROVENANCE: len(_committed(root / _PROVENANCE, version)),
            _REGISTRY: len(reg_data)}
    store = OntologyStore(read_provenance=partial(_read_provenance, root, ends))
    store.version = version
    store.trusted = graph
    reg_triples, reg_prefixes = parse_triples(reg_data.decode("utf-8"))
    store.registry = registry_from_graph(reg_triples, INST_NS)
    merged_prefixes = dict(DEFAULT_PREFIXES)
    merged_prefixes.update(prefixes)
    head = next(_markers(data, _TRUSTED), (len(data),))[0]
    return StoreHandle(root=root, store=store, prefixes=merged_prefixes, journal_ends=ends,
                       journal_prefixes={_TRUSTED: prefixes, _REGISTRY: reg_prefixes},
                       trusted_head=head)


def load_trusted(root: str | Path) -> Graph:
    """The committed trusted graph, read from trusted.ttl alone: all that a
    query needs of the store."""
    return parse_turtle(_read_trusted(Path(root))[1].decode("utf-8"))[0]


def _read_trusted(root: Path) -> tuple[int, bytes]:
    """The committed version and trusted.ttl's committed lines. `version` is
    read again after trusted.ttl, and both again if it moved: a commit in
    between may have compacted trusted.ttl to its new version."""
    if not (root / "version").exists():
        raise StoreError(f"no store at {root} (run init first)")
    version = read_version(root)
    while True:
        data = _committed(root / _TRUSTED, version)
        version, seen = read_version(root), version
        if version == seen:
            return version, data


def read_version(root: str | Path) -> int:
    """The committed version: the content of the `version` file, which a
    commit replaces whole. A file that holds no decimal number raises a
    StoreError rather than reading as version 0, over which the next commit
    would cut every journal back to nothing."""
    text = (Path(root) / "version").read_text(encoding="utf-8").strip()
    if not (text.isascii() and text.isdigit()):
        raise StoreError(f"the version file holds {text[:20]!r}, not a version number")
    return int(text)


def save_commit(handle: StoreHandle, delta: OntologyDelta) -> Path | None:
    """Persist a commit; the store's only writer after `init_store`.

    A delta with accepted triples writes delta-N.ttl and appends a version-N
    block to trusted.ttl, provenance.jsonl and registry.ttl: the delta's
    triples, and every provenance record and registry addition the store
    gained since the last save, including those of commits that accepted
    nothing, the triples and provenance lines in triple order, so equal
    commits write equal bytes. Every commit appends its quarantine lines,
    stamped with `delta.version_id`, and the chunks whose ids logs.jsonl does
    not hold yet. Each append first cuts its file back to its committed
    lines: a journal's dead block, or a torn last line. `version` is replaced
    after every other write, and then trusted.ttl is compacted if its blocks
    have grown to `_COMPACT_SHARE` or its header lacks one of the handle's
    prefixes. A delta that holds a blank node raises a StoreError before
    anything is written."""
    root = handle.root
    store = handle.store

    delta_path: Path | None = None
    ends: dict[str, int] = {}
    if delta.accepted:
        for cand in delta.accepted:
            if any(isinstance(term, Blank) for term in cand.triple):
                raise StoreError(f"a commit cannot hold a blank node: {triple_text(cand.triple)}")
        # sorted and formatted once for delta-N.ttl, whose lines the trusted.ttl
        # block reuses when the two files declare the same prefixes
        triples = sorted({cand.triple for cand in delta.accepted}, key=triple_key)
        lines = triple_lines(triples, handle.prefixes)
        delta_path = root / f"delta-{delta.version_id}.ttl"
        delta_path.write_text(turtle_text(lines, handle.prefixes), encoding="utf-8")
        trusted_prefixes = handle.journal_prefixes[_TRUSTED]
        if trusted_prefixes != handle.prefixes:
            lines = triple_lines(triples, trusted_prefixes)
        ends[_TRUSTED] = _append_block(handle, _TRUSTED, delta.version_id, lines)
        ends[_PROVENANCE] = _append_block(handle, _PROVENANCE, delta.version_id, (
            _json({"triple": triple_text(t), "provenance": [p.to_json() for p in records]})
            for t, records in sorted(store.unsaved.items(), key=lambda item: triple_key(item[0]))
            if records))
        registry, items = store.registry, iter(store.registry.unsaved)
        ends[_REGISTRY] = _append_block(handle, _REGISTRY, delta.version_id, triple_lines(
            (t for addition in zip(items, items, items) for t in _registry_triples(registry, *addition)),
            handle.journal_prefixes[_REGISTRY]))

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
        last, log_end = _logged_texts(root / "logs.jsonl", texts)
        texts = {i: text for i, text in texts.items() if last.get(i) != text}
        _append(root / "logs.jsonl", log_end,
                (_json({"id": i, "text": text}) for i, text in texts.items()))

    if delta.accepted:  # the commit point, after every other write
        _replace(root / "version", f"{delta.version_id}\n")
        handle.journal_ends.update(ends)
        store.unsaved.clear()
        store.registry.unsaved.clear()
        end = ends[_TRUSTED]
        if (end - handle.trusted_head) * _COMPACT_SHARE >= end \
                or handle.prefixes != handle.journal_prefixes[_TRUSTED]:
            text = serialize_turtle(store.trusted, handle.prefixes)
            _replace(root / _TRUSTED, text)
            handle.journal_ends[_TRUSTED] = handle.trusted_head = len(text.encode("utf-8"))
            handle.journal_prefixes[_TRUSTED] = dict(handle.prefixes)
    return delta_path


def _json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def _replace(path: Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over
    `path`, so that a reader or a crash sees the old file or the new one
    whole, never an empty or torn one."""
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(text, encoding="utf-8")
    os.replace(temp, path)


def _append_block(handle: StoreHandle, name: str, version: int, lines: Iterable[str]) -> int:
    head, tail = _MARKERS[name]
    return _append(handle.root / name, handle.journal_ends[name],
                   chain([f"{head}{version}{tail}"], lines))


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


def _lines(path: Path, start: int = 0) -> Iterator[bytes]:
    """The complete lines of a line file from byte `start`, each with its
    newline, read one at a time. A last line without its newline is still
    being written, or was torn, and is left out."""
    try:
        fh = path.open("rb")
    except FileNotFoundError:
        return
    with fh:
        fh.seek(start)
        for line in fh:
            if not line.endswith(b"\n"):
                return
            yield line


def _committed(path: Path, version: int) -> bytes:
    """A journal's committed lines: those before its first block marker
    above `version`, which opens a block whose commit never wrote `version`,
    less a last line without its newline."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return b""
    for at, number in _markers(data, path.name):
        if number > version:
            return data[:at]
    return data[:data.rfind(b"\n") + 1]


def _markers(data: bytes, name: str) -> Iterator[tuple[int, int]]:
    """The offset and version of each block marker line among the complete
    lines of journal `name`, in file order, found by a byte search rather
    than by reading the lines one at a time."""
    head, tail = (part.encode("utf-8") for part in _MARKERS[name])
    end = data.rfind(b"\n") + 1
    at = data.find(head)
    while 0 <= at < end:
        line = data[at:data.index(b"\n", at)]
        number = line[len(head):len(line) - len(tail)]
        if (at == 0 or data[at - 1] == ord("\n")) and line.endswith(tail) and number.isdigit():
            yield at, int(number)
        at = data.find(head, at + 1)


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


def _logged_texts(path: Path, ids: Iterable[str]) -> tuple[dict[str, str], int]:
    """The last text that logs.jsonl holds for each of `ids`, and the end of
    its last complete line. A line is JSON-parsed only when its id is one of
    `ids` or it is not of the shape `_json` writes (`_LOG_ID`)."""
    wanted = {i.encode("utf-8") for i in ids}
    last: dict[str, str] = {}
    end = 0
    for line in _lines(path):
        end += len(line)
        m = _LOG_ID.match(line)
        if (m is None or m.group(1) in wanted) and line.strip():
            obj = json.loads(line)
            last[obj["id"]] = obj["text"]  # the last line of an id wins, as in log_memory
    return last, end


def _read_provenance(root: Path, journal_ends: dict[str, int],
                     store: OntologyStore) -> dict[Triple, list[Provenance]]:
    """`store.provenance` of a loaded store: each trusted triple's records in
    the committed lines of provenance.jsonl, then its unsaved ones; a triple
    with neither gets the placeholder record that names trusted.ttl."""
    from .builder import PLACEHOLDER
    journal = _load_provenance(root / _PROVENANCE, journal_ends[_PROVENANCE])
    unsaved = store.unsaved
    return {t: journal.get(triple_text(t), []) + unsaved.get(t, []) or [PLACEHOLDER]
            for t in store.trusted.find()}


def _load_provenance(path: Path, end: int) -> dict[str, list[Provenance]]:
    """Each triple's records in the first `end` bytes of provenance.jsonl,
    concatenated in journal order and keyed by triple text, with one object
    per distinct record. A line that is not a record raises a StoreError
    that names it."""
    out: dict[str, list[Provenance]] = {}
    records: dict[Provenance, Provenance] = {}
    data = path.read_bytes()[:end] if end else b""
    for number, line in enumerate(data.split(b"\n")[:-1], 1):
        try:
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
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise StoreError(f"{path.name} line {number} is not a provenance record: {e}") from None
    return out


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


def graph_at_version(root: str | Path, version: int, since: int = 0) -> Graph:
    """Union of delta-(since+1) .. delta-version, stopping at the committed
    version: a delta file above it is a commit that never finished."""
    root = Path(root)
    g = Graph()
    for v in range(since + 1, min(version, read_version(root)) + 1):
        for t in parse_triples((root / f"delta-{v}.ttl").read_text(encoding="utf-8"))[0]:
            g.insert(t)
    return g


def rebuild_trusted(root: str | Path) -> Graph:
    """The committed trusted graph, rebuilt from its deltas."""
    return graph_at_version(root, read_version(root))


def load_shapes_file(path: str | Path, warnings: list[str] | None = None) -> list[NodeShape]:
    """The shapes a Turtle file declares; `warnings`, when given, receives
    one line per unknown sh: term, such as a misspelt constraint."""
    from .shacl import parse_shapes
    graph, _ = parse_turtle(Path(path).read_text(encoding="utf-8"))
    shapes, found = parse_shapes(graph)
    if warnings is not None:
        warnings.extend(found)
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
