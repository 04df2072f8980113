"""On-disk store layout: trusted.ttl, delta-N.ttl files, quarantine.jsonl,
registry.ttl, provenance.jsonl, logs.jsonl, a version file, and a flat
key=value config.

This is the only module that knows these file formats. `init_store` creates a
store and `save_commit` is the only code that writes to an existing one: each
commit writes the files named by its `OntologyDelta` and the `version` file
last. trusted.ttl always equals the union of the delta files in version
order; the deltas are the canonical, diffable history.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .builder import BuilderConfig, EntityRegistry, OntologyDelta, OntologyStore, RegistryEntry
from .fusion import DEFAULT_DIMENSION, FusionWeights
from .namespaces import (
    DEFAULT_PREFIXES,
    INST_NS,
    PROP_NS,
    RDF_TYPE,
    RDFS_LABEL,
    SCHEMA_NS,
    SYS_ALIAS,
    SYS_AMBIGUOUS_ALIAS,
    SYS_FIRST_SEEN,
    SYS_REGISTRY,
)
from .rdf_core import Graph, Iri, Literal, Origin, Provenance, Triple, triple_text
from .shacl import NodeShape, parse_shapes
from .turtle_io import parse_turtle, serialize_turtle


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
    root: Path
    store: OntologyStore
    config: dict[str, str]
    prefixes: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_PREFIXES))

    @property
    def weights(self) -> FusionWeights:
        return FusionWeights(
            vector=float(self.config["weight_vector"]),
            graph=float(self.config["weight_graph"]),
            tool=float(self.config["weight_tool"]),
            user=float(self.config["weight_user"]),
        )

    @property
    def dimension(self) -> int:
        return int(self.config["embedding_dimension"])


def init_store(root: str | Path, config_overrides: dict[str, str] | None = None) -> StoreHandle:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if (root / "version").exists():
        raise StoreError(f"store already initialized at {root}")
    config = dict(DEFAULT_CONFIG)
    if config_overrides:
        config.update(config_overrides)
    _write_config(root / "config", config)
    (root / "version").write_text("0\n", encoding="utf-8")
    (root / "trusted.ttl").write_text(serialize_turtle(Graph(), DEFAULT_PREFIXES), encoding="utf-8")
    (root / "registry.ttl").write_text(serialize_turtle(Graph(), DEFAULT_PREFIXES), encoding="utf-8")
    (root / "quarantine.jsonl").write_text("", encoding="utf-8")
    (root / "provenance.jsonl").write_text("", encoding="utf-8")
    return load_store(root)


def load_store(root: str | Path, shapes: list[NodeShape] | None = None) -> StoreHandle:
    root = Path(root)
    version_path = root / "version"
    if not version_path.exists():
        raise StoreError(f"no store at {root} (run init first)")
    config = _read_config(root / "config")
    builder_config = BuilderConfig(
        instance_ns=config["instance_ns"],
        schema_ns=config["schema_ns"],
        property_ns=config["property_ns"],
        max_chunk_chars=int(config["chunk_size"]),
    )
    store = OntologyStore(builder_config, shapes or [])
    store.version = int(version_path.read_text(encoding="utf-8").strip() or "0")

    graph, prefixes = parse_turtle((root / "trusted.ttl").read_text(encoding="utf-8"))
    prov_by_triple = _load_provenance(root / "provenance.jsonl")
    fallback = Provenance(source_id="trusted.ttl", origin=Origin.SOURCE_DOCUMENT)
    for t in graph.find():
        for p in prov_by_triple.get(triple_text(t)) or [fallback]:
            graph.add_provenance(t, p)
    store.trusted = graph

    store.registry = _load_registry(root / "registry.ttl", builder_config.instance_ns)
    merged_prefixes = dict(DEFAULT_PREFIXES)
    merged_prefixes.update(prefixes)
    return StoreHandle(root=root, store=store, config=config, prefixes=merged_prefixes)


def save_commit(handle: StoreHandle, delta: OntologyDelta) -> Path | None:
    """Persist a commit; the store's only writer after `init_store`.

    A delta with accepted triples writes delta-N.ttl and rewrites trusted.ttl,
    provenance.jsonl and registry.ttl. Every commit appends its quarantine
    lines, stamped with `delta.version_id`, and the chunks whose ids
    logs.jsonl does not hold yet. `version` is written last."""
    root = handle.root
    store = handle.store

    delta_path: Path | None = None
    if delta.accepted:
        delta_graph = Graph()
        for cand in delta.accepted:
            delta_graph.insert(cand.triple)
        delta_path = root / f"delta-{delta.version_id}.ttl"
        delta_path.write_text(serialize_turtle(delta_graph, handle.prefixes), encoding="utf-8")
        (root / "trusted.ttl").write_text(
            serialize_turtle(store.trusted, handle.prefixes), encoding="utf-8")
        _save_provenance(root / "provenance.jsonl", store.trusted)
        (root / "registry.ttl").write_text(
            serialize_turtle(registry_to_graph(store.registry), handle.prefixes), encoding="utf-8")

    _append_jsonl(root / "quarantine.jsonl", [{
        "triple": triple_text(q.candidate.triple),
        "reason": q.reason,
        "conflicts": [c.to_json() for c in q.conflicts],
        "violations": [v.to_json() for v in q.violations],
        "provenance": [p.to_json() for p in q.candidate.provenance],
        "version": delta.version_id,
    } for q in delta.quarantined] + [{
        "relation": qr.describe(),
        "reason": qr.reason,
        "provenance": [qr.provenance.to_json()],
        "version": delta.version_id,
    } for qr in delta.quarantined_relations])

    texts = {f"{chunk.doc_id}#{chunk.index}": chunk.text for chunk in delta.chunks}
    for entry_id, _ in load_log_entries(root):
        texts.pop(entry_id, None)
    _append_jsonl(root / "logs.jsonl", [{"id": i, "text": text} for i, text in texts.items()])

    if delta.accepted:  # the commit point, after every other write
        (root / "version").write_text(f"{delta.version_id}\n", encoding="utf-8")
    return delta_path


def _append_jsonl(path: Path, objects: list[dict]) -> None:
    with path.open("a", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n")


def load_log_entries(root: str | Path) -> list[tuple[str, str]]:
    """The (id, text) chunk payloads of logs.jsonl that back the vector memory."""
    path = Path(root) / "logs.jsonl"
    entries: list[tuple[str, str]] = []
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                obj = json.loads(line)
                entries.append((obj["id"], obj["text"]))
    return entries


def _save_provenance(path: Path, graph: Graph) -> None:
    lines = []
    for t in graph:
        records = [p.to_json() for p in graph.provenance(t)]
        lines.append(json.dumps({"triple": triple_text(t), "provenance": records},
                                sort_keys=True, ensure_ascii=False))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _load_provenance(path: Path) -> dict[str, list[Provenance]]:
    out: dict[str, list[Provenance]] = {}
    if not path.exists():
        return out
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        out[obj["triple"]] = [
            Provenance(
                source_id=p["source_id"],
                chunk_id=p.get("chunk_id"),
                extracted_at=p.get("extracted_at", 0),
                confidence=p.get("confidence", 1.0),
                origin=Origin(p.get("origin", "SOURCE_DOCUMENT")),
            )
            for p in obj["provenance"]
        ]
    return out


# ---------------------------------------------------------------------------
# Registry <-> RDF
# ---------------------------------------------------------------------------


def registry_to_graph(registry: EntityRegistry) -> Graph:
    g = Graph()
    label_p, alias_p, type_p = Iri(RDFS_LABEL), Iri(SYS_ALIAS), Iri(RDF_TYPE)
    seen_p = Iri(SYS_FIRST_SEEN)
    for iri, entry in sorted(registry.entries.items()):
        node = Iri(iri)
        g.insert(Triple(node, label_p, Literal(entry.preferred_label)))
        for alias in sorted(entry.aliases):
            g.insert(Triple(node, alias_p, Literal(alias)))
        for type_iri in sorted(entry.types):
            g.insert(Triple(node, type_p, Iri(type_iri)))
        if entry.first_seen is not None:
            g.insert(Triple(node, seen_p, Literal(entry.first_seen.source_id)))
    reg_node = Iri(SYS_REGISTRY)
    for alias in sorted(registry.ambiguous):
        g.insert(Triple(reg_node, Iri(SYS_AMBIGUOUS_ALIAS), Literal(alias)))
    return g


def registry_from_graph(graph: Graph, instance_ns: str) -> EntityRegistry:
    registry = EntityRegistry(instance_ns)
    for t in graph.match(None, Iri(RDFS_LABEL), None):
        if not isinstance(t.subject, Iri) or not isinstance(t.object, Literal):
            continue
        iri = t.subject.value
        registry.entries[iri] = RegistryEntry(iri, t.object.lexical)
    for iri in list(registry.entries):
        node = Iri(iri)
        for t in graph.match(node, Iri(SYS_ALIAS), None):
            if isinstance(t.object, Literal):
                registry.add_alias(iri, t.object.lexical)
        for t in graph.match(node, Iri(RDF_TYPE), None):
            if isinstance(t.object, Iri):
                registry.add_type(iri, t.object.value)
        seen = graph.match(node, Iri(SYS_FIRST_SEEN), None)
        if seen and isinstance(seen[0].object, Literal):
            registry.entries[iri].first_seen = Provenance(source_id=seen[0].object.lexical)
    for t in graph.match(Iri(SYS_REGISTRY), Iri(SYS_AMBIGUOUS_ALIAS), None):
        if isinstance(t.object, Literal):
            registry.ambiguous.add(t.object.lexical)
    return registry


def _load_registry(path: Path, instance_ns: str) -> EntityRegistry:
    if not path.exists():
        return EntityRegistry(instance_ns)
    graph, _ = parse_turtle(path.read_text(encoding="utf-8"))
    return registry_from_graph(graph, instance_ns)


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


def graph_at_version(root: str | Path, version: int) -> Graph:
    """Union of delta-1 .. delta-version; version 0 is the empty graph."""
    g = Graph()
    for v, path in delta_files(root):
        if v > version:
            break
        delta_graph, _ = parse_turtle(path.read_text(encoding="utf-8"))
        for t in delta_graph:
            g.insert(t, Provenance(source_id=path.name, origin=Origin.SOURCE_DOCUMENT))
    return g


def rebuild_trusted(root: str | Path) -> Graph:
    versions = [v for v, _ in delta_files(root)]
    return graph_at_version(root, max(versions) if versions else 0)


def load_shapes_file(path: str | Path) -> list[NodeShape]:
    graph, _ = parse_turtle(Path(path).read_text(encoding="utf-8"))
    shapes, _warnings = parse_shapes(graph)
    return shapes


# ---------------------------------------------------------------------------
# Store lock (one writer at a time)
# ---------------------------------------------------------------------------


class StoreLock:
    def __init__(self, root: str | Path):
        self.path = Path(root) / ".lock"
        self._fd: int | None = None

    def __enter__(self) -> StoreLock:
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StoreLockError(f"store is locked by another process: {self.path}") from None
        os.write(self._fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
