import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ontomem.builder import EntityRegistry
from ontomem.rdf_core import isomorphic
from ontomem.store import (
    StoreLock,
    StoreLockError,
    graph_at_version,
    load_store,
    rebuild_trusted,
    registry_from_graph,
    registry_to_graph,
)
from conftest import DATA, run_cli


class TestStoreLayout:
    def test_layout_files_exist(self, built_store):
        for name in ("trusted.ttl", "version", "config", "quarantine.jsonl",
                     "registry.ttl", "provenance.jsonl", "delta-1.ttl"):
            assert (built_store / name).exists(), name

    def test_version_matches_highest_delta(self, built_store):
        version = int((built_store / "version").read_text().strip())
        deltas = sorted(int(p.stem.split("-")[1]) for p in built_store.glob("delta-*.ttl"))
        assert version == deltas[-1] == 1

    def test_rebuild_from_deltas_matches_trusted(self, built_store):
        handle = load_store(built_store)
        rebuilt = rebuild_trusted(built_store)
        assert isomorphic(rebuilt, handle.store.trusted)

    def test_graph_at_version_zero_is_empty(self, built_store):
        assert len(graph_at_version(built_store, 0)) == 0

    def test_provenance_survives_reload(self, built_store):
        handle = load_store(built_store)
        sources = set()
        for t in handle.store.trusted:
            provs = handle.store.trusted.provenance(t)
            assert provs
            sources.update(p.source_id for p in provs)
        assert any(s.endswith(".txt") for s in sources)  # real doc ids, not synthetic

    def test_registry_round_trip(self):
        registry = EntityRegistry()
        a = registry.resolve_or_mint("ACME Corp")
        registry.add_alias(a, "ACME")
        registry.add_type(a, "http://ontomem.dev/ns/schema#Company")
        b = registry.resolve_or_mint("Bolt Co")
        registry.add_alias(b, "ACME")  # now ambiguous
        g = registry_to_graph(registry)
        back = registry_from_graph(g, registry.instance_ns)
        assert back.resolve("acme corp") == a
        assert "ACME" in back.ambiguous
        assert back.entries[a].types == {"http://ontomem.dev/ns/schema#Company"}

    def test_lock_excludes_second_writer(self, tmp_path):
        with StoreLock(tmp_path):
            with pytest.raises(StoreLockError):
                with StoreLock(tmp_path):
                    pass
        with StoreLock(tmp_path):  # released after exit
            pass


class TestCliBasics:
    def test_init_then_validate_empty_store(self, tmp_path):
        store = tmp_path / "s"
        code, _, _ = run_cli("--store", str(store), "init")
        assert code == 0
        code, out, _ = run_cli("--store", str(store), "validate")
        assert code == 0
        assert "conforms" in out

    def test_unknown_subcommand_exit_2(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_missing_store_exit_2(self, tmp_path):
        code, _, err = run_cli("--store", str(tmp_path / "none"), "query", "ASK WHERE { ?s ?p ?o }")
        assert code == 2

    def test_check_contradicted_exit_1(self, regulatory_store):
        code, out, _ = run_cli("--store", str(regulatory_store), "--json",
                               "check", "--claims", str(DATA / "regulatory_claims.jsonl"))
        assert code == 1
        payload = json.loads(out)
        assert payload["overall"] == "CONTRADICTED"
        statuses = [v["status"] for v in payload["verdicts"]]
        assert statuses == ["SUPPORTED", "CONTRADICTED"]
        assert all(v["trace"] for v in payload["verdicts"])

    def test_validate_nonconforming_exit_1(self, tmp_path):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        sources = tmp_path / "docs"
        sources.mkdir()
        (sources / "d1.txt").write_text("Disk9 is on PegZ.", encoding="utf-8")
        patterns = tmp_path / "patterns.json"
        patterns.write_text(json.dumps({
            "relations": {"is on": "is on"},
            "entity_types": {"Disk9": "Disk", "PegZ": "Peg"},
        }), encoding="utf-8")
        code, _, err = run_cli("--store", str(store), "build", "--sources", str(sources),
                               "--patterns", str(patterns))
        assert code == 0, err
        # shapes demanding a size literal on every Disk: violated
        shapes = tmp_path / "shapes.ttl"
        shapes.write_text(
            "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
            "@prefix schema: <http://ontomem.dev/ns/schema#> .\n"
            "@prefix prop: <http://ontomem.dev/ns/prop#> .\n"
            "schema:DiskShape a sh:NodeShape ;\n"
            "  sh:targetClass schema:Disk ;\n"
            "  sh:property _:p .\n"
            "_:p sh:path prop:size ; sh:minCount 1 .\n", encoding="utf-8")
        code, out, _ = run_cli("--store", str(store), "validate", "--shapes", str(shapes))
        assert code == 1
        assert "minCount" in out

    def test_query_json_rows(self, built_store):
        code, out, _ = run_cli("--store", str(built_store), "--json", "query",
                               "PREFIX prop: <http://ontomem.dev/ns/prop#> "
                               "SELECT ?w WHERE { ?w prop:worksFor ?c } LIMIT 2")
        assert code == 0
        payload = json.loads(out)
        assert payload["variables"] == ["w"]
        assert len(payload["rows"]) == 2

    def test_diff_matches_delta_file(self, built_store):
        code, out, _ = run_cli("--store", str(built_store), "--json", "diff", "0", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["removed"] == []
        from ontomem.turtle_io import parse_turtle
        delta_graph, _ = parse_turtle((built_store / "delta-1.ttl").read_text(encoding="utf-8"))
        assert len(payload["added"]) == len(delta_graph)

    def test_diff_include_inferred(self, built_store):
        code, out, _ = run_cli("--store", str(built_store), "--json", "diff", "0", "1",
                               "--include-inferred")
        assert code == 0
        payload = json.loads(out)
        code, plain_out, _ = run_cli("--store", str(built_store), "--json", "diff", "0", "1")
        plain = json.loads(plain_out)
        # materialization only ever adds triples on the non-empty side
        assert set(plain["added"]) <= set(payload["added"])
        assert len(payload["added"]) > len(plain["added"])

    def test_retrieve_json(self, built_store):
        code, out, _ = run_cli("--store", str(built_store), "--json", "retrieve",
                               "--query", "Alice Reyes", "--radius", "1", "--k", "3",
                               "--budget", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["fused"]
        assert all(0.0 <= item["score"] <= 1.0 for item in payload["fused"])

    def test_bench_writes_report(self, tmp_path, built_store):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli("--store", str(built_store), "bench", "hanoi",
                               "--disks", "2,3", "--proposer", "optimal",
                               "--episodes", "2", "--repairs", "0", "--seed", "1",
                               "--out", str(out_file))
        assert code == 0
        report = json.loads(out_file.read_text(encoding="utf-8"))
        assert {c["disks"] for c in report["cells"]} == {2, 3}

    def test_build_is_idempotent_via_cli(self, tmp_path):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        args = ("--store", str(store), "--json", "build",
                "--sources", str(DATA / "corpus"),
                "--shapes", str(DATA / "corpus_shapes.ttl"),
                "--schema", str(DATA / "corpus_schema.ttl"),
                "--patterns", str(DATA / "corpus_patterns.json"))
        code, out, err = run_cli(*args)
        assert code == 0, err
        first = json.loads(out)
        code, out, err = run_cli(*args)
        assert code == 0, err
        second = json.loads(out)
        assert first["accepted"] > 0 and first["version"] == 1
        assert second["accepted"] == 0 and second["version"] == 1
        assert not (store / "delta-2.ttl").exists()

    def test_subcommands_deterministic(self, built_store):
        for args in (
            ("--json", "retrieve", "--query", "Plant7", "--radius", "2", "--k", "4",
             "--budget", "6"),
            ("--json", "query", "PREFIX prop: <http://ontomem.dev/ns/prop#> "
             "SELECT ?d WHERE { ?d prop:locatedIn ?s }"),
            ("--json", "bench", "hanoi", "--disks", "3", "--proposer", "corrupted:0.3",
             "--episodes", "15", "--repairs", "1", "--seed", "21"),
        ):
            first = run_cli("--store", str(built_store), *args)
            second = run_cli("--store", str(built_store), *args)
            assert first == second

    def test_conflicting_corpus_lands_in_quarantine(self, tmp_path):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        sources = tmp_path / "docs"
        sources.mkdir()
        # two locations for one device; the schema makes location functional
        (sources / "a.txt").write_text("Pump1 located in SiteA.", encoding="utf-8")
        (sources / "b.txt").write_text("Pump1 located in SiteB.", encoding="utf-8")
        schema = tmp_path / "schema.ttl"
        schema.write_text(
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "@prefix prop: <http://ontomem.dev/ns/prop#> .\n"
            "prop:located-in a owl:FunctionalProperty .\n", encoding="utf-8")
        patterns = tmp_path / "patterns.json"
        patterns.write_text(json.dumps({"relations": {"located in": "located in"}}),
                            encoding="utf-8")
        code, out, err = run_cli("--store", str(store), "--json", "build",
                                 "--sources", str(sources), "--schema", str(schema),
                                 "--patterns", str(patterns))
        assert code == 0, err
        summary = json.loads(out)
        # every conflict participant is a candidate here: both rival locations
        # and the functional axiom itself
        assert summary["quarantined"] == 3
        log_lines = [json.loads(line) for line in
                     (store / "quarantine.jsonl").read_text(encoding="utf-8").splitlines()]
        assert len(log_lines) == 3
        assert all(entry["reason"] == "consistency conflict" for entry in log_lines)
        assert all(entry["conflicts"] for entry in log_lines)
        # trusted graph stays consistent: neither location was admitted
        handle = load_store(store)
        from ontomem.rdf_core import Iri
        assert handle.store.trusted.match(None, Iri("http://ontomem.dev/ns/prop#located-in"),
                                          None) == []

    def test_transcript_extractor_build_e2e(self, tmp_path):
        from ontomem.builder import (Chunk, RulePatternExtractor, chunk_hash, record_to_json)
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        sources = tmp_path / "docs"
        sources.mkdir()
        text = "Pump1 located in SiteA."
        (sources / "a.txt").write_text(text, encoding="utf-8")
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        chunk = Chunk("a.txt", 0, (0, len(text)), text)
        recorded = RulePatternExtractor({"located in": "located in"},
                                        {"Pump1": "Device", "SiteA": "Site"}).extract(chunk)
        (transcripts / f"{chunk_hash(chunk)}.json").write_text(
            json.dumps(record_to_json(recorded)), encoding="utf-8")
        code, out, err = run_cli("--store", str(store), "--json", "build",
                                 "--sources", str(sources),
                                 "--extractor", "transcript",
                                 "--transcripts", str(transcripts))
        assert code == 0, err
        assert json.loads(out)["accepted"] == 3  # relation + two type triples

    def test_session_memory_via_dialogue_build(self, tmp_path):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        sources = tmp_path / "docs"
        sources.mkdir()
        (sources / "support.dialogue.txt").write_text(
            "Press1 located in Plant7\nScanner9 located in LabNorth\n", encoding="utf-8")
        patterns = tmp_path / "patterns.json"
        patterns.write_text(json.dumps({"relations": {"located in": "located in"}}),
                            encoding="utf-8")
        code, _, err = run_cli("--store", str(store), "build", "--sources", str(sources),
                               "--patterns", str(patterns))
        assert code == 0, err
        # session memory: DIALOGUE-origin facts for this source feed the user channel
        code, out, _ = run_cli("--store", str(store), "--json", "retrieve",
                               "--query", "unrelated words only",
                               "--session", "support.dialogue.txt")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["user_memory"]) == 2
        assert any(item["channel"] == "user" for item in payload["fused"])
        # a different session id sees nothing
        code, out, _ = run_cli("--store", str(store), "--json", "retrieve",
                               "--query", "unrelated words only", "--session", "other")
        assert json.loads(out)["user_memory"] == []

    def test_console_script_subprocess(self, tmp_path, built_store):
        exe = shutil.which("ontomem")
        cmd = [exe] if exe else [sys.executable, "-m", "ontomem.cli"]
        proc = subprocess.run(
            cmd + ["--store", str(built_store), "--json", "query", "ASK WHERE { ?s ?p ?o }"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"ask": True}

    def test_store_rebuild_after_deleting_trusted(self, tmp_path):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        run_cli("--store", str(store), "build",
                "--sources", str(DATA / "corpus"),
                "--shapes", str(DATA / "corpus_shapes.ttl"),
                "--schema", str(DATA / "corpus_schema.ttl"),
                "--patterns", str(DATA / "corpus_patterns.json"))
        handle = load_store(store)
        before = handle.store.trusted.copy()
        (store / "trusted.ttl").unlink()
        rebuilt = rebuild_trusted(store)
        assert isomorphic(rebuilt, before)


class TestCommitPath:
    """What one `build` writes, all of it through `save_commit`."""

    PATTERNS = {"relations": {"located in": "located in"}}

    def _build(self, store, sources, *extra):
        patterns = sources.parent / "patterns.json"
        patterns.write_text(json.dumps(self.PATTERNS), encoding="utf-8")
        code, out, err = run_cli("--store", str(store), "--json", "build",
                                 "--sources", str(sources), "--patterns", str(patterns), *extra)
        assert code == 0, err
        return json.loads(out)

    def _logs(self, store):
        return [json.loads(line) for line in
                (store / "logs.jsonl").read_text(encoding="utf-8").splitlines()]

    def _store_and_docs(self, tmp_path, docs):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        sources = tmp_path / "docs"
        sources.mkdir()
        for name, text in docs.items():
            (sources / name).write_text(text, encoding="utf-8")
        return store, sources

    def test_reasoner_named_schema_file_stays_trusted(self, tmp_path):
        # A schema file named like the reasoner's provenance source: its triple
        # is committed, so it belongs in trusted.ttl as well as in delta-1.ttl.
        store, sources = self._store_and_docs(tmp_path, {})
        schema = tmp_path / "reasoner"
        schema.write_text("@prefix ex: <http://ex.org/> .\nex:a ex:p ex:b .\n", encoding="utf-8")
        code, _, err = run_cli("--store", str(store), "build", "--sources", str(sources),
                               "--schema", str(schema),
                               "--extractor", "transcript", "--transcripts", str(sources))
        assert code == 0, err
        from ontomem.turtle_io import parse_turtle
        trusted, _ = parse_turtle((store / "trusted.ttl").read_text(encoding="utf-8"))
        assert trusted.triple_set() == rebuild_trusted(store).triple_set()
        assert len(load_store(store).store.trusted) == 1

    def test_build_logs_one_line_per_chunk_in_order(self, tmp_path):
        store, sources = self._store_and_docs(tmp_path, {
            "b.txt": "Pump1 located in SiteA.\n\nPump2 located in SiteB.\n",
            "a.txt": "Pump3 located in SiteC.",
        })
        self._build(store, sources)
        assert self._logs(store) == [
            {"id": "a.txt#0", "text": "Pump3 located in SiteC."},
            {"id": "b.txt#0", "text": "Pump1 located in SiteA.\n\n"},
            {"id": "b.txt#1", "text": "Pump2 located in SiteB.\n"},
        ]

    def test_repeated_build_appends_nothing(self, tmp_path):
        store, sources = self._store_and_docs(tmp_path, {"a.txt": "Pump3 located in SiteC."})
        assert self._build(store, sources)["version"] == 1
        before = {name: (store / name).read_bytes()
                  for name in ("logs.jsonl", "version", "quarantine.jsonl")}
        summary = self._build(store, sources)
        assert summary["accepted"] == 0 and summary["version"] == 1
        assert {name: (store / name).read_bytes() for name in before} == before

    def test_all_quarantined_build_logs_chunks_at_unchanged_version(self, tmp_path):
        store, sources = self._store_and_docs(tmp_path, {"a.txt": "Oven7 located in Plant7."})
        schema = tmp_path / "schema.ttl"
        schema.write_text(
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "@prefix prop: <http://ontomem.dev/ns/prop#> .\n"
            "prop:located-in a owl:FunctionalProperty .\n", encoding="utf-8")
        assert self._build(store, sources, "--schema", str(schema))["version"] == 1
        for name, text in {"b.txt": "Pump1 located in SiteA.",
                           "c.txt": "Pump1 located in SiteB."}.items():
            (sources / name).write_text(text, encoding="utf-8")
        summary = self._build(store, sources)
        assert summary == {"version": 1, "accepted": 0, "quarantined": 2, "delta_file": None}
        assert (store / "version").read_text(encoding="utf-8") == "1\n"
        assert [e["id"] for e in self._logs(store)] == ["a.txt#0", "b.txt#0", "c.txt#0"]
        lines = [json.loads(line) for line in
                 (store / "quarantine.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [(e["reason"], e["version"]) for e in lines] == [("consistency conflict", 1)] * 2

    def test_new_chunk_is_its_own_top_vector_hit(self, tmp_path, built_store):
        store = tmp_path / "s"
        shutil.copytree(built_store, store)
        sources = tmp_path / "docs"
        sources.mkdir()
        text = "Kiln4 located in QuarryWest, beside the old lime works."
        (sources / "zz-new.txt").write_text(text, encoding="utf-8")
        self._build(store, sources)
        code, out, err = run_cli("--store", str(store), "--json", "retrieve", "--query", text)
        assert code == 0, err
        top = json.loads(out)["vector_hits"][0]
        assert (top["id"], top["payload"]) == ("zz-new.txt#0", text)
        assert top["score"] == pytest.approx(1.0)

    def test_version_is_written_last(self, tmp_path, monkeypatch):
        store, sources = self._store_and_docs(tmp_path, {"a.txt": "Pump3 located in SiteC."})
        written = []
        write_text, open_ = Path.write_text, Path.open

        def record_write(path, *args, **kwargs):
            written.append(path.name)
            return write_text(path, *args, **kwargs)

        def record_open(path, mode="r", *args, **kwargs):
            if "r" not in mode:
                written.append(path.name)
            return open_(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", record_write)
        monkeypatch.setattr(Path, "open", record_open)
        self._build(store, sources)
        assert written[-1] == "version"
        assert {"delta-1.ttl", "trusted.ttl", "provenance.jsonl", "registry.ttl",
                "quarantine.jsonl", "logs.jsonl"} <= set(written[:-1])
