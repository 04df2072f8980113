import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ontomem.builder import EntityRegistry, GateResult, graph_candidates
from ontomem.rdf_core import isomorphic, triple_text
from ontomem.reasoner import materialize
from ontomem.store import (
    StoreLock,
    StoreLockError,
    graph_at_version,
    init_store,
    load_store,
    rebuild_trusted,
    registry_from_graph,
    save_commit,
)
from ontomem.toolbus import svc_logic_check
from ontomem.turtle_io import parse_turtle
from conftest import DATA, run_cli
from oracles import oracle_registry_to_graph


class TestStoreLayout:
    def test_layout_files_exist(self, built_store):
        for name in ("trusted.ttl", "version", "quarantine.jsonl",
                     "registry.ttl", "provenance.jsonl", "delta-1.ttl"):
            assert (built_store / name).exists(), name

    def test_init_writes_no_config(self, tmp_path):
        init_store(tmp_path / "s")
        assert not (tmp_path / "s" / "config").exists()

    def test_config_of_an_older_store_is_ignored(self, tmp_path):
        # the nine keys that older code wrote and read, three with other values
        old_config = ("chunk_size=64\nembedding_dimension=256\ninstance_ns=http://x.org/\n"
                      "property_ns=http://ontomem.dev/ns/prop#\n"
                      "schema_ns=http://ontomem.dev/ns/schema#\nweight_graph=9\n"
                      "weight_tool=1.0\nweight_user=1.0\nweight_vector=1.0\n")
        outputs = []
        for name, config in (("plain", None), ("older", old_config)):
            store = tmp_path / name
            run_cli("--store", str(store), "init")
            if config:
                (store / "config").write_text(config, encoding="utf-8")
            code, _, err = run_cli(
                "--store", str(store), "build", "--sources", str(DATA / "corpus"),
                "--shapes", str(DATA / "corpus_shapes.ttl"),
                "--schema", str(DATA / "corpus_schema.ttl"),
                "--patterns", str(DATA / "corpus_patterns.json"))
            assert code == 0, err
            retrieved = run_cli("--store", str(store), "--json", "retrieve", "--query", "Acme")
            queried = run_cli("--store", str(store), "--json", "query",
                              "SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
            assert retrieved[0] == queried[0] == 0
            outputs.append(((store / "trusted.ttl").read_bytes(), (store / "delta-1.ttl").read_bytes(),
                            retrieved[1], queried[1]))
        assert json.loads(outputs[0][2])["fused"]
        assert outputs[0] == outputs[1]

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
            provs = handle.store.provenance[t]
            assert provs
            sources.update(p.source_id for p in provs)
        assert any(s.endswith(".txt") for s in sources)  # real doc ids, not synthetic

    def test_registry_round_trip(self):
        registry = EntityRegistry()
        a = registry.resolve_or_mint("ACME Corp")
        registry.add_alias(a, "ACME")
        b = registry.resolve_or_mint("Bolt Co")
        registry.add_alias(b, "ACME")  # now ambiguous
        g = oracle_registry_to_graph(registry)
        back = registry_from_graph(g, registry.instance_ns)
        assert back.resolve("acme corp") == a
        assert "ACME" in back.ambiguous

    @pytest.fixture(scope="class")
    def built_and_loaded(self, tmp_path_factory):
        """The store of the `build` that committed the bundled corpus, and the
        store that `load_store` reads back from its files."""
        import ontomem.cli as cli
        built = []

        def capture(handle, delta):
            built.append(handle.store)
            return save_commit(handle, delta)

        root = tmp_path_factory.mktemp("round-trip") / "store"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "save_commit", capture)
            run_cli("--store", str(root), "init")
            code, _, err = run_cli(
                "--store", str(root), "build", "--sources", str(DATA / "corpus"),
                "--shapes", str(DATA / "corpus_shapes.ttl"),
                "--schema", str(DATA / "corpus_schema.ttl"),
                "--patterns", str(DATA / "corpus_patterns.json"))
        assert code == 0, err
        return built[0], load_store(root).store

    def test_reload_keeps_every_provenance_record(self, built_and_loaded):
        built, loaded = built_and_loaded
        assert loaded.provenance and loaded.provenance == built.provenance

    def test_reload_keeps_registry_entries(self, built_and_loaded):
        built, loaded = built_and_loaded
        assert any(e.first_seen for e in built.registry.entries.values())
        assert loaded.registry.entries == built.registry.entries

    def test_lock_excludes_second_writer(self, tmp_path):
        with StoreLock(tmp_path):
            with pytest.raises(StoreLockError):
                with StoreLock(tmp_path):
                    pass
        with StoreLock(tmp_path):  # released after exit
            pass

    def test_lock_dies_with_its_holder(self, tmp_path):
        script = ("import sys, time\nfrom ontomem.store import StoreLock\n"
                  "with StoreLock(sys.argv[1]):\n    print('locked', flush=True)\n"
                  "    time.sleep(60)\n")
        holder = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)],
                                  stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline() == "locked\n"
            with pytest.raises(StoreLockError):
                with StoreLock(tmp_path):
                    pass
        finally:
            holder.kill()  # SIGKILL: the holder runs no exit code
            holder.wait()
            holder.stdout.close()
        with StoreLock(tmp_path):
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

    @pytest.mark.parametrize("content", [None, b"\xff\xfe"], ids=["missing", "not_utf8"])
    def test_check_unreadable_claims_file_exit_2(self, tmp_path, content):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        claims = tmp_path / "claims.jsonl"
        if content is not None:
            claims.write_bytes(content)
        code, out, err = run_cli("--store", str(store), "check", "--claims", str(claims))
        assert code == 2 and out == ""
        assert err.startswith("cannot read claims file: ")

    def test_check_non_string_term_is_a_diagnostic(self, tmp_path, regulatory_store):
        bad = {"subject": 5, "predicate": "<http://e/p>", "object": "<http://e/o>"}
        good = {"subject": "<http://e/s>", "predicate": "<http://e/p>", "object": "<http://e/o>"}
        claims = tmp_path / "claims.jsonl"
        claims.write_text(json.dumps(bad) + "\n", encoding="utf-8")
        code, out, err = run_cli("--store", str(regulatory_store), "check", "--claims", str(claims))
        assert (code, out) == (2, "")
        assert err == "line 1: term text must be a string: 5\nno valid claims in input\n"
        claims.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n", encoding="utf-8")
        code, out, err = run_cli("--store", str(regulatory_store), "--json",
                                 "check", "--claims", str(claims))
        assert code == 0
        payload = json.loads(out)
        assert payload["diagnostics"] == ["line 1: term text must be a string: 5"]
        assert [v["status"] for v in payload["verdicts"]] == ["NOT_FOUND"]

    def test_check_inconsistent_conditions_exit_2(self, tmp_path, regulatory_store):
        # the sponsor assumed to be an application, a class disjoint with its own
        claim = {"subject": "<http://ontomem.dev/ns/ind#sponsor-1>",
                 "predicate": "<http://ontomem.dev/ns/reg#mayProceed>",
                 "object": "<http://ontomem.dev/ns/ind#IND-1>",
                 "conditions": [{"subject": "<http://ontomem.dev/ns/ind#sponsor-1>",
                                 "predicate": "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>",
                                 "object": "<http://ontomem.dev/ns/reg#Application>"}]}
        claims = tmp_path / "claims.jsonl"
        claims.write_text(json.dumps(claim) + "\n", encoding="utf-8")
        code, out, err = run_cli("--store", str(regulatory_store), "--json",
                                 "check", "--claims", str(claims))
        assert code == 2 and out == ""
        assert err == ("error: claim conditions are inconsistent with the trusted graph "
                       "(1 conflict(s))\n")

    def test_query_imports_only_its_layers(self, built_store):
        # in a fresh interpreter: this one has imported every layer already
        script = ("import json, sys\n"
                  "from ontomem.cli import main\n"
                  "code = main(['--store', sys.argv[1], '--json', 'query', "
                  "'ASK WHERE { ?s ?p ?o }'])\n"
                  "print(json.dumps([code, sorted(sys.modules)]))\n")
        proc = subprocess.run([sys.executable, "-c", script, str(built_store)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        answer, _, last = proc.stdout.rstrip("\n").rpartition("\n")
        code, modules = json.loads(last)
        assert code == 0 and json.loads(answer) == {"ask": True}
        unused = {f"ontomem.{m}" for m in
                  ("builder", "toolbus", "hanoi", "factcheck", "fusion", "reasoner", "shacl")}
        assert unused.isdisjoint(modules), sorted(unused & set(modules))

    def test_query_reads_only_version_and_trusted(self, built_store, monkeypatch):
        read = []
        for name in ("open", "read_text", "read_bytes"):
            def record(path, *args, _original=getattr(Path, name), **kwargs):
                read.append(path.name)
                return _original(path, *args, **kwargs)
            monkeypatch.setattr(Path, name, record)
        code, out, _ = run_cli("--store", str(built_store), "--json", "query",
                               "ASK WHERE { ?s ?p ?o }")
        assert code == 0 and json.loads(out) == {"ask": True}
        assert "trusted.ttl" in read and set(read) <= {"version", "trusted.ttl"}

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

    def test_misspelt_shape_term_warns_on_build_and_validate(self, tmp_path):
        shapes = tmp_path / "shapes.ttl"
        shapes.write_text(
            "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
            "@prefix schema: <http://ontomem.dev/ns/schema#> .\n"
            "@prefix prop: <http://ontomem.dev/ns/prop#> .\n"
            "schema:DiskShape a sh:NodeShape ; sh:targetClass schema:Disk ;\n"
            "  sh:property <http://ex.org/PS> .\n"
            "<http://ex.org/PS> sh:path prop:size ; sh:minCoutn 1 .\n", encoding="utf-8")
        warning = "warning: unknown SHACL term sh:minCoutn on <http://ex.org/PS>\n"
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
        code, out, err = run_cli("--store", str(store), "build", "--sources", str(sources),
                                 "--patterns", str(patterns), "--shapes", str(shapes))
        assert (code, err) == (0, warning) and "accepted 3" in out

        # the misspelt minCount constrains nothing, so the Disk without a size conforms
        code, out, err = run_cli("--store", str(store), "validate", "--shapes", str(shapes))
        assert (code, out, err) == (0, "conforms\n", warning)
        code, out, err = run_cli("--store", str(store), "--json", "validate", "--shapes", str(shapes))
        assert (code, err) == (0, warning)
        assert json.loads(out) == {"conforms": True, "results": [],
                                   "warnings": [warning[len("warning: "):-1]]}

    def test_validate_uncompilable_shape_pattern_exit_2(self, tmp_path, built_store):
        shapes = tmp_path / "shapes.ttl"
        shapes.write_text(
            "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
            "@prefix schema: <http://ontomem.dev/ns/schema#> .\n"
            "@prefix prop: <http://ontomem.dev/ns/prop#> .\n"
            "schema:DiskShape a sh:NodeShape ; sh:targetClass schema:Disk ; sh:property _:p .\n"
            '_:p sh:path prop:size ; sh:pattern "(" .\n', encoding="utf-8")
        code, _, err = run_cli("--store", str(built_store), "validate", "--shapes", str(shapes))
        assert code == 2
        assert err.startswith("error: sh:pattern of http://ontomem.dev/ns/prop#size does not compile")

    def test_validate_logic_consistent_store(self, built_store):
        code, out, _ = run_cli("--store", str(built_store), "validate", "--logic")
        assert (code, out) == (0, "consistent\n")

    def test_validate_logic_reports_committed_clash(self, tmp_path):
        # committed past the gate, as a store written by another tool could hold it
        store = tmp_path / "s"
        handle = init_store(store)
        graph, _ = parse_turtle(
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "@prefix ex: <http://ex.org/> .\n"
            "ex:p a owl:FunctionalProperty .\n"
            "ex:s ex:p ex:o1 , ex:o2 .\n"
            "ex:t ex:p ex:o1 , ex:o3 .\n")
        save_commit(handle, handle.store.commit(
            GateResult(graph_candidates(graph, "clash.ttl"), []), handle.store.version))
        code, out, _ = run_cli("--store", str(store), "validate", "--logic")
        assert code == 1
        assert out.splitlines() == ["conflict: FUNCTIONAL_PROPERTY on <http://ex.org/s>",
                                    "conflict: FUNCTIONAL_PROPERTY on <http://ex.org/t>"]
        code, out, _ = run_cli("--store", str(store), "--json", "validate", "--logic")
        assert code == 1
        assert json.loads(out) == svc_logic_check(load_store(store))

    @pytest.mark.parametrize("query, column", [
        ('SELECT ?s WHERE { ?s ?p ?o FILTER(regex(?o, "(")) }', 45),
        ("SELECT ?s WHERE { ?s <> ?o }", 22),
        ("SELECT ?s WHERE { ?s <a\u00a0b> ?o }", 22),
    ])
    def test_malformed_query_exit_2_with_position(self, built_store, query, column):
        code, out, err = run_cli("--store", str(built_store), "query", query)
        assert code == 2 and out == ""
        assert err.startswith(f"error: 1:{column}: ")

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
        # exactly what the closure of version 1 holds beyond that of version 0
        inferred = (materialize(graph_at_version(built_store, 1)).triple_set()
                    - materialize(graph_at_version(built_store, 0)).triple_set())
        assert payload["added"] == sorted(map(triple_text, inferred))
        assert payload["removed"] == []

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

    def test_output_does_not_depend_on_hash_order(self, tmp_path):
        # A term hashes by its address, so a set of terms iterates in an order
        # that differs from run to run: stores and stdout must not show it.
        script = ("import sys\n"
                  "from ontomem.cli import main\n"
                  "data = sys.argv[1]\n"
                  "for args in (['init'],\n"
                  "             ['build', '--sources', data + '/corpus', '--shapes', data + '/corpus_shapes.ttl',\n"
                  "              '--schema', data + '/corpus_schema.ttl', '--patterns', data + '/corpus_patterns.json'],\n"
                  "             ['--json', 'query', 'SELECT ?s ?p ?o WHERE { ?s ?p ?o }'],\n"
                  "             ['check', '--claims', data + '/regulatory_claims.jsonl'],\n"
                  "             ['diff', '0', '1', '--include-inferred']):\n"
                  "    print('exit', main(['--store', 'store', *args]), flush=True)\n")
        runs = []
        for seed in ("0", "1"):
            cwd = tmp_path / f"seed{seed}"
            cwd.mkdir()
            proc = subprocess.run([sys.executable, "-c", script, str(DATA)], cwd=cwd, capture_output=True,
                                  text=True, timeout=300, env={**os.environ, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            files = {path.relative_to(cwd): path.read_bytes() for path in sorted(cwd.rglob("*"))
                     if path.is_file()}
            runs.append((proc.stdout, files))
        (out0, files0), (out1, files1) = runs
        assert [line for line in out0.splitlines() if line.startswith("exit")] == ["exit 0"] * 5
        assert sorted(files0) == sorted(files1) and len(files0) > 5
        for name in files0:
            assert files0[name] == files1[name], name
        assert out0 == out1

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


    @pytest.mark.parametrize("inferred", [(), ("--include-inferred",)], ids=["plain", "inferred"])
    def test_delta_above_the_committed_version_is_not_read(self, tmp_path, built_store, inferred):
        # A build that died after writing delta-2.ttl, before `version`.
        store = tmp_path / "s"
        shutil.copytree(built_store, store)
        (store / "delta-2.ttl").write_text("<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .\n",
                                           encoding="utf-8")
        code, out, err = run_cli("--store", str(store), "--json", "diff", "1", "2", *inferred)
        assert (code, out, err) == (2, "", "error: versions must be <= 1, the committed version\n")
        assert rebuild_trusted(store).triple_set() == load_store(store).store.trusted.triple_set()

    def test_diff_negative_version_exit_2(self, built_store):
        code, out, err = run_cli("--store", str(built_store), "diff", "-1", "1")
        assert (code, out, err) == (2, "", "error: versions must be >= 0\n")

    def test_retrieve_k_checked_on_an_empty_log_exit_2(self, tmp_path):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        code, _, err = run_cli("--store", str(store), "retrieve", "--query", "x", "--k", "0")
        assert (code, err) == (2, "error: k must be >= 1\n")

    def test_query_over_the_solution_ceiling_exit_2(self, built_store, monkeypatch):
        import ontomem.sparql as sparql_module
        monkeypatch.setattr(sparql_module, "DEFAULT_SOLUTION_CEILING", 1000)
        code, out, err = run_cli("--store", str(built_store), "query",
                                 "SELECT ?a ?b WHERE { ?a ?p ?x . ?b ?q ?y }")
        assert (code, out) == (2, "")
        assert err == "error: query produced more than 1000 intermediate solutions\n"

    def test_bench_unreadable_transcript_exit_2(self, tmp_path):
        code, out, err = run_cli("bench", "hanoi", "--proposer", f"transcript:{tmp_path / 'none'}")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read transcript {tmp_path / 'none'}: ")

    def test_build_without_recorded_extraction_exit_2(self, tmp_path):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        sources, transcripts = tmp_path / "docs", tmp_path / "transcripts"
        sources.mkdir()
        transcripts.mkdir()
        (sources / "a.txt").write_text("Pump1 located in SiteA.", encoding="utf-8")
        code, out, err = run_cli("--store", str(store), "build", "--sources", str(sources),
                                 "--extractor", "transcript", "--transcripts", str(transcripts))
        assert (code, out) == (2, "")
        assert err.startswith("error: no recorded extraction for chunk a.txt#0 ")
        assert (store / "version").read_text(encoding="utf-8") == "0\n"

    @pytest.mark.parametrize("content, message", [
        ([1], "patterns file {path} must hold a JSON object"),
        ({"relations": {"located in": "located in"}, "predicates": [1]},
         "patterns table 'predicates' in {path} must be a JSON object"),
    ], ids=["not_an_object", "table_not_an_object"])
    def test_build_malformed_patterns_file_exit_2(self, tmp_path, content, message):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        sources = tmp_path / "docs"
        sources.mkdir()
        (sources / "a.txt").write_text("Pump1 located in SiteA.", encoding="utf-8")
        patterns = tmp_path / "patterns.json"
        patterns.write_text(json.dumps(content), encoding="utf-8")
        code, out, err = run_cli("--store", str(store), "build", "--sources", str(sources),
                                 "--patterns", str(patterns))
        assert (code, out, err) == (2, "", f"error: {message.format(path=patterns)}\n")
        assert (store / "version").read_text(encoding="utf-8") == "0\n"

    def test_check_names_a_missing_term_and_a_bad_source_text(self, tmp_path, regulatory_store):
        good = {"subject": "<http://e/s>", "predicate": "<http://e/p>", "object": "<http://e/o>"}
        claims = tmp_path / "claims.jsonl"
        claims.write_text("\n".join(json.dumps(c) for c in [
            {"subject": "<http://e/s>", "predicate": "<http://e/p>"},
            good | {"source_text": [1]}, good | {"source_text": "s"}]) + "\n", encoding="utf-8")
        code, out, err = run_cli("--store", str(regulatory_store), "--json",
                                 "check", "--claims", str(claims))
        assert code == 0
        diagnostics = ["line 1: missing 'object'", "line 2: 'source_text' must be a string or null"]
        assert err == "".join(f"{d}\n" for d in diagnostics)
        payload = json.loads(out)
        assert payload["diagnostics"] == diagnostics
        assert [v["claim"]["source_text"] for v in payload["verdicts"]] == ["s"]


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
        # A schema file named `reasoner`: its triple is committed, so it
        # belongs in trusted.ttl as well as in delta-1.ttl.
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

    def test_schema_blank_nodes_are_skolemized(self, tmp_path):
        # The store's files cannot keep a blank node's label, so the builder
        # names each one by its source: every invariant holds after each commit.
        from ontomem.rdf_core import Iri
        store, sources = self._store_and_docs(tmp_path, {})
        for version, (name, label, predicate) in enumerate(
                [("one.ttl", "x", "p"), ("two.ttl", "y", "q")], start=1):
            schema = tmp_path / name
            schema.write_text(f"@prefix ex: <http://ex.org/> .\n_:{label} ex:{predicate} ex:a .\n",
                              encoding="utf-8")
            assert self._build(store, sources, "--schema", str(schema))["version"] == version
            written = (store / "trusted.ttl").read_text(encoding="utf-8")
            assert parse_turtle(written)[0].triple_set() == rebuild_trusted(store).triple_set()
            reloaded = load_store(store).store
            assert len(reloaded.trusted) == version
            [triple] = reloaded.trusted.match(None, Iri(f"http://ex.org/{predicate}"))
            assert [p.source_id for p in reloaded.provenance[triple]] == [name]
            assert "_:" not in written
        summary = self._build(store, sources, "--schema", str(schema))
        assert (summary["accepted"], summary["version"]) == (0, 2)

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

    def test_edited_document_logs_its_new_text(self, tmp_path):
        store, sources = self._store_and_docs(tmp_path, {"a.txt": "Pump3 located in SiteC."})
        assert self._build(store, sources)["version"] == 1
        (sources / "a.txt").write_text("Pump4 located in SiteD.", encoding="utf-8")
        assert self._build(store, sources)["version"] == 2
        assert self._logs(store) == [{"id": "a.txt#0", "text": "Pump3 located in SiteC."},
                                     {"id": "a.txt#0", "text": "Pump4 located in SiteD."}]
        before = (store / "logs.jsonl").read_bytes()
        self._build(store, sources)
        assert (store / "logs.jsonl").read_bytes() == before
        code, out, err = run_cli("--store", str(store), "--json", "retrieve",
                                 "--query", "Pump4 SiteD", "--k", "1")
        assert code == 0, err
        top = json.loads(out)["vector_hits"][0]
        assert (top["id"], top["payload"]) == ("a.txt#0", "Pump4 located in SiteD.")

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

    def test_build_cuts_a_torn_log_tail(self, tmp_path):
        store, sources = self._store_and_docs(tmp_path, {"a.txt": "Pump3 located in SiteC."})
        self._build(store, sources)
        with (store / "logs.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"id": "dead.txt#0", "text": "Pump9 loc')  # a writer died mid-line
        (sources / "b.txt").write_text("Pump4 located in SiteD.", encoding="utf-8")
        assert self._build(store, sources)["version"] == 2
        assert [e["id"] for e in self._logs(store)] == ["a.txt#0", "b.txt#0"]
        code, out, err = run_cli("--store", str(store), "--json", "retrieve",
                                 "--query", "Pump4 located in SiteD.")
        assert code == 0, err
        assert json.loads(out)["vector_hits"][0]["id"] == "b.txt#0"

    def test_build_cuts_a_torn_quarantine_tail(self, tmp_path):
        store, sources = self._store_and_docs(tmp_path, {"a.txt": "Oven7 located in Plant7."})
        schema = tmp_path / "schema.ttl"
        schema.write_text(
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "@prefix prop: <http://ontomem.dev/ns/prop#> .\n"
            "prop:located-in a owl:FunctionalProperty .\n", encoding="utf-8")
        self._build(store, sources, "--schema", str(schema))
        with (store / "quarantine.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"reason": "consistency')  # a writer died mid-line
        for name, text in {"b.txt": "Pump1 located in SiteA.",
                           "c.txt": "Pump1 located in SiteB."}.items():
            (sources / name).write_text(text, encoding="utf-8")
        assert self._build(store, sources)["quarantined"] == 2
        lines = [json.loads(line) for line in
                 (store / "quarantine.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [(e["reason"], e["version"]) for e in lines] == [("consistency conflict", 1)] * 2

    def test_line_separator_in_chunk_keeps_log_readable(self, tmp_path):
        # U+2028 is a line break to str.splitlines but not to JSON Lines.
        text = "Pump3 located in SiteC.\u2028Checked daily."
        store, sources = self._store_and_docs(tmp_path, {"a.txt": text})
        self._build(store, sources)
        (sources / "b.txt").write_text("Pump4 located in SiteD.", encoding="utf-8")
        assert self._build(store, sources)["version"] == 2
        code, out, err = run_cli("--store", str(store), "--json", "retrieve", "--query", text)
        assert code == 0, err
        assert json.loads(out)["vector_hits"][0]["id"] == "a.txt#0"

    def test_rowset_lines_end_at_line_feed_only(self, tmp_path):
        # JSON allows U+2028 raw inside a string, so it does not end a row.
        rows = [{"name": "Pump3", "note": "checked\u2028daily"}, {"name": "Pump4"}]
        store, sources = self._store_and_docs(tmp_path, {
            "rows.jsonl": "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows)})
        assert self._build(store, sources)["version"] == 0
        logged = (store / "logs.jsonl").read_text(encoding="utf-8").split("\n")
        assert [json.loads(line) for line in logged if line] == [
            {"id": f"rows.jsonl#{i}", "text": json.dumps(r, sort_keys=True, ensure_ascii=False)}
            for i, r in enumerate(rows)]

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
        write_text, open_, replace = Path.write_text, Path.open, os.replace

        def record_write(path, *args, **kwargs):
            written.append(path.name)
            return write_text(path, *args, **kwargs)

        def record_open(path, mode="r", *args, **kwargs):
            if "r" not in mode:
                written.append(path.name)
            return open_(path, mode, *args, **kwargs)

        def record_replace(source, target):
            written.append(f"{Path(source).name} -> {Path(target).name}")
            return replace(source, target)

        monkeypatch.setattr(Path, "write_text", record_write)
        monkeypatch.setattr(Path, "open", record_open)
        monkeypatch.setattr(os, "replace", record_replace)
        self._build(store, sources)
        # the commit point replaces `version` whole, after every other write
        commit = written.index("version.tmp -> version")
        assert {"delta-1.ttl", "trusted.ttl", "provenance.jsonl", "registry.ttl",
                "quarantine.jsonl", "logs.jsonl", "version.tmp"} <= set(written[:commit])
        # after it may come only the compaction of trusted.ttl
        assert set(written[commit + 1:]) <= {"trusted.ttl.tmp", "trusted.ttl.tmp -> trusted.ttl"}
