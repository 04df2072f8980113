import gc
import io
import itertools
import json
import shutil
import socket
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

from ontomem.builder import GateResult, graph_candidates
from ontomem.namespaces import RDF_TYPE, SCHEMA_NS
from ontomem.rdf_core import Iri, Origin, Triple, triple_text
from ontomem.reasoner import materialize
from ontomem import toolbus
from ontomem.store import graph_at_version, init_store, load_store, save_commit
from ontomem.toolbus import (
    INTERNAL_ERROR,
    INVALID_PARAMS,
    MAX_REQUEST_BYTES,
    METHOD_NOT_FOUND,
    PARSE_OR_REQUEST_ERROR,
    ToolBus,
    serve_stdio,
    serve_tcp,
    svc_diff,
)
from ontomem.turtle_io import parse_turtle
from conftest import DATA, run_cli


EX = "http://ex.org/"
EX_TTL = f"@prefix ex: <{EX}> .\n"


@pytest.fixture()
def bus(built_store):
    return ToolBus(load_store(built_store))


# a value of each param type that is of no other
WRONG = {str: 5, int: "1", bool: "false", list: "x"}
VALID = {str: "x", int: 0, bool: False, list: []}
DECLARED = [(method, key) for method, (_, spec, _) in toolbus._METHODS.items() for key in spec]
REQUIRED = [(method, key) for method, key in DECLARED
            if toolbus._METHODS[method][1][key][3] is toolbus._REQUIRED]


def required_params(method):
    return {key: VALID[param[1]] for key, param in toolbus._METHODS[method][1].items()
            if param[3] is toolbus._REQUIRED}


def call(bus, method, params=None, req_id=1):
    request = {"jsonrpc": "2.0", "id": req_id, "method": method}
    if params is not None:
        request["params"] = params
    return bus.dispatch(request)


# A claim whose conditions type one node with two classes the corpus schema
# declares disjoint.
CLASHING_CLAIM = {"subject": "<http://e/x>", "predicate": "<http://e/p>", "object": "<http://e/o>",
                  "conditions": [{"subject": "<http://e/x>", "predicate": f"<{RDF_TYPE}>",
                                  "object": f"<{SCHEMA_NS}{cls}>"} for cls in ("Device", "Employee")]}

# Each kind of error `dispatch` answers a well-formed request with: method,
# params, and the error's code and message.
DISPATCH_ERRORS = {
    "params_not_an_object": ("graph.query", [1], INVALID_PARAMS, "params must be an object"),
    "unknown_method": ("no.such", {}, METHOD_NOT_FOUND, "method not found: no.such"),
    "bad_param": ("graph.query", {"query": 5}, INVALID_PARAMS, "param 'query' must be str"),
    "caller_error": ("graph.query", {"query": "SELECT nonsense"}, INVALID_PARAMS,
                     "1:8: SELECT requires at least one variable"),
    "conditions_clash": ("fact.check", {"claims": [CLASHING_CLAIM]}, INTERNAL_ERROR,
                         "claim conditions are inconsistent with the trusted graph (1 conflict(s))"),
    "internal_error": ("graph.query", {"query": "ASK WHERE { ?s ?p ?o }"}, INTERNAL_ERROR,
                       "RuntimeError: boom"),
}


class TestDispatch:
    def test_tools_list_catalog(self, bus):
        response = call(bus, "tools.list")
        tools = response["result"]["tools"]
        assert len(tools) >= 6
        names = {t["name"] for t in tools}
        assert {"graph.query", "graph.validate", "graph.diff", "fact.check",
                "memory.retrieve", "bench.hanoi.run"} <= names
        assert all("params" in t for t in tools)

    def test_tools_list_names_every_method_and_accepted_param(self, bus):
        tools = {t["name"]: t["params"] for t in call(bus, "tools.list")["result"]["tools"]}
        assert set(tools) == set(toolbus._METHODS)
        assert "include_inferred" in tools["graph.diff"]
        assert "move_level" in tools["bench.hanoi.run"]

    def test_tools_list_is_the_captured_catalog(self, bus):
        expected = (Path(__file__).parent / "fixtures" / "tools_list.json").read_text(encoding="utf-8")
        assert bus.dispatch_line('{"jsonrpc": "2.0", "id": 1, "method": "tools.list"}') + "\n" == expected

    @pytest.mark.parametrize("method, key", DECLARED, ids=[f"{m}:{k}" for m, k in DECLARED])
    def test_every_declared_param_is_type_checked_32602(self, bus, method, key):
        _, kind, item, _ = toolbus._METHODS[method][1][key]
        params = required_params(method) | {key: [WRONG[item]] if item else WRONG[kind]}
        error = call(bus, method, params)["error"]
        assert error["code"] == INVALID_PARAMS
        assert error["message"].startswith(f"param {key!r} must be ")

    @pytest.mark.parametrize("method, key", REQUIRED, ids=[f"{m}:{k}" for m, k in REQUIRED])
    def test_every_required_param_is_required_32602(self, bus, method, key):
        params = required_params(method)
        del params[key]
        assert call(bus, method, params)["error"] == {
            "code": INVALID_PARAMS, "message": f"missing required param {key!r}"}

    def test_fact_check_types_claims_beside_a_claims_file_32602(self, bus):
        params = {"claims_file": str(DATA / "regulatory_claims.jsonl"), "claims": "not a list"}
        assert call(bus, "fact.check", params)["error"] == {
            "code": INVALID_PARAMS, "message": "param 'claims' must be list"}
        assert call(bus, "fact.check", {})["error"] == {
            "code": INVALID_PARAMS, "message": "missing required param 'claims'"}

    def test_fact_check_non_string_term_is_a_diagnostic(self, bus):
        bad = {"subject": 5, "predicate": "<http://e/p>", "object": "<http://e/o>"}
        good = {"subject": "<http://e/s>", "predicate": "<http://e/p>", "object": "<http://e/o>"}
        assert call(bus, "fact.check", {"claims": [bad]})["error"] == {
            "code": INVALID_PARAMS, "message": "no valid claims supplied"}
        result = call(bus, "fact.check", {"claims": [bad, good]})["result"]
        assert result["diagnostics"] == ["line 1: term text must be a string: 5"]
        assert [v["status"] for v in result["verdicts"]] == ["NOT_FOUND"]

    def test_fact_check_names_the_field_a_claim_gets_wrong(self, bus):
        good = {"subject": "<http://e/s>", "predicate": "<http://e/p>", "object": "<http://e/o>"}
        result = call(bus, "fact.check", {"claims": [1, good | {"conditions": 5}, good]})["result"]
        assert result["diagnostics"] == ["line 1: claim must be a JSON object",
                                         "line 2: 'conditions' must be a list of objects"]
        assert [v["status"] for v in result["verdicts"]] == ["NOT_FOUND"]

    def test_fact_check_names_a_missing_term_and_a_bad_source_text(self, bus):
        good = {"subject": "<http://e/s>", "predicate": "<http://e/p>", "object": "<http://e/o>"}
        no_predicate = {"subject": "<http://e/s>", "object": "<http://e/o>"}
        claims = [no_predicate, good | {"conditions": [no_predicate]}, good | {"source_text": [1]},
                  good | {"source_text": 5}, good | {"source_text": None}, good | {"source_text": "s"}]
        result = call(bus, "fact.check", {"claims": claims})["result"]
        assert result["diagnostics"] == ["line 1: missing 'predicate'", "line 2: missing 'predicate'",
                                         "line 3: 'source_text' must be a string or null",
                                         "line 4: 'source_text' must be a string or null"]
        assert [v["claim"]["source_text"] for v in result["verdicts"]] == [None, "s"]

    @pytest.mark.parametrize("kind", DISPATCH_ERRORS)
    def test_each_error_kind_answers_a_request_and_not_a_notification(self, bus, monkeypatch, kind):
        method, params, code, message = DISPATCH_ERRORS[kind]
        if kind == "internal_error":
            def broken(handle, text):
                raise RuntimeError("boom")
            monkeypatch.setattr(toolbus, "svc_query", broken)
        request = {"jsonrpc": "2.0", "method": method, "params": params}
        assert bus.dispatch(request | {"id": 7}) == {
            "jsonrpc": "2.0", "id": 7, "error": {"code": code, "message": message}}
        assert bus.dispatch(request) is None
        assert bus.dispatch(request | {"id": None}) is None

    def test_graph_diff_above_the_committed_version_32602(self, bus):
        for params in ({"from_version": 0, "to_version": 9}, {"from_version": 2, "to_version": 1}):
            assert call(bus, "graph.diff", params)["error"] == {
                "code": INVALID_PARAMS, "message": "versions must be <= 1, the committed version"}
        assert call(bus, "graph.diff", {"from_version": 1, "to_version": 1})["result"]["added"] == []

    def test_graph_diff_negative_version_32602(self, bus):
        for params in ({"from_version": -3, "to_version": 1}, {"from_version": 1, "to_version": -1}):
            error = call(bus, "graph.diff", params)["error"]
            assert error == {"code": INVALID_PARAMS, "message": "versions must be >= 0"}

    def test_unknown_method_32601(self, bus):
        response = call(bus, "graph.everything")
        assert response["error"]["code"] == METHOD_NOT_FOUND

    def test_malformed_request_32600(self, bus):
        for bad in [
            {"id": 1, "method": "tools.list"},                      # missing jsonrpc
            {"jsonrpc": "1.0", "id": 1, "method": "tools.list"},    # wrong version
            {"jsonrpc": "2.0", "id": 1},                            # no method
            {"jsonrpc": "2.0", "id": 1, "method": ""},              # empty method
            [1, 2, 3],
        ]:
            response = bus.dispatch(bad)
            assert response["error"]["code"] == PARSE_OR_REQUEST_ERROR

    def test_unparsable_line_32600_null_id(self, bus):
        response = json.loads(bus.dispatch_line("{nope"))
        assert response["error"]["code"] == PARSE_OR_REQUEST_ERROR
        assert response["id"] is None

    def test_invalid_params_32602(self, bus):
        assert call(bus, "graph.query")["error"]["code"] == INVALID_PARAMS
        assert call(bus, "graph.query", {"query": 42})["error"]["code"] == INVALID_PARAMS
        assert call(bus, "graph.query", {"query": "SELECT nonsense"})["error"]["code"] == INVALID_PARAMS
        assert call(bus, "graph.diff", {"from_version": "x", "to_version": 1})["error"]["code"] == \
            INVALID_PARAMS
        assert call(bus, "fact.check", {"claims": []})["error"]["code"] == INVALID_PARAMS

    def test_optional_params_type_checked_32602(self, bus):
        for method, params in [
            ("graph.diff", {"from_version": 0, "to_version": 1, "include_inferred": "false"}),
            ("memory.retrieve", {"query": "Alice Reyes", "radius": "abc"}),
            ("memory.retrieve", {"query": "Alice Reyes", "k": 2.9}),
            ("memory.retrieve", {"query": "Alice Reyes", "budget": True}),
        ]:
            assert call(bus, method, params)["error"]["code"] == INVALID_PARAMS

    def test_retrieve_and_bench_params_type_checked_32602(self, bus):
        for method, params in [
            ("memory.retrieve", {"query": "Alice Reyes", "seeds": ["not a term"]}),
            ("memory.retrieve", {"query": "Alice Reyes", "seeds": [5]}),
            ("memory.retrieve", {"query": "Alice Reyes", "seeds": "<http://ex.org/a>"}),
            ("memory.retrieve", {"query": "Alice Reyes", "session": 7}),
            ("bench.hanoi.run", {"disks": [2], "episodes": 1, "move_level": "false"}),
            ("bench.hanoi.run", {"disks": [2], "episodes": 2.9}),
            ("bench.hanoi.run", {"disks": [2], "episodes": 1, "seed": "1"}),
            ("bench.hanoi.run", {"disks": ["2"], "episodes": 1}),
            ("bench.hanoi.run", {"disks": 2, "episodes": 1}),
            ("bench.hanoi.run", {"disks": [2], "episodes": 1, "repairs": [True]}),
            ("bench.hanoi.run", {"disks": [2], "episodes": 1, "proposers": "optimal"}),
            ("bench.hanoi.run", {"disks": [2], "episodes": 1, "proposers": [1]}),
        ]:
            assert call(bus, method, params)["error"]["code"] == INVALID_PARAMS, params
        seeds = call(bus, "memory.retrieve", {"query": "x", "seeds": ["<http://ex.org/a>"],
                                              "session": "s"})
        assert "result" in seeds
        report = call(bus, "bench.hanoi.run", {"disks": [2], "proposers": ["optimal"],
                                               "episodes": 1, "repairs": [0], "seed": 3,
                                               "move_level": True})
        assert report["result"]["config"]["move_level"] is True

    def test_retrieve_k_checked_on_an_empty_log_32602(self, tmp_path):
        bus = ToolBus(init_store(tmp_path / "s"))
        response = call(bus, "memory.retrieve", {"query": "x", "k": 0})
        assert response["error"] == {"code": INVALID_PARAMS, "message": "k must be >= 1"}

    def test_bench_transcript_proposer_32602(self, bus, tmp_path):
        # a transcript proposer would open any file the caller names
        secret = tmp_path / "secret.txt"
        secret.write_text("secret-token-123\n", encoding="utf-8")
        error = call(bus, "bench.hanoi.run", {"proposers": [f"transcript:{secret}"],
                                              "episodes": 1})["error"]
        assert error["code"] == INVALID_PARAMS
        assert "secret-token-123" not in error["message"]

    def test_bench_bounded_by_its_moves_32602(self, bus):
        # 40 optimal 16-disk episodes would hold a server thread for seconds
        error = call(bus, "bench.hanoi.run", {"disks": [16], "episodes": 40})["error"]
        assert error["code"] == INVALID_PARAMS
        assert error["message"] == "request may make up to 5242880 moves; the bus allows 4194304"

    def test_bus_is_freed_without_cycle_collection(self, built_store):
        handle = load_store(built_store)
        bus = ToolBus(handle)
        store = weakref.ref(handle.store)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del bus, handle
            assert store() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_id_echoed_exactly(self, bus):
        for req_id in (7, "alpha-9"):
            response = call(bus, "tools.list", req_id=req_id)
            assert response["id"] == req_id

    @pytest.mark.parametrize("query, column", [
        ('SELECT ?s WHERE { ?s ?p ?o FILTER(regex(?o, "(")) }', 45),
        ("SELECT ?s WHERE { ?s <> ?o }", 22),
        ("SELECT ?s WHERE { ?s <a\u00a0b> ?o }", 22),
    ])
    def test_malformed_query_32602_with_position(self, bus, query, column):
        error = call(bus, "graph.query", {"query": query})["error"]
        assert error["code"] == INVALID_PARAMS
        assert error["message"].startswith(f"1:{column}: ")

    def test_notification_gets_no_response(self, bus):
        request = {"jsonrpc": "2.0", "method": "tools.list"}
        assert bus.dispatch(request) is None
        request = {"jsonrpc": "2.0", "id": None, "method": "tools.list"}
        assert bus.dispatch(request) is None

    def test_ask_query_result(self, bus):
        response = call(bus, "graph.query", {"query": "ASK WHERE { ?s ?p ?o }"})
        assert response["result"]["ask"] is True

    def test_request_isolation_store_unchanged_on_errors(self, bus):
        before = bus.handle.store.trusted.content_hash()
        call(bus, "graph.query", {"query": "SELECT broken"})
        call(bus, "nope.nope")
        bus.dispatch_line("garbage")
        call(bus, "bench.hanoi.run", {"episodes": -1})
        assert bus.handle.store.trusted.content_hash() == before

    def test_internal_error_sanitized(self, bus, monkeypatch):
        def broken(handle, text):
            raise RuntimeError("boom")

        monkeypatch.setattr(toolbus, "svc_query", broken)
        response = call(bus, "graph.query", {"query": "ASK WHERE { ?s ?p ?o }"})
        assert response["error"] == {"code": INTERNAL_ERROR, "message": "RuntimeError: boom"}

    def test_internal_os_error_names_no_server_path(self, built_store, tmp_path, monkeypatch):
        root = tmp_path / "store-copy"
        shutil.copytree(built_store, root)
        (root / "delta-1.ttl").unlink()
        bus = ToolBus(load_store(root))
        error = call(bus, "graph.diff", {"from_version": 0, "to_version": 1})["error"]
        assert error == {"code": INTERNAL_ERROR,
                         "message": "FileNotFoundError: No such file or directory"}
        assert not any(part in error["message"] for part in (str(root), root.name, "delta-1.ttl"))

        def broken(handle, text):
            raise OSError(f"cannot write {root}")  # no errno, so no strerror

        monkeypatch.setattr(toolbus, "svc_query", broken)
        error = call(bus, "graph.query", {"query": "ASK WHERE { ?s ?p ?o }"})["error"]
        assert error == {"code": INTERNAL_ERROR, "message": "OSError"}

    @pytest.mark.parametrize("text, message", [
        ("@prefix sh: <http://www.w3.org/ns/shacl#> .\n" + EX_TTL
         + "ex:S a sh:NodeShape ; sh:targetClass ex:T ; sh:property _:p .\n"
           '_:p sh:path ex:code ; sh:pattern "(" .\n', "sh:pattern of http://ex.org/code"),
        (EX_TTL + "ex:a ex:b", "2:10: expected object term"),
    ], ids=["bad_pattern", "cut_off"])
    def test_malformed_shapes_file_32602(self, tmp_path, text, message):
        path = tmp_path / "shapes.ttl"
        path.write_text(text, encoding="utf-8")
        bus = ToolBus(init_store(tmp_path / "s"))
        error = call(bus, "graph.validate", {"shapes_file": str(path)})["error"]
        assert error["code"] == INVALID_PARAMS
        assert error["message"].startswith(message)

    def test_misspelt_shape_term_warns(self, tmp_path):
        path = tmp_path / "shapes.ttl"
        path.write_text("@prefix sh: <http://www.w3.org/ns/shacl#> .\n" + EX_TTL
                        + "ex:S a sh:NodeShape ; sh:targetClass ex:T ; sh:property ex:PS .\n"
                          "ex:PS sh:path ex:code ; sh:minCoutn 1 .\n", encoding="utf-8")
        bus = ToolBus(init_store(tmp_path / "s"))
        result = call(bus, "graph.validate", {"shapes_file": str(path)})["result"]
        assert result == {"conforms": True, "results": [],
                          "warnings": [f"unknown SHACL term sh:minCoutn on <{EX}PS>"]}

    def test_missing_shapes_file_32602(self, tmp_path):
        bus = ToolBus(init_store(tmp_path / "s"))
        error = call(bus, "graph.validate", {"shapes_file": str(tmp_path / "missing.ttl")})["error"]
        assert error["code"] == INVALID_PARAMS
        assert error["message"].startswith("cannot read shapes file: ")

    @pytest.mark.parametrize("method, param, what", [
        ("graph.validate", "shapes_file", "shapes"),
        ("fact.check", "claims_file", "claims"),
    ], ids=["shapes_file", "claims_file"])
    def test_non_utf8_file_32602(self, tmp_path, method, param, what):
        path = tmp_path / "not-utf8"
        path.write_bytes(b"\xff\xfe")
        bus = ToolBus(init_store(tmp_path / "s"))
        error = call(bus, method, {param: str(path)})["error"]
        assert error["code"] == INVALID_PARAMS
        assert error["message"].startswith(f"cannot read {what} file: ")

    def test_move_level_bench_memory_follows_the_plan(self, bus):
        # a replan from a mid-episode state once searched up to 3^n states (60 MiB at 11 disks)
        params = {"disks": [11], "proposers": ["corrupted:0.5"], "episodes": 1, "repairs": [1],
                  "seed": 0, "move_level": True}
        tracemalloc.start()
        try:
            response = call(bus, "bench.hanoi.run", params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert response["result"]["cells"][0]["mean_repair_rounds"] == 1.0
        assert peak < 10 * 2 ** 20


class TestBusCliEquivalence:
    def test_graph_query(self, bus, built_store):
        query = ("PREFIX prop: <http://ontomem.dev/ns/prop#> "
                 "SELECT ?w ?c WHERE { ?w prop:worksFor ?c }")
        via_bus = call(bus, "graph.query", {"query": query})["result"]
        code, out, _ = run_cli("--store", str(built_store), "--json", "query", query)
        assert code == 0
        assert via_bus == json.loads(out)

    def test_graph_validate(self, bus, built_store):
        shapes = str(DATA / "corpus_shapes.ttl")
        via_bus = call(bus, "graph.validate", {"shapes_file": shapes})["result"]
        code, out, _ = run_cli("--store", str(built_store), "--json", "validate",
                               "--shapes", shapes)
        assert code == 0
        assert via_bus == json.loads(out)

    def test_graph_diff(self, bus, built_store):
        via_bus = call(bus, "graph.diff", {"from_version": 0, "to_version": 1})["result"]
        code, out, _ = run_cli("--store", str(built_store), "--json", "diff", "0", "1")
        assert code == 0
        assert via_bus == json.loads(out)

    def test_graph_diff_reads_each_delta_once_and_agrees(self, tmp_path):
        # Three commits, each a schema file; every version pair 0..3, plain and
        # inferred, against two whole versions read and materialized apart.
        store, empty = tmp_path / "s", tmp_path / "empty"
        empty.mkdir()
        run_cli("--store", str(store), "init")
        schemas = [
            "ex:Dog rdfs:subClassOf ex:Animal . ex:rex a ex:Dog .",
            "ex:Animal rdfs:subClassOf ex:Thing . ex:owns rdfs:range ex:Pet .",
            "ex:bob ex:owns ex:rex . ex:rex ex:likes ex:bob . ex:Dog rdfs:subClassOf ex:Pet .",
        ]
        for i, body in enumerate(schemas):
            schema = tmp_path / f"schema{i}.ttl"
            schema.write_text("@prefix ex: <http://ex.org/> .\n"
                              "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n" + body,
                              encoding="utf-8")
            code, _, err = run_cli("--store", str(store), "build", "--sources", str(empty),
                                   "--schema", str(schema),
                                   "--extractor", "transcript", "--transcripts", str(empty))
            assert code == 0, err
        handle = load_store(store)
        assert handle.store.version == 3
        for v1, v2, inferred in itertools.product(range(4), range(4), (False, True)):
            g1, g2 = graph_at_version(store, v1), graph_at_version(store, v2)
            if inferred:
                g1, g2 = materialize(g1), materialize(g2)
            added, removed = g2.triple_set() - g1.triple_set(), g1.triple_set() - g2.triple_set()
            assert svc_diff(handle, v1, v2, inferred) == {
                "from_version": v1, "to_version": v2,
                "added": sorted(triple_text(t) for t in added),
                "removed": sorted(triple_text(t) for t in removed),
                "include_inferred": inferred}

    def test_fact_check(self, regulatory_store):
        bus = ToolBus(load_store(regulatory_store))
        claims_file = str(DATA / "regulatory_claims.jsonl")
        via_bus = call(bus, "fact.check", {"claims_file": claims_file})["result"]
        code, out, _ = run_cli("--store", str(regulatory_store), "--json", "check",
                               "--claims", claims_file)
        assert code == 1  # CONTRADICTED overall
        assert via_bus == json.loads(out)

    def test_memory_retrieve(self, bus, built_store):
        params = {"query": "Alice Reyes", "radius": 1, "k": 3, "budget": 5}
        via_bus = call(bus, "memory.retrieve", params)["result"]
        code, out, _ = run_cli("--store", str(built_store), "--json", "retrieve",
                               "--query", "Alice Reyes", "--radius", "1", "--k", "3",
                               "--budget", "5")
        assert code == 0
        assert via_bus == json.loads(out)

    def test_bench_hanoi(self, bus, built_store):
        params = {"disks": [2, 3], "proposers": ["corrupted:0.2"], "episodes": 10,
                  "repairs": [0, 1], "seed": 5}
        via_bus = call(bus, "bench.hanoi.run", params)["result"]
        code, out, _ = run_cli("--store", str(built_store), "--json", "bench", "hanoi",
                               "--disks", "2,3", "--proposer", "corrupted:0.2",
                               "--episodes", "10", "--repairs", "0,1", "--seed", "5")
        assert code == 0
        assert via_bus == json.loads(out)


class TestConcurrentReaders:
    def test_parallel_queries_consistent(self, bus):
        import concurrent.futures
        request = {"jsonrpc": "2.0", "id": 1, "method": "graph.query",
                   "params": {"query": "PREFIX prop: <http://ontomem.dev/ns/prop#> "
                                       "SELECT ?w ?c WHERE { ?w prop:worksFor ?c }"}}
        baseline = bus.dispatch(dict(request))
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: bus.dispatch(dict(request)), range(64)))
        assert all(r == baseline for r in results)

    def test_tcp_two_concurrent_sessions(self, built_store):
        import socket
        handle = load_store(built_store)
        ready = threading.Event()
        holder = {}

        def on_ready(server):
            holder["server"] = server
            holder["port"] = server.server_address[1]
            ready.set()

        thread = threading.Thread(
            target=serve_tcp, args=(handle, 0), kwargs={"ready_callback": on_ready}, daemon=True)
        thread.start()
        assert ready.wait(5)
        try:
            socks = [socket.create_connection(("127.0.0.1", holder["port"]), timeout=5)
                     for _ in range(2)]
            for i, sock in enumerate(socks):
                sock.sendall(f'{{"jsonrpc":"2.0","id":{i},"method":"tools.list"}}\n'.encode())
            for i, sock in enumerate(socks):
                data = b""
                while not data.endswith(b"\n"):
                    data += sock.recv(4096)
                assert json.loads(data)["id"] == i
                sock.close()
        finally:
            holder["server"].shutdown()


class TestTransports:
    def test_stdio_line_framing(self, built_store):
        handle = load_store(built_store)
        stdin = io.StringIO(
            '{"jsonrpc":"2.0","id":1,"method":"tools.list"}\n'
            "\n"
            'not json\n'
            '{"jsonrpc":"2.0","method":"tools.list"}\n'
            '{"jsonrpc":"2.0","id":2,"method":"graph.query","params":{"query":"ASK WHERE { ?s ?p ?o }"}}\n'
        )
        stdout = io.StringIO()
        serve_stdio(handle, stdin=stdin, stdout=stdout)
        lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert len(lines) == 3  # notification suppressed, blank skipped
        assert lines[0]["id"] == 1
        assert lines[1]["error"]["code"] == PARSE_OR_REQUEST_ERROR
        assert lines[2]["result"]["ask"] is True

    def test_tcp_round_trip(self, built_store):
        handle = load_store(built_store)
        ready = threading.Event()
        holder = {}

        def on_ready(server):
            holder["server"] = server
            holder["port"] = server.server_address[1]
            ready.set()

        thread = threading.Thread(
            target=serve_tcp, args=(handle, 0), kwargs={"ready_callback": on_ready}, daemon=True)
        thread.start()
        assert ready.wait(5)
        try:
            with socket.create_connection(("127.0.0.1", holder["port"]), timeout=5) as sock:
                sock.sendall(b'{"jsonrpc":"2.0","id":9,"method":"tools.list"}\n')
                data = b""
                while not data.endswith(b"\n"):
                    data += sock.recv(4096)
            response = json.loads(data)
            assert response["id"] == 9
            assert len(response["result"]["tools"]) >= 6
        finally:
            holder["server"].shutdown()

    def test_stdio_and_tcp_answer_a_script_alike(self, built_store):
        script = "".join(line + "\n" for line in [
            '{"jsonrpc":"2.0","id":1,"method":"tools.list"}',
            "",
            " \t ",
            "not json",
            '{"jsonrpc":"2.0","method":"graph.query","params":{"query":5}}',
            '{"jsonrpc":"2.0","id":null,"method":"no.such"}',
            '{"jsonrpc":"2.0","id":2,"method":"graph.query","params":{"query":"ASK WHERE { ?s ?p ?o }"}}',
            '  {"jsonrpc":"2.0","id":3,"method":"no.such"}  ',
            '{"jsonrpc":"2.0","id":"last","method":"graph.query","params":[1]}',
        ])
        stdout = io.StringIO()
        serve_stdio(load_store(built_store), stdin=io.StringIO(script), stdout=stdout)
        stdio_lines = stdout.getvalue().splitlines()
        assert [json.loads(line)["id"] for line in stdio_lines] == [1, None, 2, 3, "last"]

        ready = threading.Event()
        holder = {}

        def on_ready(server):
            holder["server"] = server
            ready.set()

        threading.Thread(target=serve_tcp, args=(load_store(built_store), 0),
                         kwargs={"ready_callback": on_ready}, daemon=True).start()
        assert ready.wait(5)
        try:
            with socket.create_connection(holder["server"].server_address, timeout=5) as sock:
                sock.sendall(script.encode("utf-8"))
                sock.shutdown(socket.SHUT_WR)  # the session ends after the script
                data = b""
                while chunk := sock.recv(4096):
                    data += chunk
        finally:
            holder["server"].shutdown()
        assert data.decode("utf-8").splitlines() == stdio_lines

    def test_tcp_answers_a_non_utf8_line_and_reads_on(self, built_store):
        script = b'\xff\n{"jsonrpc":"2.0","id":1,"method":"tools.list"}\n'
        ready = threading.Event()
        holder = {}

        def on_ready(server):
            holder["server"] = server
            ready.set()

        threading.Thread(target=serve_tcp, args=(load_store(built_store), 0),
                         kwargs={"ready_callback": on_ready}, daemon=True).start()
        assert ready.wait(5)
        try:
            with socket.create_connection(holder["server"].server_address, timeout=5) as sock:
                sock.sendall(script)
                sock.shutdown(socket.SHUT_WR)
                data = b""
                while chunk := sock.recv(4096):
                    data += chunk
        finally:
            holder["server"].shutdown()
        lines = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        assert len(lines) == 2
        assert lines[0] == {"jsonrpc": "2.0", "id": None,
                            "error": {"code": PARSE_OR_REQUEST_ERROR, "message": "malformed request"}}
        assert lines[1]["id"] == 1 and lines[1]["result"]["tools"]
        # stdio, reading bytes that are not UTF-8 as escapes, answers the same lines
        stdout = io.StringIO()
        stdin = io.TextIOWrapper(io.BytesIO(script), encoding="utf-8", errors="surrogateescape")
        serve_stdio(load_store(built_store), stdin=stdin, stdout=stdout)
        assert stdout.getvalue().splitlines() == data.decode("utf-8").splitlines()

    SURROGATE_SCRIPT = ('{"jsonrpc":"2.0","id":1,"method":"\\ud800"}\n'
                        '{"jsonrpc":"2.0","id":2,"method":"tools.list"}\n')

    def _assert_surrogate_answered(self, lines: list[str]) -> None:
        assert len(lines) == 2
        # the lone surrogate travels escaped; every other character stays as it was
        assert '"message": "method not found: \\ud800"' in lines[0]
        assert json.loads(lines[0])["error"]["code"] == METHOD_NOT_FOUND
        assert json.loads(lines[1])["id"] == 2 and json.loads(lines[1])["result"]["tools"]

    def test_stdio_answers_a_lone_surrogate_and_reads_on(self, built_store):
        out = io.BytesIO()
        stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)  # strict, as a UTF-8 stdout
        serve_stdio(load_store(built_store), stdin=io.StringIO(self.SURROGATE_SCRIPT), stdout=stdout)
        self._assert_surrogate_answered(out.getvalue().decode("utf-8").splitlines())

    def test_tcp_answers_a_lone_surrogate_and_reads_on(self, built_store):
        ready = threading.Event()
        holder = {}

        def on_ready(server):
            holder["server"] = server
            ready.set()

        threading.Thread(target=serve_tcp, args=(load_store(built_store), 0),
                         kwargs={"ready_callback": on_ready}, daemon=True).start()
        assert ready.wait(5)
        try:
            with socket.create_connection(holder["server"].server_address, timeout=5) as sock:
                sock.sendall(self.SURROGATE_SCRIPT.encode("utf-8"))
                sock.shutdown(socket.SHUT_WR)
                data = b""
                while chunk := sock.recv(4096):
                    data += chunk
        finally:
            holder["server"].shutdown()
        self._assert_surrogate_answered(data.decode("utf-8").splitlines())

    def test_tcp_oversized_line_ends_only_its_session(self, built_store):
        ready = threading.Event()
        holder = {}

        def on_ready(server):
            holder["server"] = server
            holder["port"] = server.server_address[1]
            ready.set()

        thread = threading.Thread(target=serve_tcp, args=(load_store(built_store), 0),
                                  kwargs={"ready_callback": on_ready}, daemon=True)
        thread.start()
        assert ready.wait(5)
        try:
            with socket.create_connection(("127.0.0.1", holder["port"]), timeout=5) as sock:
                sock.sendall(b"x" * (MAX_REQUEST_BYTES + 1))
                data = b""
                while chunk := sock.recv(4096):
                    data += chunk
            response = json.loads(data)  # one line, then the server closed the session
            assert response["error"]["code"] == PARSE_OR_REQUEST_ERROR
            assert response["id"] is None
            with socket.create_connection(("127.0.0.1", holder["port"]), timeout=5) as sock:
                sock.sendall(b'{"jsonrpc":"2.0","id":4,"method":"tools.list"}\n')
                data = b""
                while not data.endswith(b"\n"):
                    data += sock.recv(4096)
            assert json.loads(data)["id"] == 4
        finally:
            holder["server"].shutdown()


class TestLiveStore:
    """A warm bus follows the store it serves."""

    PATTERNS = {"relations": {"located in": "located in"}}

    def _commit_turtle(self, store, tmp_path, name, text):
        empty = tmp_path / "empty"
        empty.mkdir(exist_ok=True)
        schema = tmp_path / name
        schema.write_text(EX_TTL + text, encoding="utf-8")
        code, _, err = run_cli("--store", str(store), "build", "--sources", str(empty),
                               "--schema", str(schema),
                               "--extractor", "transcript", "--transcripts", str(empty))
        assert code == 0, err

    def _build_docs(self, store, tmp_path, docs, *extra):
        sources = tmp_path / "docs"
        sources.mkdir(exist_ok=True)
        for name, text in docs.items():
            (sources / name).write_text(text, encoding="utf-8")
        patterns = tmp_path / "patterns.json"
        patterns.write_text(json.dumps(self.PATTERNS), encoding="utf-8")
        code, out, err = run_cli("--store", str(store), "--json", "build", "--sources",
                                 str(sources), "--patterns", str(patterns), *extra)
        assert code == 0, err
        return json.loads(out)

    def test_build_committed_while_bus_runs_is_served(self, tmp_path):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        self._commit_turtle(store, tmp_path, "one.ttl", "ex:a ex:p ex:b .\n")
        bus = ToolBus(load_store(store))
        ask = {"query": "ASK WHERE { <http://ex.org/c> <http://ex.org/p> <http://ex.org/d> }"}
        claim = {"claims": [{"subject": "<http://ex.org/c>", "predicate": "<http://ex.org/p>",
                             "object": "<http://ex.org/d>"}]}
        assert call(bus, "graph.query", ask)["result"]["ask"] is False
        assert call(bus, "fact.check", claim)["result"]["overall"] == "NOT_FOUND"

        self._commit_turtle(store, tmp_path, "two.ttl", "ex:c ex:p ex:d .\n")
        assert call(bus, "graph.query", ask)["result"]["ask"] is True
        assert call(bus, "fact.check", claim)["result"]["overall"] == "SUPPORTED"
        assert bus.handle.store.version == 2

    def test_all_quarantined_build_reaches_log_memory(self, tmp_path):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        schema = tmp_path / "schema.ttl"
        schema.write_text(
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "@prefix prop: <http://ontomem.dev/ns/prop#> .\n"
            "prop:located-in a owl:FunctionalProperty .\n", encoding="utf-8")
        summary = self._build_docs(store, tmp_path, {"a.txt": "Oven7 located in Plant7."},
                                   "--schema", str(schema))
        assert summary["version"] == 1
        bus = ToolBus(load_store(store))
        query = {"query": "Pump1 located in SiteB.", "k": 1}
        assert call(bus, "memory.retrieve", query)["result"]["vector_hits"][0]["id"] == "a.txt#0"

        summary = self._build_docs(store, tmp_path, {"b.txt": "Pump1 located in SiteA.",
                                                     "c.txt": "Pump1 located in SiteB."})
        assert summary == {"version": 1, "accepted": 0, "quarantined": 2, "delta_file": None}
        top = call(bus, "memory.retrieve", query)["result"]["vector_hits"][0]
        assert (top["id"], top["payload"]) == ("c.txt#0", "Pump1 located in SiteB.")

    def test_unsaved_in_memory_commit_is_not_reloaded_away(self, tmp_path):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        self._commit_turtle(store, tmp_path, "one.ttl", "ex:a ex:p ex:b .\n")
        handle = load_store(store)
        graph, _ = parse_turtle(EX_TTL + "ex:c ex:p ex:d .\n")
        handle.store.commit(GateResult(graph_candidates(graph, "memory"), []), 1)
        assert handle.store.version == 2  # in memory only: the version file still says 1
        bus = ToolBus(handle)
        ask = {"query": "ASK WHERE { <http://ex.org/c> <http://ex.org/p> <http://ex.org/d> }"}
        for _ in range(2):
            assert call(bus, "graph.query", ask)["result"]["ask"] is True
        assert bus.handle is handle

    def test_bus_follows_a_log_whose_torn_tail_a_build_cut(self, tmp_path):
        store = tmp_path / "s"
        run_cli("--store", str(store), "init")
        self._build_docs(store, tmp_path, {"a.txt": "Pump3 located in SiteC."})
        bus = ToolBus(load_store(store))
        query = {"query": "Pump4 located in SiteD.", "k": 3}
        assert "result" in call(bus, "memory.retrieve", query)
        before = bus.handle.log_memory()
        with (store / "logs.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"id": "dead.txt#0", "text": "Pump9 loc')  # a writer died mid-line
        assert "result" in call(bus, "memory.retrieve", query)
        self._build_docs(store, tmp_path, {"b.txt": "Pump4 located in SiteD."})
        hits = call(bus, "memory.retrieve", query)["result"]["vector_hits"]
        assert hits[0]["id"] == "b.txt#0"
        after = bus.handle.log_memory()
        assert sorted(after.entries) == ["a.txt#0", "b.txt#0"]
        assert after.entries["a.txt#0"] is before.entries["a.txt#0"]  # not embedded again
        lines = (store / "logs.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["id"] for line in lines] == ["a.txt#0", "b.txt#0"]

    def test_retrieve_while_log_grows(self, tmp_path, built_store):
        store = tmp_path / "s"
        shutil.copytree(built_store, store)
        bus = ToolBus(load_store(store))
        lines = [json.dumps({"id": f"grow.txt#{i}", "text": f"Turbine{i} spins near Dam{i}."})
                 + "\n" for i in range(150)]
        errors: list = []
        done = threading.Event()

        def append() -> None:
            try:
                with (store / "logs.jsonl").open("a", encoding="utf-8") as fh:
                    for line in lines:  # each line in two writes: readers see torn lines
                        half = len(line) // 2
                        fh.write(line[:half])
                        fh.flush()
                        time.sleep(0.001)
                        fh.write(line[half:])
                        fh.flush()
            except Exception as e:  # reported through the assertion below
                errors.append(e)
            finally:
                done.set()

        served = []

        def retrieve() -> None:
            try:
                while not done.is_set():
                    response = call(bus, "memory.retrieve", {"query": "Turbine spins", "k": 3})
                    if "result" not in response:
                        errors.append(response)
                    served.append(len(bus.handle.log_memory()))
            except Exception as e:
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=retrieve) for _ in range(2)]
            threads.append(threading.Thread(target=append))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(set(served)) > 10  # the readers saw the log at many lengths
        last = json.loads(lines[-1])
        top = call(bus, "memory.retrieve", {"query": last["text"], "k": 1})["result"]
        assert top["vector_hits"][0]["id"] == last["id"]
        memory = bus.handle.log_memory()
        assert {f"grow.txt#{i}" for i in range(150)} <= set(memory.entries)


def test_session_memory_keeps_only_the_sessions_dialogue_facts(tmp_path):
    def facts(text):
        graph, _ = parse_turtle(EX_TTL + text)
        return graph

    handle = init_store(tmp_path / "s")
    store = handle.store
    commits = [
        # the session's facts, committed out of canonical order
        graph_candidates(facts("ex:z ex:says ex:b . ex:a ex:says ex:c . ex:m ex:says ex:a ."),
                         "chat-1", Origin.DIALOGUE),
        graph_candidates(facts("ex:a ex:says ex:d . ex:y ex:says ex:z ."), "chat-2", Origin.DIALOGUE),
        graph_candidates(facts("ex:b ex:says ex:e ."), "chat-1", Origin.SOURCE_DOCUMENT),
        graph_candidates(facts("ex:c ex:says ex:f ."), "chat-1", Origin.TOOL_RESULT),
        graph_candidates(facts("ex:d ex:says ex:g . ex:m ex:says ex:a ."), "doc.txt"),
        # a fact first learned from a document, then said in the session
        graph_candidates(facts("ex:d ex:says ex:g . ex:y ex:says ex:z ."), "chat-1", Origin.DIALOGUE),
    ]
    for candidates in commits:
        save_commit(handle, store.commit(GateResult(candidates, []), store.version))

    def canonical_scan(h, session):
        return [t for t in h.store.trusted
                if any(p.origin is Origin.DIALOGUE and p.source_id == session
                       for p in h.store.provenance.get(t, ()))]

    expected = [Triple(Iri(EX + s), Iri(EX + "says"), Iri(EX + o))
                for s, o in (("a", "c"), ("d", "g"), ("m", "a"), ("y", "z"), ("z", "b"))]
    assert toolbus.session_memory(handle, "chat-1") == expected
    assert len(toolbus.session_memory(handle, "chat-2")) == 2
    for h in (handle, load_store(tmp_path / "s")):
        for session in ("chat-1", "chat-2", "doc.txt", "none"):
            assert toolbus.session_memory(h, session) == canonical_scan(h, session)
        assert toolbus.session_memory(h, "doc.txt") == []
