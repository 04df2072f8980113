import gc
import io
import json
import socket
import threading
import weakref

import pytest

from ontomem.store import load_store
from ontomem.toolbus import (
    INTERNAL_ERROR,
    INVALID_PARAMS,
    METHOD_NOT_FOUND,
    PARSE_OR_REQUEST_ERROR,
    ToolBus,
    serve_stdio,
    serve_tcp,
)
from conftest import DATA, run_cli


@pytest.fixture()
def bus(built_store):
    return ToolBus(load_store(built_store))


def call(bus, method, params=None, req_id=1):
    request = {"jsonrpc": "2.0", "id": req_id, "method": method}
    if params is not None:
        request["params"] = params
    return bus.dispatch(request)


class TestDispatch:
    def test_tools_list_catalog(self, bus):
        response = call(bus, "tools.list")
        tools = response["result"]["tools"]
        assert len(tools) >= 6
        names = {t["name"] for t in tools}
        assert {"graph.query", "graph.validate", "graph.diff", "fact.check",
                "memory.retrieve", "bench.hanoi.run"} <= names
        assert all("params" in t for t in tools)

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

    def test_internal_error_sanitized(self, bus, built_store):
        response = call(bus, "graph.validate", {"shapes_file": str(built_store / "missing.ttl")})
        assert response["error"]["code"] == INTERNAL_ERROR
        assert "Traceback" not in response["error"]["message"]


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
