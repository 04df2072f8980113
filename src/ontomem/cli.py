"""Operator entry point: init, build, query, validate, diff, check, retrieve,
bench hanoi, serve.

Each command imports the layers it uses inside its own function, so a process
pays only for the command it runs. `query` imports `store`, `turtle_io`,
`rdf_core` and `sparql`, and of the store reads only `version` and
`trusted.ttl`; its output equals the bus's `graph.query`.

Exit codes: 0 success, 1 domain-negative outcome (nonconforming validation,
CONTRADICTED verdict, inconsistent logic check), 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .store import (
    StoreError,
    StoreLock,
    init_store,
    load_shapes_file,
    load_store,
    load_trusted,
    save_commit,
)


def _p(args, payload, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False))
    else:
        print(human)


def _warn(warnings: list[str]) -> None:
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _load_docs(sources_dir: str) -> list:
    from .builder import DocKind, SourceDocument
    root = Path(sources_dir)
    if not root.is_dir():
        raise StoreError(f"sources directory not found: {sources_dir}")
    docs = []
    for path in sorted(root.iterdir()):
        if path.name.endswith(".dialogue.txt"):
            docs.append(SourceDocument(path.name, DocKind.DIALOGUE,
                                       path.read_text(encoding="utf-8")))
        elif path.suffix == ".txt":
            docs.append(SourceDocument(path.name, DocKind.TEXT,
                                       path.read_text(encoding="utf-8")))
        elif path.suffix == ".jsonl":
            # lines end at "\n" only: JSON allows U+2028, U+2029 and U+0085 raw in a string
            records = tuple(json.loads(line) for line in
                            path.read_text(encoding="utf-8").split("\n") if line.strip())
            docs.append(SourceDocument(path.name, DocKind.TABLE_ROWSET, records))
    return docs


def _load_patterns(path: str | None) -> dict:
    if not path:
        return {"relations": {}, "entity_types": {}, "aliases": {}, "predicates": {}}
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj.setdefault("relations", {})
    obj.setdefault("entity_types", {})
    obj.setdefault("aliases", {})
    obj.setdefault("predicates", {})
    return obj


def cmd_init(args) -> int:
    handle = init_store(args.store)
    _p(args, {"store": str(handle.root), "version": handle.store.version},
       f"initialized store at {handle.root}")
    return 0


def cmd_build(args) -> int:
    from .builder import (
        BuilderConfig, RulePatternExtractor, TranscriptExtractor, graph_candidates, run_pipeline)
    from .turtle_io import parse_turtle
    warnings: list[str] = []
    shapes = load_shapes_file(args.shapes, warnings) if args.shapes else []
    _warn(warnings)
    patterns = _load_patterns(args.patterns)
    with StoreLock(args.store):
        handle = load_store(args.store)
        handle.store.shapes = shapes
        handle.store.config = BuilderConfig(tuple(sorted(patterns["predicates"].items())))

        extra = []
        if args.schema:
            schema_graph, _ = parse_turtle(Path(args.schema).read_text(encoding="utf-8"))
            extra = graph_candidates(schema_graph, source_id=Path(args.schema).name)

        if args.extractor == "transcript":
            if not args.transcripts:
                print("--transcripts DIR is required with --extractor transcript", file=sys.stderr)
                return 2
            extractor = TranscriptExtractor(args.transcripts)
        else:
            if not patterns["relations"]:
                print("rule extractor needs a --patterns file with a 'relations' table",
                      file=sys.stderr)
                return 2
            extractor = RulePatternExtractor(patterns["relations"], patterns["entity_types"],
                                             patterns["aliases"])

        docs = _load_docs(args.sources)
        delta = run_pipeline(handle.store, docs, extractor, extra)
        delta_path = save_commit(handle, delta)

    summary = {
        "version": delta.version_id,
        "accepted": len(delta.accepted),
        "quarantined": len(delta.quarantined) + len(delta.quarantined_relations),
        "delta_file": delta_path.name if delta_path else None,
    }
    _p(args, summary,
       f"version {summary['version']}: accepted {summary['accepted']}, "
       f"quarantined {summary['quarantined']}"
       + (f", wrote {summary['delta_file']}" if summary["delta_file"] else ", no delta written"))
    return 0


def cmd_query(args) -> int:
    from .sparql import evaluate, parse_query
    trusted = load_trusted(args.store)
    text = Path(args.file).read_text(encoding="utf-8") if args.file else args.query
    if not text:
        print("supply a query string or --file", file=sys.stderr)
        return 2
    # the answer of `toolbus.svc_query`, without importing the bus
    result = evaluate(parse_query(text), trusted).to_json()
    if "ask" in result:
        _p(args, result, f"ASK -> {result['ask']}")
    else:
        rows = result["rows"]
        human = "\n".join(
            "\t".join(f"?{v}={row[v]}" for v in result["variables"]) for row in rows
        ) or "(no rows)"
        _p(args, result, human)
    return 0


def cmd_validate(args) -> int:
    from .toolbus import svc_logic_check, svc_validate
    handle = load_store(args.store)
    if args.logic:
        result = svc_logic_check(handle)
        ok = result["consistent"]
        _p(args, result, "consistent" if ok else
           "\n".join(f"conflict: {c['kind']} on {c['subject']}" for c in result["conflicts"]))
        return 0 if ok else 1
    result = svc_validate(handle, args.shapes)
    _warn(result.get("warnings", []))
    human = "conforms" if result["conforms"] else "\n".join(
        f"violation: {r['constraint']} at {r['focus_node']} path={r['path']}"
        for r in result["results"])
    _p(args, result, human)
    return 0 if result["conforms"] else 1


def cmd_diff(args) -> int:
    from .toolbus import svc_diff
    handle = load_store(args.store)
    result = svc_diff(handle, args.v1, args.v2, args.include_inferred)
    human = "\n".join([f"+ {t}" for t in result["added"]] + [f"- {t}" for t in result["removed"]]) \
        or "(no changes)"
    _p(args, result, human)
    return 0


def cmd_check(args) -> int:
    from .factcheck import ConditionInconsistencyError, parse_claims
    from .toolbus import svc_check
    handle = load_store(args.store)
    try:
        text = Path(args.claims).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        print(f"cannot read claims file: {e}", file=sys.stderr)
        return 2
    parsed = parse_claims(text)
    for diag in parsed.diagnostics:
        print(diag, file=sys.stderr)
    if not parsed.claims:
        print("no valid claims in input", file=sys.stderr)
        return 2
    try:
        result = svc_check(handle, parsed.claims, parsed.diagnostics)
    except ConditionInconsistencyError as e:  # a RuntimeError, which `main` does not catch
        print(f"error: {e}", file=sys.stderr)
        return 2
    human = "\n".join([f"overall: {result['overall']}"] +
                      [f"  {v['status']}: {v['claim']['statement']}" for v in result["verdicts"]])
    _p(args, result, human)
    return 1 if result["overall"] == "CONTRADICTED" else 0


def cmd_retrieve(args) -> int:
    from .toolbus import svc_retrieve
    handle = load_store(args.store)
    seeds = args.seeds.split(",") if args.seeds else None
    result = svc_retrieve(handle, args.query, seeds, args.radius, args.k, args.budget,
                          args.session)
    human = "\n".join(f"[{i['channel']}] {i['score']:.4f} {i['text']}" for i in result["fused"]) \
        or "(empty bundle)"
    _p(args, result, human)
    return 0


def cmd_bench(args) -> int:
    from .hanoi import report_to_json_text, run_benchmark
    if args.domain != "hanoi":
        print(f"unknown benchmark domain: {args.domain}", file=sys.stderr)
        return 2
    report = run_benchmark(disks=[int(n) for n in args.disks.split(",")],
                           proposers=args.proposer.split(","), episodes=args.episodes,
                           repairs=[int(r) for r in args.repairs.split(",")], seed=args.seed,
                           move_level=args.move_level)
    if args.out:
        Path(args.out).write_text(report_to_json_text(report) + "\n", encoding="utf-8")
    _p(args, report, report["table"])
    return 0


def cmd_serve(args) -> int:
    from .toolbus import serve_stdio, serve_tcp
    handle = load_store(args.store)
    if args.transport == "stdio":
        serve_stdio(handle)
    else:
        serve_tcp(handle, args.port)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ontomem",
                                     description="ontology-backed memory and verification engine")
    parser.add_argument("--store", default="./store", help="store directory (default ./store)")
    parser.add_argument("--json", action="store_true", help="machine-readable output on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init", help="create an empty store")

    p = sub.add_parser("build", help="run the ontology builder pipeline")
    p.add_argument("--sources", required=True, help="directory of source documents")
    p.add_argument("--shapes", help="SHACL-subset shapes .ttl for the validation gate")
    p.add_argument("--schema", help="schema .ttl committed through the gate")
    p.add_argument("--extractor", choices=["rule", "transcript"], default="rule")
    p.add_argument("--patterns", help="JSON pattern table for the rule extractor")
    p.add_argument("--transcripts", help="directory of recorded extraction outputs")

    p = sub.add_parser("query", help="evaluate a SPARQL-subset query")
    p.add_argument("query", nargs="?", help="query text")
    p.add_argument("--file", help="read the query from a file")

    p = sub.add_parser("validate", help="validate the trusted graph")
    p.add_argument("--shapes", help="shapes file (defaults to none)")
    p.add_argument("--logic", action="store_true", help="run consistency checking instead")

    p = sub.add_parser("diff", help="diff two committed versions")
    p.add_argument("v1", type=int)
    p.add_argument("v2", type=int)
    p.add_argument("--include-inferred", action="store_true", dest="include_inferred",
                   help="materialize both versions before diffing")

    p = sub.add_parser("check", help="fact-check claims against the trusted graph")
    p.add_argument("--claims", required=True, help="claims JSONL file")

    p = sub.add_parser("retrieve", help="composite-context retrieval")
    p.add_argument("--query", required=True)
    p.add_argument("--seeds", help="comma-separated term texts")
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--budget", type=int, default=10)
    p.add_argument("--session", help="session id for user memory")

    p = sub.add_parser("bench", help="run a benchmark")
    p.add_argument("domain", help="benchmark domain (hanoi)")
    p.add_argument("--disks", default="3")
    p.add_argument("--proposer", default="optimal", help="proposer spec(s), comma-separated")
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--repairs", default="0", help="repair budgets, comma-separated")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--move-level", action="store_true", dest="move_level",
                   help="propose one step at a time, repairing from the reached state")
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("serve", help="serve the JSON-RPC tool bus")
    p.add_argument("--transport", choices=["stdio", "tcp"], default="stdio")
    p.add_argument("--port", type=int, default=8765)

    return parser


_COMMANDS = {
    "init": cmd_init,
    "build": cmd_build,
    "query": cmd_query,
    "validate": cmd_validate,
    "diff": cmd_diff,
    "check": cmd_check,
    "retrieve": cmd_retrieve,
    "bench": cmd_bench,
    "serve": cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (StoreError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
