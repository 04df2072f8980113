"""Traced entry point for the `cold_cli` children.

    python bench/cli_shim.py SPANS_OUT [ontomem CLI arguments...]

Imports `ontomem.cli` (timing the import), wraps the layers as the traced
benchmark run does, runs the CLI, and writes the import time and the spans
to SPANS_OUT as JSON. Needs `src` on PYTHONPATH.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import ontomem.cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0

from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = ontomem.cli.main(argv)
    finally:
        tracer.uninstall()
    out.write_text(json.dumps({"import_s": IMPORT_S, "spans": tracer.spans}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
