import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files
from pathlib import Path

import pytest

from ontomem.cli import main as cli_main

DATA = Path(str(files("ontomem") / "data"))

# `python -m ontomem.cli` subprocesses import the package from this checkout
# too, whether pytest found it through PYTHONPATH or through pyproject.toml.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))

ACCEPTANCE_LINES: list[str] = []

_CRITERION_RE = re.compile(r"test_criterion_(\d+)_(\w+)")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    m = _CRITERION_RE.match(item.name)
    if m and rep.failed:
        number = int(m.group(1))
        if not any(f"ACCEPTANCE {number:2d}:" in line for line in ACCEPTANCE_LINES):
            ACCEPTANCE_LINES.append(f"ACCEPTANCE {number:2d}: FAIL - {m.group(2)}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def run_cli(*args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(args))
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def built_store(tmp_path_factory) -> Path:
    """A store with the bundled corpus committed once (version 1)."""
    root = tmp_path_factory.mktemp("corpus-store")
    store = root / "store"
    code, _, err = run_cli("--store", str(store), "init")
    assert code == 0, err
    code, _, err = run_cli(
        "--store", str(store), "build",
        "--sources", str(DATA / "corpus"),
        "--shapes", str(DATA / "corpus_shapes.ttl"),
        "--schema", str(DATA / "corpus_schema.ttl"),
        "--patterns", str(DATA / "corpus_patterns.json"),
    )
    assert code == 0, err
    return store


@pytest.fixture(scope="session")
def regulatory_store(tmp_path_factory) -> Path:
    """A store holding only the regulatory fixture graph."""
    root = tmp_path_factory.mktemp("reg-store")
    store = root / "store"
    empty = root / "no-sources"
    empty.mkdir()
    code, _, err = run_cli("--store", str(store), "init")
    assert code == 0, err
    code, _, err = run_cli(
        "--store", str(store), "build",
        "--sources", str(empty),
        "--schema", str(DATA / "regulatory.ttl"),
        "--extractor", "transcript", "--transcripts", str(empty),
    )
    assert code == 0, err
    return store


@pytest.fixture(scope="session")
def regulatory_claims() -> list[dict]:
    lines = (DATA / "regulatory_claims.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]
