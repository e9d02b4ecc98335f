"""Print the statements of ``src/nfdof`` that the traffic never reaches,
then every function or method none of whose statements it reaches, then
every one that only the acceptance gate reaches, and last the line total
of ``src/nfdof/*.py`` as ``wc -l`` counts it.

The traffic is ``nfdof run`` on the seven ``configs/*.json`` and the two
``nfbench/configs/*.json``, plus ``pytest tests/test_acceptance.py``.  Both
run in this process under a ``sys.settrace`` line trace, started before
``nfdof`` is imported so that import-time statements count too.  A whole
definition that is never reached is tagged when ``nfbench/spans.py`` probes
its name, because the benchmark then needs it to exist.  A definition that
the acceptance gate reaches and the nine ``nfdof run`` calls do not serves
no CLI run.  Run from anywhere
with

    python tools/traffic_trace.py

Needs only the standard library and the test suite's own pytest.
"""

import ast
import contextlib
import io
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "nfdof"


def traffic_configs() -> list:
    """The nine traffic configs: ``configs/*.json``, then
    ``nfbench/configs/*.json``, each sorted by name."""
    return sorted(REPO.glob("configs/*.json")) + sorted(REPO.glob("nfbench/configs/*.json"))


def statement_lines(path: Path) -> dict:
    """Line number -> first source line of every statement that compiles to
    code: docstrings and ``global``/``nonlocal`` declarations compile to none."""
    source = path.read_text()
    lines = source.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt)
            and not isinstance(node, (ast.Global, ast.Nonlocal))
            and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))}


def definitions(path: Path) -> list:
    """(line, qualified name, body statement lines) of every module-level
    function and every method of a module-level class."""
    tree = ast.parse(path.read_text())
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = [(node, node.name) for node in tree.body if isinstance(node, funcs)]
    found += [(item, f"{node.name}.{item.name}") for node in tree.body
              if isinstance(node, ast.ClassDef) for item in node.body
              if isinstance(item, funcs)]
    return sorted((node.lineno, name, {sub.lineno for stmt in node.body
                                       for sub in ast.walk(stmt) if isinstance(sub, ast.stmt)})
                  for node, name in found)


def probed_names() -> set:
    """The function names that the benchmark's probes wrap."""
    sys.path.insert(0, str(REPO / "nfbench"))
    try:
        from spans import PROBES
    finally:
        sys.path.pop(0)
    return {probe.attr for probe in PROBES}


def main() -> int:
    # (file, line) pairs the nfdof runs reach, then those the acceptance gate does
    by_cli, by_gate = set(), set()
    reached = by_cli
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(REPO / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        from nfdof.cli import main as nfdof_main
        configs = traffic_configs()
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            codes = {config.name: nfdof_main(["run", str(config), "--out",
                                              str(Path(out) / config.stem)])
                     for config in configs}
        print(f"nfdof run exit codes: {codes}")
        reached = by_gate
        import pytest
        pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(REPO),
                     str(REPO / "tests" / "test_acceptance.py")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    reached = by_cli | by_gate
    for path in sorted(PACKAGE.glob("*.py")):
        statements = statement_lines(path)
        missed = sorted(n for n in statements if (str(path), n) not in reached)
        print(f"{path.name}: {len(missed)} of {len(statements)} statements never reached")
        for n in missed:
            print(f"  {n:4d}  {statements[n]}")

    probed = probed_names()
    unreached, gate_only = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        statements = statement_lines(path)
        for line, name, body in definitions(path):
            keys = {(str(path), n) for n in body & statements.keys()}
            if keys and not keys & by_cli:
                tag = "  (probed by nfbench/spans.py)" if name in probed else ""
                (gate_only if keys & by_gate else unreached).append(
                    f"  {path.name}:{line}  {name}{tag}")
    print("definitions with no reached statement:", *unreached, sep="\n")
    print("definitions reached only by the acceptance gate:", *gate_only, sep="\n")
    # wc -l counts newline characters
    total = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    print(f"src/nfdof/*.py: {total} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
