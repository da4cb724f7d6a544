"""Statement coverage of the package under the Tier-1 suite, stdlib only.

    PYTHONPATH=src python tests/coverage_report.py [PYTEST ARGS ...]

The runner installs a ``sys.settrace`` tracer before the package is
imported, so module-level statements count too, then runs the suite
in-process with ``pytest.main`` (the Tier-1 paths, or the given arguments)
and prints, per file of the package, each statement that never executed,
outermost first: a statement inside one already listed is not listed again.
A statement counts as executed when any line of it fired a line event; one
that compiles to no code (a docstring, ``global``) is not counted.  Entries of
``ALLOWED`` are left out, each with its reason.

Only this process is traced.  Tests that run the program in a child process
(the killed-and-resumed training run, ``test_demo_runs``, the benchmark's
smoke runs) add nothing, so a statement only a child reaches is listed.
The runner runs the whole suite again (traced, 115 and 130 s, against 102
and 84 s untraced, in two pairs of runs on a 2-vCPU x86 host), so it is not
part of Tier-1.  It exits 1 when any statement outside ``ALLOWED`` is listed or
pytest fails, and the file name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Allowed(NamedTuple):
    file: str  # under src/pointerparse
    text: str  # the statement's first line, stripped; occurs exactly once in the file
    reason: str


ALLOWED = (
    Allowed("autodiff.py",
            'return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"',
            "a __repr__ for reading values in a debugger; no behaviour rests on it"),
    Allowed("linearize.py", 'return f"TargetSymbol({self.surface()!r})"',
            "a __repr__ for reading values in a debugger; no behaviour rests on it"),
    Allowed("cli.py", "sys.exit(main())",
            "the __main__ guard: `python -m pointerparse.cli` runs it in a process of its own"),
    Allowed("checkpoint.py", "except (OSError, AttributeError):",
            "blas_core skips a bundled OpenBLAS without the core query; numpy 2.4's "
            "bundled library has it, so only another numpy build reaches this"),
)


def executable_lines(code) -> set[int]:
    """Every line some instruction of ``code`` or a code object nested in it
    is attributed to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def _span(node: ast.AST) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


def unreached(path: Path, hit: set[int]) -> list[tuple[int, int]]:
    """(first line, last line) of each outermost statement of the file at
    ``path`` that has code and fired no line event, in file order."""
    source = path.read_text(encoding="utf-8")
    code_lines = executable_lines(compile(source, str(path), "exec"))
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                span = _span(child)
                if not code_lines.intersection(span):
                    continue
                if not hit.intersection(span):
                    found.append((span.start, span.stop - 1))
                    continue
            visit(child)

    visit(ast.parse(source))
    return found


def main(args: list[str]) -> int:
    spec = importlib.util.find_spec("pointerparse")
    if spec is None or spec.origin is None:
        print("pointerparse is not importable: run with PYTHONPATH=src")
        return 1
    package = Path(spec.origin).resolve().parent
    hits: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, bool] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().parent == package
        return trace_lines if ours[name] else None

    os.chdir(ROOT)
    sys.settrace(trace_calls)  # the suite starts no thread
    try:
        import pytest
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              *args])
    finally:
        sys.settrace(None)

    by_file: dict[Path, set[int]] = defaultdict(set)
    for name, lines in hits.items():
        by_file[Path(name).resolve()] |= lines
    allowed = {(a.file, a.text): a.reason for a in ALLOWED}
    listed = 0
    print("\nStatements of src/pointerparse no test in this process executed "
          "(child processes are not traced):")
    for path in sorted(package.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, last in unreached(path, by_file[path]):
            where = f"{path.name}:{first}" + (f"-{last}" if last > first else "")
            reason = allowed.get((path.name, lines[first - 1].strip()))
            if reason is None:
                listed += 1
                print(f"  {where}: {lines[first - 1].strip()}")
            else:
                print(f"  {where}: allowed, {reason}")
    print(f"{listed} statements outside the allowlist; pytest exited {int(status)}")
    return int(listed > 0 or status != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
