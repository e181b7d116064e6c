"""Statements of ``src/decaycert/`` that no tier-1 test executes.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
and prints, one a line, each package statement that never ran, as
``file: statement`` (the statement's first source line).  A simple
statement ran when a line event fell on any of its lines; a compound one
(``if``, ``for``, ``def``, ...) when one fell on its header.  Docstrings
and other bare constants compile to no code and are not statements here.

It exits 1 unless the suite passes and the list equals ``ALLOWED`` below.
Hypothesis draws from a fixed seed, so the list is the same on every run.
The suite takes about three times as long as untraced.  Run from the
repository root:

    python tools/statements_run.py
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "decaycert"

# Statements kept though no test can reach them, each as a guard against a fault
ALLOWED = (
    # the module entry point runs only in a subprocess, which the tracer does not see
    "__main__.py: import sys",
    "__main__.py: from .cli import main",
    "__main__.py: sys.exit(main())",
    # every stage tuple of _solve ends in _walk, which always ends the run by raising
    'homotopy.py: raise AssertionError("slack ladder ended without a rung at eps")',
    # no matrix found yet misses the bound with both numpy's eigenvector and the SVD one
    'linear.py: raise ValueError(f"dominant direction residual {residual:.2e} exceeds '
    '1e-8 * max(1, rho)")',
    # the walk's loop invariant rules these two out; a label that changes between
    # lookups is caught first, as a revisited cell
    'triangulation.py: raise WalkError(f"expected one duplicate of label {dup} in {labels}")',
    'triangulation.py: raise WalkError("complete-cell search exhausted the complex")',
)


def statements(source: str) -> list[tuple[range, str]]:
    """Each statement: the lines that show it ran, and its text."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        text = ast.get_source_segment(source, node).splitlines()[0].strip()
        out.append((range(first, max(first, last) + 1), text))
    return out


class LineTracer:
    """Line events of the package's own frames, by file."""

    def __init__(self, package: Path):
        self.prefix = str(package) + "/"
        self.lines: dict[str, set[int]] = {}

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        seen = self.lines.setdefault(name, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        seen.add(frame.f_lineno)
        return local

    def pytest_runtest_setup(self, item):
        """A pytest hook: set the tracer again before each test, since a RecursionError
        raised inside it (as in a test of a too-deep spec) makes Python drop it."""
        sys.settrace(self)


def unrun(tracer: LineTracer) -> list[str]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = tracer.lines.get(str(path), set())
        for lines, text in statements(path.read_text()):
            if ran.isdisjoint(lines):
                out.append(f"{path.name}: {text}")
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    tracer = LineTracer(PACKAGE)
    sys.settrace(tracer)  # before the package is first imported
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--hypothesis-seed=0", "--rootdir", str(ROOT), str(ROOT / "tests")],
                           plugins=[tracer])
    finally:
        sys.settrace(None)
    missed = unrun(tracer)
    print(f"\n{len(missed)} statements of src/decaycert ran in no test:")
    for line in missed:
        print(f"  {line}")
    if code != 0:
        print(f"the suite itself failed (pytest exit {code})")
        return 1
    if Counter(missed) != Counter(ALLOWED):
        for line in sorted((Counter(missed) - Counter(ALLOWED)).elements()):
            print(f"not allowed: {line}")
        for line in sorted((Counter(ALLOWED) - Counter(missed)).elements()):
            print(f"allowed but ran (drop it from ALLOWED): {line}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
