#!/usr/bin/env python
"""Find src definitions that nothing references: dead API.

Every function, class and method defined in ``src/repro`` (module or
class level) is looked up by name in the source, tests, benchmarks,
examples, tools, perfbench, docs, README and CI files.  A name counts as
referenced when it appears as a word anywhere outside its own
definition; tests count.  Names that appear nowhere else are reported
and the exit status is 1.

It is a name scan, not a call graph: a method shares its reference
count with every other definition of the same name.  Dunder names, classes
registered through a ``register_*`` decorator (the registry is what uses
them) and the ``http.server`` hooks the server calls (``do_*`` and
``log_message``) are skipped.

    python tools/unused_names.py    # one finding per line
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
SCANNED = (
    "src",
    "tests",
    "benchmarks",
    "examples",
    "tools",
    "perfbench",
    "docs",
    "README.md",
    ".github",
)
SUFFIXES = {".py", ".md", ".yml", ".yaml", ".toml", ".txt"}
WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scanned_files() -> Iterator[Path]:
    for entry in SCANNED:
        path = REPO_ROOT / entry
        candidates = [path] if path.is_file() else sorted(path.rglob("*"))
        for candidate in candidates:
            if candidate.is_file() and candidate.suffix in SUFFIXES:
                yield candidate


def decorator_name(decorator: ast.expr) -> str:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "attr", None) or getattr(target, "id", "")


def is_skipped(node: ast.AST, in_class: bool) -> bool:
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return True
    if in_class:
        return name.startswith("do_") or name == "log_message"
    return isinstance(node, ast.ClassDef) and any(
        decorator_name(decorator).startswith("register_") for decorator in node.decorator_list
    )


def definitions(path: Path) -> Iterator[Tuple[str, ast.AST]]:
    """(qualified name, node) of one module's module- and class-level defs."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(node, DEFS) or is_skipped(node, in_class=False):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFS) and not is_skipped(member, in_class=True):
                    yield f"{node.name}.{member.name}", member


def find_unused() -> List[Dict[str, object]]:
    totals: Counter = Counter()
    lines_of: Dict[Path, List[str]] = {}
    for path in scanned_files():
        lines = path.read_text(errors="replace").splitlines()
        lines_of[path] = lines
        totals.update(WORD_RE.findall("\n".join(lines)))

    findings = []
    for path in sorted(SRC.rglob("*.py")):
        lines = lines_of[path]
        for qualified, node in definitions(path):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = lines[first - 1 : node.end_lineno]
            if totals[node.name] == sum(WORD_RE.findall(line).count(node.name) for line in own):
                findings.append(
                    {
                        "name": qualified,
                        "file": str(path.relative_to(REPO_ROOT)),
                        "line": first,
                    }
                )
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    findings = find_unused()
    for finding in findings:
        print(f"{finding['file']}:{finding['line']}: {finding['name']} is never referenced")
    print(f"{len(findings)} unreferenced name(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
