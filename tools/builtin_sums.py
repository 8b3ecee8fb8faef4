#!/usr/bin/env python
"""Find uses of the builtin ``sum`` in ``src/repro`` and the test oracles.

From Python 3.12 on, ``sum()`` adds floats with compensated summation, so
its float totals differ in the last bits from 3.10's and 3.11's.  Every sum
in the package goes through :func:`repro.fold.left_sum`, a left fold that
gives the same bytes on every version.  The test oracles
(``tests/**/test_*oracle*.py``) compare their own float totals with the
package's by ``==``, so they must add the same way.  This scan parses each
of those modules and reports every read of the bare name ``sum``: a call,
or the function passed along.  Attributes and methods named ``sum``
(``sample.sum``, ``Tensor.sum``) are not the builtin and are not reported,
and neither is ``repro/fold.py`` (:data:`EXEMPT`), which defines
``left_sum`` as the builtin on the Pythons where the builtin is that fold.
Any finding sets the exit status to 1.

    python tools/builtin_sums.py    # one finding per line
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
TESTS = REPO_ROOT / "tests"
#: Modules, relative to :data:`SRC`, allowed to name the builtin.
EXEMPT = {"fold.py"}


def scanned_modules() -> List[Path]:
    """Every module of :data:`SRC` but :data:`EXEMPT`, then the test oracles."""
    package = [
        path for path in SRC.rglob("*.py") if path.relative_to(SRC).as_posix() not in EXEMPT
    ]
    return sorted(package) + sorted(TESTS.glob("**/test_*oracle*.py"))


def find_builtin_sums() -> List[Dict[str, object]]:
    findings = []
    for path in scanned_modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = sorted(
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load)
        )
        file = str(path.relative_to(REPO_ROOT))
        findings += [{"file": file, "line": line} for line in lines]
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    findings = find_builtin_sums()
    for finding in findings:
        print(f"{finding['file']}:{finding['line']}: builtin sum; use repro.fold.left_sum")
    print(f"{len(findings)} builtin sum(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
