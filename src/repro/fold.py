"""One left-to-right sum for the whole package.

From Python 3.12 on, the builtin ``sum()`` adds floats with compensated
summation, so a float total can differ in the last bits from the plain
left fold that Python 3.10 and 3.11 compute.  Every sum in ``src/repro``
goes through :func:`left_sum` instead, so results, goldens and reports are
the same bytes on every supported Python.  ``tools/builtin_sums.py`` (run
in CI's lint job and in the test suite) keeps the builtin out of every
other module.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import add
from typing import Any, Iterable


def _reduce_sum(values: Iterable, start: Any = 0) -> Any:
    return reduce(add, values, start)


#: ``left_sum(values, start=0)`` is ``start + v0 + v1 + ...``, added
#: strictly left to right: exact for ints, and for floats bit-identical to
#: the builtin ``sum()`` of Python 3.11.  Before 3.12 the builtin *is* that
#: fold (it adds floats one at a time in a C double) and the fastest one,
#: so it is used as is; from 3.12 on a C-level ``reduce`` does the fold.
#:
#: Example:
#:     >>> from repro.fold import left_sum
#:     >>> left_sum([0.1] * 10)
#:     0.9999999999999999
#:     >>> left_sum(range(5), 10)
#:     20
left_sum = sum if sys.version_info < (3, 12) else _reduce_sum
