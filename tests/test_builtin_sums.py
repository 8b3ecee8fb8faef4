"""The builtin-``sum`` scan (``tools/builtin_sums.py``) and the fold it asks for.

CI's lint job runs the scan; tier-1 runs it too, so a ``sum(`` put back
into ``src/repro`` or into a test oracle fails locally as well.
"""

import math
import random

from repro.fold import left_sum
from tools import builtin_sums

SOURCE = '''
import numpy


class Histogram:
    def sum(self):
        return self.total.sum()


def total(values):
    return sum(values)


def totals(rows):
    return list(map(sum, rows))
'''


def test_src_and_the_oracles_have_no_builtin_sum():
    assert builtin_sums.find_builtin_sums() == []


def test_the_scan_covers_every_test_oracle():
    root = builtin_sums.REPO_ROOT
    scanned = {path.relative_to(root).as_posix() for path in builtin_sums.scanned_modules()}
    assert {
        "tests/hardware/test_cost_model_oracle.py",
        "tests/parallel/test_graph_template_oracle.py",
        "tests/sim/test_accounting_oracle.py",
    } <= scanned
    assert not {path for path in scanned if path.startswith("tests/") and "oracle" not in path}


def test_the_scan_reports_reads_of_the_builtin_only(tmp_path, monkeypatch):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "toy.py").write_text(SOURCE)
    (package / "fold.py").write_text("left_sum = sum\n")  # exempt: it defines the fold
    tests = tmp_path / "tests"
    (tests / "sim").mkdir(parents=True)
    (tests / "sim" / "test_toy_oracle.py").write_text(SOURCE)
    (tests / "test_top_oracle.py").write_text("TOTAL = sum([0.1] * 10)\n")
    (tests / "sim" / "test_toy.py").write_text(SOURCE)  # not an oracle: not scanned
    monkeypatch.setattr(builtin_sums, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(builtin_sums, "SRC", package)
    monkeypatch.setattr(builtin_sums, "TESTS", tests)

    # A method or attribute named sum is not the builtin; a call and the
    # function passed to map are.
    assert builtin_sums.find_builtin_sums() == [
        {"file": "src/repro/toy.py", "line": 11},
        {"file": "src/repro/toy.py", "line": 15},
        {"file": "tests/sim/test_toy_oracle.py", "line": 11},
        {"file": "tests/sim/test_toy_oracle.py", "line": 15},
        {"file": "tests/test_top_oracle.py", "line": 1},
    ]
    assert builtin_sums.main([]) == 1


def naive_left_fold(values, start=0):
    total = start
    for value in values:
        total = total + value
    return total


def test_left_sum_is_a_plain_left_fold():
    rng = random.Random(7)
    for size in (0, 1, 2, 17, 500):
        values = [rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-12, 12) for _ in range(size)]
        mixed = values + [3, True, 2**70]
        for sample in (values, mixed):
            assert float(left_sum(sample)).hex() == float(naive_left_fold(sample)).hex()
            assert left_sum(iter(sample), 1.5) == naive_left_fold(sample, 1.5)


def test_left_sum_is_the_builtin_only_where_the_builtin_is_a_left_fold():
    import builtins
    import sys

    assert (left_sum is builtins.sum) == (sys.version_info < (3, 12))


def test_left_sum_is_exact_for_ints_and_keeps_types():
    assert left_sum([2**80, 1, -(2**80)]) == 1
    assert isinstance(left_sum(range(10)), int)
    assert left_sum([]) == 0 and left_sum([], 0.0) == 0.0
    # Not compensated: the error of adding 0.1 ten times stays.
    assert left_sum([0.1] * 10) == 0.9999999999999999 != math.fsum([0.1] * 10)
