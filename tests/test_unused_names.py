"""The dead-API scan (``tools/unused_names.py``).

CI's lint job runs the scan; tier-1 runs it too, so a definition that
loses its last reference fails locally as well.
"""

from tools import unused_names

SOURCE = '''
from http.server import BaseHTTPRequestHandler


def used():
    return 1


def dead():
    return 2


def recursive(n):
    return recursive(n - 1) if n else 0


class Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        pass

    def log_message(self, format, *args):
        super().log_message(format, *args)


@register_policy("toy")
class Registered:
    def __init__(self):
        pass
'''


def test_src_has_no_unreferenced_definitions():
    assert unused_names.find_unused() == []


def test_the_scan_reports_only_unreferenced_definitions(tmp_path, monkeypatch):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "toy.py").write_text(SOURCE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text("from repro.toy import Handler, used\n")
    monkeypatch.setattr(unused_names, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(unused_names, "SRC", package)

    findings = unused_names.find_unused()
    # A self-call is not a reference; hooks, dunders and registered
    # classes are skipped; a name a test imports counts as referenced.
    assert [finding["name"] for finding in findings] == ["dead", "recursive"]
    assert findings[0] == {"name": "dead", "file": "src/repro/toy.py", "line": 9}
