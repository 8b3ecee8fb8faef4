"""Import hygiene: the serve package never drags FastAPI in by accident.

``import repro`` (and ``import repro.serve``) must work on a bare
install; only :func:`repro.serve.app.create_app` touches FastAPI, lazily,
and when the stack is missing it fails with one actionable message
instead of an ImportError traceback.  Likewise only ``repro.distill``
needs numpy: the CLI, the planners and the service run with it blocked.
And the CLI never needs pydantic: its request types are stdlib
dataclasses, and only the service validates bodies with pydantic.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError


def _fastapi_installed() -> bool:
    try:
        import fastapi  # noqa: F401

        return True
    except ImportError:
        return False


class TestLazyImports:
    def test_importing_serve_does_not_import_fastapi(self):
        # A subprocess gives a clean module table regardless of what other
        # tests have already imported into this process.
        code = (
            "import sys; import repro.serve; "
            "sys.exit(1 if 'fastapi' in sys.modules else 0)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_importing_repro_does_not_import_serve(self):
        code = (
            "import sys; import repro; "
            "sys.exit(1 if 'repro.serve' in sys.modules else 0)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.skipif(
        _fastapi_installed(), reason="fastapi is installed; the gate is open"
    )
    def test_create_app_without_fastapi_has_an_actionable_error(self):
        from repro.serve.app import create_app

        with pytest.raises(ReproError, match="pip install"):
            create_app()

    @pytest.mark.skipif(
        not _fastapi_installed(), reason="fastapi is not installed"
    )
    def test_create_app_with_fastapi_builds_the_routes(self):
        from repro.serve.app import create_app

        app = create_app()
        paths = {route.path for route in app.routes}
        assert "/v1/plan" in paths
        assert "/v1/healthz" in paths


class TestNumpyFreePlannerPath:
    def test_cli_run_and_plan_endpoint_without_numpy(self, tmp_path):
        # Blocking numpy must leave the CLI import, a TR+DPU+AHD run and a
        # /v1/plan request working.
        code = (
            "import sys; sys.modules['numpy'] = None\n"
            "import repro.cli\n"
            "status = repro.cli.main(['run', '--strategy', 'TR+DPU+AHD',\n"
            "                         '--steps', '4', '--out', sys.argv[1]])\n"
            "assert status == 0, status\n"
            "from repro.serve.client import LocalClient\n"
            "from repro.serve.service import PlannerService\n"
            "client = LocalClient(PlannerService())\n"
            "response = client.post('/v1/plan', json={'steps': 4})\n"
            "assert response.status_code == 200, response.text\n"
        )
        out = tmp_path / "run.json"
        result = subprocess.run(
            [sys.executable, "-c", code, str(out)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(Path(__file__).resolve().parents[2]),
        )
        assert result.returncode == 0, result.stderr
        assert out.stat().st_size > 0


class TestPydanticFreeCliPath:
    def test_cli_commands_without_pydantic(self, tmp_path):
        # The request types are stdlib dataclasses: blocking pydantic must
        # leave the CLI import, the parser and run / cluster / tune working.
        code = (
            "import sys; sys.modules['pydantic'] = None\n"
            "import repro.cli\n"
            "repro.cli.build_parser()\n"
            "out = sys.argv[1]\n"
            "for argv in (['run', '--steps', '4'],\n"
            "             ['cluster', '--num-jobs', '3', '--policy', 'fifo'],\n"
            "             ['tune', '--budget', '2', '--steps', '4']):\n"
            "    status = repro.cli.main(argv + ['--out', out])\n"
            "    assert status == 0, (argv, status)\n"
            "assert 'repro.serve' not in sys.modules\n"
        )
        out = tmp_path / "out.json"
        result = subprocess.run(
            [sys.executable, "-c", code, str(out)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(Path(__file__).resolve().parents[2]),
        )
        assert result.returncode == 0, result.stderr
        assert out.stat().st_size > 0
