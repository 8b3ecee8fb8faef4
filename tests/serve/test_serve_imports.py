"""Import hygiene: what each entry point may pull in.

``import repro`` must not import the serve package.  Only ``repro.distill``
needs numpy: the CLI, the planners and the service run with it blocked.
And the CLI never needs pydantic: its request types are stdlib
dataclasses, and only the service validates bodies with pydantic.
"""

import subprocess
import sys
from pathlib import Path


class TestLazyImports:
    def test_importing_repro_does_not_import_serve(self):
        code = (
            "import sys; import repro; "
            "sys.exit(1 if 'repro.serve' in sys.modules else 0)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


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
