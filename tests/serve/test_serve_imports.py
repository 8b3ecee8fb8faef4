"""Import hygiene: what each entry point may pull in.

The checks look at which modules get loaded, not at timings, and each runs
in a fresh interpreter.  ``import repro`` is lazy (PEP 562): it loads
neither the cluster, tune and store layers nor the serve package.  The
service set-up path, ``import repro.cli`` plus a ``PlannerService``, loads
no pydantic (nothing in the library uses it), no cluster or tune layer and
no HTTP frontend; and once set up, a ``/v1/plan`` request loads no further
``repro`` module, so no import cost hides inside a timed request.  Only
``repro.distill`` needs numpy: the CLI, the planners and the service run
with it blocked.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Prints the loaded module names as one JSON line (only those loaded since
#: ``before`` when the code sets it); ``loaded()`` appends it.
_REPORT = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(set(sys.modules) - globals().get('before', set()))))\n"
)


def loaded(code: str) -> list:
    """The module names in ``sys.modules`` after running ``code`` fresh
    (only those loaded since ``before``, when ``code`` sets it)."""
    result = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=str(REPO_ROOT),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def under(modules: list, *packages: str) -> list:
    """The modules that are one of ``packages`` or inside one."""
    return [
        name
        for name in modules
        if any(name == package or name.startswith(package + ".") for package in packages)
    ]


SERVICE_SETUP = (
    "import repro.cli\n"
    "from repro.serve.client import LocalClient\n"
    "from repro.serve.service import PlannerService\n"
    "client = LocalClient(PlannerService())\n"
)


class TestLazyImports:
    def test_importing_repro_does_not_import_serve(self):
        assert under(loaded("import repro"), "repro.serve") == []

    def test_importing_repro_loads_no_cluster_tune_or_store(self):
        assert under(loaded("import repro"), "repro.cluster", "repro.tune", "repro.store") == []

    def test_public_names_still_resolve(self):
        modules = loaded(
            "import repro, repro.analysis, repro.core, repro.serve\n"
            "for package in (repro, repro.analysis, repro.core, repro.serve):\n"
            "    for name in package.__all__:\n"
            "        getattr(package, name)\n"
            "from repro import PipeBD, tune\n"
            "import repro.tune.space\n"
            "assert callable(repro.tune) and repro.tune is tune, repro.tune\n"
        )
        assert "repro.core.pipebd" in modules

    def test_every_module_imports_first(self):
        # With lazy package exports an import cycle no longer hides behind
        # an eager ``repro/__init__``: each module must import on its own.
        modules = loaded(
            "import importlib, importlib.util, pkgutil, sys\n"
            "import repro\n"
            "names = [info.name for info in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
            "if importlib.util.find_spec('numpy') is None:  # only repro.distill needs it\n"
            "    names = [name for name in names if not name.startswith('repro.distill')]\n"
            "for name in names:\n"
            "    for key in [key for key in sys.modules if key.startswith('repro')]:\n"
            "        del sys.modules[key]\n"
            "    importlib.import_module(name)\n"
            "assert len(names) > 80, names\n"
        )
        assert under(modules, "repro")  # the last module, imported on its own

    def test_service_setup_loads_no_pydantic_cluster_tune_or_http(self):
        modules = loaded(SERVICE_SETUP)
        assert "repro.serve.service" in modules
        assert under(
            modules, "pydantic", "repro.cluster", "repro.tune", "repro.serve.http"
        ) == []

    def test_a_plan_request_after_setup_loads_no_repro_module(self):
        new = loaded(
            SERVICE_SETUP + "import sys\nbefore = set(sys.modules)\n"
            "response = client.post('/v1/plan', json={'steps': 4})\n"
            "assert response.status_code == 200, response.json()\n"
        )
        assert "repro.cli" not in new  # only what the request loaded
        assert under(new, "repro") == []


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
            cwd=str(REPO_ROOT),
        )
        assert result.returncode == 0, result.stderr
        assert out.stat().st_size > 0


class TestPydanticFreeCliPath:
    def test_cli_commands_without_pydantic(self, tmp_path):
        # Nothing in the library uses pydantic: blocking it must leave the
        # CLI import, the parser and run / cluster / tune working.
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
            cwd=str(REPO_ROOT),
        )
        assert result.returncode == 0, result.stderr
        assert out.stat().st_size > 0
