"""What importing the package costs: heavy modules load on first use.

A warm replay builds no trace, dispatches no task and prints no version,
so importing the CLI or the serving stack must not load numpy, the
process pool or the metadata lookup.  Each check runs in a fresh
interpreter, since this test process has long since loaded them all.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent

#: Modules that ``import repro.*`` must leave out of ``sys.modules``.
DEFERRED = ("numpy", "multiprocessing", "concurrent.futures.process",
            "importlib.metadata")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
         + code],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestDeferredImports:
    def test_imports_leave_heavy_modules_out_until_a_trace_is_built(self):
        seen = run_fresh(
            "import json\n"
            "import repro.cli\n"
            "import repro.harness.experiments, repro.serve.http, "
            "repro.serve.client\n"
            f"loaded = [m for m in {DEFERRED!r} if m in sys.modules]\n"
            "from repro.workloads import build_trace, get_workload\n"
            "build_trace(get_workload('nw'), max_accesses=200)\n"
            "print(json.dumps({'loaded': loaded,\n"
            "                  'numpy_after_build': 'numpy' in sys.modules}))\n"
        )
        assert seen["loaded"] == []
        assert seen["numpy_after_build"]

    # Forked workers inherit the parent's numpy, and a server that
    # reports ready has already paid for it.
    @pytest.mark.parametrize("first_use", [
        "pool = WorkerPool(1)\n"
        "try:\n"
        "    pool.submit(abs, -1).result(timeout=60)\n"
        "    after = 'numpy' in sys.modules\n"
        "finally:\n"
        "    pool.shutdown()\n",
        "with ThreadedServer(workers=1, cache_dir={cache_dir!r}):\n"
        "    after = 'numpy' in sys.modules\n",
    ], ids=["pool-submit", "server-ready"])
    def test_build_stack_loads_before_first_use(self, first_use, tmp_path):
        seen = run_fresh(
            "import json\n"
            "from repro.exec.pool import WorkerPool\n"
            "from repro.serve.http import ThreadedServer\n"
            "before = 'numpy' in sys.modules\n"
            + first_use.format(cache_dir=str(tmp_path))
            + "print(json.dumps({'before': before, 'after': after}))\n"
        )
        assert seen == {"before": False, "after": True}


class TestVersionLookup:
    def test_fallback_version_tracks_pyproject(self, monkeypatch):
        import importlib.metadata

        def not_installed(name: str) -> str:
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", not_installed)
        declared = re.search(r'^version = "([^"]+)"$',
                             (ROOT / "pyproject.toml").read_text(),
                             re.MULTILINE)
        assert declared is not None
        assert repro._detect_version() == declared.group(1)

    def test_version_is_cached_after_first_read(self):
        seen = run_fresh(
            "import json, repro\n"
            "first = 'importlib.metadata' in sys.modules\n"
            "version = repro.__version__\n"
            "print(json.dumps({'first': first, 'version': version,\n"
            "                  'cached': vars(repro)['__version__']}))\n"
        )
        assert not seen["first"]
        assert seen["cached"] == seen["version"] == repro.__version__
