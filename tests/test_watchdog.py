"""The per-test watchdog of ``tests/conftest.py`` ends a hung run with stacks."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SUITE_CONFTEST = Path(__file__).resolve().parent / "conftest.py"


def test_a_hung_test_exits_the_run_with_every_stack(tmp_path):
    # A run whose conftest is the suite's, with the limit lowered to 2 s.
    (tmp_path / "conftest.py").write_text(
        textwrap.dedent(
            f"""
            import importlib.util

            spec = importlib.util.spec_from_file_location(
                "suite_conftest", {str(SUITE_CONFTEST)!r}
            )
            suite = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(suite)
            suite.TEST_WATCHDOG_SECONDS = 2.0
            pytest_configure = suite.pytest_configure
            pytest_unconfigure = suite.pytest_unconfigure
            pytest_runtest_protocol = suite.pytest_runtest_protocol
            """
        )
    )
    (tmp_path / "test_hang.py").write_text(
        "import time\n\n\ndef test_hangs():\n    time.sleep(60)\n"
    )
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", str(tmp_path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert completed.returncode != 0
    assert "Timeout (0:00:02)!" in completed.stderr
    assert "test_hangs" in completed.stderr
