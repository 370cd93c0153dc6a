"""Shared fixtures."""
import os
import pathlib
import subprocess
import sys

import pytest

import nakasum


@pytest.fixture
def run_child():
    """Run Python ``code`` in a fresh interpreter that imports this
    checkout's nakasum, and return its stdout.  ``timeout`` seconds kill the
    child: a call stuck inside C ignores signals, so an in-process time
    limit could not stop it."""
    src = str(pathlib.Path(nakasum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}

    def run(code: str, timeout: float) -> str:
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=timeout)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
