"""Helpers shared by the test modules."""

import os
import subprocess
import sys

import hypfluct


def _run_in_child(code: str) -> str:
    """stdout of a fresh interpreter running code, with this hypfluct on its path."""
    path = [os.path.dirname(os.path.dirname(hypfluct.__file__)),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
