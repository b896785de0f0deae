"""Helpers shared by the test modules."""

import os
import subprocess
import sys

import hypfluct
from hypfluct import sampling

# (SUB_CHUNK, BLOCK) pairs of the chunking-invariance tests: the defaults;
# 1024-point calls in 1000-point windows, which do not divide them, and in
# 2^16-point windows, wider than every call of those tests; one window per
# 8192-point call; 2^19-point calls in 1000-point windows
SUB_CHUNK_AND_BLOCK = ((sampling.SUB_CHUNK, sampling.BLOCK), (1024, 1000), (1024, 2 ** 16),
                       (8192, 8192), (8 * sampling.SUB_CHUNK, 1000))


def _run_in_child(code: str) -> str:
    """stdout of a fresh interpreter running code, with this hypfluct on its path."""
    path = [os.path.dirname(os.path.dirname(hypfluct.__file__)),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
