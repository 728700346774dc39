"""The package run in a child interpreter, from the source tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, timeout, stdout=subprocess.PIPE):
    """subprocess.run of this interpreter with args, from the repository
    root with its src first on PYTHONPATH; stderr, and by default stdout,
    captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)

