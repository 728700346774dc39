"""Every CLI subcommand, run cold in a fresh interpreter on small inputs.

Each run must exit 0 and print strict JSON (NaN and Infinity rejected).
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time

# subcommand -> arguments; "{map}" is a structure map the benchmark writes
# with structure_map_to_json
SUBCOMMANDS = {
    "enumerate": ["--alpha", "0.55", "--cutoff", "3.0"],
    "homogeneity": ["--alpha", "0.55", "--beta", "2f1+g(0,1)"],
    "expand": ["--alpha", "0.55", "--beta", "f0+f1"],
    "deps": ["--alpha", "0.55", "--beta", "f0+f1"],
    "gamma-entry": ["--map", "{map}", "--beta", "f0+f1", "--gamma", "f0"],
    "kappa": ["--alpha", "0.55"],
    "constants": ["--alpha", "0.55"],
    "counterterm": ["--alpha", "0.55", "--tau", "1e-4"],
    "h-eval": ["--alpha", "0.55", "--tau", "1e-4", "--a", "0.5", "--a-prime", "-1.0",
               "--b", "2.0", "--b-prime", "0.25"],
    "fixtures-verify": [],
    "simulate": ["--task", "covariance", "--alpha", "0.55", "--tau", "1e-14",
                 "--samples", "32"],
    "kernel-check": ["--sizes", "128,512", "--boxes", "1e-4,4.0"],
}

TIMEOUT_S = 60


def _strict_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def child_env(root):
    env = dict(os.environ)
    env.pop("WORKBENCH_THREADS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_map(path):
    """A small admissible structure map at alpha = 0.55, d = 1."""
    from tfrenorm.group import StructureMap, structure_map_to_json
    from tfrenorm.indices import ModelParams, parse_multiindex

    params = ModelParams(alpha=0.55, d=1)
    smap = StructureMap(params, {
        (0, 0): {parse_multiindex("f0"): 1.5, parse_multiindex("f0+f1"): -0.5},
        (0, 1): {parse_multiindex("f1+g(0,1)"): 2.0},
    })
    path.write_text(json.dumps(structure_map_to_json(smap)))


def run_cold(names, root, map_path):
    """([seconds per run, in order], [problems]): a run with a bad exit code
    or output is timed like any other and reported as a problem."""
    env = child_env(root)
    out, problems = [], []
    for name in names:
        args = [a.replace("{map}", str(map_path)) for a in SUBCOMMANDS[name]]
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "tfrenorm.cli", name, *args],
                                  cwd=root, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out.append(time.perf_counter() - start)
            problems.append(f"cli {name} did not finish in {TIMEOUT_S} s")
            continue
        out.append(time.perf_counter() - start)
        if proc.returncode != 0:
            problems.append(f"cli {name} exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        try:
            json.loads(proc.stdout, parse_constant=_strict_constant)
        except ValueError as exc:
            problems.append(f"cli {name} printed no strict JSON: {exc}")
    return out, problems


def import_times(root, repeats=3):
    """(median cold `import tfrenorm.cli` seconds, scipy's share of it)."""
    env = child_env(root)
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tfrenorm.cli"], cwd=root, env=env,
                       check=True, timeout=TIMEOUT_S)
        walls.append(time.perf_counter() - start)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tfrenorm.cli"],
                          cwd=root, env=env, capture_output=True, text=True, check=True,
                          timeout=TIMEOUT_S)
    return statistics.median(walls), _scipy_seconds(proc.stderr)


def _scipy_seconds(importtime_log):
    """Cumulative import time of the outermost scipy modules.

    ``-X importtime`` prints modules in post-order, indented by depth, so
    read it backwards to see each module after its ancestors.
    """
    total_us = 0
    stack = []  # (depth, is scipy) of the ancestors of the current line
    for line in reversed(importtime_log.splitlines()):
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
        if not m:
            continue
        depth, name = len(m.group(2)), m.group(3)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(flag for _, flag in stack):
            total_us += int(m.group(1))
        stack.append((depth, is_scipy))
    return total_us * 1e-6
