"""tfrenorm benchmark: algebra, counterterms and spectral workloads.

Run from the repository root:

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A run replays the golden fixtures (the correctness gate), times the
set-up of the workload in fresh interpreters, and runs a fixed number of
whole job cycles in a fresh process (about ``--seconds`` of work at the
seed commit).  The traced run also times every CLI subcommand cold.
The last line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

JOBS_TIMEOUT_S = 150
# the job loop stops at the first job boundary after WALL_CAP * --seconds
WALL_CAP = 1.3
SMOKE_SEED = 987654321
SPAN_DIR = ROOT / ".perfbench"

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
]

_CALLS_AND_SELF = [
    "indices.enumerate_populated",
    "hierarchy.build_dag", "hierarchy.expand", "hierarchy.dependencies",
    "group.gamma_apply", "group.dn_apply", "group.gamma_entry",
    "constants.counterterm_table.semigroup", "constants.counterterm_table.anisotropic",
    "constants.C_constants_with_errors",
    "kernel.kernel_checks", "kernel.moment_bound_spreads", "kernel.semigroup_defect",
    "kernel.inversion_residual", "kernel.solve_L_div", "kernel.convolve",
    "mc.sample_noise", "mc.pi_f0", "mc.covariance_check",
    "mc.pi_f0_second_moment_check", "mc.bphz_triviality_check",
]
_VERIFIERS = ["verify_hierarchy", "verify_d0_rows", "verify_candidates",
              "verify_enumeration", "verify_constants"]
_COUNTS = ["indices.nodes_out", "indices.multiindex.validated", "hierarchy.terms",
           "group.output_terms", "constants.integrand_calls",
           "constants.integrand_points", "kernel.transforms", "kernel.transform_points"]


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    from cli_cold import SUBCOMMANDS

    names = []
    for prefix in _CALLS_AND_SELF:
        names += [(prefix + ".calls", "count"), (prefix + ".self_s", "s")]
    names += [(c, "count") for c in _COUNTS]
    names += [("hierarchy.expand_per_node", "1"), ("constants.max_rel_err", "1"),
              ("mc.sample_noise.p50_s", "s"), ("mc.samples_per_s", "1/s"),
              ("mc.worst_z", "1")]
    names += [(f"verify.{v}.self_s", "s") for v in _VERIFIERS]
    names += [("verify.units", "count")]
    names += [(f"cli.{sub}.cold_s", "s") for sub in SUBCOMMANDS]
    names += [("cli.import_s", "s"), ("cli.import.scipy_s", "s")]
    names += [("trace.jobs_per_s", "1/s"), ("trace.span_coverage", "1"),
              ("trace.spans", "count")]
    return names


# ---------------------------------------------------------------------------
# job process: set-up, then a fixed number of whole cycles of jobs
# ---------------------------------------------------------------------------


def run_jobs(workload, seed, seconds, trace, smoke):
    import workloads

    wl = workloads.WORKLOADS[workload]()
    rng = random.Random(f"{workload}/{seed}")
    wl.setup()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install([workloads])
    cycles = 1 if smoke else max(1, round(seconds / wl.cycle_s))
    plan = [wl.cycle(rng) for _ in range(cycles)]
    if smoke:  # one job of each kind
        plan = [list({kind: (kind, p) for kind, p in plan[0]}.values())]
    walls, errors = [], []
    start = time.perf_counter()
    deadline = start + WALL_CAP * seconds
    clock = hostclock.PROBES[wl.probe]
    probes = [clock()]
    for kind, params in (job for cycle in plan for job in cycle):
        if time.perf_counter() > deadline and not smoke:
            break  # a slow host: end early rather than overrun the run
        t0 = time.perf_counter()
        try:
            if tracer is None:
                wl.run(kind, params, None)
            else:
                tracer.span("job", wl.run, kind, params, tracer)
        except Exception as exc:  # a failed job is counted, never fatal
            errors.append(f"{kind} {params}: {type(exc).__name__}: {exc}")
        walls.append(time.perf_counter() - t0)
        probes.append(clock())
    out = {
        "walls": walls,
        "probes": probes,
        "errors": errors,
        "elapsed": time.perf_counter() - start,
        "rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write_spans(span_path(workload, seed), "jobs")
    return out


def peak_rss_mb():
    """High-water resident set of this process image.

    ru_maxrss would also count the parent's memory, which Linux carries
    across the fork and exec that start this process; VmHWM does not.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_only(workload, seed):
    import workloads

    wl = workloads.WORKLOADS[workload]()
    wl.setup()
    wl.cycle(random.Random(f"{workload}/{seed}"))


def span_path(workload, seed):
    return SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"


# ---------------------------------------------------------------------------
# the correctness gate, and the traced run's fixed job on every layer
# ---------------------------------------------------------------------------


def gate(tracer):
    """Replay the golden fixtures; raise on any drift."""
    from tfrenorm import verify

    if tracer is None:
        verify.verify_fixtures()
    else:
        # verify_fixtures dispatches through a private table; call the
        # public replays one by one so each gets its own span
        problems = []
        for name in verify.FIXTURE_NAMES:
            replay = getattr(verify, "verify_" + name.removesuffix(".json"))
            problems += replay(verify.load_fixture(name))[1]
        if problems:
            raise RuntimeError("fixture drift: " + "; ".join(problems))


def census(tracer):
    """One small fixed job on each layer, checked like any job.

    The traced run calls it so that every per-layer figure is measured on
    every workload, also for layers the workload's own jobs never touch.
    """
    import workloads
    from tfrenorm import kernel

    algebra = workloads.Algebra()
    algebra.setup()
    algebra.run("d1", {"alpha": 0.55, "d": 1, "seed": 7}, tracer)
    spectral = workloads.Spectral()
    spectral.setup()
    for kind in ("covariance", "moment", "bphz_f0f1"):
        spectral.run(kind, {"alpha": 0.55, "tau": 1e-14, "m0": 1.0, "seed": 7}, tracer)
    small = kernel.make_grid(d=1, sizes=(128, 512), boxes=(1e-4, 4.0))
    checks = kernel.kernel_checks(small)
    if not (checks["semigroup"] < 1e-10 and checks["inversion_residual"] < 1e-10
            and checks["scaling"] < 0.05):
        raise RuntimeError(f"kernel checks failed on the small grid: {checks}")


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _child(args, timeout):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def tail(times):
    """(value, percentile) of the highest order statistic with at least ten
    jobs beyond it; the smallest job time when there are ten jobs or fewer."""
    xs = sorted(times)
    rank = max(0, len(xs) - 11)
    return xs[rank], 100.0 * (rank + 1) / len(xs)


def measure(workload, seed, seconds, trace, smoke=False):
    """One run; returns (result dict, notes for stderr)."""
    import cli_cold
    import workloads

    spec = workloads.WORKLOADS[workload]
    tracer = None
    if trace:
        from tracer import Tracer

        import tfrenorm.cli  # noqa: F401  (load every layer before wrapping)

        SPAN_DIR.mkdir(exist_ok=True)
        span_path(workload, seed).unlink(missing_ok=True)
        tracer = Tracer()
        tracer.install([workloads])
    notes = []
    gate_ok = True
    try:
        gate(tracer)
        if tracer is not None:
            census(tracer)
    except Exception as exc:
        gate_ok = False
        notes.append(f"gate failed: {exc}")

    setup_walls = []
    startup = hostclock.PROBES["startup"]
    setup_probes = [startup()]
    for _ in range(1 if smoke else spec.setup_repeats):
        t0 = time.perf_counter()
        _child(["--role", "setup", "--workload", workload, "--seed", str(seed)], 60)
        setup_walls.append(time.perf_counter() - t0)
        setup_probes.append(startup())
    setups = startup.normalize(setup_walls, setup_probes)

    job_args = ["--role", "jobs", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        job_args.append("--smoke")
    jobs = json.loads(_child(job_args, JOBS_TIMEOUT_S).splitlines()[-1])
    walls = jobs["walls"]
    times = hostclock.PROBES[spec.probe].normalize(walls, jobs["probes"])
    notes += jobs["errors"][:5]

    cli_problems = []
    if trace:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            map_path = Path(tmp) / "map.json"
            cli_cold.write_map(map_path)
            cli_times, cli_problems = cli_cold.run_cold(list(cli_cold.SUBCOMMANDS), ROOT,
                                                        map_path)
        notes += cli_problems

    n = len(times)
    failed = len(jobs["errors"])
    tail_s, pct = tail(times)
    jobs_per_s = n / sum(times)
    notes.append(f"{workload} seed={seed}: {n} jobs in {jobs['elapsed']:.2f} s, "
                 f"failed {failed}, tail = p{pct:.1f} of {n} jobs")
    notes.append(f"wall clock, not normalized: jobs_per_s {n / sum(walls):.4g}, "
                 f"job_p50_s {statistics.median(walls):.4g}, "
                 f"job_tail_s {tail(walls)[0]:.4g}, "
                 f"setup_s {statistics.median(setup_walls):.4g}; host speed "
                 f"{sum(walls) / sum(times):.3f}x the reference's time")
    if trace:
        tracer.write_spans(span_path(workload, seed), "gate")
        metrics = layer_metrics(tracer, jobs, cli_times, jobs_per_s)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": jobs_per_s,
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_s,
            "peak_rss_mb": jobs["rss_mb"],
        }
    units = dict(per_layer_names() if trace else END_TO_END)
    result = {
        "correct": gate_ok and not cli_problems and failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, notes


def layer_metrics(tracer, jobs, cli_times, jobs_per_s):
    from tracer import merge

    import cli_cold

    snap = merge(tracer.snapshot(), jobs["trace"])
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    out = {}
    for prefix in _CALLS_AND_SELF:
        out[prefix + ".calls"] = calls.get(prefix, 0)
        out[prefix + ".self_s"] = self_s.get(prefix, 0.0)
    for name in _COUNTS:
        out[name] = counts.get(name, 0)
    expanded = counts.get("hierarchy.dag_expanded_nodes", 0)
    out["hierarchy.expand_per_node"] = (
        counts.get("hierarchy.expand_in_build_dag", 0) / expanded if expanded else 0.0)
    out["constants.max_rel_err"] = snap["maxima"].get("constants.max_rel_err", 0.0)
    samples = snap["durations"].get("mc.sample_noise", [])
    out["mc.sample_noise.p50_s"] = statistics.median(samples) if samples else 0.0
    estimator_s = sum(snap["total_s"].get(k, 0.0) for k in (
        "mc.covariance_check", "mc.pi_f0_second_moment_check", "mc.bphz_triviality_check"))
    out["mc.samples_per_s"] = len(samples) / estimator_s if estimator_s else 0.0
    out["mc.worst_z"] = snap["maxima"].get("mc.worst_z", 0.0)
    for v in _VERIFIERS:
        out[f"verify.{v}.self_s"] = self_s.get(f"verify.{v}", 0.0)
    out["verify.units"] = counts.get("verify.units", 0)
    for sub, seconds in zip(cli_cold.SUBCOMMANDS, cli_times):
        out[f"cli.{sub}.cold_s"] = seconds
    out["cli.import_s"], out["cli.import.scipy_s"] = cli_cold.import_times(ROOT)
    out["trace.jobs_per_s"] = jobs_per_s
    job_total = jobs["trace"]["total_s"].get("job", 0.0)
    job_self = jobs["trace"]["self_s"].get("job", 0.0)
    out["trace.span_coverage"] = 1.0 - job_self / job_total if job_total else 0.0
    out["trace.spans"] = snap["spans"]
    return out


def check_names(result, expected):
    """Problems with a result's metric names and units, as text lines."""
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [f"missing {n}" for n in expected if n not in got]
    problems += [f"unexpected {n}" for n in got if n not in expected]
    problems += [f"{n}: unit {got[n]} != {u}" for n, u in expected.items()
                 if n in got and got[n] != u]
    problems += [f"{n} is not finite" for n, v in result["metrics"].items()
                 if not math.isfinite(v["value"])]
    return problems


def smoke():
    """A few jobs of every kind on every workload, plain and traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        rates = {}
        for trace in (0, 1):
            result, notes = measure(workload, SMOKE_SEED, 0, trace, smoke=True)
            for line in notes:
                print(f"  {line}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                print(f"{workload:13s} trace={trace} {name:45s} "
                      f"{metric['value']:.6g} {metric['unit']}")
            found = check_names(result, expected[trace])
            if result["failed"] or not result["correct"]:
                found.append(f"failed_ratio {result['failed'] / result['attempted']:.3f}, "
                             f"correct={result['correct']}")
            problems += [f"{workload} trace={trace}: {p}" for p in found]
            rates[trace] = (result["metrics"]["jobs_per_s"]["value"] if trace == 0
                            else result["metrics"]["trace.jobs_per_s"]["value"])
        print(f"{workload:13s} tracing overhead: jobs_per_s {rates[0]:.4g} plain, "
              f"{rates[1]:.4g} traced ({rates[1] / rates[0] - 1:+.1%})")
    for line in problems:
        print(f"SMOKE FAIL {line}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("algebra", "counterterms", "spectral"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="with no --role: run every workload for a few jobs and check "
                             "the printed metrics")
    parser.add_argument("--role", choices=("setup", "jobs"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tfrenorm" / "__init__.py").is_file():
        print(f"no tfrenorm sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("WORKBENCH_THREADS", None)
    # One CPU for the whole run, inherited by every child: the host-speed
    # probe then measures the CPU that the timed work runs on.
    if args.role is None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.role == "setup":
        setup_only(args.workload, args.seed)
        return 0
    if args.role == "jobs":
        out = run_jobs(args.workload, args.seed, args.seconds, args.trace, args.smoke)
        print(json.dumps(out))
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, notes = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in notes:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
