"""grassmat benchmark: one workload, closed loop, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the program is imported from ../src next to this
directory.  One caller runs the workload's campaign list (a "pass") in
sequence through grassmat.cli.main, then the next pass, until --seconds
have gone by; every pass runs the same inputs.  Between passes, outside
the timed region, the gate checks every verdict.

--trace 0 prints the end-to-end metrics:
  setup_s      median over this process and fresh child processes of the
               time to import grassmat, build the campaign list and
               write the fixture
  wall_s       mean pass time, first campaign start to last verdict.  The
               mean, not the median: on a shared host the CPU speed can
               switch between levels some 30% apart for tens of seconds at
               a time, and a median follows whichever level held most of
               the run
  peak_rss_mb  ru_maxrss of this process, which runs only this workload
--trace 1 alternates untraced and traced passes and prints the
per-layer metrics of tracing.LAYERS, medians over the traced passes,
plus trace.overhead_s = traced minus untraced mean pass time.

--smoke shrinks every workload to a size that runs in a few seconds.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # fresh processes that repeat the set-up
SMOKE_SETUP_PROBES = 1
MIN_PASSES = 3  # untraced passes in one run, however long a pass takes


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="grassmat benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_source_tree() -> None:
    """Import grassmat from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "grassmat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no grassmat sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A fresh directory for fixtures, removed when the run ends."""
    root = HERE / ".work"
    root.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=root)


def timed_setup(workload: str, seed: int, smoke: bool, workdir: str):
    """Import grassmat, build the campaign list, write the fixture."""
    t0 = time.perf_counter()
    import workloads  # imports grassmat

    plan = workloads.build_plan(workload, seed, smoke, workdir)
    return time.perf_counter() - t0, plan


def probe_setup(workload: str, seed: int, smoke: bool) -> float:
    """Set-up time of a fresh process."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def git_sha():
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def timed_pass(plan, tracer=None):
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        outcomes = plan.run()
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, outcomes


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Returns (result, info): the final JSON object and the run's metadata."""
    use_source_tree()
    with scratch_dir() as workdir:
        setup_s, plan = timed_setup(workload, seed, smoke, workdir)
        setups = [setup_s] + [
            probe_setup(workload, seed, smoke)
            for _ in range(SMOKE_SETUP_PROBES if smoke else SETUP_PROBES)
        ]
        import tracing
        import workloads

        gate = workloads.Gate()
        workloads.check_oracle(plan, gate)
        digests: dict = {}
        plain, traced, layer_runs = [], [], []
        min_passes = 1 if trace or smoke else MIN_PASSES
        start = time.perf_counter()
        while True:
            wall, outcomes = timed_pass(plan)
            plain.append(wall)
            workloads.check_pass(plan, outcomes, gate, digests, workdir)
            if trace:
                tracer = tracing.Tracer()
                wall, outcomes = timed_pass(plan, tracer)
                traced.append(wall)
                workloads.check_pass(plan, outcomes, gate, digests, workdir)
                layers = tracer.metrics()
                for name, value in workloads.search_counts(plan, outcomes).items():
                    layers[f"harness.search.{name}"] = value
                layer_runs.append(layers)
            # stop before an iteration that would end past the deadline
            elapsed = time.perf_counter() - start
            if len(plain) >= min_passes and elapsed * (1 + 1 / len(plain)) > seconds:
                break

    units = {name: unit for name, unit, *_ in tracing.LAYERS}
    if trace:
        # counts and shares repeat exactly from pass to pass; times vary
        values = {
            name: statistics.median(run[name] for run in layer_runs)
            if units[name] not in tracing.EXACT_UNITS else value
            for name, value in layer_runs[0].items()
        }
        values["trace.overhead_s"] = statistics.mean(traced) - statistics.mean(plain)
    else:
        units.update(setup_s="s", wall_s="s", peak_rss_mb="MiB")
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.mean(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "setup_samples_s": setups,
        "pass_wall_s": plain,
        "traced_pass_wall_s": traced,
        "failures": gate.failures,
        "report_sha256": digests,
        "untraced_entry_points": tracer.missing if trace else [],
    }
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        use_source_tree()
        with scratch_dir() as workdir:
            setup_s, _ = timed_setup(args.workload, args.seed, args.smoke, workdir)
        print(repr(setup_s))
        return 0
    result, info = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print("run " + json.dumps(info, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
