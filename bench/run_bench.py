"""otbec lab benchmark: campaign, audit and oracle workloads through the public CLI.

    python3 bench/run_bench.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each invocation runs `otbec.cli.main(argv)` once in a fresh child process
(bench/child.py), with the benchmark seed passed as `--seed`. The load is a
closed loop with one client: an invocation starts when the previous one has
ended, and the CLI runs its trials one after another in one thread. A run
starts with an untimed warm-up child, then repeats the workload on the same
seed until `--seconds` is used up (at least twice), checks every report,
requires identical SHA-256 digests across the repetitions, and reports
medians. Without --workload every workload runs.

--trace 0 prints the end-to-end metrics; --trace 1 alternates plain and traced
invocations and prints the per-layer metrics (means per traced invocation),
including the tracing overhead. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0 when every
output and replay check passed, 1 when one failed, 2 on a usage error.
Per-run records (samples, digests, machine facts) go to .bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# a seed for re-checking a claim on inputs not used while writing it (101 is the CLI default)
HELD_OUT_SEED = 7919
MIN_INVOCATIONS = 2
MIN_SETUP_SAMPLES = 5
# a statistical check that fails on the run seed is re-tested on up to this
# many further seeds; it fails only if it fails on all of them
CONFIRMATION_SEEDS = 2
CONFIRMATION_STRIDE = 1_000_003
CHILD_TIMEOUT_S = 150

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("trials_per_s", "trials/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.05),
)


def _child_env() -> dict:
    env = dict(os.environ)
    # one thread per child: the CLI runs its trials in one thread, and BLAS
    # worker threads would compete with it for the machine's few cores
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def invoke(workload, seed: int, mode: str, report: Path) -> dict:
    """Run one child; returns its result plus setup_s, digest and check failures."""
    argv = [*workload.argv, "--seed", str(seed), "--out", str(report.relative_to(ROOT))]
    spec = {"argv": argv, "setup_mark": workload.setup_mark, "mode": mode}
    if report.exists():
        report.unlink()
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "seed": seed, "failures": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    elapsed = time.perf_counter() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"mode": mode, "seed": seed,
                "failures": [f"child exited {proc.returncode}: {tail[0]}"]}
    result = json.loads(lines[-1])
    result.update(mode=mode, seed=seed, elapsed_s=elapsed, failures=[], statistical=[])
    result["setup_s"] = result["setup_done"] - spawned if result["setup_done"] else None
    if not Path(result["otbec_file"]).resolve().is_relative_to(ROOT / "src"):
        result["failures"].append(f"imported otbec from {result['otbec_file']}, not src/")
    if result["setup_s"] is None:
        result["failures"].append(f"main returned {result['exit_code']} before set-up ended")
    if mode == "probe":
        return result
    if result["exit_code"] != 0:
        result["failures"].append(f"main returned {result['exit_code']}: {proc.stderr.strip()}")
        return result
    payload = report.read_bytes()
    result["digest"] = hashlib.sha256(payload).hexdigest()
    result["report_bytes"] = len(payload)
    parsed = json.loads(payload)
    if workload.argv[0] == "oracle":
        result["states"] = sum(row["states"] for row in parsed["results"])
    exact, statistical = workload.check(parsed, seed)
    result["failures"].extend(exact)
    result["statistical"] = statistical
    return result


def measure(workload, seed: int, seconds: int, trace: bool) -> dict:
    """Invocations of one run: warm-up, the timed loop, set-up probes, replay and confirmation."""
    report = OUT_DIR / f"{workload.name}.json"
    modes = ("run", "trace") if trace else ("run",)
    deadline = time.perf_counter() + seconds
    # an untimed probe first, so that no sample pays for a cold file cache
    warmup = [invoke(workload, seed, "probe", report)]
    work = []
    while True:
        for mode in modes:
            work.append(invoke(workload, seed, mode, report))
        if any(inv["failures"] for inv in warmup + work):
            break
        typical = statistics.median(inv["elapsed_s"] for inv in work) * len(modes)
        if len(work) >= MIN_INVOCATIONS and time.perf_counter() + typical > deadline:
            break
    probes = []
    if not trace:
        while (sum(inv.get("setup_s") is not None for inv in work + probes) < MIN_SETUP_SAMPLES
               and not any(inv["failures"] for inv in probes)):
            probes.append(invoke(workload, seed, "probe", report))
    digests = [inv.get("digest") for inv in work]
    for inv in work[1:]:
        if inv.get("digest") and inv["digest"] != digests[0]:
            inv["failures"].append(f"replay digest {inv['digest']} != {digests[0]}")
    confirmations = []
    if work[0].get("statistical"):
        for k in range(1, CONFIRMATION_SEEDS + 1):
            confirm = invoke(workload, seed + k * CONFIRMATION_STRIDE, "run",
                             OUT_DIR / f"{workload.name}-confirm.json")
            confirmations.append(confirm)
            if confirm["failures"] or not confirm["statistical"]:
                break
        if confirmations[-1]["failures"] or confirmations[-1]["statistical"]:
            for inv in work + confirmations:
                inv["failures"].extend(inv.get("statistical", []))
    return {"warmup": warmup, "work": work, "probes": probes, "confirmations": confirmations}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _mean(values):
    return sum(values) / len(values) if values else None


def end_to_end(workload, runs: dict) -> dict:
    return {
        "setup_s": _median(inv.get("setup_s") for inv in runs["work"] + runs["probes"]),
        "wall_s": _median(inv.get("wall_s") for inv in runs["work"]),
        "trials_per_s": _median(workload.trials / inv["wall_s"] for inv in runs["work"]
                                if "wall_s" in inv),
        "peak_rss_mib": _median(inv["peak_rss_kib"] / 1024 for inv in runs["work"]
                                if "peak_rss_kib" in inv),
    }


def per_layer(runs: dict) -> dict:
    traced = [inv for inv in runs["work"] if inv["mode"] == "trace" and "layers" in inv]
    plain = [inv for inv in runs["work"] if inv["mode"] == "run" and "wall_s" in inv]
    if not traced or not plain:
        return {}
    out = {name: _mean([inv["layers"][name] for inv in traced])
           for name in traced[0]["layers"]}
    out["cli.report_bytes"] = _mean([inv["report_bytes"] for inv in traced])
    out["trace.overhead_s"] = (_mean([inv["wall_s"] for inv in traced])
                               - _mean([inv["wall_s"] for inv in plain]))
    return out


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_facts(seed: int, runs: dict) -> dict:
    first = next((inv for inv in runs["work"] if "python" in inv), {})
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_max": cpu_max,
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "git_sha": git_sha(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(workload, seed: int, seconds: int, trace: bool) -> tuple[dict, int, int]:
    """Measure one workload, print its human-readable lines; returns (metrics, attempted, failed)."""
    runs = measure(workload, seed, seconds, trace)
    invocations = runs["warmup"] + runs["work"] + runs["probes"] + runs["confirmations"]
    attempted = len(invocations)
    failed = sum(bool(inv["failures"]) for inv in invocations)
    if trace:
        units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
        values = per_layer(runs)
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        values = end_to_end(workload, runs)
    print(f"== {workload.name}  seed {seed}  trace {int(trace)}: {len(runs['warmup'])} warm-up, "
          f"{len(runs['work'])} timed invocations, {len(runs['probes'])} set-up probes, "
          f"{len(runs['confirmations'])} confirmation runs")
    for name, value in values.items():
        print(f"  {name:<52} {_fmt(value):>14} {units.get(name, '')}")
    if not trace:
        states = _median(inv["states"] / inv["wall_s"] for inv in runs["work"] if "states" in inv)
        print(f"  {'states_per_s':<52} {_fmt(states):>14} states/s")
    else:
        self_sum = sum(values.get(f"{m}.{f}.self_s", 0.0) for m, f in layers.TRACED)
        print(f"  sum of self_s {_fmt(self_sum)} s vs trace.wall_s {_fmt(values.get('trace.wall_s'))} s")
    print(f"  {'error_rate':<52} {_fmt(failed / attempted):>14} fraction ({failed}/{attempted})")
    for inv in invocations:
        for failure in inv["failures"]:
            print(f"  FAIL [{inv['mode']} seed {inv['seed']}] {failure}")
        for failure in inv.get("statistical", []):
            print(f"  statistical check [{inv['mode']} seed {inv['seed']}]: {failure}")
    digests = sorted({inv["digest"] for inv in runs["work"] if inv.get("digest")})
    print(f"  report sha256 {', '.join(digests) or 'none'}")
    record = {"workload": workload.name, "trace": int(trace), "facts": run_facts(seed, runs),
              "metrics": values, "attempted": attempted, "failed": failed,
              "statistical_checks": [{"check": check, "false_alarm_rate": rate}
                                     for check, rate in workload.statistical],
              "digests": digests, "invocations": runs}
    path = OUT_DIR / f"results-{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items() if name in units}
    return metrics, attempted, failed


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a nonnegative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=_seed, default=101)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "otbec" / "cli.py").is_file():
        print(f"error: no otbec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    compileall.compile_dir(str(ROOT / "src" / "otbec"), quiet=1)
    names = [args.workload] if args.workload else list(WORKLOADS)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        values, tried, bad = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        prefix = "" if args.workload else f"{name}/"
        metrics.update({prefix + key: value for key, value in values.items()})
        attempted += tried
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
