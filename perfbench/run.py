"""Benchmark of ringosc: one workload, one seed, one run.

    python3 perfbench/run.py --workload thermo_wide --seed 1608 --seconds 30 --trace 0

Run it from the root of a checkout; it imports ringosc from ./src, so
nothing has to be installed.  It byte-compiles ./src, times the
workload's set-up in fresh interpreters, runs the workload in worker
processes one at a time and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json untraced, its per-layer metrics with
``--trace 1``.  Details of the run go to perfbench/results/.
"""

import sys

sys.dont_write_bytecode = True  # the run writes nothing in the checkout but ./src bytecode and its results

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, RESULTS_DIR, WORKLOADS  # noqa: E402

# what each workload's entry point needs before its first operation
SETUP_IMPORTS = {
    "cli_figures": "import ringosc.cli",
    "thermo_wide": "import ringosc, ringosc.thermo, ringosc.partition",
    "spectrum_states": "import ringosc, ringosc.spectrum, ringosc.nu_solver, ringosc.specfun",
}
SETUP_LAUNCHES = 9  # spread over the run, so that a slow spell of the machine meets few of them
# workers per untraced run, each with an equal share of the time; several
# fresh processes average out what differs from one process to the next
WORKERS = {"cli_figures": 1, "thermo_wide": 3, "spectrum_states": 3}
WORKER_TIMEOUT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_child(cmd: list, env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group and kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{cmd[1:3]} did not finish within {timeout:.0f} s") from None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build(root: Path, env: dict) -> None:
    """Byte-compile the program, as an install would, and check it imports from ./src."""
    if not (root / "src" / "ringosc" / "__init__.py").is_file():
        raise BenchmarkError(f"no ringosc sources under {root / 'src'}; run from the root of a checkout")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=600)
    where = subprocess.run([sys.executable, "-c", "import ringosc; print(ringosc.__file__)"], env=env,
                           capture_output=True, text=True, check=True, timeout=120).stdout.strip()
    if Path(where).resolve().parent != (root / "src" / "ringosc").resolve():
        raise BenchmarkError(f"ringosc imports from {where}, not from {root / 'src'}")


def setup_times(workload: str, env: dict, launches: int) -> list[float]:
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        # with pipes the wait ends when the child closes them; a plain timed
        # wait would poll, and round the time up by as much as 50 ms
        subprocess.run([sys.executable, "-c", SETUP_IMPORTS[workload]], env=env, check=True, timeout=120,
                       capture_output=True)
        times.append(time.perf_counter() - t0)
    return times


def run_worker(args, env: dict, seconds: float, trace: int, check: int = 1) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--check", str(check)]
    proc = run_child(cmd, env, WORKER_TIMEOUT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        env = child_env(root)
        build(root, env)
        details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "python": platform.python_version(), "nproc": os.cpu_count()}
        if args.trace:
            report = run_worker(args, env, args.seconds, 1)
            values = report["metrics"]
            wanted = spec["per_layer"]
            reports = [report]
        else:
            count = WORKERS[args.workload]
            setup, reports = [], []
            for i in range(count + 1):
                setup += setup_times(args.workload, env, (SETUP_LAUNCHES + i) // (count + 1))
                if i < count:
                    reports.append(run_worker(args, env, args.seconds / count, 0, check=int(i == 0)))
            passes = [t for r in reports for t in r["pass_s"]]
            values = {"setup_s": statistics.median(setup), "pass_s": statistics.median(passes),
                      "peak_rss_mib": max(r["peak_rss_kib"] for r in reports) / 1024.0}
            wanted = spec["end_to_end"]
            details.update(setup_s=setup, pass_s=passes, peak_rss_kib=[r["peak_rss_kib"] for r in reports])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except (BenchmarkError, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in reports for p in r["problems"]]
    if len({r["digest"] for r in reports}) > 1:
        problems.append("workers disagree on the outputs")
    for problem in problems:
        print(f"WRONG OUTPUT {problem}", file=sys.stderr)
    passes = sum(r["passes"] for r in reports)
    result = {"correct": not problems, "attempted": reports[0]["ops"] * passes,
              "failed": reports[0]["failed_per_pass"] * passes, "metrics": metrics}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(dict(details, result=result, problems=problems), handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
