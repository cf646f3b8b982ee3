"""cfslab benchmark driver.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's `cfslab battery` / `cfslab smallball` invocation through
`cfslab.cli.main`, each time in a fresh interpreter, one job after another
(a closed loop with one client), and checks every output. Before each job
it times a fixed reference computation, which measures how fast the host is
at that moment, and two set-up probes. It starts no job that would end past
S seconds, except the first. With --trace 1 it then runs one untraced and
one traced job at workers = 1 and reports per-layer metrics from the traced
one.

Prints one line per metric (name, value, unit, quartiles, sample count),
the host and run metadata, and as its last line one JSON object with the
keys correct, attempted, failed and metrics. The full record, with every
sample, goes to .bench_work/results/. See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES_PER_JOB = 2
JOB_TIMEOUT_S = 150
# The reference computation (bench/reference.py) never changes between
# commits, so its time tracks only the host's speed. REF_NOMINAL_S is about
# its median wall (and CPU) time on the 2-vCPU Intel Xeon host the benchmark
# was tuned on. A job's host speed is REF_NOMINAL_S over the mean of the
# reference samples taken just before and just after it: in wall time for
# the job's wall time, in CPU time for its CPU time.
REF_NOMINAL_S = 0.25
# One BLAS thread per process, so that a battery's pool threads (workers =
# nproc) never exceed the cores. Set in the driver's environment, so it
# applies to every process the driver starts, on every commit it measures.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure_setup() -> float:
    """Interpreter start to `cfslab.cli` imported, in a fresh process."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import cfslab.cli; print(repr(time.perf_counter()))")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"cannot import cfslab.cli:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip()) - t0


def reference_sample(copies: int) -> tuple[float, float]:
    """Mean wall and CPU time of `copies` copies of the reference
    computation (bench/reference.py) started together, one per thread the
    job runs."""
    procs = [subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True) for _ in range(copies)]
    try:
        if any(p.stdout.readline().strip() != "ready" for p in procs):
            raise BenchError("the reference computation did not start")
        for p in procs:
            p.stdin.write("go\n")
            p.stdin.flush()
        times = [[float(x) for x in p.communicate(timeout=JOB_TIMEOUT_S)[0]
                  .split()] for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    walls, cpus = zip(*times)
    return statistics.fmean(walls), statistics.fmean(cpus)


class Runner:
    def __init__(self, workload, seed: int, trace: bool):
        self.w = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = None
        if workload.is_battery:
            self.config_path = self.dir / "battery.cfg"
            self.config_path.write_text(workload.config_text(),
                                        encoding="utf-8")
        self.expect_p = workload.expect_p
        if workload.command == "smallball" and self.expect_p is None:
            sys.path.insert(0, str(SRC))
            from cfslab.smallball import brownian_smallball_series

            self.expect_p = brownian_smallball_series(1.0, 1.0)
        self.n_jobs = 0

    def job(self, workers: int, traced: bool = False) -> dict:
        """Run the workload once and check what it wrote."""
        self.n_jobs += 1
        jdir = self.dir / f"job{self.n_jobs:03d}"
        out = jdir / "out"
        out.mkdir(parents=True)
        request = {
            "argv": self.w.argv(self.seed, workers, str(out),
                                None if self.config_path is None
                                else str(self.config_path)),
            "trace": traced,
            "spans_path": str(self.dir / "spans.json") if traced else None,
        }
        (jdir / "request.json").write_text(json.dumps(request),
                                           encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), str(SRC),
             str(jdir / "request.json"), str(jdir / "result.json")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=JOB_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError(f"job failed:\n{proc.stderr[-2000:]}")
        res = json.loads((jdir / "result.json").read_text(encoding="utf-8"))
        res["workers_requested"] = workers
        res.update(self._verify(res, out))
        shutil.rmtree(out)
        return res

    def _verify(self, res: dict, out: Path) -> dict:
        csvs = sorted(out.glob("*.csv"))
        if res["rc"] != 0 or len(csvs) != 1:
            return {"sha256": None, "reps_total": 0,
                    "failed": self.w.n_cells,
                    "notes": [f"exit code {res['rc']}, {len(csvs)} CSV files"]}
        rows = checks.read_rows(str(csvs[0]))
        if self.w.is_battery:
            verdicts = json.loads(csvs[0].with_suffix(".json").read_text(
                encoding="utf-8"))["verdicts"]
            failed, notes = checks.check_battery(
                self.w, rows, verdicts, res["capture"]["cells"])
        else:
            failed, notes = checks.check_tube(rows, self.expect_p)
        return {"sha256": hashlib.sha256(csvs[0].read_bytes()).hexdigest(),
                "reps_total": checks.replications(rows),
                "failed": failed, "notes": notes}


def _host_metadata(first_job: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": _nproc(), "cpu_model": cpu, **first_job["host"],
        "blas_threads": "1 (pinned: " + ", ".join(
            f"{k}={v}" for k, v in PINNED_ENV.items()) + ")",
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def _summary(values, unit):
    lo, hi = _quartiles(values)
    return {"value": statistics.median(values), "unit": unit,
            "p25": lo, "p75": hi, "n": len(values)}


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    if not (SRC / "cfslab" / "cli.py").is_file():
        raise BenchError(f"no cfslab sources under {SRC}")
    nproc = _nproc()
    runner = Runner(w, args.seed, bool(args.trace))
    # A battery runs `nproc` pool threads and smallball one thread; the
    # reference runs as many copies at once, so that it meets the same
    # share of the host the job meets.
    ref_copies = nproc if w.is_battery else 1
    # Each cycle: one reference sample, the set-up probes, one timed job.
    # A cycle starts only if it is expected to end within the run, leaving
    # room for the two workers = 1 jobs of a traced run.
    timed, refs, setups, cycles = [], [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if timed:
            reserve = 2.5 * statistics.median(
                j["wall_s"] for j in timed) if args.trace else 0.0
            if (t0 - t_start + statistics.median(cycles) + reserve
                    > args.seconds):
                break
        refs.append(reference_sample(ref_copies))
        setups += [measure_setup() for _ in range(SETUP_PROBES_PER_JOB)]
        timed.append(runner.job(nproc))
        cycles.append(time.perf_counter() - t0)
    refs.append(reference_sample(ref_copies))
    speed = [REF_NOMINAL_S / statistics.fmean((a[0], b[0]))
             for a, b in zip(refs, refs[1:])]
    cpu_speed = [REF_NOMINAL_S / statistics.fmean((a[1], b[1]))
                 for a, b in zip(refs, refs[1:])]
    jobs = list(timed)
    layers = None
    if args.trace:
        untraced_w1 = runner.job(1)
        traced = runner.job(1, traced=True)
        jobs += [untraced_w1, traced]

    # Byte determinism: every job's CSV must match the first timed job's
    # (the traced and untraced workers = 1 jobs included). Each comparison
    # is one operation.
    reference = timed[0]["sha256"]
    mismatches = sum(1 for j in jobs[1:]
                     if reference is None or j["sha256"] != reference)
    attempted = w.n_cells * len(jobs) + len(jobs) - 1
    failed = sum(j["failed"] for j in jobs) + mismatches
    notes = sorted({n for j in jobs for n in j["notes"]})
    if mismatches:
        notes.append(f"{mismatches} of {len(jobs) - 1} CSVs differ in bytes "
                     "from the first timed run")

    walls = [j["wall_s"] for j in timed]
    reps_rate = [j["reps_total"] / j["wall_s"] for j in timed]
    cpus = [j["cpu_s"] for j in timed]
    e2e = {
        "wall_s": _summary(walls, "s"),
        "reps_per_s": _summary(reps_rate, "1/s"),
        "setup_s": _summary(setups, "s"),
        "cpu_s": _summary(cpus, "s"),
        "peak_rss_mb": _summary([j["peak_rss_mb"] for j in timed], "MiB"),
        "fail_ratio": {"value": failed / attempted, "unit": "ratio",
                       "n": attempted},
        # The same timings at the nominal host speed: each job's wall time
        # times its host speed, its rate divided by it, its CPU time times
        # its CPU speed.
        "wall_cal_s": _summary([x * f for x, f in zip(walls, speed)], "s"),
        "reps_per_cal_s": _summary(
            [x / f for x, f in zip(reps_rate, speed)], "1/s"),
        "cpu_cal_s": _summary([x * f for x, f in zip(cpus, cpu_speed)], "s"),
        "ref_s": _summary([r[0] for r in refs], "s"),
        "ref_cpu_s": _summary([r[1] for r in refs], "s"),
        "host_speed": _summary(speed, "ratio"),
        "cpu_speed": _summary(cpu_speed, "ratio"),
    }
    workers_used = sorted({j["capture"]["workers_used"] for j in timed})
    if args.trace:
        layers = dict(traced["layers"])
        layers["suite.concurrency"] = statistics.median(
            j["cpu_s"] / j["wall_s"] for j in timed)
        layers["suite.workers_used"] = min(workers_used)
        layers["smallball.live_share"] = _live_share(traced)
        layers["smallball.debiased_queries"] = (
            traced["capture"]["debiased_queries"])
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - untraced_w1["wall_s"]

    return {
        "workload": w.name, "why": w.why, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "reps": w.reps, "closed_loop_clients": 1,
        "workers_requested": nproc, "workers_used": workers_used,
        "host": _host_metadata(timed[0]),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "notes": notes, "end_to_end": e2e, "per_layer": layers,
        "hooks_missing": traced["hooks_missing"] if args.trace else [],
        "reference_samples": refs,
        "jobs": [{k: v for k, v in j.items() if k not in ("capture", "layers")}
                 for j in jobs],
    }


def _live_share(job: dict) -> float:
    reasons = [r for c in job["capture"]["cells"] for r in c["reasons"]]
    return sum(r is None for r in reasons) / len(reasons) if reasons else 0.0


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def report(record: dict, units: dict[str, str]) -> None:
    h = record["host"]
    print(f"# workload {record['workload']}: {record['why']}")
    print(f"# host: nproc={h['nproc']} cpu={h['cpu_model']!r} "
          f"python={h['python']} numpy={h['numpy']} scipy={h['scipy']} "
          f"blas={h['blas']} blas_threads={h['blas_threads']}")
    print(f"# run: seed={record['seed']} reps={record['reps']} "
          f"jobs={len(record['jobs'])} commit={h['git_commit']} "
          f"src_sha256={h['src_sha256'][:16]} "
          f"workers_requested={record['workers_requested']} "
          f"workers_used={record['workers_used']}")
    for name, m in record["end_to_end"].items():
        spread = (f" (median; p25 {_fmt(m['p25'])}, p75 {_fmt(m['p75'])})"
                  if "p25" in m else "")
        print(f"{name} = {_fmt(m['value'])} {m['unit']}{spread} n={m['n']}")
    for name, value in (record["per_layer"] or {}).items():
        # continue_s of presets no declared workload runs is undeclared
        unit = units.get(name, "s" if name.startswith("models.continue_s.")
                         else "")
        print(f"{name} = {_fmt(value)} {unit}".rstrip())
    for note in record["notes"]:
        print(f"# FAILED: {note}")
    if record["hooks_missing"]:
        print(f"# trace hooks not found: {record['hooks_missing']}")


def _declared() -> tuple[set[str], dict[str, str]]:
    """End-to-end metric names and per-layer units from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(PINNED_ENV)
    try:
        e2e_names, units = _declared()
        record = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{record['workload']}-seed{record['seed']}"
               f"-trace{int(record['trace'])}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    report(record, units)
    if record["trace"]:
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in record["per_layer"].items() if k in units}
    else:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in record["end_to_end"].items() if k in e2e_names}
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
