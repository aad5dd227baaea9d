"""rimflow benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload coarsen|refine|steady_branch \
        --seed N --seconds S --trace 0|1

Run from a checkout that holds src/rimflow.  The benchmark repeats the
workload, each repetition in a fresh interpreter (perfbench/worker.py), until
S seconds have passed, and reports medians over the repetitions.  With
--trace 0 it prints the end-to-end metrics.  Set-up is then also timed alone
in SETUP_SAMPLES fresh interpreters first, and setup_s is the median over
those and the repetitions (see reference_import_s), so it rests on several
samples even when few repetitions fit.  With --trace 1 it alternates
untraced and traced repetitions and prints the per-layer metrics, including
the tracing overhead.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it record
the environment and each repetition.  Everything written goes under
.perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("coarsen", "refine", "steady_branch")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
REP_TIMEOUT_S = 150
SETUP_SAMPLES = 5
# Times, in a fresh interpreter, the import of the third-party modules that
# rimflow pulls in.  The median of that time on the machine where the
# benchmark was defined (a 2-vCPU VM, Python 3.11.7, numpy 2.4.6, scipy
# 1.17.1) was REFERENCE_IMPORT_S.
REFERENCE_IMPORT = ("import time; t = time.perf_counter(); import numpy, scipy.sparse.linalg; "
                    "print(time.perf_counter() - t)")
REFERENCE_IMPORT_S = 0.45


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """The caller's environment, with every BLAS thread count set to nproc."""
    env = dict(os.environ)
    env.pop("RIMFLOW_OUTPUT_DIR", None)
    env.update({var: str(nproc()) for var in THREAD_VARS})
    return env


def source_identity() -> dict:
    """Git commit when the checkout is a repository; a digest of src/ always.

    A checkout exported without .git has no commit to record, so the digest
    is what identifies the code measured there.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def reference_import_s(env: dict) -> float:
    """Seconds to import numpy and scipy.sparse.linalg in a fresh interpreter.

    Set-up is mostly that import, and on a shared VM its speed shifts by a
    third for minutes at a time, a shift that a pure-Python timing loop did
    not follow.  Each set-up is timed right after one reference import, and
    setup_s = setup_raw_s * REFERENCE_IMPORT_S / reference_import_s reads as
    seconds at the reference machine's import speed.  The reference imports
    no rimflow code, so a change to rimflow's set-up moves setup_s in full.
    """
    proc = subprocess.run([sys.executable, "-c", REFERENCE_IMPORT], env=env, capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S, check=True)
    return float(proc.stdout)


def run_rep(workload: str, seed: int, traced: bool, out: Path, env: dict,
            setup_only: bool = False) -> dict:
    ref_s = None if traced else reference_import_s(env)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
             "--trace", str(int(traced)), "--out", str(out)] + ["--setup-only"] * setup_only,
            env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "crashed": "timeout"}
    result_file = out / "result.json"
    if proc.returncode != 0 or not result_file.is_file():
        sys.stderr.write(proc.stderr)
        return {"traced": traced, "crashed": proc.returncode}
    result = json.loads(result_file.read_text())
    if ref_s is not None:
        result.update(ref_import_s=ref_s, setup_s=result["setup_raw_s"] * REFERENCE_IMPORT_S / ref_s)
    return result


def worst_gates(gates: list) -> dict:
    """Per gate: [worst value over the runs, limit, every run passed]."""
    worst = {}
    for run_gates in gates:
        for name, (value, limit, ok) in run_gates.items():
            prev = worst.get(name, [value, limit, True])
            worst[name] = [max(prev[0], value), limit, prev[2] and ok]
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "rimflow" / "__init__.py").is_file():
        print(f"no rimflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    env = worker_env()
    deadline = time.monotonic() + args.seconds
    setup_only = [run_rep(args.workload, args.seed, False, out / f"setup{k}", env, setup_only=True)
                  for k in range(0 if args.trace else SETUP_SAMPLES)]
    reps = []
    longest = 0.0
    # Start a repetition only if one as long as the longest so far still ends
    # by the deadline, so a run lasts --seconds, not --seconds plus one rep.
    while not reps or time.monotonic() + longest <= deadline or (args.trace and len(reps) < 2):
        traced = bool(args.trace) and len(reps) % 2 == 1
        start = time.monotonic()
        reps.append(run_rep(args.workload, args.seed, traced, out / f"rep{len(reps)}", env))
        longest = max(longest, time.monotonic() - start)

    done = [r for r in reps if "crashed" not in r]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    setups = [r for r in setup_only if "crashed" not in r] + plain
    if not plain or (args.trace and not traced):
        print("no repetition completed", file=sys.stderr)
        return 1
    # An operation is one gate checked on one CLI run; every gate of a
    # repetition that crashed counts as failed.
    checks_per_rep = max(r["attempted"] for r in done)
    lost = checks_per_rep * (len(reps) - len(done))
    attempted = sum(r["attempted"] for r in done) + lost
    failed = sum(r["failed"] for r in done) + lost
    identical = len({r["tree_digest"] for r in done}) == 1

    def median(key, sample):
        return statistics.median(r[key] for r in sample)

    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        # In calibrated units, so machine drift between repetitions cancels;
        # converted back to seconds with the mean calibration of the run.
        values["trace.overhead_s"] = ((median("wall_norm", traced) - median("wall_norm", plain))
                                      * statistics.mean(r["calib_s"] for r in done))
    else:
        values = {name: median(name, plain) for name in ("wall_norm", "peak_rss_mb")}
        values["setup_s"] = median("setup_s", setups)
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1

    env_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "versions": done[0]["versions"], "nproc": nproc(),
        "threads": {var: env[var] for var in THREAD_VARS}, **source_identity(),
    }
    summary = {
        "env": env_record,
        "repetitions": len(reps),
        "untraced_samples": len(plain),
        "traced_samples": len(traced),
        "setup_only": setup_only,
        "trees_identical": identical,
        "reps": reps,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print("env " + json.dumps(env_record, sort_keys=True))
    for i, r in enumerate(reps):
        brief = {k: r[k] for k in ("traced", "wall_s", "calib_s", "wall_norm", "setup_raw_s",
                                   "ref_import_s", "setup_s", "peak_rss_mb", "failed",
                                   "crashed") if k in r}
        print(f"rep{i} " + json.dumps(brief, sort_keys=True))
    print(f"wall_s median {median('wall_s', plain)} over {len(plain)} untraced repetitions")
    print(f"setup_raw_s median {median('setup_raw_s', setups)}, setup_s median "
          f"{median('setup_s', setups)} over {len(setups)} set-ups")
    print(f"trees_identical {identical}")
    print("gates " + json.dumps(worst_gates([g for r in done for g in r["gates"].values()]),
                                sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
