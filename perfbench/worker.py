"""One repetition of a workload, in a fresh interpreter, the way a CLI user pays for it.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out DIR [--setup-only]

Set-up runs from T_START below to the end of config parsing: importing
rimflow (numpy and scipy with it), generating the configs and parsing them.
setup_raw_s is its wall time; run.py turns it into setup_s.  The solve runs from
the first rimflow.cli.main call to the return of the last one, by which time
every output file is written.  A Sampler (sampler.py) calibrates the machine's
speed throughout the solve: wall_s is the solve's wall time less the time
spent in the sampler's slices, calib_s the harmonic mean slice time, and
wall_norm = wall_s / calib_s.  The output trees go to DIR/tree, the result
to DIR/result.json and, when traced, the spans to DIR/spans.json.  With
--setup-only the worker stops after set-up and its result holds
setup_raw_s alone.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import rimflow  # noqa: E402
import rimflow.cli  # noqa: E402

from sampler import Sampler  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def tree_digest(tree: Path) -> tuple:
    """sha256 over every file's relative path and bytes, and the total byte count."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
        digest.update(data)
    return digest.hexdigest(), total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    make_configs, gates = WORKLOADS[args.workload]
    runs = make_configs(args.seed)
    config_dir, tree = args.out / "configs", args.out / "tree"
    config_dir.mkdir(parents=True)
    tree.mkdir()
    for run in runs:
        (config_dir / f"{run.label}.ini").write_text(run.text)
        rimflow.cli.parse_config(run.text)

    setup = {"setup_raw_s": time.perf_counter() - T_START}
    if args.setup_only:
        (args.out / "result.json").write_text(json.dumps(setup, indent=2, sort_keys=True) + "\n")
        return 0
    sampler = Sampler()
    sampler.start()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        t_first = time.perf_counter()
        codes = [
            rimflow.cli.main([run.command, str(config_dir / f"{run.label}.ini"),
                              "--output-dir", str(tree / run.label)])
            for run in runs
        ]
        t_last = time.perf_counter()
    finally:
        sampler.stop()
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s, calib_s = sampler.measure(t_first, t_last)

    checks = {run.label: {"exit_code": (code, 0, code == 0)} for run, code in zip(runs, codes)}
    if all(code == 0 for code in codes):
        for label, run_gates in gates(tree, runs).items():
            checks[label].update(run_gates)
    digest, tree_bytes = tree_digest(tree)
    result = {
        **setup,
        "calib_s": calib_s,
        "wall_norm": wall_s / calib_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "traced": bool(args.trace),
        "attempted": sum(len(g) for g in checks.values()),
        "failed": sum(not ok for g in checks.values() for _, _, ok in g.values()),
        "gates": checks,
        "tree_digest": digest,
        "tree_bytes": tree_bytes,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "rimflow": rimflow.__version__},
    }
    if tracer:
        result["absent_bindings"] = tracer.absent
        result["layers"] = layer_metrics(tracer.spans, tracer.absent, tree_bytes)
        (args.out / "spans.json").write_text(json.dumps(tracer.spans))
    (args.out / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
