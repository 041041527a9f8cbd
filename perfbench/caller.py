"""The benchmark's caller: one fresh Python process that imports
spaceform_areas from the checkout's ``src`` and runs a workload's
experiments through ``cli.run_experiment`` in a closed loop.

    python3 perfbench/caller.py --import-only
    python3 perfbench/caller.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

With ``--import-only`` it times the package import and exits.  Otherwise it
repeats the workload's pass until ``--seconds`` have elapsed and prints one
JSON object with every pass's wall time, reference-kernel times, check
counts and CSV digests.  When tracing, the untraced window is halved and
followed by one traced pass; a workload run on several threads then gets
one more traced pass at --threads 1, whose sampler busy time over the
traced pass's gives simulate.thread_speedup.

Pass k runs at master seed ``pass_seed(seed, k)``, so the pass times come
from several inputs rather than one input's slowest path; pass 0 runs at
``seed`` itself, and so do the traced and probe passes, whose CSVs must
match pass 0 byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tracer import TraceData, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import spaceform_areas from the checkout; return it with the import
    time in seconds."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import spaceform_areas
    elapsed = time.perf_counter() - start
    if SRC not in Path(spaceform_areas.__file__).resolve().parents:
        raise SystemExit(f"spaceform_areas imported from "
                         f"{spaceform_areas.__file__}, not from {SRC}")
    import spaceform_areas.cli  # noqa: F401 - binds package.cli
    return spaceform_areas, elapsed


def csv_digests(out_dir: Path) -> dict:
    return {str(p.relative_to(out_dir)):
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*.csv"))}


def pass_seed(seed: int, k: int) -> int:
    return (seed + 0x9E3779B97F4A7C15 * k) % 2 ** 64


def _reference_kernel():
    # imported here, not at the top: set-up time is measured on a process
    # that has imported nothing yet
    import numpy as np
    from scipy.integrate import quad

    x = np.linspace(0.0, 1.0, 1024)
    for i in range(600):
        np.sum(np.sqrt(x * i + 1.0))
    for i in range(40):
        quad(lambda s, i=i: math.exp(-s * s) * math.cos(i * s), 0.0, 5.0,
             limit=200)


def reference_times(threads: int, reps: int = 5) -> list:
    """Times of a fixed reference kernel that mixes the two kinds of work
    the workloads do: numpy calls on small arrays and scipy ``quad`` over a
    Python integrand, run as ``threads`` concurrent copies like the
    library's sampler blocks.  It does not touch the package, so no change
    to the program moves it; timed next to the experiments it measures how
    fast the machine runs at that moment."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        if threads == 1:
            _reference_kernel()
        else:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                for f in [ex.submit(_reference_kernel)
                          for _ in range(threads)]:
                    f.result()
        times.append(time.perf_counter() - start)
    return times


def run_pass(cli, workload, seed: int, threads: int, out_dir: Path) -> dict:
    """Run the workload's experiments in sequence, timing each one, and the
    reference kernel before and after each one.  ``wall_s`` sums the
    experiments' times, from each run_experiment call to its verdict."""
    failures, checks, wall = [], 0, 0.0
    refs = reference_times(threads)
    for name, overrides in workload.experiments:
        spec = cli.ExperimentSpec(name=name, params=overrides,
                                  output_dir=out_dir / name, master_seed=seed)
        start = time.perf_counter()
        bundle = cli.run_experiment(spec, threads=threads)
        wall += time.perf_counter() - start
        refs += reference_times(threads)
        for c in bundle.manifest["checks"]:
            checks += 1
            if c["verdict"] != "pass":
                failures.append(f"{name}: {c['name']} = {c['value']}")
    return {"wall_s": wall, "reference_s": statistics.fmean(refs),
            "references": refs, "seed": seed, "threads": threads,
            "checks": checks, "failures": failures,
            "digests": csv_digests(out_dir)}


def wall_ref(passes: list) -> float:
    """Mean pass time over the mean reference time of the same passes: the
    pass time in units of the reference kernel.  Both means weight the
    machine's speed by the time spent at it, so a slow spell stretches both
    alike and cancels."""
    refs = [r for p in passes for r in p["references"]]
    return (statistics.fmean(p["wall_s"] for p in passes)
            / statistics.fmean(refs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    package, import_s = import_package()
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    import mpmath
    import numpy
    import scipy
    workload = WORKLOADS[args.workload]
    cli = package.cli
    window = args.seconds / 2 if args.trace else args.seconds
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < window:
        k = len(passes)
        passes.append(run_pass(cli, workload, pass_seed(args.seed, k),
                               workload.threads, args.out / f"pass{k}"))
    result = {
        "import_s": import_s,
        "passes": passes,
        "wall_ref": wall_ref(passes),
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "mpmath": mpmath.__version__},
    }
    if args.trace:
        traced = Tracer()
        with traced.installed(package):
            traced_pass = run_pass(cli, workload, args.seed, workload.threads,
                                   args.out / "traced")
        probe = Tracer()
        if workload.threads > 1:
            with probe.installed(package):
                result["probe_pass"] = run_pass(cli, workload, args.seed, 1,
                                                args.out / "probe")
        result["traced_pass"] = traced_pass
        data = TraceData(
            spans=traced.spans, probe_spans=probe.spans,
            traced=traced_pass,
            untraced_wall_ref=result["wall_ref"])
        (result["layer_metrics"], result["selftest_checked"],
         result["selftest_failures"]) = layer_metrics(data, workload.name)
        with open(args.out / "spans.json", "w", encoding="utf-8") as f:
            json.dump({"traced": [s.as_list() for s in traced.spans],
                       "probe": [s.as_list() for s in probe.spans]}, f)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
