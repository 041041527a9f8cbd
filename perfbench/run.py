"""Benchmark entry point for spaceform-areas.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up is timed as the median of several
fresh-process imports of the package; then one fresh caller process
(perfbench/caller.py) runs the workload's experiments in a closed loop.
With ``--trace 0`` the end-to-end metrics are reported, with ``--trace 1``
the per-layer metrics of a traced pass.  The line before last is a JSON
object with run metadata, per-pass samples and CSV digests; the last line
is the result: ``{"correct", "attempted", "failed", "metrics"}``.  Exits 1
if any check failed and 2 if the checkout holds no package to measure.
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
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "spaceform_areas"
SETUP_SAMPLES = 5
# together at most 170 s, inside the 180 s a run may take
SETUP_TIMEOUT_S = 12
CHILD_TIMEOUT_S = 110


def child(args: list, env: dict, timeout: float) -> dict:
    """Run caller.py with args; return the JSON object it prints last."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "caller.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"caller {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(PACKAGE.glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def identity_checks(res: dict) -> tuple[int, list]:
    """The traced pass and the --threads 1 probe rerun pass 0's seed; their
    CSVs must be byte-identical to pass 0's.  Returns (compared, failures)."""
    reference = res["passes"][0]
    reruns = [k for k in ("traced_pass", "probe_pass") if k in res]
    return len(reruns), [
        f"{k} CSVs differ from pass0 (threads {res[k]['threads']} vs "
        f"{reference['threads']})"
        for k in reruns if res[k]["digests"] != reference["digests"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (0 <= args.seed < 2 ** 64) or args.seconds <= 0:
        ap.error("--seed must fit in 64 bits and --seconds be positive")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package to benchmark at {PACKAGE}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        print("error: BENCHMARK.json workloads differ from workloads.py",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out = ROOT / ".perfbench_out" / (
        f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    setup = [child(["--import-only"], env, SETUP_TIMEOUT_S)["import_s"]
             for _ in range(SETUP_SAMPLES)]
    res = child(["--workload", workload.name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--out", str(out)], env, CHILD_TIMEOUT_S)

    all_passes = res["passes"] + [res[k] for k in ("traced_pass", "probe_pass")
                                  if k in res]
    compared, failures = identity_checks(res)
    failures += [f for p in all_passes for f in p["failures"]]
    attempted = sum(p["checks"] for p in all_passes) + compared
    if args.trace:
        attempted += res["selftest_checked"]
        failures += [f"tracer self-test: {name} reads zero"
                     for name in res["selftest_failures"]]
    failed = len(failures)

    walls = [p["wall_s"] for p in res["passes"]]
    if args.trace:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        values = res["layer_metrics"]
    else:
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        values = {
            "wall_ref": res["wall_ref"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "checks_passed_frac": 1.0 - failed / attempted,
        }
    if sorted(values) != sorted(units):
        print("error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 2

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "versions": res["versions"],
        "threads": workload.threads,
        "overrides": {name: ov for name, ov in workload.experiments},
        "setup_s_samples": setup,
        "pass_seeds": [p["seed"] for p in res["passes"]],
        "wall_s": statistics.median(walls),
        "wall_s_samples": walls,
        "reference_s_samples": [p["reference_s"] for p in res["passes"]],
        "traced_wall_s": res.get("traced_pass", {}).get("wall_s"),
        "peak_rss_mb": res["peak_rss_mb"],
        "csv_sha256": res["passes"][0]["digests"],
        "failures": failures,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in sorted(values)},
    }
    (out / "result.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
