"""Benchmark entry point: one seeded workload against trustprop from a checkout.

    python3 bench/run.py --workload pipeline-directed --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`, nothing
is installed. Steps:

1. generate the workload's inputs from the seed in a separate process
   (`gen.py`), reusing them when the same seed was generated last;
2. start `workload.py` SETUP_PROBES times in set-up-only mode, then once
   for the measured run, each in a fresh process; `setup_s` is the median
   of their set-up times;
3. write every figure to `bench/results/BENCH_<workload>-seed<N>[-trace].json`
   (spans of a traced run to `TRACE_<...>.json`) and print one JSON line:
   `correct`, `attempted`, `failed` and the end-to-end metrics, or with
   `--trace 1` the per-layer metrics.

Exits 2 without a result when `src/trustprop` or `BENCHMARK.json` is missing,
1 when a step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import GENERATOR_VERSION, WORKLOAD_KEYS

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("pipeline-directed", "propagate-large", "sweep-small")
SETUP_PROBES = 8
DEADLINE_S = 170.0


def _run(cmd, env, timeout) -> str:
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:3])} ... exited with {proc.returncode}")
    return proc.stdout


def ensure_inputs(workload: str, seed: int, inputs: Path, env, timeout) -> None:
    manifest = inputs / "inputs.json"
    if manifest.is_file():
        old = json.loads(manifest.read_text())
        if old.get("seed") == seed and old.get("generator") == GENERATOR_VERSION:
            return
        manifest.unlink()
    _run([sys.executable, str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed),
          "--out", str(inputs)], env, timeout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "trustprop" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the repository root; src/trustprop or BENCHMARK.json not found",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    work = BENCH / "work" / args.workload
    inputs = work / "inputs"
    results = BENCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")

    def remaining() -> float:
        return max(1.0, DEADLINE_S - (time.monotonic() - started))

    try:
        if args.workload in WORKLOAD_KEYS:  # workloads with generated inputs
            ensure_inputs(args.workload, args.seed, inputs, env, remaining())
        base = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--inputs", str(inputs), "--work", str(work)]
        setups = []
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic()
            probe = _run(base + ["--t0", repr(t0), "--setup-only"], env, remaining())
            setups.append(json.loads(probe.strip().splitlines()[-1])["setup_s"])
        t0 = time.monotonic()
        extra = ["--trace-out", str(results / f"TRACE_{label}.json")] if args.trace else []
        out = _run(base + ["--t0", repr(t0)] + extra, env, remaining())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run = json.loads(out.strip().splitlines()[-1])
    setups.append(run["setup_s"])
    run["setup_s"] = statistics.median(setups)
    run["setup_samples_s"] = setups
    record = {"label": label, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **run}
    (results / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    spec = json.loads((root / "BENCHMARK.json").read_text())
    values = run["per_layer"] if args.trace else run
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
