"""Benchmark of primearcs: four workloads, each in its own fresh process.

    python3 benchmark/run.py [--workload search|arcs|meansquare|expsum|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; primearcs is imported from its src/.
Each workload runs whole rounds of its jobs for about ``--seconds``
seconds, checks the outputs against independent computations, and
prints its metrics.  The last line of output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Tables, per-run results and spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("search", "arcs", "meansquare", "expsum")
DEFAULT_SEED = 20120601
DEFAULT_SECONDS = 25
WORKER_TIMEOUT = 170
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({var: "1" for var in PINNED})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed),
           repr(float(seconds)), "1" if trace else "0", OUT]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{name}: worker exceeded {WORKER_TIMEOUT} s")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{name}: worker exited {proc.returncode}\n{err}")
    result = json.loads(out.strip().splitlines()[-1])
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def _report(result: dict, trace: bool) -> None:
    steal = result["steal_share"]
    print(f"{result['workload']}: attempted {result['attempted']} failed "
          f"{result['failed']} in {result['rounds']} rounds of "
          f"{result['jobs']} jobs; cpu steal "
          f"{'n/a' if steal is None else f'{100 * steal:.1f}%'}")
    metrics = result["layers"] if trace else result["metrics"]
    for key, m in metrics.items():
        print(f"  {key:44s} {m['value']:>16.6g} {m['unit']}")
    for job, problems in result["problems"].items():
        for p in problems[:3]:
            print(f"  FAILED {job}: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "primearcs", "__init__.py")):
        print(f"no primearcs sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, trace)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        _report(result, trace)
        results.append(result)
    key = "layers" if trace else "metrics"
    if len(results) == 1:
        metrics = results[0][key]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results
                   for m, v in r[key].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
