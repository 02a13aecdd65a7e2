"""One workload in one fresh process: set-up, timed rounds, then checks.

    python3 benchmark/worker.py WORKLOAD SEED SECONDS TRACE OUTDIR
    python3 benchmark/worker.py --setup WORKLOAD OUTDIR

run.py starts the first form; it prints one JSON object as its last line
of output.  The second form only sets up (import, build, save and load
the table) and prints its set-up time; the first form starts it a few
times to take the median set-up time over fresh processes.
BLAS and OpenMP pools are pinned to one thread before numpy is imported:
on a 2-vCPU machine a second OpenBLAS thread adds CPU time to the arc
integrals and saves no wall time.
"""

import os
import sys
import time

START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

SETUP_PROCS = 4   # extra fresh processes timed for setup_s


def _cpu_times() -> list[int]:
    """The aggregate cpu line of /proc/stat (user ... steal), or [] where
    there is none."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return []
    return [int(x) for x in fields[1:9]] if fields[:1] == ["cpu"] else []


def _steal_share(before: list[int], after: list[int]) -> float | None:
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def _import_program():
    import primearcs.cli  # noqa: F401  (what every subcommand imports)
    from primearcs import primes
    if not os.path.abspath(primes.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"primearcs imported from {primes.__file__}, "
                         f"not from {SRC}")
    return primes


def _setup_table(primes, limit, path):
    table = primes.build_table(limit)
    primes.save_table(table, path)
    return primes.load_table(path)


def setup_only(workload: str, outdir: str) -> int:
    primes = _import_program()
    import_s = time.perf_counter() - START
    import workloads
    t0 = time.perf_counter()
    _setup_table(primes, workloads.WORKLOADS[workload].table_limit,
                 os.path.join(outdir, f"{workload}-table.bin"))
    print(import_s + time.perf_counter() - t0)
    return 0


def _fresh_setups(workload: str, outdir: str) -> list[float]:
    import subprocess

    times = []
    for _ in range(SETUP_PROCS):
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup",
                              workload, outdir], capture_output=True, text=True,
                             check=True, timeout=60).stdout
        times.append(float(out.split()[-1]))
    return times


def main(argv: list[str]) -> int:
    if argv[:1] == ["--setup"]:
        return setup_only(argv[1], argv[2])
    workload, seed, seconds, trace, outdir = (
        argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4])
    cpu_before = _cpu_times()

    primes = _import_program()
    import_s = time.perf_counter() - START

    import random
    import resource

    import tracing
    import workloads

    spec = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer() if trace else None
    path = os.path.join(outdir, f"{workload}-table.bin")
    t0 = time.perf_counter()
    if tracer is not None:
        with tracer.installed(), tracer.job_span("setup"):
            table = _setup_table(primes, spec.table_limit, path)
    else:
        table = _setup_table(primes, spec.table_limit, path)
    table_s = time.perf_counter() - t0
    setups = [import_s + table_s] + ([] if trace else _fresh_setups(workload, outdir))

    refs = workloads.References()
    jobs = spec.make_jobs(random.Random(f"{workload}:{seed}"), table, refs)

    # whole rounds of every job until the next round would end past
    # `seconds`; a traced run alternates untraced and traced rounds
    rounds = []
    first = [None] * len(jobs)
    mismatch = [False] * len(jobs)
    raised = [None] * len(jobs)
    traced_rounds = []
    job_times = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer_round = tracing.Tracer()
            with tracer_round.installed():
                times = _run_round(jobs, tracer_round, first, mismatch, raised)
            traced_rounds.append((sum(times), tracer_round))
        else:
            times = _run_round(jobs, None, first, mismatch, raised)
            job_times.append(times)
        elapsed = sum(times)
        rounds.append((traced, elapsed))
        spent = time.perf_counter() - begin
        need = 2 if tracer is not None else 1
        if len(rounds) >= need and spent + _median([e for _, e in rounds]) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cpu_after = _cpu_times()

    problems = {}
    for i, job in enumerate(jobs):
        if raised[i] is not None:
            problems[job.name] = [raised[i]]
            continue
        try:
            found = job.check(first[i])
        except Exception as exc:  # a check that cannot run fails its job
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if mismatch[i]:
            found.append("output differs between rounds")
        if found:
            problems[job.name] = found
    failed_jobs = len(problems)
    untraced = [e for t, e in rounds if not t]
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "jobs": len(jobs), "rounds": len(rounds),
        "round_s": [e for _, e in rounds],
        "job_s": {job.name: _median([t[i] for t in job_times])
                  for i, job in enumerate(jobs)},
        "attempted": len(jobs) * len(rounds),
        "failed": failed_jobs * len(rounds),
        "correct": failed_jobs == 0,
        "problems": problems,
        "steal_share": _steal_share(cpu_before, cpu_after),
        "metrics": {
            "wall_s": {"value": _median(untraced), "unit": "s"},
            "setup_s": {"value": _median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        },
        "setup": {"import_s": import_s, "table_s": table_s,
                  "process_setup_s": setups, "table_limit": spec.table_limit},
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, traced_rounds, untraced)
        counts = traced_rounds[0][1].counts
        result["counts_repeat"] = all(tr.counts == counts for _, tr in traced_rounds)
        result["unpatched"] = tracer.missing
        spans_path = os.path.join(outdir, f"{workload}-seed{seed}-spans.json")
        _write_spans(spans_path, tracer, traced_rounds)
        result["spans_file"] = spans_path
    import json
    print(json.dumps(result))
    return 0


def _run_round(jobs, tracer, first, mismatch, raised) -> list[float]:
    """Run every job once; return the wall time of each call."""
    times = [0.0] * len(jobs)
    for i, job in enumerate(jobs):
        try:
            if tracer is not None:
                with tracer.job_span(job.name):
                    t0 = time.perf_counter()
                    out = job.run()
                    times[i] = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = job.run()
                times[i] = time.perf_counter() - t0
            value = job.value(out)
        except Exception as exc:  # a job that raises is a failed operation
            raised[i] = raised[i] or f"raised {type(exc).__name__}: {exc}"
            continue
        if first[i] is None:
            first[i] = value
        elif value != first[i]:
            mismatch[i] = True
    return times


def _layer_metrics(setup_tracer, traced_rounds, untraced) -> dict:
    """Per-layer self times (median over traced rounds), work counts of
    the first traced round, and the tracing overhead."""
    import tracing

    setup_self = setup_tracer.self_times()
    selfs = [tr.self_times() for _, tr in traced_rounds]
    out = {}
    for name in tracing.SELF_TIMES:
        if name in tracing.SETUP_LAYERS:
            value = setup_self[name]
        else:
            value = _median([s[name] for s in selfs])
        out[f"{name}.self_s"] = {"value": value, "unit": "s"}
    counts = traced_rounds[0][1].counts
    for name in tracing.COUNTS:
        out[name] = {"value": counts[name], "unit": "count"}
    residuals = counts["search._residual_arrays.residuals"]
    out["search.hit_ratio"] = {
        "value": counts["search.find_solutions.solutions"] / residuals if residuals else 0.0,
        "unit": "ratio"}
    out["trace.overhead_s"] = {
        "value": _median([e for e, _ in traced_rounds]) - _median(untraced),
        "unit": "s"}
    return out


def _write_spans(path, setup_tracer, traced_rounds):
    import json

    rounds = [setup_tracer] + [tr for _, tr in traced_rounds]
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"],
                   "rounds": [tr.spans for tr in rounds],
                   "missing": setup_tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
