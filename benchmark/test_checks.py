"""The benchmark's own test: its checks pass on the program's outputs and
catch each output perturbed just past the check's tolerance.

    python3 -m pytest benchmark/test_checks.py

Runs one job of each kind once (about half a minute).
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from primearcs import primes  # noqa: E402


def _scale(factor, index=0):
    def perturb(v):
        return v[:index] + (v[index] * factor,) + v[index + 1:]
    return perturb


def _shift(delta, index=0):
    def perturb(v):
        return v[:index] + (v[index] + delta,) + v[index + 1:]
    return perturb


def _drop_record(v):
    count, truncated, records = v
    return count - 1, truncated, records[:-1]


def _nudge_residual(v):
    count, truncated, records = v
    p1, p2, p3, r = records[0]
    return count, truncated, ((p1, p2, p3, r + 1e-8),) + records[1:]


def _swap_p3(v):
    count, truncated, records = v
    p1, p2, p3, r = records[0]
    return count, truncated, ((p1, p2, p3 + 2, r),) + records[1:]


# job-name prefix -> perturbations, each just past that job's tolerance
PERTURB = {
    "search": {
        "find_solutions.criterion11": [_drop_record, _nudge_residual, _swap_p3],
    },
    "arcs": {
        "integrate_I": [_scale(1.02)],
        "major_arc_split": [_shift(3 * workloads.ARCS_MAJOR_TOL, 4),
                            _shift(3 * workloads.ARCS_MAJOR_TOL, 0)],
        "minor_arc_l2": [_scale(1 + 1e-8, 1)],
        "trivial_tails": [lambda v: (_shift(workloads.ARCS_TAIL_TOL)(v[0]), v[1]),
                          lambda v: (_shift(-workloads.ARCS_TAIL_TOL, 2)(v[0]), v[1]),
                          lambda v: (v[0], (v[1][0] + 1,) + v[1][1:])],
    },
    "meansquare": {
        "selberg_J.k1.0.psi": [_scale(1 + 1e-10)],
        "selberg_J.k1.05.theta": [_scale(1.002)],
        "selberg_J_relative": [_scale(1.002), _scale(1.002, 1)],
        "theta_psi_discrepancy": [_scale(1.002)],
        "l2_diff.grid": [_scale(1 + 1e-5), lambda v: (v[0], "pairwise-exact")],
    },
    "expsum": {
        "eval_S.0": [_scale(1 + 1e-11)],
        "eval_S.1": [_shift(1e-4), _shift(1e-4, 1)],
        "eval_U.0": [_shift(1.0)],
        "eval_U.1": [_shift(1e-4), _shift(1e-4, 1)],
        "eval_T.0.05": [_shift(3 * workloads.ES_T_TOL, 1)],
        "bound_vaughan": [_scale(1 + 1e-8)],
        "bound_ghosh": [_scale(1 + 1e-8)],
    },
}


def _pick(jobs, prefix):
    return next(j for j in jobs if j.name == prefix or j.name.startswith(prefix + "."))


@pytest.mark.parametrize("workload", sorted(PERTURB))
def test_checks_pass_and_catch_perturbations(workload):
    spec = workloads.WORKLOADS[workload]
    table = primes.build_table(spec.table_limit)
    jobs = spec.make_jobs(random.Random(f"{workload}:7"), table,
                          workloads.References())
    for prefix, perturbations in PERTURB[workload].items():
        job = _pick(jobs, prefix)
        value = job.value(job.run())
        assert job.check(value) == [], job.name
        for perturb in perturbations:
            assert job.check(perturb(value)), f"{job.name}: perturbation missed"

