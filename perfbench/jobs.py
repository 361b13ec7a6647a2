"""Job lists of the benchmark workloads, generated from the workload seed.

A job is one `agrip pipeline` invocation (the arguments before --out-dir).
The seed sets the random-sign seed, the recovery seed, and which points of
the projective line are poles or evaluation points, and in what order.  It
never changes a matrix's n, N or nnz.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("analyze-uniform", "analyze-mixed", "build-recover")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    # the reported mu must equal verification.coherence_via_differences
    diff_trick: bool = False


def _field_points(q: int, rng: random.Random, count: int,
                  with_infinity: bool) -> list[str]:
    """`count` distinct points of F_q (plus infinity if asked), in seeded order."""
    points = [str(code) for code in range(q)]
    if with_infinity:
        points.append("inf")
    return rng.sample(points, count)


def _analyze_uniform(seed: int) -> list[Job]:
    balanced = ("--sign-scheme", "balanced", "--analyze")
    return [
        Job("devore-F9-r4-balanced",
            ("--family", "devore", "--field", "3^2", "--r", "4", *balanced),
            diff_trick=True),
        Job("projspace-F7-n1-r3-balanced",
            ("--family", "projspace", "--field", "7", "--dim", "1", "--r", "3",
             *balanced), diff_trick=True),
        Job("ruled-F7-1-1-balanced",
            ("--family", "ruled", "--field", "7", "--d1", "1", "--d2", "1",
             *balanced), diff_trick=True),
        Job("toric-F11-case1-d1-balanced",
            ("--family", "toric", "--field", "11", "--case", "1", "--d", "1",
             *balanced), diff_trick=True),
        # p = 2: the balanced signs depend on the basis pivot
        Job("devore-F8-r3-balanced",
            ("--family", "devore", "--field", "2^3", "--r", "3", *balanced)),
        Job("devore-F16-r3-random",
            ("--family", "devore", "--field", "2^4", "--r", "3",
             "--sign-scheme", f"random:{seed}", "--analyze")),
        Job("devore-F13-r3-ones",
            ("--family", "devore", "--field", "13", "--r", "3",
             "--sign-scheme", "ones", "--analyze"), diff_trick=True),
    ]


def _analyze_mixed(seed: int) -> list[Job]:
    rng = random.Random(seed)
    point8 = _field_points(8, rng, 8, with_infinity=False)
    poles7 = _field_points(7, rng, 8, with_infinity=True)
    return [
        Job("consta-point-F8-t3",
            ("--family", "consta-point", "--field", "2^3", "--t", "3",
             "--points", ",".join(point8), "--analyze")),
        Job("consta-poles-F7-3p-5e",
            ("--family", "consta-poles", "--field", "7",
             "--poles", ",".join(poles7[:3]), "--points", ",".join(poles7[3:]),
             "--analyze")),
    ]


def _build_recover(seed: int) -> list[Job]:
    rng = random.Random(seed)
    poles16 = _field_points(16, rng, 17, with_infinity=True)
    poles11 = _field_points(11, rng, 12, with_infinity=True)
    recover = ("--seed", str(seed))
    return [
        Job("consta-poles-F16-2p-15e-omp",
            ("--family", "consta-poles", "--field", "2^4",
             "--poles", ",".join(poles16[:2]),
             "--points", ",".join(poles16[2:]),
             "--recover-k", "1..4", "--trials", "50", *recover)),
        Job("consta-poles-F11-3p-9e-omp",
            ("--family", "consta-poles", "--field", "11",
             "--poles", ",".join(poles11[:3]),
             "--points", ",".join(poles11[3:]),
             "--recover-k", "1..4", "--trials", "50", *recover)),
        Job("devore-F8-r5-balanced-omp",
            ("--family", "devore", "--field", "2^3", "--r", "5",
             "--sign-scheme", "balanced",
             "--recover-k", "1..4", "--trials", "50", *recover)),
        Job("planecurve-F5-r2-omp",
            ("--family", "planecurve", "--field", "5", "--r", "2",
             "--recover-k", "1..3", "--trials", "50", *recover)),
        Job("devore-F13-r3-ost",
            ("--family", "devore", "--field", "13", "--r", "3",
             "--algorithm", "ost", "--sigma", "0.01",
             "--recover-k", "1..6", "--trials", "100", *recover)),
    ]


_BUILDERS = {
    "analyze-uniform": _analyze_uniform,
    "analyze-mixed": _analyze_mixed,
    "build-recover": _build_recover,
}


def workload_jobs(workload: str, seed: int) -> list[Job]:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose one of {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError("the workload seed must be a nonnegative integer")
    return _BUILDERS[workload](seed)
