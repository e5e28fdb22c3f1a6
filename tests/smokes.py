"""Scale smokes: fixed large inputs with expected results and bounds.

Each smoke returns (got, expected) and is registered with a bound on the
peak RSS of its process in MB (``ru_maxrss``, imports included) and/or on
its time in seconds.  It fails when got != expected, when the peak RSS
reaches its bound or when its time exceeds its bound; its docstring says
what the bounds pin.

    PYTHONPATH=src python tests/smokes.py NAME   # one smoke, in this process
    PYTHONPATH=src python tests/smokes.py        # each in a fresh process; exit 1 if any fails
"""

import resource
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from beilinson import emod, reps
from beilinson.kronecker import tau
from beilinson.linalg import FpMatrix
from beilinson.properties import is_eip_def, is_eip_hom, is_ekp_hom


class Smoke(NamedTuple):
    name: str
    run: Callable[[], tuple]
    rss_mb: float | None
    seconds: float | None


SMOKES: list[Smoke] = []


def smoke(*, rss_mb: float | None = None, seconds: float | None = None):
    """Register the decorated function as a smoke with these bounds."""
    def register(run):
        SMOKES.append(Smoke(run.__name__, run, rss_mb, seconds))
        return run
    return register


def check(s: Smoke) -> tuple[bool, str]:
    """Run s in this process: (passed, one line that says why)."""
    start = time.perf_counter()
    got, expected = s.run()
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = []
    if got != expected:
        failures.append(f"expected {expected}")
    if s.rss_mb is not None and peak_mb >= s.rss_mb:
        failures.append(f"peak RSS not below {s.rss_mb} MB")
    if s.seconds is not None and elapsed > s.seconds:
        failures.append(f"not within {s.seconds} s")
    line = f"{s.name}: {got} in {elapsed:.2f} s, peak RSS {peak_mb:.0f} MB"
    return not failures, "; ".join([("FAIL " if failures else "PASS ") + line] + failures)


def main(argv: list[str]) -> int:
    if argv:
        (name,) = argv
        passed, line = check({s.name: s for s in SMOKES}[name])
        print(line)
        return 0 if passed else 1
    failed = 0
    for s in SMOKES:
        done = subprocess.run([sys.executable, __file__, s.name], capture_output=True, text=True)
        failed += done.returncode != 0
        print(done.stdout.strip() or f"FAIL {s.name}: exit {done.returncode}\n{done.stderr}",
              flush=True)
    print(f"{len(SMOKES) - failed} of {len(SMOKES)} smokes passed")
    return 1 if failed else 0


@smoke(rss_mb=600)
def scale_end():
    """End of forget(W(7,3,4,6,3)): a 49,284 x 12,321 Sylvester system,
    4.9 GB as a dense int64 array.  It must never be dense; coordinates,
    remainder and basis read about 150 MB."""
    m = emod.forget(reps.w_module(7, 3, 4, 6, 3))
    return len(emod.hom_modules(m, m)), 1125


@smoke(rss_mb=700)
def not_local_end():
    """is_indecomposable(forget(W(5,3,3,4,3)^2)), the only check of the
    not-local branch of emod._local at a large End (dim 136): the
    commutator ideal span(A C) is one stacked product, here all of A, and
    a batched power of its basis certifies "not local", about 345 MB in a
    fresh process; growing the ideal to a fixpoint peaked near 870 MB."""
    w = reps.w_module(5, 3, 3, 4, 3)
    got = emod.is_indecomposable(emod.forget(reps.direct_sum(w, w)))
    return got, emod.IndecResult("decomposable", (19, 19))


@smoke(rss_mb=400)
def noncommutative_local_end():
    """End of forget(K), K the Kronecker rep with arrows I and the
    companion matrix of x^12 + x^3 + 2 over F_7: dim 156, not commutative
    and local, so emod._local runs every step (the commutators, the ideal
    span(A C), its batched power and the rank that counts idempotents),
    about 220 MB in a fresh process."""
    p, poly = 7, [2, 0, 0, 1] + [0] * 8  # x^12 + x^3 + 2, low to high, leading 1 omitted
    companion = np.eye(12, k=-1, dtype=np.int64)
    companion[:, -1] = [-c % p for c in poly]
    k = reps.BeilinsonRep(p, 2, 2, (12, 12),
                          ((FpMatrix.identity(p, 12), FpMatrix(p, companion)),))
    _, report = emod.end_algebra(emod.forget(k))
    return report, emod.EndReport(156, False, True, "deterministic")


@smoke(rss_mb=200)
def large_commutative_end():
    """End of forget(W(7,3,4,5,3)): dim 355, commutative and local, so
    emod._local forms all 62,835 commutators as stacked float64 products,
    about 100 MB in a fresh process and about a quarter of the time the
    int64 products took.  It solves the _intertwiners system of
    hom_modules(m, m), which reaches the solver as coordinates, so it also
    pins that system's peak; the dense one peaked near 730 MB."""
    _, report = emod.end_algebra(emod.forget(reps.w_module(7, 3, 4, 5, 3)))
    return report, emod.EndReport(355, True, True, "deterministic")


@smoke(seconds=10)
def graded_jordan_types():
    """Jordan types at all points of rad^0(kE_3) at p = 7: the regular
    module (dim 343) records its grading by monomial degree, so
    jordan_type ranks the composites of its 19 level blocks, at most
    37 x 37, in eight chunks of points, in about 0.4 s and 33 MB; the dense
    343 x 343 powers took about 23 s."""
    m = emod.group_algebra_radical_power(7, 3, 0)
    jts = [emod.jordan_type(m, a) for a in reps.proj_points(7, 3)]
    return (len(jts), set(jts)), (57, {emod.JordanType((0,) * 6 + (49,))})


@smoke(rss_mb=600)
def wide_sweep():
    """is_eip_def of tau^3 X(7,4)(1,2,0,5): the (571, 153) shift's steps
    are 153 x 571 at 400 points; the sweep ranks their 153 x 155 sketches
    and re-ranks only the points a sketch does not certify, in about 7 s
    and 40 MB; the full (400, 153, 571) stack took about 33 s and 1.1 GB."""
    rep = tau(tau(tau(reps.x_module(7, 2, 4, reps.ProjPoint(7, (1, 2, 0, 5)), 0, 1))))
    return (rep.dims, is_eip_def(rep).verdict), ((571, 153), True)


@smoke(rss_mb=300)
def large_p_sweep():
    """EIP of W(257,3,3,4,3): the sweep of 66,307 points reads the
    coordinate rows of reps.proj_coords, so proj_points is never filled."""
    eip = is_eip_def(reps.w_module(257, 3, 3, 4, 3)).verdict
    return (eip, reps.proj_points.cache_info().currsize), (True, 0)


@smoke(seconds=1)
def large_p_iso():
    """is_isomorphic(forget(W(1009,2,3,3,2)), forget(M(1009,2,3,3,2))) is
    "no" within 1 s: the isomorphism screen computes only the Jordan-type
    chunk of the first point, so proj_points is never filled, in about
    7 ms; screening every point took the pair about 12 s and 490 MB."""
    iso = emod.is_isomorphic(emod.forget(reps.w_module(1009, 2, 3, 3, 2)),
                             emod.forget(reps.m_module(1009, 2, 3, 3, 2)))
    return (iso, reps.proj_points.cache_info().currsize), ("no", 0)


@smoke(rss_mb=300)
def large_p_definition_runs():
    """EIP of W(1009,3,3,4,3), dims (10, 6, 3) at 1,019,091 points: the
    definition route ranks each level in runs of points within
    linalg.STACK_ENTRIES entries, about 3 s and 95 MB; stacking every
    point at once peaked at 1,761 MB."""
    return is_eip_def(reps.w_module(1009, 3, 3, 4, 3)).verdict, True


@smoke(seconds=1)
def large_p_hom_route():
    """is_ekp_hom(simple(1009, 2, 3, 0)), false at the first point: the
    hom route reads the coordinate rows of reps.proj_coords one at a time,
    so it stops there in about 0.1 s and proj_points is never filled;
    iterating the point tuple built a million ProjPoints first, about 7 s
    and 410 MB."""
    report = is_ekp_hom(reps.simple(1009, 2, 3, 0))
    got = (report.verdict, report.witness, reps.proj_points.cache_info().currsize)
    return got, (False, (reps.ProjPoint(1009, (0, 0, 1)), 0), 0)


@smoke(rss_mb=80, seconds=30)
def hom_route_scale():
    """is_eip_hom(W(7,3,4,5,3)), true at all 400 points: its level-0
    Sylvester systems, 200 x 155, are past the hom route's stacking rule
    (properties._run_cap), so each point is solved sparsely, about 2.3 s
    and 34 MB; stacking every run with no size rule took 7.5 s and
    214 MB."""
    return is_eip_hom(reps.w_module(7, 3, 4, 5, 3)).verdict, True


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
