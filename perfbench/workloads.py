"""Workloads, operations and the correctness check.

An *operation* is what a user pays for one answer: build the
preconditioner (if any), construct the solver (this converts the matrix
to the SpMV format chosen by ``spmv_format="auto"``), then either one
solo ``solve`` or one ``solve_batch`` call.  Matrices are the suite's
deterministic ``default``-scale generators with their calibrated
targets; only the right-hand sides come from the seed:
``b = A x_true`` with ``x_true`` standard normal, normalised, drawn from
``numpy.random.default_rng([seed, op_index])``.

A workload cycles through its variants in whole rounds, so every run
weighs them the same way.  Where two formats differ in cost by more than
the host's run-to-run noise, the round lists the cheaper one twice: with
an even split the median would fall in the gap between the two clusters
and swing with their extreme samples, while a 2:1 round puts it inside
a cluster.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.accessor import make_accessor
from repro.solvers import preconditioner as prec_module
from repro.solvers.gmres import CbGmres
from repro.sparse.suite import SUITE

#: restart length of every solve
RESTART = 50
BACKEND = "jit"
SPMV_FORMAT = "auto"


@dataclass(frozen=True)
class Variant:
    matrix: str
    storage: str
    basis_mode: str = "cached"
    preconditioner: str = "none"
    prec_storage: str = "float64"
    #: right-hand sides per operation; above 1 the operation is one
    #: ``solve_batch`` call
    nrhs: int = 1

    @property
    def label(self) -> str:
        parts = [self.matrix, self.storage, self.basis_mode]
        if self.preconditioner != "none":
            parts.append(f"{self.preconditioner}[{self.prec_storage}]")
        if self.nrhs > 1:
            parts.append(f"B={self.nrhs}")
        return "/".join(parts)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variants: Tuple[Variant, ...]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cached",
            "atmosmodd, cached basis: fused reads of the dense decoded "
            "view dominate the solve and the codec runs once per written "
            "vector, so basis-layout changes show here",
            (
                Variant("atmosmodd", "float64"),
                Variant("atmosmodd", "frsz2_32"),
                Variant("atmosmodd", "adaptive"),
            ),
        ),
        Workload(
            "streaming",
            "cfd2, streaming basis: every basis read decodes compressed "
            "tiles (the paper's in-register structure) and no decoded "
            "view is ever built",
            (
                Variant("cfd2", "frsz2_32", "streaming"),
                Variant("cfd2", "frsz2_16", "streaming"),
                Variant("cfd2", "frsz2_32", "streaming"),
            ),
        ),
        Workload(
            "precond",
            "fresh ILU(0) / frsz2_16 block-Jacobi factorisation plus a "
            "frsz2_32 solve per operation: the only workload that builds "
            "or applies a preconditioner",
            (
                Variant("aniso_jump", "frsz2_32", preconditioner="ilu0"),
                Variant("conv_dom", "frsz2_32", preconditioner="ilu0"),
                Variant("bem_dense", "frsz2_32", preconditioner="ilu0"),
                Variant("lung2", "frsz2_32", preconditioner="block_jacobi",
                        prec_storage="frsz2_16"),
            ),
        ),
        Workload(
            "batch",
            "cfd2 with 8 right-hand sides per solve_batch call: the only "
            "workload on the lockstep multi-RHS path",
            (
                Variant("cfd2", "frsz2_32", nrhs=8),
                Variant("cfd2", "frsz2_16", nrhs=8),
                Variant("cfd2", "frsz2_32", nrhs=8),
            ),
        ),
    )
}


class Problem:
    """A generated suite matrix, its target and a reference CSR matvec."""

    def __init__(self, matrix: str, scale: str = "default") -> None:
        spec = SUITE[matrix]
        self.a = spec.build(scale)
        self.target = float(spec.target_for(scale))
        self.n = self.a.shape[0]
        # the reference matvec works on a private copy of the generator's
        # CSR arrays, independent of the program's SpMV kernels and formats
        self._rows = np.repeat(np.arange(self.n), np.diff(self.a.indptr))
        self._data = self.a.data.copy()
        self._cols = self.a.indices.copy()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self._rows, weights=self._data * x[self._cols],
                           minlength=self.n)

    def rhs(self, seed: int, op_index: int, nrhs: int) -> np.ndarray:
        """``(n, nrhs)`` right-hand sides ``A x_true`` for one operation."""
        rng = np.random.default_rng([seed, op_index])
        b = np.empty((self.n, nrhs))
        for c in range(nrhs):
            x = rng.standard_normal(self.n)
            b[:, c] = self.matvec(x / np.linalg.norm(x))
        return b


@dataclass
class OpResult:
    setup_s: float
    solve_s: float
    results: list
    #: reason the operation failed, or None
    failure: Optional[str] = None

    @property
    def tts_s(self) -> float:
        return self.setup_s + self.solve_s

    def x_bytes(self) -> bytes:
        return b"".join(r.x.tobytes() for r in self.results)


def run_op(problem: Problem, v: Variant, b: np.ndarray, tracer=None) -> OpResult:
    """One timed operation: setup plus solve, then the residual check."""
    try:
        t0 = time.perf_counter()
        prec = None
        if v.preconditioner != "none":
            prec = prec_module.make_preconditioner(
                v.preconditioner, problem.a, storage=v.prec_storage,
                backend=BACKEND,
            )
        solver = CbGmres(
            problem.a, v.storage, m=RESTART, spmv_format=SPMV_FORMAT,
            basis_mode=v.basis_mode, backend=BACKEND, preconditioner=prec,
            tracer=tracer,
        )
        t1 = time.perf_counter()
        if v.nrhs == 1:
            results = [solver.solve(b[:, 0], problem.target)]
        else:
            results = list(solver.solve_batch(b, problem.target))
        t2 = time.perf_counter()
    except Exception:  # noqa: BLE001 - a crash is a failed operation
        return OpResult(0.0, 0.0, [], failure=traceback.format_exc(limit=3))
    op = OpResult(t1 - t0, t2 - t1, results)
    op.failure = check(problem, b, results)
    return op


def check(problem: Problem, b: np.ndarray, results: list) -> Optional[str]:
    """Why the solutions are not accepted, or None when every one is."""
    if len(results) != b.shape[1]:
        return f"{len(results)} results for {b.shape[1]} right-hand sides"
    for c, r in enumerate(results):
        if not r.converged:
            return f"rhs {c}: not converged after {r.iterations} iterations"
        if not np.all(np.isfinite(r.x)):
            return f"rhs {c}: non-finite x"
        rrn = float(np.linalg.norm(b[:, c] - problem.matvec(r.x))
                    / np.linalg.norm(b[:, c]))
        if not rrn <= problem.target:
            return f"rhs {c}: residual {rrn:.3e} above target {problem.target:.1e}"
    return None


def tail(values: List[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least ten
    samples above it (nearest rank); the median when there are fewer than
    twenty samples, since no percentile above it then qualifies."""
    s = sorted(values)
    n = len(s)
    if n < 20:
        return float(np.median(s)), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def lockstep_util(results: list) -> Tuple[int, int]:
    """``(column iterations, lockstep iterations)`` of one batched call.

    Columns restart together, so cycle ``k`` of the lockstep lasts as long
    as the longest column's cycle ``k``; restart boundaries come from the
    explicit residual samples of each column's history.
    """
    cycles: List[List[int]] = []
    for r in results:
        marks = [s.iteration for s in r.history if s.kind == "explicit"]
        cycles.append([b - a for a, b in zip(marks, marks[1:])])
    depth = max((len(c) for c in cycles), default=0)
    lock = sum(max(c[k] if k < len(c) else 0 for c in cycles)
               for k in range(depth))
    return sum(r.iterations for r in results), lock


_BITS: Dict[Tuple[str, int], float] = {}


def bits_per_value(storage: str, n: int) -> float:
    key = (storage, n)
    if key not in _BITS:
        _BITS[key] = make_accessor(storage, n).bits_per_value
    return _BITS[key]


def adaptive_bytes(result) -> Tuple[float, float]:
    """``(stored basis bits moved, the same touches at frsz2_32)``."""
    st = result.stats
    touches = {
        f: st.reads_by_storage.get(f, 0) + st.writes_by_storage.get(f, 0)
        for f in set(st.reads_by_storage) | set(st.writes_by_storage)
    }
    used = sum(t * bits_per_value(f, st.n) for f, t in touches.items())
    ref = sum(touches.values()) * bits_per_value("frsz2_32", st.n)
    return used, ref


def median(values: List[float]) -> float:
    return float(np.median(values)) if values else math.nan
