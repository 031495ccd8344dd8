"""The CB-GMRES restart/Arnoldi loop, run in lockstep over ``B`` columns.

This module holds the one Arnoldi loop of :class:`~repro.solvers.gmres.
CbGmres`: restart residual, Arnoldi cycle, Givens least squares,
stall detection, breakdown recovery and the adaptive precision
controller.  :meth:`~repro.solvers.gmres.CbGmres.solve` is the
``B == 1`` case of :func:`solve_batch`;
:meth:`~repro.solvers.gmres.CbGmres.solve_batch` runs ``B``
simultaneous restarted-GMRES processes against one matrix.  Every
unfinished column performs its restart evaluation together (one
multi-vector SpMV), and all columns inside an Arnoldi cycle advance
through the same step ``j`` in lockstep, so

* the SpMV is one :meth:`~repro.sparse.engine.SpmvEngine.matmat` over
  the active columns instead of ``B`` separate matvecs,
* the orthogonalization streams every column's stored basis through one
  stacked tile pass (:mod:`repro.fused.batch`) — for FRSZ2 storage the
  decode of all ``C*j`` basis vectors is a single batched codec call
  per tile,
* new basis vectors of all active columns compress in one
  :meth:`~repro.core.frsz2.FRSZ2.compress_batch` encode
  (:func:`repro.solvers.basis.write_basis_vectors_batch`).

With ``B == 1`` (or an operator without ``matmat``, e.g. a fault
injector) every batched fast path is bypassed and the loop runs the
solo kernels directly.  :class:`~repro.solvers.fgmres.FlexibleGmres`
keeps its own loop: it stores two bases, writes ``Z`` before the SpMV
and has no recovery path.

Bit-identity contract
---------------------
Column ``c`` of a batched solve is **bit-identical** to an independent
solve of ``B[:, c]``: identical solution bits, residual history,
iteration counts, events, and per-column work stats.  This holds
because every per-column scalar decision (convergence, stalling, the
eta test, breakdown handling, recovery budgets, storage decisions) is
evaluated per column in the same order whatever the batch size, and
each batched kernel is bit-identical per column to its solo
counterpart (see :mod:`repro.fused.batch`,
:meth:`~repro.sparse.csr.CSRMatrix.matmat`,
:func:`~repro.accessor.frsz2_accessor.write_frsz2_batch`).  Columns
that converge, break down, or get poisoned simply leave the lockstep
early — they stop doing work while the rest of the batch proceeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..fused.batch import BatchTileReader, axpy_batch, dot_basis_batch
from .adaptive import ADAPTIVE_STORAGE, CycleFeedback, PrecisionController
from .basis import KrylovBasis, write_basis_vectors_batch
from .gmres import BreakdownEvent, GmresResult, ResidualSample, SolveStats
from .hessenberg import GivensLeastSquares
from .orthogonal import (
    OrthogonalizationResult,
    _finish,
    cgs_orthogonalize,
    mgs_orthogonalize,
)

__all__ = ["BatchGmresResult", "solve_batch"]


@dataclass
class BatchGmresResult:
    """Outcome of one batched multi-RHS solve.

    ``results[c]`` is the full :class:`~repro.solvers.gmres.GmresResult`
    of column ``c`` — bit-identical to an independent solve of that
    column.  The batch-level counters record how much work actually ran
    through the shared fast paths.
    """

    results: List[GmresResult] = field(default_factory=list)
    #: multi-vector SpMV invocations (restart + Arnoldi + final check)
    batched_spmv_calls: int = 0
    #: basis vectors written through the one-encode batched path
    batched_basis_writes: int = 0
    #: Arnoldi steps orthogonalized through the stacked tile kernels
    batched_ortho_steps: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i: int) -> GmresResult:
        return self.results[i]

    def __iter__(self):
        return iter(self.results)

    @property
    def converged(self) -> "List[bool]":
        return [r.converged for r in self.results]

    @property
    def iterations(self) -> "List[int]":
        return [r.iterations for r in self.results]


class _Column:
    """Mutable state of one right-hand side's restarted solve."""

    __slots__ = (
        "idx", "b", "bnorm", "target", "x", "basis", "stats", "history",
        "events", "total_iters", "stagnant", "fruitless", "prev_explicit",
        "rrn", "converged", "stalled", "exhausted", "finished", "result",
        "lsq", "j_used", "poison", "in_step", "v", "last_impl",
        "controller", "cycle_mark", "bits_seen",
    )

    def __init__(self, idx, b, bnorm, target, x, basis, stats, controller):
        self.idx = idx
        self.b = b
        self.bnorm = bnorm
        self.target = target
        self.x = x
        self.basis = basis
        self.stats = stats
        self.history: List[ResidualSample] = []
        self.events: List[BreakdownEvent] = []
        self.total_iters = 0
        self.stagnant = 0
        self.fruitless = 0
        self.prev_explicit = np.inf
        self.rrn = np.inf
        self.converged = False
        self.stalled = False
        self.exhausted = False
        self.finished = False
        self.result: Optional[GmresResult] = None
        self.lsq: Optional[GivensLeastSquares] = None
        self.j_used = 0
        self.poison: Optional[BreakdownEvent] = None
        self.in_step = False
        self.v: Optional[np.ndarray] = None
        self.last_impl = np.inf
        #: adaptive storage only: the controller, the stat counters at
        #: the open cycle's start (per-cycle feedback deltas) and the
        #: stored bits of every format used (traffic-weighted mean)
        self.controller: Optional[PrecisionController] = controller
        self.cycle_mark: Optional[tuple] = None
        self.bits_seen: Dict[str, float] = {}

    def recover(self, event: BreakdownEvent, max_recoveries: int) -> bool:
        """Log a recovery; False (and finish) once the budget runs out."""
        self.events.append(event)
        self.stats.recoveries += 1
        self.fruitless += 1
        if self.fruitless <= max_recoveries:
            return True
        self.exhausted = self.finished = True
        return False

    def _bucket(self, d: Dict[str, int], k: int) -> None:
        d[self.basis.storage] = d.get(self.basis.storage, 0) + k

    def count_reads(self, k: int) -> None:
        self.stats.basis_reads += k
        if self.controller is not None:
            self._bucket(self.stats.reads_by_storage, k)

    def count_write(self, j: int) -> None:
        self.stats.basis_writes += 1
        if self.controller is not None:
            self._bucket(self.stats.writes_by_storage, 1)
            if j == 0:  # round-trip formats know their size once written
                self.bits_seen[self.basis.storage] = self.basis.bits_per_value

    def pick_storage(self) -> None:
        """Feed the finished cycle back, then pick this cycle's storage.

        Both steps read explicit residuals only, so the decision stream
        is identical across basis modes and batch sizes.
        """
        stats = self.stats
        if self.cycle_mark is not None:
            rrn0, iters0, reorth0, recov0, events0 = self.cycle_mark
            self.controller.observe_cycle(CycleFeedback(
                storage=self.basis.storage,
                start_rrn=rrn0,
                end_rrn=self.rrn,
                iterations=stats.iterations - iters0,
                reorthogonalizations=stats.reorthogonalizations - reorth0,
                loss_of_orthogonality=any(
                    e.kind == "loss_of_orthogonality"
                    for e in self.events[events0:]
                ),
                recoveries=stats.recoveries - recov0,
            ))
        decision = self.controller.decide(self.rrn, self.target)
        if decision.storage != self.basis.storage:
            self.basis.set_storage(decision.storage)
        stats.storage_trace.append(decision.storage)
        self.cycle_mark = (
            self.rrn, stats.iterations, stats.reorthogonalizations,
            stats.recoveries, len(self.events),
        )

    def close_stats(self) -> None:
        """Copy the basis-side work log into ``stats`` after the solve."""
        stats, basis = self.stats, self.basis
        stats.bits_per_value = basis.bits_per_value
        ctl = self.controller
        if ctl is not None:
            stats.precision_upshifts = ctl.upshifts
            stats.precision_downshifts = ctl.downshifts
            # one scalar cannot name a mixed-storage solve's width, so
            # report the traffic-weighted mean of the formats used
            touches = {
                fmt: stats.reads_by_storage.get(fmt, 0)
                + stats.writes_by_storage.get(fmt, 0)
                for fmt in self.bits_seen
            }
            weight = sum(touches.values())
            if weight:
                stats.bits_per_value = (
                    sum(self.bits_seen[f] * t for f, t in touches.items())
                    / weight
                )
        stats.basis_peak_float64_bytes = basis.peak_float64_bytes
        for name in ("dot_calls", "dot_vectors", "axpy_calls", "axpy_vectors",
                     "combine_calls", "combine_vectors", "tiles", "values"):
            setattr(stats, "fused_" + name, getattr(basis.fused_log, name))


def _cgs_orthogonalize_batch(
    bases: "List[KrylovBasis]",
    j: int,
    W: np.ndarray,
    cols: Sequence[int],
    eta: float,
    tile_elems: int,
    tracer,
) -> "List[OrthogonalizationResult]":
    """Batched CGS + conditional re-orthogonalization.

    ``W[:, cols[i]]`` holds column ``i``'s (already copied) SpMV result
    and is orthogonalized in place against ``bases[i]``.  Result ``i``
    is bit-identical to ``cgs_orthogonalize(bases[i], j, w_i, eta)``:
    the per-column scalar sequence (norms, eta test, ``h = h + u``) is
    the solo code's, and the fused dot/axpy passes are bit-identical
    per column (:mod:`repro.fused.batch`).
    """
    C = len(cols)
    logs = [b.fused_log for b in bases]
    w_tilde = [float(np.linalg.norm(W[:, col])) for col in cols]
    readers = [b._reader(j) for b in bases]
    breader = BatchTileReader(readers)
    with tracer.span("basis_read", vectors=C * j):
        for b in bases:
            b._count_read(j)
        H = dot_basis_batch(breader, W, cols, tile_elems, tracer, logs)
    with tracer.span("basis_read", vectors=C * j):
        for b in bases:
            b._count_read(j)
        axpy_batch(breader, H, W, cols, tile_elems, tracer, logs)
    h_next = [float(np.linalg.norm(W[:, col])) for col in cols]
    h_first = list(h_next)
    h_cols: "List[np.ndarray]" = [H[:, i] for i in range(C)]
    reorth = [hn < eta * wt for hn, wt in zip(h_next, w_tilde)]
    sub = [i for i in range(C) if reorth[i]]
    if sub:
        sreader = BatchTileReader([readers[i] for i in sub])
        slogs = [logs[i] for i in sub]
        scols = [cols[i] for i in sub]
        with tracer.span("basis_read", vectors=len(sub) * j):
            for i in sub:
                bases[i]._count_read(j)
            U = dot_basis_batch(sreader, W, scols, tile_elems, tracer, slogs)
        with tracer.span("basis_read", vectors=len(sub) * j):
            for i in sub:
                bases[i]._count_read(j)
            axpy_batch(sreader, U, W, scols, tile_elems, tracer, slogs)
        for k, i in enumerate(sub):
            h_cols[i] = h_cols[i] + U[:, k]
            h_next[i] = float(np.linalg.norm(W[:, cols[i]]))
    return [
        _finish(
            h_cols[i], h_next[i], W[:, cols[i]], w_tilde[i],
            reorth[i], h_first[i], eta,
        )
        for i in range(C)
    ]


def solve_batch(
    solver,
    B: Union[np.ndarray, Sequence[np.ndarray]],
    target_rrn: Union[float, Sequence[float]],
    x0: Optional[np.ndarray] = None,
    record_history: bool = True,
    monitor: "Callable[[int, int, int, KrylovBasis, float], None] | None" = None,
) -> BatchGmresResult:
    """Run ``B`` lockstep CB-GMRES solves sharing one matrix.

    Parameters
    ----------
    solver : CbGmres
        The configured solver (matrix, storage, restart length, ...).
    B : ndarray (n, B) or (n,), or sequence of (n,) vectors
        Right-hand sides, one per column.
    target_rrn : float or sequence of float
        Per-column relative-residual target (a scalar applies to all).
    x0 : ndarray (n, B), optional
        Initial guesses; defaults to zero (paper §V-B).  A 1-D ``x0``
        is read as one column.
    record_history, monitor
        As in :meth:`~repro.solvers.gmres.CbGmres.solve`; the batched
        monitor receives the column index first:
        ``monitor(col, iteration, j, basis, implicit_rrn)``.

    Returns
    -------
    BatchGmresResult
        Per-column :class:`~repro.solvers.gmres.GmresResult` objects
        (bit-identical to independent solves) plus batch-path counters.
    """
    a = solver.a
    n = a.shape[0]
    m = solver.m
    prec = solver.preconditioner
    tracer = solver.tracer
    use_cgs = solver.orthogonalization == "cgs"
    adaptive = solver.storage == ADAPTIVE_STORAGE

    if isinstance(B, np.ndarray):
        if B.ndim == 1:
            B = B[:, None]
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"B must have shape ({n}, nrhs)")
        b_cols = [np.ascontiguousarray(B[:, c], dtype=np.float64)
                  for c in range(B.shape[1])]
    else:
        b_cols = [np.ascontiguousarray(b, dtype=np.float64) for b in B]
        for b in b_cols:
            if b.shape != (n,):
                raise ValueError(f"every right-hand side must have shape ({n},)")
    nrhs = len(b_cols)
    if nrhs == 0:
        return BatchGmresResult()
    if np.isscalar(target_rrn):
        targets = [float(target_rrn)] * nrhs
    else:
        targets = [float(t) for t in target_rrn]
        if len(targets) != nrhs:
            raise ValueError("target_rrn must be scalar or one per column")
    for t in targets:
        if t < 0:
            raise ValueError("target_rrn must be non-negative")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.ndim == 1:
            x0 = x0[:, None]
        if x0.shape != (n, nrhs):
            raise ValueError(f"x0 must have shape ({n}, {nrhs})")

    matmat = getattr(a, "matmat", None)
    out = BatchGmresResult()

    cols: List[_Column] = []
    for c, b in enumerate(b_cols):
        # a fresh controller per column keeps solves independent (and
        # the cached/streaming bit-identity contract: decisions depend
        # only on explicit residuals, which the modes share exactly)
        controller = (
            PrecisionController(solver.precision, tracer=tracer)
            if adaptive else None
        )
        basis = KrylovBasis(
            n,
            m,
            # adaptive: first decision lands before the first write; the
            # ladder top is a never-read placeholder until then
            controller.config.ladder[-1] if controller else solver.storage,
            solver._factory,
            tracer=tracer,
            basis_mode=solver.basis_mode,
            tile_elems=solver.tile_elems,
            storage_factory=solver._storage_factory,
            backend=solver.backend,
        )
        stats = SolveStats(
            n=n,
            nnz=a.nnz,
            bits_per_value=basis.bits_per_value,
            spmv_format=getattr(a, "resolved_format", "csr"),
            spmv_padded_entries=int(getattr(a, "padded_entries", a.nnz)),
            basis_mode=solver.basis_mode,
            basis_tile_elems=basis.tile_elems,
        )
        bnorm = float(np.linalg.norm(b))
        x = np.zeros(n) if x0 is None else np.array(x0[:, c], dtype=np.float64)
        col = _Column(c, b, bnorm, targets[c], x, basis, stats, controller)
        if bnorm == 0.0:
            col.finished = True
            col.result = GmresResult(
                x=np.zeros(n), converged=True, iterations=0, final_rrn=0.0,
                target_rrn=targets[c], storage=solver.storage,
                history=col.history, stats=stats,
            )
        cols.append(col)

    def spmv_block(vectors: "List[np.ndarray]") -> "List[np.ndarray]":
        """One SpMV per vector; multi-vector kernel when available."""
        if matmat is not None and len(vectors) > 1:
            Z = np.empty((n, len(vectors)), order="F")
            for i, z in enumerate(vectors):
                Z[:, i] = z
            with tracer.span("spmv"):
                Y = matmat(Z)
            out.batched_spmv_calls += 1
            return [Y[:, i] for i in range(len(vectors))]
        results = []
        for z in vectors:
            with tracer.span("spmv"):
                results.append(a.matvec(z))
        return results

    def write_slot(writers: "List[_Column]", j: int) -> "List[_Column]":
        """Batched basis write; returns columns needing the solo path."""
        if len(writers) > 1 and write_basis_vectors_batch(
            [c.basis for c in writers], j, [c.v for c in writers]
        ):
            for c in writers:
                c.count_write(j)
            out.batched_basis_writes += len(writers)
            return []
        return writers

    def restart(active: "List[_Column]") -> "List[_Column]":
        """Explicit residuals; returns the columns entering a cycle."""
        axs = spmv_block([c.x for c in active])
        entering: List[_Column] = []
        for c, ax in zip(active, axs):
            r = c.b - ax
            c.stats.spmv_calls += 1
            c.stats.dense_vector_ops += 2
            beta = float(np.linalg.norm(r))
            if solver.recovery and not np.isfinite(beta):
                # a fault in the restart SpMV itself (x is known finite:
                # poisoned updates are never applied) — recompute it on
                # the next pass
                c.recover(
                    BreakdownEvent(c.total_iters, "nonfinite_residual"),
                    solver.max_recoveries,
                )
                continue
            c.rrn = beta / c.bnorm
            if c.rrn < c.prev_explicit:
                c.fruitless = 0  # real progress: replenish the budget
            if record_history:
                c.history.append(
                    ResidualSample(c.total_iters, c.rrn, "explicit")
                )
            if c.rrn <= c.target:
                c.converged = c.finished = True
                continue
            if c.total_iters >= solver.max_iter:
                c.finished = True
                continue
            if solver.stall_restarts is not None and c.stats.restarts > 0:
                if c.rrn > c.prev_explicit * solver.stall_factor:
                    c.stagnant += 1
                    if c.stagnant >= solver.stall_restarts:
                        c.stalled = c.finished = True
                        continue
                else:
                    c.stagnant = 0
            c.prev_explicit = min(c.prev_explicit, c.rrn)
            if c.controller is not None:
                c.pick_storage()

            c.basis.reset()
            c.v = r / beta
            c.lsq = GivensLeastSquares(m, beta)
            c.j_used = 0
            c.poison = None
            c.in_step = True
            entering.append(c)

        # slot-0 writes of every entering column, batched when possible
        for c in write_slot(entering, 0):
            c.basis.write_vector(0, c.v)  # storage rejections propagate
            c.count_write(0)
        return entering

    def arnoldi(cycle: "List[_Column]") -> None:
        """One lockstep Arnoldi cycle (Fig. 1 steps 2-17)."""
        for j in range(1, m + 1):
            live = [c for c in cycle if c.in_step]
            if not live:
                break
            with tracer.span("arnoldi", j=j):
                # w := A (M^-1 v); the newest vector stays in double
                zs = []
                for c in live:
                    if prec.is_identity:
                        zs.append(c.v)
                    else:
                        zs.append(prec.apply(c.v))
                        c.stats.preconditioner_applies += 1
                ws = spmv_block(zs)
                step: List[_Column] = []
                step_ws: List[np.ndarray] = []
                for c, w in zip(live, ws):
                    c.stats.spmv_calls += 1
                    if solver.recovery and not np.all(np.isfinite(w)):
                        c.poison = BreakdownEvent(c.total_iters, "nonfinite_spmv")
                        c.in_step = False
                    else:
                        step.append(c)
                        step_ws.append(w)
                if not step:
                    continue

                # orthogonalization: the CGS copy (w := np.array(w)) is
                # the fill of the Fortran-ordered block
                with tracer.span("orthogonalize"):
                    if use_cgs and len(step) > 1:
                        W = np.empty((n, len(step)), order="F")
                        for i, w in enumerate(step_ws):
                            W[:, i] = w
                        oress = _cgs_orthogonalize_batch(
                            [c.basis for c in step], j, W,
                            list(range(len(step))), solver.eta,
                            step[0].basis.tile_elems, tracer,
                        )
                        out.batched_ortho_steps += len(step)
                    else:
                        orthogonalize = (
                            cgs_orthogonalize if use_cgs else mgs_orthogonalize
                        )
                        oress = [
                            orthogonalize(c.basis, j, w, solver.eta)
                            for c, w in zip(step, step_ws)
                        ]
                writers: List[_Column] = []
                for c, ores in zip(step, oress):
                    c.count_reads(2 * j if ores.reorthogonalized else j)
                    c.stats.reorthogonalizations += int(ores.reorthogonalized)
                    c.stats.dense_vector_ops += 4
                    if solver.recovery and ores.nonfinite:
                        c.poison = BreakdownEvent(
                            c.total_iters, "nonfinite_orthogonalization"
                        )
                        c.in_step = False
                        continue
                    c.total_iters += 1
                    c.stats.iterations += 1
                    impl = c.lsq.append_column(ores.h, ores.h_next) / c.bnorm
                    c.last_impl = impl
                    c.j_used = j
                    if record_history:
                        c.history.append(
                            ResidualSample(c.total_iters, impl, "implicit")
                        )
                    if monitor is not None:
                        monitor(c.idx, c.total_iters, j, c.basis, impl)
                    if ores.breakdown:
                        c.in_step = False  # happy breakdown
                        continue
                    if solver.recovery and ores.loss_of_orthogonality:
                        # the columns absorbed so far are valid: apply
                        # the partial update, then restart the cycle early
                        c.events.append(
                            BreakdownEvent(c.total_iters, "loss_of_orthogonality")
                        )
                        c.in_step = False
                        continue
                    c.v = ores.w / ores.h_next
                    writers.append(c)
                for c in write_slot(writers, j):
                    try:
                        c.basis.write_vector(j, c.v)
                    except (ValueError, OverflowError) as exc:
                        if not solver.recovery:
                            raise
                        c.poison = BreakdownEvent(
                            c.total_iters, "basis_write_failed", str(exc)
                        )
                        c.in_step = False
                        continue
                    c.count_write(j)
                for c in writers:
                    if not c.in_step:
                        continue
                    if c.last_impl <= c.target or c.total_iters >= solver.max_iter:
                        c.in_step = False

    def update(cycle: "List[_Column]") -> None:
        """Per-column solution updates (Fig. 1 step 18)."""
        for c in cycle:
            if c.poison is not None:
                # discard the poisoned tail; columns absorbed before the
                # fault are provably finite and are salvaged below
                # (unless the fault hit before any column was absorbed)
                if not c.recover(c.poison, solver.max_recoveries) or not c.j_used:
                    continue
            # x := x0 + M^-1 (V_m y)
            with tracer.span("update", columns=c.j_used):
                y = c.lsq.solve()
                upd = c.basis.combine(c.j_used, y)
            if not prec.is_identity:
                upd = prec.apply(upd)
                c.stats.preconditioner_applies += 1
            if solver.recovery and not np.all(np.isfinite(upd)):
                # corrupted stored vectors leaked into V_m y: drop it
                c.recover(
                    BreakdownEvent(c.total_iters, "nonfinite_update"),
                    solver.max_recoveries,
                )
                continue
            c.x = c.x + upd
            c.count_reads(c.j_used)
            c.stats.dense_vector_ops += 1
            c.stats.restarts += 1

    # -- lockstep outer loop: one ``restart`` span per pass -----------
    while True:
        active = [c for c in cols if not c.finished]
        if not active:
            break
        with tracer.span(
            "restart", index=min(c.stats.restarts for c in active)
        ):
            cycle = restart(active)
            if cycle:
                arnoldi(cycle)
                update(cycle)

    # -- final verification (batched over every solved column) --------
    pending = [c for c in cols if c.result is None]
    if pending:
        final_axs = spmv_block([c.x for c in pending])
        for c, final_ax in zip(pending, final_axs):
            final_rrn = float(np.linalg.norm(c.b - final_ax) / c.bnorm)
            c.stats.spmv_calls += 1
            if solver.recovery and not np.isfinite(final_rrn):
                # the verification SpMV itself was hit; x is finite, so
                # report the last trustworthy explicit residual
                c.events.append(
                    BreakdownEvent(c.total_iters, "nonfinite_residual")
                )
                final_rrn = (
                    c.rrn if np.isfinite(c.rrn) else float(c.prev_explicit)
                )
            c.close_stats()
            c.result = GmresResult(
                x=c.x,
                converged=c.converged,
                iterations=c.total_iters,
                final_rrn=final_rrn,
                target_rrn=c.target,
                storage=solver.storage,
                history=c.history,
                stats=c.stats,
                stalled=c.stalled,
                breakdown_events=c.events,
                recovery_exhausted=c.exhausted,
                precision_trace=(
                    list(c.controller.decisions) if c.controller else []
                ),
            )

    out.results = [c.result for c in cols]
    return out
