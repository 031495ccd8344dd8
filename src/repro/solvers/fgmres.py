"""Flexible GMRES with a compressed preconditioned basis (paper ref [17]).

Agullo et al. ("Exploring variable accuracy storage through lossy
compression ... a first application to flexible GMRES") proposed —
almost simultaneously with CB-GMRES — compressing the *preconditioned*
Krylov vectors ``z_j = M^-1 v_j`` inside flexible GMRES instead of the
orthonormal basis itself.  The paper's related-work section summarizes
the trade-off: "This improves the numerical stability at the price of
reduced runtime benefits."

Both effects are structural and this implementation reproduces them:

* stability — the orthonormal basis ``V`` stays in full precision, so
  the Arnoldi recurrence is undisturbed; compression errors only enter
  through the solution update ``x = x0 + Z_m y``, where they act like a
  slightly perturbed preconditioner (which flexible GMRES tolerates by
  construction);
* runtime — *two* bases are stored and streamed (``V`` uncompressed for
  orthogonalization + ``Z`` compressed), so the memory-traffic savings
  are roughly halved relative to CB-GMRES.

The work log feeds the same GPU timing model; the
``uncompressed_basis_reads`` counter carries the V-basis traffic that
CB-GMRES would have compressed.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..accessor import VectorAccessor
from ..jit import dispatch as _dispatch
from ..sparse.csr import CSRMatrix
from ..fused import DEFAULT_TILE_ELEMS
from .adaptive import (
    ADAPTIVE_STORAGE,
    ControllerConfig,
    CycleFeedback,
    PrecisionController,
)
from .basis import KrylovBasis
from .gmres import (
    DEFAULT_MAX_ITER,
    DEFAULT_RESTART,
    GmresResult,
    ResidualSample,
    SolveStats,
)
from .hessenberg import GivensLeastSquares
from .orthogonal import DEFAULT_ETA, cgs_orthogonalize
from .preconditioner import IdentityPreconditioner, Preconditioner

__all__ = ["FlexibleGmres"]


class FlexibleGmres:
    """Restarted FGMRES storing the preconditioned basis ``Z`` compressed.

    Parameters mirror :class:`~repro.solvers.gmres.CbGmres`;
    ``z_storage`` is the storage format of the preconditioned vectors
    (the quantity ref [17] compresses), while the orthonormal basis ``V``
    always stays in float64.

    ``z_storage="adaptive"`` puts the Z basis under a
    :class:`~repro.solvers.adaptive.PrecisionController`: each restart
    cycle re-selects the cheapest ladder format whose unit roundoff
    still admits the residual reduction the cycle must deliver.  The
    orthonormal V basis is untouched (it is already float64), so only
    the solution-update error channel moves — exactly the channel
    flexible GMRES tolerates by construction.

    Parameters
    ----------
    a : CSRMatrix
        Square system matrix.
    z_storage : str, optional
        Storage format for the preconditioned basis, or ``"adaptive"``.
    m : int, optional
        Restart length.
    eta : float, optional
        CGS reorthogonalization threshold.
    max_iter : int, optional
        Global iteration cap.
    stall_restarts : int, optional
        Consecutive non-improving restarts before declaring a stall.
    preconditioner : Preconditioner, optional
        ``M`` in ``z = M^-1 v`` (identity when omitted).
    accessor_factory : callable, optional
        ``n -> VectorAccessor`` override for the Z basis (fixed formats
        only; incompatible with ``z_storage="adaptive"``).
    storage_factory : callable, optional
        ``(storage, n) -> VectorAccessor`` override used for adaptive
        solves, where the controller rebuilds accessors per format
        switch.  Mutually exclusive with ``accessor_factory``.
    precision : ControllerConfig, optional
        Controller tuning for ``z_storage="adaptive"``.
    basis_mode : str, optional
        ``"cached"`` or ``"streaming"`` for both bases.
    tile_elems : int, optional
        Tile size override for the shared tile grid.
    backend : str, optional
        Kernel backend (``"numpy"``/``"jit"``) for the SpMV and the Z
        basis codec; bit-identical across backends (see
        :mod:`repro.jit.dispatch`).
    """

    def __init__(
        self,
        a: CSRMatrix,
        z_storage: str = "frsz2_32",
        m: int = DEFAULT_RESTART,
        eta: float = DEFAULT_ETA,
        max_iter: int = DEFAULT_MAX_ITER,
        stall_restarts: Optional[int] = 8,
        preconditioner: Optional[Preconditioner] = None,
        accessor_factory: "Callable[[int], VectorAccessor] | None" = None,
        storage_factory: "Callable[[str, int], VectorAccessor] | None" = None,
        precision: Optional[ControllerConfig] = None,
        basis_mode: str = "cached",
        tile_elems: Optional[int] = None,
        backend: "str | None" = None,
    ) -> None:
        if a.shape[0] != a.shape[1]:
            raise ValueError("FGMRES requires a square matrix")
        if m < 1:
            raise ValueError("restart length must be positive")
        if accessor_factory is not None and storage_factory is not None:
            raise ValueError(
                "accessor_factory and storage_factory are mutually exclusive"
            )
        if z_storage == ADAPTIVE_STORAGE and accessor_factory is not None:
            raise ValueError(
                "adaptive z_storage rebuilds accessors per format switch; "
                "pass storage_factory instead of accessor_factory"
            )
        self.backend = _dispatch.resolve_backend(backend)
        if backend is not None and hasattr(a, "set_backend"):
            a.set_backend(self.backend)
        self.a = a
        self.z_storage = z_storage
        self.m = int(m)
        self.eta = float(eta)
        self.max_iter = int(max_iter)
        self.stall_restarts = stall_restarts
        self.preconditioner = preconditioner or IdentityPreconditioner()
        self._factory = accessor_factory
        self._storage_factory = storage_factory
        self.precision = precision
        self.basis_mode = basis_mode
        self.tile_elems = tile_elems

    def solve(
        self,
        b: np.ndarray,
        target_rrn: float,
        x0: Optional[np.ndarray] = None,
        record_history: bool = True,
    ) -> GmresResult:
        """Solve ``A x = b`` to the target relative residual norm."""
        a = self.a
        n = a.shape[0]
        prec = self.preconditioner
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (n,):
            raise ValueError(f"b must have shape ({n},)")
        if target_rrn < 0:
            raise ValueError("target_rrn must be non-negative")
        bnorm = float(np.linalg.norm(b))
        x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)

        tile = self.tile_elems if self.tile_elems else DEFAULT_TILE_ELEMS
        adaptive = self.z_storage == ADAPTIVE_STORAGE
        controller = PrecisionController(self.precision) if adaptive else None
        v_basis = KrylovBasis(
            n, self.m, "float64", basis_mode=self.basis_mode, tile_elems=tile
        )
        z_basis = KrylovBasis(
            n,
            self.m,
            # placeholder until the controller's first decision (taken
            # right before the first cycle, like CbGmres)
            controller.config.ladder[-1] if adaptive else self.z_storage,
            self._factory,
            basis_mode=self.basis_mode,
            tile_elems=tile,
            storage_factory=self._storage_factory,
            backend=self.backend,
        )
        stats = SolveStats(
            n=n,
            nnz=a.nnz,
            bits_per_value=z_basis.bits_per_value,
            spmv_format=getattr(a, "resolved_format", "csr"),
            spmv_padded_entries=int(getattr(a, "padded_entries", a.nnz)),
            basis_mode=self.basis_mode,
            basis_tile_elems=z_basis.tile_elems,
        )
        history: List[ResidualSample] = []
        if bnorm == 0.0:
            return GmresResult(
                x=np.zeros(n),
                converged=True,
                iterations=0,
                final_rrn=0.0,
                target_rrn=target_rrn,
                storage=f"fgmres[{self.z_storage}]",
                history=history,
                stats=stats,
            )

        total_iters = 0
        stagnant = 0
        prev_explicit = np.inf
        converged = False
        stalled = False
        # adaptive bookkeeping: per-format Z-traffic buckets + the state
        # of the cycle in flight (for controller feedback)
        cycle_mark: Optional[dict] = None
        bits_seen: dict = {}
        z_reads: dict = {}
        z_writes: dict = {}

        def bucket(d: dict, k: int) -> None:
            d[z_basis.storage] = d.get(z_basis.storage, 0) + k
            bits_seen[z_basis.storage] = z_basis.bits_per_value

        while True:
            r = b - a.matvec(x)
            stats.spmv_calls += 1
            stats.dense_vector_ops += 2
            beta = float(np.linalg.norm(r))
            rrn = beta / bnorm
            if record_history:
                history.append(ResidualSample(total_iters, rrn, "explicit"))
            if rrn <= target_rrn:
                converged = True
                break
            if total_iters >= self.max_iter:
                break
            if self.stall_restarts is not None and stats.restarts > 0:
                if rrn > prev_explicit * 0.999:
                    stagnant += 1
                    if stagnant >= self.stall_restarts:
                        stalled = True
                        break
                else:
                    stagnant = 0
            prev_explicit = min(prev_explicit, rrn)

            if controller is not None:
                if cycle_mark is not None:
                    controller.observe_cycle(CycleFeedback(
                        storage=cycle_mark["storage"],
                        start_rrn=cycle_mark["rrn"],
                        end_rrn=rrn,
                        iterations=total_iters - cycle_mark["iterations"],
                        reorthogonalizations=(
                            stats.reorthogonalizations - cycle_mark["reorth"]
                        ),
                    ))
                decision = controller.decide(rrn, target_rrn)
                if decision.storage != z_basis.storage:
                    z_basis.set_storage(decision.storage)
                stats.storage_trace.append(decision.storage)
                cycle_mark = {
                    "storage": z_basis.storage,
                    "rrn": rrn,
                    "iterations": total_iters,
                    "reorth": stats.reorthogonalizations,
                }

            v_basis.reset()
            z_basis.reset()
            v = r / beta
            v_basis.write_vector(0, v)
            # the V basis stays uncompressed: its traffic is float64
            lsq = GivensLeastSquares(self.m, beta)

            j_used = 0
            for j in range(1, self.m + 1):
                # z_{j-1} = M^-1 v_{j-1}, stored compressed (ref [17])
                z = prec.apply(v) if not prec.is_identity else v.copy()
                if not prec.is_identity:
                    stats.preconditioner_applies += 1
                z_basis.write_vector(j - 1, z)
                stats.basis_writes += 1
                if controller is not None:
                    bucket(z_writes, 1)
                # counted read: the SpMV streams z_{j-1} from compressed
                # storage (ref [17] halves the saving, not the traffic)
                w = a.matvec(z_basis.read_vector(j - 1))
                stats.spmv_calls += 1
                ores = cgs_orthogonalize(v_basis, j, w, self.eta)
                # V reads are full float64 vectors (not compressed):
                # accounted separately from the compressed Z traffic
                stats.uncompressed_basis_reads += 2 * j if ores.reorthogonalized else j
                stats.dense_vector_ops += 4
                stats.reorthogonalizations += int(ores.reorthogonalized)
                total_iters += 1
                stats.iterations += 1
                impl = lsq.append_column(ores.h, ores.h_next) / bnorm
                j_used = j
                if record_history:
                    history.append(ResidualSample(total_iters, impl, "implicit"))
                if ores.breakdown:
                    break
                v = ores.w / ores.h_next
                v_basis.write_vector(j, v)
                if impl <= target_rrn or total_iters >= self.max_iter:
                    break

            # x = x0 + Z_m y — the compressed basis is read here
            y = lsq.solve()
            x = x + z_basis.combine(j_used, y)
            stats.basis_reads += j_used
            if controller is not None:
                bucket(z_reads, j_used)
            stats.dense_vector_ops += 1
            stats.restarts += 1

        final_rrn = float(np.linalg.norm(b - a.matvec(x)) / bnorm)
        stats.spmv_calls += 1
        stats.bits_per_value = z_basis.bits_per_value
        if controller is not None:
            stats.reads_by_storage = dict(z_reads)
            stats.writes_by_storage = dict(z_writes)
            stats.precision_upshifts = controller.upshifts
            stats.precision_downshifts = controller.downshifts
            traffic = {
                f: z_reads.get(f, 0) + z_writes.get(f, 0) for f in bits_seen
            }
            weight = sum(traffic.values())
            if weight:
                stats.bits_per_value = (
                    sum(bits_seen[f] * traffic[f] for f in bits_seen) / weight
                )
        # both bases contribute float64 working set and fused-kernel work
        stats.basis_peak_float64_bytes = (
            v_basis.peak_float64_bytes + z_basis.peak_float64_bytes
        )
        for flog in (v_basis.fused_log, z_basis.fused_log):
            stats.fused_dot_calls += flog.dot_calls
            stats.fused_dot_vectors += flog.dot_vectors
            stats.fused_axpy_calls += flog.axpy_calls
            stats.fused_axpy_vectors += flog.axpy_vectors
            stats.fused_combine_calls += flog.combine_calls
            stats.fused_combine_vectors += flog.combine_vectors
            stats.fused_tiles += flog.tiles
            stats.fused_values += flog.values
        return GmresResult(
            x=x,
            converged=converged,
            iterations=total_iters,
            final_rrn=final_rrn,
            target_rrn=target_rrn,
            storage=f"fgmres[{self.z_storage}]",
            history=history,
            stats=stats,
            stalled=stalled,
            precision_trace=(
                list(controller.decisions) if controller is not None else []
            ),
        )
