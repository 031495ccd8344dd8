"""Tests for the batched multi-RHS solve path (``CbGmres.solve_batch``).

The load-bearing property is bit-identity: column ``c`` of a batched
solve must equal an independent ``solve(B[:, c])`` — solution bits,
residual history, iteration counts — for every storage format, SpMV
format and batch width.  Everything else (counters, masking, input
validation) rides on top of that contract.
"""

import numpy as np
import pytest

from repro.solvers import BatchGmresResult, CbGmres, make_problem


def rhs_block(problem, nrhs, seed_base=1000):
    """Deterministic (n, nrhs) RHS block with solvable columns."""
    columns = []
    for c in range(nrhs):
        rng = np.random.default_rng(seed_base + c)
        x = rng.standard_normal(problem.a.shape[1])
        x /= np.linalg.norm(x)
        columns.append(problem.a.matvec(x))
    return np.stack(columns, axis=1)


def assert_columns_identical(solo_results, batch_result):
    """Every batch column equals its independent solve, bit for bit."""
    assert len(solo_results) == len(batch_result)
    for c, (solo, col) in enumerate(zip(solo_results, batch_result)):
        assert np.array_equal(solo.x, col.x), f"column {c}: solution bits"
        assert solo.iterations == col.iterations, f"column {c}: iterations"
        assert solo.converged == col.converged, f"column {c}: converged"
        assert solo.final_rrn == col.final_rrn, f"column {c}: final_rrn"
        solo_hist = [(s.iteration, s.rrn, s.kind) for s in solo.history]
        col_hist = [(s.iteration, s.rrn, s.kind) for s in col.history]
        assert solo_hist == col_hist, f"column {c}: residual history"
        assert solo.stats.restarts == col.stats.restarts
        assert solo.stats.spmv_calls == col.stats.spmv_calls
        assert solo.stats.basis_writes == col.stats.basis_writes
        assert (
            solo.stats.reorthogonalizations == col.stats.reorthogonalizations
        )


class TestBitIdentity:
    """Satellite 4: batched == loop column-for-column across the grid."""

    @pytest.mark.parametrize("storage", ["frsz2_16", "frsz2_32", "float64"])
    @pytest.mark.parametrize("spmv_format", ["csr", "ell", "sell"])
    @pytest.mark.parametrize("nrhs", [1, 2, 7])
    def test_matches_independent_solves(self, storage, spmv_format, nrhs):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, nrhs)
        target = problem.target_rrn

        def solver():
            return CbGmres(
                problem.a, storage, m=30, max_iter=400,
                spmv_format=spmv_format,
            )

        solos = [solver().solve(B[:, c], target) for c in range(nrhs)]
        batch = solver().solve_batch(B, target)
        assert_columns_identical(solos, batch)

    @pytest.mark.parametrize("storage", ["frsz2_16", "frsz2_32", "float64"])
    def test_b1_is_the_plain_solver(self, storage):
        """A width-1 batch must be today's solver, not a near-clone."""
        problem = make_problem("lung2", "smoke")
        b = rhs_block(problem, 1)[:, 0]
        solo = CbGmres(problem.a, storage, m=30, max_iter=400).solve(
            b, problem.target_rrn
        )
        batch = CbGmres(problem.a, storage, m=30, max_iter=400).solve_batch(
            b, problem.target_rrn
        )
        assert_columns_identical([solo], batch)

    def test_storage_factory_builds_every_column(self):
        """A batch must build each column's basis through the solver's
        ``storage_factory``, exactly as the solo solve does."""
        from repro.accessor import make_accessor

        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 2)
        calls = []

        def factory(storage, n):
            calls.append(storage)
            return make_accessor(storage, n)

        def solver():
            return CbGmres(problem.a, "frsz2_32", m=20, max_iter=400,
                           storage_factory=factory)

        solos = [solver().solve(B[:, c], problem.target_rrn) for c in range(2)]
        solo_calls = len(calls)
        assert solo_calls == 2 * 21  # m + 1 slots per solve
        del calls[:]
        batch = solver().solve_batch(B, problem.target_rrn)
        assert len(calls) == solo_calls
        assert batch.batched_basis_writes > 0  # the shared path still ran
        assert_columns_identical(solos, batch)
        for solo, col in zip(solos, batch):
            assert solo.x.tobytes() == col.x.tobytes()

    def test_streaming_basis_mode(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 3)
        target = problem.target_rrn

        def solver():
            return CbGmres(
                problem.a, "frsz2_32", m=30, max_iter=400,
                basis_mode="streaming",
            )

        solos = [solver().solve(B[:, c], target) for c in range(3)]
        batch = solver().solve_batch(B, target)
        assert_columns_identical(solos, batch)

    @pytest.mark.parametrize("storage", ["frsz2_32", "frsz2_16"])
    def test_cached_batch_equals_streaming_batch(self, storage):
        """B>1 cached (mirror views) vs streaming (stacked decode)."""
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 3)
        batches = {
            mode: CbGmres(
                problem.a, storage, m=30, max_iter=400, basis_mode=mode,
            ).solve_batch(B, problem.target_rrn)
            for mode in ("cached", "streaming")
        }
        cached, streaming = batches["cached"], batches["streaming"]
        assert cached.batched_ortho_steps > 0
        for c, (rc, rs) in enumerate(zip(cached, streaming)):
            assert rc.x.tobytes() == rs.x.tobytes(), f"column {c}: x bytes"
            assert rc.iterations == rs.iterations
            assert [(s.iteration, s.rrn, s.kind) for s in rc.history] == [
                (s.iteration, s.rrn, s.kind) for s in rs.history
            ], f"column {c}: residual history"
            fused = [f for f in vars(rc.stats) if f.startswith("fused_")]
            assert fused
            for f in fused:
                assert getattr(rc.stats, f) == getattr(rs.stats, f), (c, f)

    def test_mgs_falls_back_to_solo_kernels(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 3)
        target = problem.target_rrn

        def solver():
            return CbGmres(
                problem.a, "frsz2_32", m=30, max_iter=400,
                orthogonalization="mgs",
            )

        solos = [solver().solve(B[:, c], target) for c in range(3)]
        batch = solver().solve_batch(B, target)
        assert_columns_identical(solos, batch)
        # MGS is inherently sequential per column: no batched ortho
        assert batch.batched_ortho_steps == 0

    def test_per_column_targets_and_early_exit(self):
        """Columns leave the lockstep at their own convergence points."""
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 4)
        targets = [1e-2, 1e-6, 1e-9, 1e-4]

        def solver():
            return CbGmres(problem.a, "frsz2_32", m=30, max_iter=400)

        solos = [
            solver().solve(B[:, c], targets[c]) for c in range(4)
        ]
        batch = solver().solve_batch(B, targets)
        assert_columns_identical(solos, batch)
        # looser targets must finish in fewer iterations
        its = batch.iterations
        assert its[0] < its[1] < its[2]

    def test_x0_block(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 2)
        rng = np.random.default_rng(7)
        X0 = rng.standard_normal(B.shape) * 0.01

        def solver():
            return CbGmres(problem.a, "frsz2_32", m=30, max_iter=400)

        solos = [
            solver().solve(B[:, c], problem.target_rrn, x0=X0[:, c])
            for c in range(2)
        ]
        batch = solver().solve_batch(B, problem.target_rrn, x0=X0)
        assert_columns_identical(solos, batch)


class TestBatchedFastPaths:
    def test_counters_report_shared_work(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 4)
        batch = CbGmres(
            problem.a, "frsz2_32", m=30, max_iter=400
        ).solve_batch(B, problem.target_rrn)
        assert isinstance(batch, BatchGmresResult)
        assert batch.batched_spmv_calls > 0
        assert batch.batched_basis_writes > 0
        assert batch.batched_ortho_steps > 0
        assert all(batch.converged)

    def test_b1_bypasses_batched_kernels(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 1)
        batch = CbGmres(
            problem.a, "frsz2_32", m=30, max_iter=400
        ).solve_batch(B, problem.target_rrn)
        assert batch.batched_spmv_calls == 0
        assert batch.batched_basis_writes == 0
        assert batch.batched_ortho_steps == 0

    def test_monitor_receives_column_index(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 3)
        seen = []

        def monitor(col, iteration, j, basis, implicit_rrn):
            seen.append((col, iteration, j))
            assert np.isfinite(implicit_rrn) or implicit_rrn == np.inf

        batch = CbGmres(
            problem.a, "frsz2_32", m=30, max_iter=400
        ).solve_batch(B, problem.target_rrn, monitor=monitor)
        for c, result in enumerate(batch):
            calls = [t for t in seen if t[0] == c]
            assert len(calls) == result.iterations
            assert [t[1] for t in calls] == list(
                range(1, result.iterations + 1)
            )


class TestResultContainer:
    def test_sequence_protocol(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 2)
        batch = CbGmres(
            problem.a, "float64", m=30, max_iter=400
        ).solve_batch(B, problem.target_rrn)
        assert len(batch) == 2
        assert batch[0] is batch.results[0]
        assert [r.converged for r in batch] == batch.converged
        assert [r.iterations for r in batch] == batch.iterations

    def test_empty_batch(self):
        problem = make_problem("lung2", "smoke")
        batch = CbGmres(
            problem.a, "float64", m=30, max_iter=400
        ).solve_batch([], problem.target_rrn)
        assert len(batch) == 0

    def test_zero_rhs_column_short_circuits(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 2)
        B[:, 1] = 0.0
        batch = CbGmres(
            problem.a, "frsz2_32", m=30, max_iter=400
        ).solve_batch(B, problem.target_rrn)
        assert batch[1].converged
        assert batch[1].iterations == 0
        assert np.array_equal(batch[1].x, np.zeros(problem.a.shape[0]))
        assert batch[0].converged  # the other column still solved


class TestInputValidation:
    def test_wrong_rhs_shape(self):
        problem = make_problem("lung2", "smoke")
        solver = CbGmres(problem.a, "float64", m=30, max_iter=400)
        with pytest.raises(ValueError):
            solver.solve_batch(np.zeros((3, 2)), 1e-6)
        with pytest.raises(ValueError):
            solver.solve_batch([np.zeros(3)], 1e-6)

    def test_target_count_mismatch(self):
        problem = make_problem("lung2", "smoke")
        solver = CbGmres(problem.a, "float64", m=30, max_iter=400)
        B = rhs_block(problem, 2)
        with pytest.raises(ValueError):
            solver.solve_batch(B, [1e-6, 1e-6, 1e-6])

    def test_negative_target(self):
        problem = make_problem("lung2", "smoke")
        solver = CbGmres(problem.a, "float64", m=30, max_iter=400)
        with pytest.raises(ValueError):
            solver.solve_batch(rhs_block(problem, 2), -1.0)

    def test_x0_shape_mismatch(self):
        problem = make_problem("lung2", "smoke")
        solver = CbGmres(problem.a, "float64", m=30, max_iter=400)
        n = problem.a.shape[0]
        B = rhs_block(problem, 2)
        with pytest.raises(ValueError, match="x0"):
            solver.solve_batch(B, 1e-6, x0=np.zeros(n))
        # the solo path routes x0 through the same check, so the error
        # names x0 instead of failing inside the matvec
        with pytest.raises(ValueError, match="x0"):
            solver.solve(B[:, 0], 1e-6, x0=np.zeros(n + 1))
        with pytest.raises(ValueError, match="x0"):
            solver.solve(B[:, 0], 1e-6, x0=np.zeros((n, 2)))
