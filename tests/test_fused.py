"""Fused compressed-basis kernels and the streaming basis mode.

The load-bearing property is the determinism contract of
:mod:`repro.fused`: the ``cached`` and ``streaming`` basis modes must be
*bit-identical* — same Hessenberg entries, same residual histories, same
solutions — because they run the same tile kernels over the same grid.
The satellite property is the memory claim: streaming never materializes
an ``(n, m)`` float64 basis.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accessor import make_accessor
from repro.accessor.frsz2_accessor import Frsz2Accessor, read_frsz2_tiles
from repro.fused import (
    DEFAULT_TILE_ELEMS,
    BatchTileReader,
    CachedTileReader,
    FusedOpLog,
    StreamingTileReader,
    axpy_fused,
    combine_fused,
    dot_basis_batch,
    dot_basis_fused,
    norm_fused,
    tile_grid,
)
from repro.solvers import CbGmres, make_problem
from repro.solvers.basis import BASIS_MODES, KrylovBasis
from repro.solvers.orthogonal import cgs_orthogonalize

STORAGES = ["frsz2_16", "frsz2_32", "float32", "float64"]

krylov_vals = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_subnormal=False),
    min_size=1,
    max_size=200,
)


def _filled_bases(n, j, storage, rng, tile_elems=DEFAULT_TILE_ELEMS, m=None):
    """One cached + one streaming basis holding the same j vectors."""
    m = m or max(j, 1)
    bases = [
        KrylovBasis(n, m, storage, basis_mode=mode, tile_elems=tile_elems)
        for mode in BASIS_MODES
    ]
    for i in range(j):
        v = rng.standard_normal(n)
        v /= max(np.linalg.norm(v), 1.0)
        for b in bases:
            b.write_vector(i, v)
    return bases


class TestTileGrid:
    def test_covers_exactly(self):
        for n in (1, 31, 32, 33, 1000):
            for tile in (1, 32, 64, 2048):
                grid = tile_grid(n, tile)
                assert grid[0][0] == 0 and grid[-1][1] == n
                for (a0, a1), (b0, b1) in zip(grid, grid[1:]):
                    assert a1 == b0
                assert all(t1 - t0 <= tile for t0, t1 in grid)

    def test_rejects_nonpositive_tile(self):
        with pytest.raises(ValueError):
            tile_grid(10, 0)


class TestKernelsAgainstDense:
    """Fused kernels equal the dense-matrix reference (within fp jitter
    of the reduction order — exact for a single tile)."""

    @given(vals=krylov_vals, j=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_dot_combine_axpy_match_dense(self, vals, j):
        n = len(vals)
        rng = np.random.default_rng(n * 31 + j)
        cache = np.zeros((n, j + 1), order="F")
        for i in range(j):
            cache[:, i] = rng.permuted(np.array(vals))
        w = np.array(vals)
        y = rng.standard_normal(j)
        reader = CachedTileReader(cache, j)
        v = cache[:, :j]
        assert np.allclose(dot_basis_fused(reader, w, 64), v.T @ w)
        assert np.allclose(combine_fused(reader, y, 64), v @ y)
        w2 = w.copy()
        axpy_fused(reader, y, w2, 64)
        assert np.allclose(w2, w - v @ y)

    def test_axpy_bitwise_equals_combine_subtraction(self):
        # each element is touched exactly once -> not just close, equal
        rng = np.random.default_rng(7)
        n, j = 777, 4
        cache = np.asfortranarray(rng.standard_normal((n, j + 1)))
        w = rng.standard_normal(n)
        y = rng.standard_normal(j)
        via_combine = w - combine_fused(CachedTileReader(cache, j), y, 128)
        via_axpy = axpy_fused(CachedTileReader(cache, j), y, w.copy(), 128)
        np.testing.assert_array_equal(via_axpy, via_combine)

    def test_norm_fused_matches_tile_accumulation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        got = norm_fused(lambda t0, t1: x[t0:t1], 500, 64)
        ref = 0.0
        for t0, t1 in tile_grid(500, 64):
            ref += float(x[t0:t1] @ x[t0:t1])
        assert got == float(np.sqrt(ref))

    def test_zero_vectors_edge(self):
        cache = np.zeros((10, 1), order="F")
        reader = CachedTileReader(cache, 0)
        assert dot_basis_fused(reader, np.ones(10)).shape == (0,)
        np.testing.assert_array_equal(
            combine_fused(reader, np.zeros(0)), np.zeros(10)
        )


class TestReaderBitIdentity:
    """Cached and streaming tile readers deliver identical values, so
    every fused kernel is bit-identical between them."""

    @pytest.mark.parametrize("storage", STORAGES)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 300), j=st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_kernels_bit_identical(self, storage, seed, n, j):
        rng = np.random.default_rng(seed)
        cached, streaming = _filled_bases(n, j, storage, rng, tile_elems=64)
        assert cached.tile_elems == streaming.tile_elems
        w = rng.standard_normal(n)
        y = rng.standard_normal(j)
        np.testing.assert_array_equal(
            cached.dot_basis(j, w), streaming.dot_basis(j, w)
        )
        np.testing.assert_array_equal(
            cached.combine(j, y), streaming.combine(j, y)
        )
        wc, ws = w.copy(), w.copy()
        np.testing.assert_array_equal(
            cached.axpy(j, y, wc), streaming.axpy(j, y, ws)
        )
        for i in range(j):
            assert cached.norm_vector(i) == streaming.norm_vector(i)
            np.testing.assert_array_equal(
                cached.vector(i), streaming.vector(i)
            )

    def test_batched_frsz2_tile_read_equals_per_vector(self):
        rng = np.random.default_rng(11)
        n, j = 260, 3
        accs = [make_accessor("frsz2_32", n) for _ in range(j)]
        for acc in accs:
            assert isinstance(acc, Frsz2Accessor)
            acc.write(rng.standard_normal(n))
        for t0, t1 in [(0, 64), (32, 96), (5, 71), (192, 260), (0, n)]:
            out = np.empty((j, t1 - t0))
            assert read_frsz2_tiles(accs, t0, t1, out)
            for row, acc in enumerate(accs):
                np.testing.assert_array_equal(out[row], acc.read_tile(t0, t1))

    def test_streaming_reader_mixed_formats_falls_back(self):
        rng = np.random.default_rng(5)
        n = 100
        accs = [make_accessor("frsz2_32", n), make_accessor("float32", n)]
        vals = [rng.standard_normal(n) for _ in accs]
        for acc, v in zip(accs, vals):
            acc.write(v)
        out = np.empty((2, 64))
        assert not read_frsz2_tiles(accs, 0, 64, out)
        reader = StreamingTileReader(accs, 2)
        tile = reader.tile(0, 64, out)
        assert np.shares_memory(tile, out)
        for row, acc in enumerate(accs):
            np.testing.assert_array_equal(tile[row], acc.read()[:64])


SOLVER_SCALE_J = (1, 2, 7, 30, 51)


@pytest.fixture(
    scope="module",
    params=[(n, s) for n in (13824, 8000) for s in ("float64", "frsz2_32", "frsz2_16")],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def solver_scale_bases(request):
    """Cached + streaming bases at the default tile, holding 51 vectors."""
    n, storage = request.param
    return _filled_bases(n, max(SOLVER_SCALE_J), storage, np.random.default_rng(n))


class TestSolverScaleBitIdentity:
    """Cached mode hands BLAS a mirror view with row stride ``n``;
    streaming mode a scratch tile with row stride = the tile width.  The
    results must still be byte-equal at solver sizes, including a ragged
    last tile (8000 = 3 * 2048 + 1856)."""

    @pytest.mark.parametrize("j", SOLVER_SCALE_J)
    def test_kernels_byte_equal(self, solver_scale_bases, j):
        cached, streaming = solver_scale_bases
        n = cached.n
        assert cached.tile_elems == streaming.tile_elems == DEFAULT_TILE_ELEMS
        rng = np.random.default_rng(n * 100 + j)
        w = rng.standard_normal(n)
        y = rng.standard_normal(j)
        assert cached.dot_basis(j, w).tobytes() == streaming.dot_basis(j, w).tobytes()
        assert cached.combine(j, y).tobytes() == streaming.combine(j, y).tobytes()
        wc, ws = w.copy(), w.copy()
        cached.axpy(j, y, wc)
        streaming.axpy(j, y, ws)
        assert wc.tobytes() == ws.tobytes()


class TestZeroCopyCachedTiles:
    """Cached tiles are views of the decoded mirror: no copy, no scratch."""

    @staticmethod
    def _cached_basis(n=5000, j=6, seed=4):
        rng = np.random.default_rng(seed)
        basis = KrylovBasis(n, j, "frsz2_32", basis_mode="cached")
        for i in range(j):
            basis.write_vector(i, rng.standard_normal(n))
        return basis, rng

    def test_tile_is_a_view_of_the_mirror(self):
        basis, _ = self._cached_basis()
        reader = basis._reader(6)
        assert not reader.needs_scratch
        for t0, t1 in tile_grid(basis.n, basis.tile_elems):
            tile = reader.tile(t0, t1, None)
            assert tile.shape == (6, t1 - t0)
            assert np.shares_memory(tile, basis._cache)
            np.testing.assert_array_equal(tile, basis._cache[t0:t1, :6].T)

    def test_mirror_unchanged_by_kernels(self):
        basis, rng = self._cached_basis()
        before = basis._cache.tobytes()
        w = rng.standard_normal(basis.n)
        basis.dot_basis(6, w)
        basis.combine(6, rng.standard_normal(6))
        basis.axpy(6, rng.standard_normal(6), w)
        assert basis._cache.tobytes() == before
        assert basis.fused_log.peak_scratch_bytes == 0

    def test_batch_dot_allocates_no_stacked_scratch(self):
        n, j, C = 2 * DEFAULT_TILE_ELEMS + 100, 50, 8
        rng = np.random.default_rng(12)
        caches = [np.asfortranarray(rng.standard_normal((n, j + 1))) for _ in range(C)]
        W = np.asfortranarray(rng.standard_normal((n, C)))
        logs = [FusedOpLog() for _ in range(C)]
        reader = BatchTileReader([CachedTileReader(c, j) for c in caches])
        assert not reader.needs_scratch
        tracemalloc.start()
        try:
            H = dot_basis_batch(reader, W, list(range(C)), logs=logs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a stacked scratch would be C * j * tile * 8 = 6.5 MB; even one
        # column's solo share (j * tile * 8 = 800 KB) is far above this
        assert peak < j * DEFAULT_TILE_ELEMS * 8 // 8
        assert all(log.peak_scratch_bytes == 0 for log in logs)
        for i in range(C):
            solo = dot_basis_fused(CachedTileReader(caches[i], j), W[:, i])
            assert H[:, i].tobytes() == solo.tobytes()


class TestArnoldiBitIdentity:
    """One CGS Arnoldi step produces identical Hessenberg entries."""

    @pytest.mark.parametrize("storage", STORAGES)
    def test_hessenberg_entries_identical(self, storage):
        rng = np.random.default_rng(23)
        n, j = 400, 5
        cached, streaming = _filled_bases(n, j, storage, rng, m=j + 1)
        w = rng.standard_normal(n)
        rc = cgs_orthogonalize(cached, j, w.copy(), eta=0.7)
        rs = cgs_orthogonalize(streaming, j, w.copy(), eta=0.7)
        np.testing.assert_array_equal(rc.h, rs.h)
        assert rc.h_next == rs.h_next
        assert rc.reorthogonalized == rs.reorthogonalized
        np.testing.assert_array_equal(rc.w, rs.w)


class TestSolverBitIdentity:
    """Full CB-GMRES solves agree bitwise between basis modes."""

    @pytest.mark.parametrize("storage", STORAGES)
    def test_solutions_and_histories_identical(self, storage):
        p = make_problem("lung2", "smoke")
        results = {}
        for mode in BASIS_MODES:
            solver = CbGmres(p.a, storage, m=25, max_iter=400, basis_mode=mode)
            results[mode] = solver.solve(p.b, p.target_rrn, record_history=True)
        rc, rs = results["cached"], results["streaming"]
        assert rc.converged and rs.converged
        assert rc.iterations == rs.iterations
        np.testing.assert_array_equal(rc.x, rs.x)
        assert [(s.iteration, s.rrn, s.kind) for s in rc.history] == [
            (s.iteration, s.rrn, s.kind) for s in rs.history
        ]

    def test_mgs_modes_identical(self):
        p = make_problem("lung2", "smoke")
        res = [
            CbGmres(
                p.a, "frsz2_32", m=20, max_iter=300,
                orthogonalization="mgs", basis_mode=mode,
            ).solve(p.b, p.target_rrn)
            for mode in BASIS_MODES
        ]
        np.testing.assert_array_equal(res[0].x, res[1].x)
        assert res[0].iterations == res[1].iterations


class TestStreamingMemory:
    """The streaming mode's reason to exist: O(tile) float64, not O(n*m)."""

    def test_streaming_never_allocates_dense_basis(self):
        n, m = 4096, 40
        basis = KrylovBasis(n, m, "frsz2_32", basis_mode="streaming")
        assert basis._cache is None
        rng = np.random.default_rng(0)
        for i in range(m):
            basis.write_vector(i, rng.standard_normal(n))
        w = rng.standard_normal(n)
        basis.dot_basis(m, w)
        basis.axpy(m, rng.standard_normal(m), w)
        dense_bytes = n * (m + 1) * 8
        assert basis.peak_float64_bytes > 0
        assert basis.peak_float64_bytes <= m * basis.tile_elems * 8
        assert basis.peak_float64_bytes < dense_bytes
        # scratch is (j, tile): growing n does not grow the working set
        assert basis.peak_float64_bytes == basis.fused_log.peak_scratch_bytes

    def test_cached_mode_reports_dense_footprint(self):
        basis = KrylovBasis(1000, 30, "frsz2_32", basis_mode="cached")
        assert basis.peak_float64_bytes == 1000 * 31 * 8

    def test_solver_stats_report_per_mode_footprint(self):
        p = make_problem("lung2", "smoke")
        n, m = p.a.n, 25
        stats = {}
        for mode in BASIS_MODES:
            r = CbGmres(p.a, "frsz2_32", m=m, max_iter=400, basis_mode=mode)
            stats[mode] = r.solve(p.b, p.target_rrn).stats
            assert stats[mode].basis_mode == mode
            assert stats[mode].fused_dot_calls > 0
            assert stats[mode].fused_tiles > 0
        assert stats["cached"].basis_peak_float64_bytes == n * (m + 1) * 8
        assert stats["streaming"].basis_peak_float64_bytes < n * (m + 1) * 8

    def test_tile_rounds_up_to_block_granularity(self):
        basis = KrylovBasis(500, 5, "frsz2_32", basis_mode="streaming", tile_elems=33)
        assert basis.tile_elems % 32 == 0
        assert basis.tile_elems >= 33
        b64 = KrylovBasis(500, 5, "float64", tile_elems=33)
        assert b64.tile_elems == 33  # float64 has no block granularity


class TestResetIsolation:
    """reset() clears the cache and the accessor payloads (satellite 2)."""

    @pytest.mark.parametrize("storage", STORAGES)
    @pytest.mark.parametrize("mode", BASIS_MODES)
    def test_no_stale_bits_after_reset(self, storage, mode):
        rng = np.random.default_rng(9)
        n = 200
        basis = KrylovBasis(n, 3, storage, basis_mode=mode)
        basis.write_vector(0, rng.standard_normal(n))
        basis.reset()
        with pytest.raises(IndexError):
            basis.vector(0)
        # the accessor payload itself is gone, not just fenced
        np.testing.assert_array_equal(
            basis.accessors[0].read(), np.zeros(n)
        )
        if mode == "cached":
            assert not basis._cache.any()

    def test_fused_log_counts_accumulate(self):
        rng = np.random.default_rng(1)
        basis = KrylovBasis(300, 4, "frsz2_16", basis_mode="streaming", tile_elems=64)
        for i in range(3):
            basis.write_vector(i, rng.standard_normal(300))
        log = basis.fused_log
        assert isinstance(log, FusedOpLog)
        basis.dot_basis(3, rng.standard_normal(300))
        assert log.dot_calls == 1 and log.dot_vectors == 3
        assert log.tiles == len(tile_grid(300, basis.tile_elems))
        assert log.values == 3 * 300
        basis.combine(3, rng.standard_normal(3))
        assert log.combine_calls == 1 and log.combine_vectors == 3
