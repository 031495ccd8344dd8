"""Host description and STREAM-style bandwidth calibration.

The per-layer ``*_peak_frac`` metrics divide a layer's computed bytes per
second by what this host can stream from memory, measured in the same
run.  ``calibrate`` times a single-threaded copy (``b[:] = a``) and a
triad (``a = b + s * c``) over arrays at least four times the size of the
last-level cache, so the figures are DRAM bandwidth, not cache bandwidth.
Bytes are counted the way STREAM counts them: two arrays for copy, three
for triad.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
import time
from typing import Dict, Optional

import numpy as np

MIB = 1 << 20
#: lower bound on each calibration array, whatever the cache size reads
MIN_ARRAY_BYTES = 420 * MIB
#: triad chunk: small enough that the ``s * c`` temporary stays in L2,
#: so each chunk moves exactly the three STREAM arrays through DRAM
TRIAD_CHUNK = 1 << 16
REPEATS = 5


def llc_bytes() -> Optional[int]:
    """Size of the highest-level CPU cache, from Linux sysfs (None if unknown)."""
    best_level, best_size = 0, None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as f:
                level = int(f.read())
            with open(os.path.join(index, "size")) as f:
                text = f.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def blas_threads() -> Optional[int]:
    """Thread count reported by numpy's bundled OpenBLAS (None if not found)."""
    libs = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(jit_engine: Optional[str]) -> Dict[str, object]:
    """What the numbers depend on besides the code."""
    import cffi

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc = llc_bytes()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "llc_mib": None if llc is None else llc / MIB,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "cffi": cffi.__version__,
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "jit_engine": jit_engine,
    }


#: reference-kernel time that defines a "nominal-speed" host: the time
#: metrics are reported in seconds on a host where the kernel takes this long
REFERENCE_NOMINAL_S = 0.010


class SpeedReference:
    """A fixed kernel shaped like the solver's inner loop, for host speed.

    Thirty Arnoldi-style steps (a ``bincount`` stencil SpMV, then
    ``V^T w`` and ``w -= V h`` over a float64 basis of n = 8000) in plain
    numpy, independent of the program, so no change to the program moves
    it.  The host's speed drifts by tens of percent over minutes; timed
    once before every operation, the run median of this kernel tracks
    that drift (window-to-window variation of the program's median time
    fell from 8–12% to 2–5% once divided by it).
    """

    N = 8000
    STEPS = 30

    def __init__(self) -> None:
        n = self.N
        self.rows = np.repeat(np.arange(n), 7)
        offsets = np.tile(np.array([-400, -20, -1, 0, 1, 20, 400]), n)
        self.cols = (self.rows + offsets) % n
        self.vals = np.random.default_rng(0).standard_normal(self.rows.size)
        self.basis = np.zeros((n, self.STEPS + 1), order="F")

    def _once(self) -> float:
        n, V = self.N, self.basis
        t0 = time.perf_counter()
        v = np.full(n, 1.0 / np.sqrt(n))
        V[:, 0] = v
        for j in range(1, self.STEPS + 1):
            w = np.bincount(self.rows, weights=self.vals * v[self.cols],
                            minlength=n)
            h = V[:, :j].T @ w
            w -= V[:, :j] @ h
            v = w / np.linalg.norm(w)
            V[:, j] = v
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """Best of two back-to-back timings (the first refills the caches)."""
        return min(self._once(), self._once())


def calibrate() -> Dict[str, float]:
    """Best-of-``REPEATS`` copy and triad bandwidth in GB/s (1e9 B/s)."""
    llc = llc_bytes() or 0
    nbytes = max(MIN_ARRAY_BYTES, 4 * llc)
    n = nbytes // 8
    a = np.empty(n)
    b = np.empty(n)
    c = np.empty(n)
    # touch every page before timing
    a.fill(1.0)
    b.fill(2.0)
    c.fill(0.5)
    tmp = np.empty(TRIAD_CHUNK)
    copy_s = triad_s = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        np.copyto(b, a)
        copy_s = min(copy_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for lo in range(0, n, TRIAD_CHUNK):
            hi = min(lo + TRIAD_CHUNK, n)
            t = tmp[: hi - lo]
            np.multiply(c[lo:hi], 3.0, out=t)
            np.add(b[lo:hi], t, out=a[lo:hi])
        triad_s = min(triad_s, time.perf_counter() - t0)
    del a, b, c
    return {
        "copy_gbps": 2 * 8 * n / copy_s / 1e9,
        "triad_gbps": 3 * 8 * n / triad_s / 1e9,
        "copy_array_mib": 8 * n / MIB,
        "triad_array_mib": 8 * n / MIB,
        "llc_mib": llc / MIB,
    }
