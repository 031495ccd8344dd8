"""Per-layer metrics from the traced run.

Counts, seconds and bytes are means per traced operation.  A layer's
``self_s`` is its spans' duration minus the part covered by child spans;
``*_gbps`` divide computed bytes by the layer's inclusive span time, and
``*_peak_frac`` divide that by the host's best STREAM figure (copy or
triad) measured at the start of the run.  Every workload's basis fits in
the last-level cache, so layer GB/s are in-cache figures and a
``peak_frac`` above 1 is possible.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from layers import aggregate
from workloads import adaptive_bytes, lockstep_util

#: wall-time slack of the partition check: wrapper entry/exit cost
PARTITION_REL_TOL = 0.01
PARTITION_ABS_TOL_S = 1e-3


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(ops, spans, calib: Dict[str, float], jit: Dict[str, float]
                  ) -> Tuple[Dict[str, tuple], List[str]]:
    """``(metrics, problems)``; ``problems`` is empty when every traced
    operation verified, matched its untraced solution byte for byte, and
    its layer self times closed on the solve's wall time."""
    problems: List[str] = []
    tot: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        tot[key] = tot.get(key, 0.0) + value

    plain_s = traced_s = observed_s = 0.0
    rhs = col_iters = batch_cols = 0
    adaptive_used = adaptive_ref = 0.0
    for i, v, plain, traced, observed in ops:
        for kind, op in (("untraced", plain), ("traced", traced),
                         ("observe-traced", observed)):
            if op.failure:
                problems.append(f"op {i} {v.label} {kind}: {op.failure}")
        solved = not (plain.failure or traced.failure or observed.failure)
        if solved and not (plain.x_bytes() == traced.x_bytes()
                           == observed.x_bytes()):
            problems.append(f"op {i} {v.label}: traced x differs from untraced x")
        plain_s += plain.tts_s
        traced_s += traced.tts_s
        observed_s += observed.tts_s

        lay = aggregate(spans, i)
        if lay.nesting_errors:
            problems.append(f"op {i} {v.label}: {lay.nesting_errors} spans "
                            "outside their parent or overlapping a sibling")
        if len(lay.partitions) != 1:
            problems.append(f"op {i} {v.label}: {len(lay.partitions)} solve spans")
        for self_sum in lay.partitions:
            wall = traced.solve_s
            if abs(self_sum - wall) > PARTITION_REL_TOL * wall + PARTITION_ABS_TOL_S:
                problems.append(
                    f"op {i} {v.label}: layer self times sum to {self_sum:.6f} s, "
                    f"solve wall is {wall:.6f} s")
        for name, s in lay.self_s.items():
            add(f"self:{name}", s)
            add(f"incl:{name}", lay.incl_s[name])
            add(f"calls:{name}", lay.calls[name])
            add(f"items:{name}", lay.items[name])
            add(f"bytes:{name}", lay.bytes[name])
            add(f"flags:{name}", lay.flags[name])

        for r in traced.results:
            rhs += 1
            add("iterations", r.iterations)
            add("restarts", r.stats.restarts)
            add("recoveries", r.stats.recoveries)
            add("upshifts", r.stats.precision_upshifts)
            add("downshifts", r.stats.precision_downshifts)
            if r.storage == "adaptive":
                used, ref = adaptive_bytes(r)
                adaptive_used += used
                adaptive_ref += ref
        if v.nrhs > 1:
            cols, lock = lockstep_util(traced.results)
            col_iters += cols
            batch_cols += v.nrhs * lock

    n_ops = max(len(ops), 1)
    peak = max(calib["copy_gbps"], calib["triad_gbps"])

    def per_op(key: str, *names: str) -> float:
        return sum(tot.get(f"{key}:{n}", 0.0) for n in names) / n_ops

    def gbps(*names: str) -> float:
        return _ratio(per_op("bytes", *names), per_op("incl", *names)) / 1e9

    sparse = ("sparse.matvec", "sparse.matmat")
    read = ("basis.read",)
    write = ("basis.write", "basis.write_batch")
    ortho = ("ortho.cgs", "ortho.mgs", "ortho.cgs_batch")
    m = {
        "sparse.calls": (per_op("calls", *sparse), "count"),
        "sparse.self_s": (per_op("self", *sparse), "s"),
        "sparse.bytes": (per_op("bytes", *sparse), "B"),
        "sparse.gbps": (gbps(*sparse), "GB/s"),
        "sparse.peak_frac": (gbps(*sparse) / peak, "fraction"),
        "basis.write_calls": (per_op("calls", *write), "count"),
        "basis.write_self_s": (per_op("self", *write), "s"),
        "basis.read_calls": (per_op("calls", *read), "count"),
        "basis.read_vectors": (per_op("items", *read), "count"),
        "basis.read_self_s": (per_op("self", *read), "s"),
        "basis.read_bytes": (per_op("bytes", *read), "B"),
        "basis.read_gbps": (gbps(*read), "GB/s"),
        "basis.read_peak_frac": (gbps(*read) / peak, "fraction"),
        "codec.encode_calls": (per_op("calls", "codec.encode"), "count"),
        "codec.encode_s": (per_op("incl", "codec.encode"), "s"),
        "codec.decode_calls": (per_op("calls", "codec.decode"), "count"),
        "codec.decode_s": (per_op("incl", "codec.decode"), "s"),
        "codec.decode_gbps": (gbps("codec.decode"), "GB/s"),
        "codec.decode_peak_frac": (gbps("codec.decode") / peak, "fraction"),
        "ortho.calls": (per_op("calls", *ortho), "count"),
        "ortho.self_s": (per_op("self", *ortho), "s"),
        "ortho.reorth_frac": (_ratio(per_op("flags", *ortho),
                                     per_op("items", *ortho)), "fraction"),
        "gmres.iterations": (_ratio(tot.get("iterations", 0.0), rhs), "count"),
        "gmres.restarts": (_ratio(tot.get("restarts", 0.0), rhs), "count"),
        "gmres.recoveries": (_ratio(tot.get("recoveries", 0.0), rhs), "count"),
        "gmres.other_self_s": (per_op("self", "gmres.solve"), "s"),
        "gmres.init_s": (per_op("incl", "gmres.init"), "s"),
        "adaptive.upshifts": (_ratio(tot.get("upshifts", 0.0), rhs), "count"),
        "adaptive.downshifts": (_ratio(tot.get("downshifts", 0.0), rhs), "count"),
        "adaptive.bytes_saved_frac": (
            1.0 - adaptive_used / adaptive_ref if adaptive_ref else 0.0, "fraction"),
        "prec.setup_s": (per_op("incl", "prec.setup"), "s"),
        "prec.apply_calls": (per_op("calls", "prec.apply"), "count"),
        "prec.apply_self_s": (per_op("self", "prec.apply"), "s"),
        "prec.apply_bytes": (per_op("bytes", "prec.apply"), "B"),
        "prec.apply_gbps": (gbps("prec.apply"), "GB/s"),
        "block.calls": (per_op("calls", "block.solve_batch"), "count"),
        "block.self_s": (per_op("self", "block.solve_batch"), "s"),
        "block.lockstep_util": (_ratio(col_iters, batch_cols), "fraction"),
        "jit.compile_s": (jit["jit.compile_s"], "s"),
        "jit.load_s": (jit["jit.load_s"], "s"),
        "observe.overhead_frac": (_ratio(observed_s, plain_s) - 1.0, "fraction"),
        "host.copy_gbps": (calib["copy_gbps"], "GB/s"),
        "host.triad_gbps": (calib["triad_gbps"], "GB/s"),
        "host.reference_s": (calib["reference_s"], "s"),
        "bench.trace_overhead_frac": (_ratio(traced_s, plain_s) - 1.0, "fraction"),
    }
    return m, problems
