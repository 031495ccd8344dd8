"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cached --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached to
the program.  Their times are divided by the host's slowdown, the run
median of :class:`host.SpeedReference` (timed before every operation)
over its nominal time; the raw wall-clock figures are printed beside
them.  ``--trace 1`` measures the per-layer metrics: it calibrates
host bandwidth, times the JIT start-up, then runs every operation three
times (untraced, wrapped by :mod:`layers`, and with the program's own
``repro.observe.Tracer``), requires the three solutions to be byte-equal,
and checks that the layer self times add up to each traced solve's wall
time.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; run records and
spans go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
JIT_CACHE = os.path.join(ROOT, ".bench_build", "jit-cache")

# one BLAS thread and no worker pool: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_JIT_CACHE"] = JIT_CACHE
# the JIT build's compiler and every temporary file stay inside the checkout
os.environ["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")


class Refused(Exception):
    """The benchmark cannot produce meaningful numbers here."""


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise Refused(f"no program source at {src}/repro")
    sys.path.insert(0, src)
    from repro.jit import dispatch

    return dispatch


def _require_cffi(dispatch) -> str:
    """The engine name; refuses unless ``jit`` resolves to the cffi engine."""
    if dispatch.resolve_backend("jit", warn=False) != "jit":
        raise Refused(
            "backend 'jit' resolves to numpy: "
            f"{dispatch.jit_unavailable_reason()}"
        )
    engine = dispatch.jit_engine_name()
    if engine != "cffi":
        raise Refused(f"jit engine is {engine!r}, the benchmark measures 'cffi'")
    return engine


def _jit_startup(dispatch) -> dict:
    """Cold (fresh cache: compile + self-test) and warm engine load times."""
    import shutil
    import tempfile

    os.makedirs(OUT_DIR, exist_ok=True)
    cold = tempfile.mkdtemp(prefix="jit-cold-", dir=OUT_DIR)
    try:
        os.environ["REPRO_JIT_CACHE"] = cold
        times = []
        for _ in range(2):
            dispatch._reset_engine_cache()
            t0 = time.perf_counter()
            if dispatch.load_engine() is None:
                raise Refused(f"jit engine failed: {dispatch.jit_unavailable_reason()}")
            times.append(time.perf_counter() - t0)
    finally:
        os.environ["REPRO_JIT_CACHE"] = JIT_CACHE
        dispatch._reset_engine_cache()
        shutil.rmtree(cold, ignore_errors=True)
    return {"jit.compile_s": times[0], "jit.load_s": times[1]}


def _warm_up(workload) -> None:
    """One untimed smoke-scale operation per variant: first-call costs
    (kernel registration, lazy imports) land outside every timed one."""
    from workloads import Problem, run_op

    for v in dict.fromkeys(workload.variants):
        p = Problem(v.matrix, scale="smoke")
        run_op(p, v, p.rhs(0, 0, v.nrhs))


def _rounds(workload, problems, seed, seconds, op_fn):
    """Run whole rounds of the workload's variants for ``seconds``."""
    op_index = 0
    t_start = time.perf_counter()
    while True:
        for v in workload.variants:
            p = problems[v.matrix]
            op_fn(op_index, v, p, p.rhs(seed, op_index, v.nrhs))
            op_index += 1
        if time.perf_counter() - t_start >= seconds:
            return time.perf_counter() - t_start


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    import resource

    import host
    from workloads import Problem, median, run_op, tail

    problems = {v.matrix: Problem(v.matrix) for v in workload.variants}
    _warm_up(workload)
    reference = host.SpeedReference()
    ops, ref_s = [], []

    def op_fn(i, v, p, b):
        ref_s.append(reference.seconds())
        op = run_op(p, v, b)
        op.results = []  # keep memory flat: peak RSS must not grow with run length
        ops.append((v, op))

    wall = _rounds(workload, problems, seed, seconds, op_fn) - sum(ref_s)
    failed = [(v, op) for v, op in ops if op.failure]
    for v, op in failed:
        print(f"FAILED {v.label}: {op.failure}", file=sys.stderr)
    tts = [op.tts_s for _, op in ops]
    tail_s, tail_pct = tail(tts)
    verified_rhs = sum(v.nrhs for v, op in ops if not op.failure)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {
        "tts_p50_s": median(tts),
        "tts_tail_s": tail_s,
        "setup_s": median([op.setup_s for _, op in ops]),
        "solves_per_s": verified_rhs / wall,
    }
    # host speed: seconds on this host per nominal second
    slowdown = median(ref_s) / host.REFERENCE_NOMINAL_S
    summary = {
        "samples": len(ops),
        "tts_tail_percentile": tail_pct,
        "wall_s": wall,
        "reference_s": median(ref_s),
        "host_slowdown": slowdown,
        "raw_wall_clock": raw,
        "per_variant_tts_p50_s": {
            v.label: median([op.tts_s for w, op in ops if w == v])
            for v in dict.fromkeys(workload.variants)
        },
    }
    metrics = {
        "tts_p50_s": (raw["tts_p50_s"] / slowdown, "s"),
        "tts_tail_s": (raw["tts_tail_s"] / slowdown, "s"),
        "setup_s": (raw["setup_s"] / slowdown, "s"),
        "solves_per_s": (raw["solves_per_s"] * slowdown, "1/s"),
        "peak_rss_mb": (rss_kib * 1024 / 1e6, "MB"),
        "ok_frac": ((len(ops) - len(failed)) / len(ops), "fraction"),
    }
    return {"attempted": len(ops), "failed": len(failed), "correct": not failed,
            "metrics": metrics, "summary": summary,
            "ops": [{"variant": v.label, "setup_s": op.setup_s,
                     "solve_s": op.solve_s, "reference_s": r,
                     "failure": op.failure}
                    for (v, op), r in zip(ops, ref_s)]}


def measure_layers(workload, seed: int, seconds: float, dispatch) -> dict:
    """Traced run: the per-layer metrics."""
    import host
    from layers import Recorder
    from per_layer import layer_metrics
    from workloads import Problem, run_op

    from repro.observe import Tracer

    calib = host.calibrate()
    reference = host.SpeedReference()
    calib["reference_s"] = sorted(reference.seconds() for _ in range(5))[2]
    jit = _jit_startup(dispatch)
    _require_cffi(dispatch)
    problems = {v.matrix: Problem(v.matrix) for v in workload.variants}
    _warm_up(workload)
    rec = Recorder()
    ops = []

    def op_fn(i, v, p, b):
        plain = run_op(p, v, b)
        rec.op = i
        rec.install()
        try:
            traced = run_op(p, v, b)
        finally:
            rec.uninstall()
            rec.op = None
        observed = run_op(p, v, b, tracer=Tracer())
        ops.append((i, v, plain, traced, observed))

    _rounds(workload, problems, seed, seconds, op_fn)
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.dump(os.path.join(OUT_DIR, f"{workload.name}-seed{seed}.spans.jsonl"))
    metrics, problems_found = layer_metrics(ops, rec.spans, calib, jit)
    for msg in problems_found:
        print(f"FAILED {msg}", file=sys.stderr)
    failed = sum(1 for op in ops if any(r.failure for r in op[2:]))
    return {"attempted": len(ops), "failed": failed,
            "correct": not problems_found,
            "metrics": metrics, "summary": {"host": calib, "samples": len(ops)}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        dispatch = _import_program()
        os.makedirs(os.environ["TMPDIR"], exist_ok=True)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise Refused(
                f"unknown workload {args.workload!r}; "
                f"expected one of {sorted(WORKLOADS)}"
            )
        workload = WORKLOADS[args.workload]
        import host

        engine = _require_cffi(dispatch)
        env = host.environment(engine)
        if args.trace:
            out = measure_layers(workload, args.seed, args.seconds, dispatch)
        else:
            out = measure(workload, args.seed, args.seconds)
    except Refused as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              **out}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, default=str)
    print(json.dumps({"env": env, **out["summary"]}, default=str))
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in out["metrics"].items()},
    }))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
