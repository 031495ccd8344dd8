"""Per-layer spans recorded from outside the program.

``Recorder.install()`` replaces the public entry points of each layer of
``repro`` with thin timing wrappers and ``uninstall()`` puts the
originals back; the program itself carries no benchmark spans.  A span
holds its name, layer, start, end, parent span and operation id.  Spans
stay in memory until the run ends.

A call made while a span of the *same* layer is open (a base-class
``read_tile`` falling back to ``read``, an engine ``matvec`` calling the
CSR kernel) runs unwrapped, so each layer's work is counted once.

Bytes are computed from public array sizes (stored payload bytes plus the
float64 vectors an operation reads or writes); nothing reads hardware
counters.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Dict, List, Optional

#: span names that root a solve (the partition check runs on these)
SOLVE_SPANS = ("gmres.solve", "block.solve_batch")
#: name given to a batched codec call that declined its inputs (its time
#: stays in the codec layer, but it is not counted as an encode/decode)
DECLINED = "codec.declined"


class Span:
    """One timed call.  ``bytes`` are computed bytes moved, ``items`` the
    vectors it touched, ``flag`` the orthogonalizations that ran a second
    pass; ``parent`` is a span id (-1 at the top) and ``op`` the operation."""

    __slots__ = ("id", "name", "layer", "start", "end", "parent", "op",
                 "bytes", "items", "flag")

    def __init__(self, sid, name, layer, parent, op):
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.bytes = 0
        self.items = 0
        self.flag = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "parent": self.parent,
            "op": self.op, "start": self.start, "end": self.end,
            "bytes": self.bytes, "items": self.items, "flag": self.flag,
        }


# -- byte accounting (computed from public sizes) ---------------------------

def _sparse_bytes(a, k: int) -> int:
    """Stored matrix slots (value + index) plus ``k`` input and output vectors."""
    csr = getattr(a, "csr", a)
    slot = 8 + csr.indices.itemsize
    return int(getattr(a, "padded_entries", a.nnz)) * slot + 16 * a.shape[0] * k


def _reader_bytes(reader) -> int:
    """Bytes a fused tile pass reads from one basis tile source."""
    accessors = getattr(reader, "accessors", None)
    if accessors is not None:  # streaming: compressed payloads
        return sum(acc.stored_nbytes() for acc in accessors)
    return 8 * reader.n * reader.j  # cached: the dense float64 view


def _basis_read_bytes(basis, j: int) -> int:
    if basis.basis_mode == "streaming":
        return sum(acc.stored_nbytes() for acc in basis.accessors[:j])
    return 8 * basis.n * j


class Recorder:
    """Span store plus the wrapper table for one traced process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.op: Optional[int] = None
        self._patches: list = []
        self._targets = _targets()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, measure):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            span = Span(len(spans), name, layer,
                        stack[-1].id if stack else -1, rec.op)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if measure is not None:
                measure(span, result, *args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point found; missing ones are skipped."""
        if self._patches:
            return
        for owners, attr, name, layer, measure in self._targets:
            for owner, original in owners:
                wrapped = self._wrap(original, name, layer, measure)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        import json

        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span.as_dict()) + "\n")


def _class_owners(base, attr: str):
    """``(cls, fn)`` for ``base`` and every loaded subclass defining ``attr``."""
    seen, todo, out = set(), [base], []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        fn = cls.__dict__.get(attr)
        if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
            out.append((cls, fn))
    return out


def _module_owners(module_name: str, attr: str):
    """``(module, fn)`` for the defining module and every ``repro`` module
    that imported the same function under the same name."""
    home = sys.modules.get(module_name)
    fn = getattr(home, attr, None) if home is not None else None
    if fn is None:
        return []
    return [
        (mod, fn) for key, mod in list(sys.modules.items())
        if key.startswith("repro") and mod is not None
        and getattr(mod, attr, None) is fn
    ]


def _targets():
    """Entry points per layer: ``(owners, attr, span name, layer, measure)``."""
    for optional in ("repro.accessor.frsz2_accessor", "repro.fused.batch",
                     "repro.solvers.block"):
        try:  # loaded so that _module_owners finds the functions bound there
            importlib.import_module(optional)
        except ImportError:  # removed by a refactor: its entry points read 0
            pass
    import repro.accessor  # noqa: F401  (registers every accessor class)
    from repro.accessor.base import VectorAccessor
    from repro.core.frsz2 import FRSZ2
    from repro.solvers.basis import KrylovBasis
    from repro.solvers.gmres import CbGmres
    from repro.solvers.preconditioner import Preconditioner
    from repro.sparse.csr import CSRMatrix
    from repro.sparse.engine import SpmvEngine

    def m_matvec(span, result, a, x, *rest, **kw):
        span.bytes = _sparse_bytes(a, 1)

    def m_matmat(span, result, a, X, *rest, **kw):
        span.bytes = _sparse_bytes(a, X.shape[1] if X.ndim == 2 else 1)

    def m_prec_apply(span, result, prec, v, *rest, **kw):
        info = prec.cost_info() or {}
        span.bytes = int(info.get("stored_bytes", 0)) + 16 * v.shape[0]

    def basis_read(extra_vectors):
        def measure(span, result, basis, j, *rest, **kw):
            span.items = int(j)
            span.bytes = _basis_read_bytes(basis, int(j)) + 8 * basis.n * extra_vectors
        return measure

    def m_norm(span, result, basis, j, *rest, **kw):
        span.items = 1
        span.bytes = _basis_read_bytes(basis, int(j) + 1) - _basis_read_bytes(basis, int(j))

    def batch_read(extra_vectors):
        def measure(span, result, reader, *rest, **kw):
            span.items = reader.j * reader.columns
            span.bytes = sum(_reader_bytes(r) for r in reader.readers) + (
                8 * reader.n * reader.columns * extra_vectors
            )
        return measure

    def m_decode_full(span, result, acc, *rest, **kw):
        span.items = 1
        span.bytes = acc.stored_nbytes() + 8 * acc.n

    def m_decode_tile(span, result, acc, i0, i1, *rest, **kw):
        span.items = 1
        span.bytes = acc.tile_stored_nbytes(i0, i1) + 8 * (int(i1) - int(i0))

    def m_decode_tiles(span, result, accessors, i0, i1, *rest, **kw):
        if not result:  # ineligible: the caller falls back to read_tile
            span.name = DECLINED
            return
        accessors = list(accessors)
        span.items = len(accessors)
        span.bytes = len(accessors) * (
            accessors[0].tile_stored_nbytes(i0, i1) + 8 * (int(i1) - int(i0))
        )

    def m_decode_batch(span, result, codec, comps, *rest, **kw):
        span.items = len(comps)
        span.bytes = sum(c.nbytes + 8 * c.n for c in comps)

    def m_encode(span, result, acc, *rest, **kw):
        span.items = 1

    def m_encode_batch(span, result, accessors, X, *rest, **kw):
        if not result:  # ineligible: the caller falls back to write
            span.name = DECLINED
            return
        span.items = len(list(accessors))

    def m_ortho(span, result, *rest, **kw):
        span.items = 1
        span.flag = int(bool(result.reorthogonalized))

    def m_ortho_batch(span, result, *rest, **kw):
        span.items = len(result)
        span.flag = sum(int(bool(r.reorthogonalized)) for r in result)

    cls, mod = _class_owners, _module_owners

    return [
        # setup
        (mod("repro.solvers.preconditioner", "make_preconditioner"),
         "make_preconditioner", "prec.setup", "prec", None),
        (cls(CbGmres, "__init__"), "__init__", "gmres.init", "gmres", None),
        # solver roots
        (cls(CbGmres, "solve"), "solve", "gmres.solve", "gmres", None),
        (cls(CbGmres, "solve_batch"), "solve_batch", "block.solve_batch",
         "block", None),
        # sparse
        (cls(SpmvEngine, "matvec") + cls(CSRMatrix, "matvec"), "matvec",
         "sparse.matvec", "sparse", m_matvec),
        (cls(SpmvEngine, "matmat") + cls(CSRMatrix, "matmat"), "matmat",
         "sparse.matmat", "sparse", m_matmat),
        # preconditioner
        (cls(Preconditioner, "apply"), "apply", "prec.apply", "prec",
         m_prec_apply),
        # orthogonalization
        (mod("repro.solvers.orthogonal", "cgs_orthogonalize"),
         "cgs_orthogonalize", "ortho.cgs", "ortho", m_ortho),
        (mod("repro.solvers.orthogonal", "mgs_orthogonalize"),
         "mgs_orthogonalize", "ortho.mgs", "ortho", m_ortho),
        (mod("repro.solvers.block", "_cgs_orthogonalize_batch"),
         "_cgs_orthogonalize_batch", "ortho.cgs_batch", "ortho", m_ortho_batch),
        # Krylov basis
        (cls(KrylovBasis, "write_vector"), "write_vector", "basis.write",
         "basis", None),
        (mod("repro.solvers.basis", "write_basis_vectors_batch"),
         "write_basis_vectors_batch", "basis.write_batch", "basis", None),
        (cls(KrylovBasis, "dot_basis"), "dot_basis", "basis.read", "basis",
         basis_read(1)),
        (cls(KrylovBasis, "axpy"), "axpy", "basis.read", "basis", basis_read(2)),
        (cls(KrylovBasis, "combine"), "combine", "basis.read", "basis",
         basis_read(1)),
        (cls(KrylovBasis, "norm_vector"), "norm_vector", "basis.read", "basis",
         m_norm),
        (mod("repro.fused.batch", "dot_basis_batch"), "dot_basis_batch",
         "basis.read", "basis", batch_read(1)),
        (mod("repro.fused.batch", "axpy_batch"), "axpy_batch", "basis.read",
         "basis", batch_read(2)),
        # codec (accessor + FRSZ2 core)
        (cls(VectorAccessor, "write"), "write", "codec.encode", "codec",
         m_encode),
        (mod("repro.accessor.frsz2_accessor", "write_frsz2_batch"),
         "write_frsz2_batch", "codec.encode", "codec", m_encode_batch),
        (cls(VectorAccessor, "read"), "read", "codec.decode", "codec",
         m_decode_full),
        (cls(VectorAccessor, "read_into"), "read_into", "codec.decode", "codec",
         m_decode_full),
        (cls(VectorAccessor, "read_tile"), "read_tile", "codec.decode", "codec",
         m_decode_tile),
        (mod("repro.accessor.frsz2_accessor", "read_frsz2_tiles"),
         "read_frsz2_tiles", "codec.decode", "codec", m_decode_tiles),
        (cls(FRSZ2, "decompress_batch"), "decompress_batch", "codec.decode",
         "codec", m_decode_batch),
    ]


# -- aggregation ------------------------------------------------------------

class OpLayers:
    """Per-layer totals of one traced operation."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.items: Dict[str, int] = {}
        self.bytes: Dict[str, int] = {}
        self.flags: Dict[str, int] = {}
        #: per solve root: the sum of self times over its subtree
        self.partitions: List[float] = []
        #: spans that start before or end after their parent, or overlap
        self.nesting_errors = 0

    def add(self, key: str, span: Span, self_s: float) -> None:
        self.self_s[key] = self.self_s.get(key, 0.0) + self_s
        self.incl_s[key] = self.incl_s.get(key, 0.0) + (span.end - span.start)
        self.calls[key] = self.calls.get(key, 0) + 1
        self.items[key] = self.items.get(key, 0) + span.items
        self.bytes[key] = self.bytes.get(key, 0) + span.bytes
        self.flags[key] = self.flags.get(key, 0) + span.flag


def aggregate(spans: List[Span], op: int) -> OpLayers:
    """Self time per span name for one operation, plus the partition check."""
    mine = [s for s in spans if s.op == op]
    by_id = {s.id: s for s in mine}
    child_s: Dict[int, float] = {}
    children: Dict[int, List[Span]] = {}
    for s in mine:
        if s.parent in by_id:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + (s.end - s.start)
            children.setdefault(s.parent, []).append(s)
    out = OpLayers()
    self_of: Dict[int, float] = {}
    for s in mine:
        self_s = (s.end - s.start) - child_s.get(s.id, 0.0)
        self_of[s.id] = self_s
        out.add(s.name, s, self_s)
        kids = sorted(children.get(s.id, []), key=lambda k: k.start)
        prev_end = s.start
        for k in kids:
            if k.start < prev_end or k.end > s.end:
                out.nesting_errors += 1
            prev_end = k.end
    for root in mine:
        if root.name in SOLVE_SPANS and root.parent not in by_id:
            total, todo = 0.0, [root]
            while todo:
                s = todo.pop()
                total += self_of[s.id]
                todo.extend(children.get(s.id, []))
            out.partitions.append(total)
    return out
