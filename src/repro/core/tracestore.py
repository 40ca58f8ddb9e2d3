"""Spillable columnar trace store: record once, mmap everywhere.

Sharded analysis (:mod:`repro.core.shard`) records a program's event
stream once and fans it out to K shard workers.  This module holds that
recording on disk in a columnar, fixed-width layout that ``mmap`` serves
back with zero serialization cost, so recording memory is bounded by a
spill buffer and every worker shares one copy through the page cache:

* **Writing.**  :class:`TraceStoreWriter` receives the op stream a
  :class:`~repro.core.shard.StreamRecorder` produces and buffers it
  column-wise in plain Python lists.  When the buffered estimate crosses
  the spill bound (``spill_mb``, default :data:`DEFAULT_SPILL_MB`),
  every column is appended to its file and the buffers reset —
  recording a trace of any length needs only the spill buffer in
  memory.  Affine ``rows`` ops stay *symbolic* on disk (base/stride/
  count per reference, never expanded to element lists), so the file
  inherits the recorder's run compression: a billion-access affine loop
  costs one 32-byte op record plus ~25 bytes per reference.
* **Layout.**  One directory per trace.  ``ops.i64`` is an int64 array
  of shape ``(nops, 4)`` — ``(kind, a, b, c)`` with kinds enter/exit
  (``a`` = sid), batch (``a`` = offset into the batch side tables,
  ``b`` = accesses, ``c`` = period) and rows (``a`` = offset into the
  rows side tables, ``b`` = refs/iteration, ``c`` = iterations).  Side
  tables are flat columns (``batch_rids``/``batch_addrs``/
  ``batch_stores``, ``rows_rids``/``rows_bases``/``rows_strides``/
  ``rows_stores``); ``meta.json`` carries the totals and the content
  digest.
* **Digest.**  Each column is hashed incrementally as it spills, so the
  digest depends only on the recorded *content*, never on where the
  flush boundaries fell — a trace spilled with a 1 MB buffer hashes
  identically to the same trace spilled with 64 MB.  The digest is the
  cache key for shard partials (see
  :meth:`~repro.tools.cache.AnalysisCache.trace_shard_key_for`), so a
  re-run that records the same bytes resumes from its partials.
* **Reading.**  :class:`TraceStore` lazily mmaps each column read-only;
  :func:`split_stored_trace` computes shard slices as *op-index ranges*
  by scanning only the ops column (no side-table I/O), and
  :func:`replay_slice` streams one slice through an analyzer,
  materializing only the slice's own batch elements and partial rows —
  so K workers share one recording through the page cache, and a trace
  larger than memory analyzes without ever being resident at once.

A store is a run's private scratch: the session records it into a
temporary directory and removes it when the run ends.  Cut semantics
(scope events on a cut open the next shard, mid-batch cuts keep the
period only when row-aligned, mid-row cuts materialize only the partial
rows) keep the merged ``dump_state()`` byte-identical to the sequential
engines — the invariant the equivalence test matrix enforces.
"""

from __future__ import annotations

import hashlib
import json
import logging
import mmap
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import metrics as _obs
from repro.obs import trace as _trace

logger = logging.getLogger("repro.core.tracestore")

#: Bump when the on-disk layout changes.
TRACESTORE_VERSION = 1
MAGIC = "repro-tracestore"

#: Default in-memory spill buffer bound, in MB.
DEFAULT_SPILL_MB = 64.0

#: Op kinds in the ops column.
OP_ENTER, OP_EXIT, OP_BATCH, OP_ROWS = 0, 1, 2, 3

#: column name -> (file name, dtype).  Stores are uint8 (they never feed
#: the analysis — both engines ignore them — but keep the stream
#: replayable through any handler); everything else is int64.
_COLUMNS: Dict[str, Tuple[str, type]] = {
    "ops": ("ops.i64", np.int64),
    "batch_rids": ("batch_rids.i64", np.int64),
    "batch_addrs": ("batch_addrs.i64", np.int64),
    "batch_stores": ("batch_stores.u8", np.uint8),
    "rows_rids": ("rows_rids.i64", np.int64),
    "rows_bases": ("rows_bases.i64", np.int64),
    "rows_strides": ("rows_strides.i64", np.int64),
    "rows_stores": ("rows_stores.u8", np.uint8),
}

#: Buffered-size estimate per op record / side-table element (bytes).
#: Slightly above the on-disk width to cover Python list overhead is not
#: attempted — the bound is about disk batching, not exact accounting.
_OP_BYTES = 32
_BATCH_ELEM_BYTES = 17   # rid + addr (int64) + store (uint8)
_ROWS_ELEM_BYTES = 25    # rid + base + stride (int64) + store (uint8)


@dataclass(frozen=True)
class StoredTrace:
    """Picklable handle to one on-disk trace store (path + meta)."""

    path: str
    accesses: int
    nops: int
    digest: str

    def open(self) -> "TraceStore":
        return TraceStore(self.path)


def load_trace(path: str) -> StoredTrace:
    """Read a store's ``meta.json`` into a :class:`StoredTrace` handle."""
    with open(os.path.join(path, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("magic") != MAGIC:
        raise ValueError(f"{path!r} is not a trace store")
    if meta.get("version") != TRACESTORE_VERSION:
        raise ValueError(f"trace store {path!r} has version "
                         f"{meta.get('version')!r}, expected "
                         f"{TRACESTORE_VERSION}")
    return StoredTrace(path=str(path), accesses=int(meta["accesses"]),
                       nops=int(meta["ops"]), digest=str(meta["digest"]))


class TraceStoreWriter:
    """Columnar spill writer with a bounded in-memory buffer.

    Speaks the recorder's op vocabulary through :meth:`add_op` (wired as
    a :class:`~repro.core.shard.StreamRecorder` sink), keeps per-column
    append buffers, and flushes them to disk whenever the buffered-size
    estimate crosses ``spill_mb``.  Column hashes update at flush time in
    append order, so the final digest is independent of flush placement.
    """

    def __init__(self, path: str,
                 spill_mb: Optional[float] = None) -> None:
        self.path = str(path)
        limit_mb = DEFAULT_SPILL_MB if spill_mb is None else float(spill_mb)
        if limit_mb <= 0:
            raise ValueError(f"spill_mb must be > 0, got {spill_mb}")
        self.spill_limit = int(limit_mb * 1024 * 1024)
        os.makedirs(self.path, exist_ok=True)
        self._files = {name: open(os.path.join(self.path, fname), "wb")
                       for name, (fname, _dt) in _COLUMNS.items()}
        self._hash = {name: hashlib.sha256() for name in _COLUMNS}
        self._ops: List[Tuple[int, int, int, int]] = []
        self._batch: Tuple[list, list, list] = ([], [], [])
        self._rows: Tuple[list, list, list, list] = ([], [], [], [])
        self.accesses = 0
        self.nops = 0
        self._batch_len = 0
        self._rows_len = 0
        self._buf_bytes = 0
        #: high-water mark of the buffered estimate (spill-bound proof)
        self.max_buffered = 0
        self.spilled_bytes = 0
        self.flushes = 0
        self._finalized = False
        self._obs_spill = _obs.counter("trace.spill_bytes")

    # -- recorder sink ---------------------------------------------------

    def add_op(self, op: tuple) -> None:
        """Append one recorder op; spills when the buffer bound trips."""
        tag = op[0]
        if tag == "batch":
            _t, rids, addrs, stores, period = op
            n = len(addrs)
            self._ops.append((OP_BATCH, self._batch_len, n, period))
            self._batch_len += n
            self._batch[0].extend(rids)
            self._batch[1].extend(addrs)
            self._batch[2].extend(stores)
            self.accesses += n
            self._buf_bytes += _OP_BYTES + _BATCH_ELEM_BYTES * n
        elif tag == "rows":
            _t, rids, stores, bases, strides, m = op
            k = len(rids)
            self._ops.append((OP_ROWS, self._rows_len, k, m))
            self._rows_len += k
            self._rows[0].extend(rids)
            self._rows[1].extend(stores)
            self._rows[2].extend(bases)
            self._rows[3].extend(strides)
            self.accesses += k * m
            self._buf_bytes += _OP_BYTES + _ROWS_ELEM_BYTES * k
        else:
            self._ops.append((OP_ENTER if tag == "enter" else OP_EXIT,
                              op[1], 0, 0))
            self._buf_bytes += _OP_BYTES
        self.nops += 1
        if self._buf_bytes > self.max_buffered:
            self.max_buffered = self._buf_bytes
        if self._buf_bytes >= self.spill_limit:
            self.flush()

    # -- spilling --------------------------------------------------------

    def flush(self) -> int:
        """Append every buffered column to disk; returns bytes written."""
        wrote = 0
        for name, buf in (("ops", self._ops),
                          ("batch_rids", self._batch[0]),
                          ("batch_addrs", self._batch[1]),
                          ("batch_stores", self._batch[2]),
                          ("rows_rids", self._rows[0]),
                          ("rows_stores", self._rows[1]),
                          ("rows_bases", self._rows[2]),
                          ("rows_strides", self._rows[3])):
            if not buf:
                continue
            data = np.asarray(buf, dtype=_COLUMNS[name][1]).tobytes()
            self._files[name].write(data)
            self._hash[name].update(data)
            wrote += len(data)
            buf.clear()
        if wrote:
            self.flushes += 1
            self.spilled_bytes += wrote
            self._obs_spill.inc(wrote)
        self._buf_bytes = 0
        return wrote

    def finalize(self) -> StoredTrace:
        """Flush the tail, write ``meta.json``, return the handle."""
        if self._finalized:
            raise RuntimeError("trace store already finalized")
        with _trace.span("trace.finalize", path=self.path,
                         ops=self.nops, accesses=self.accesses):
            self.flush()
            for fh in self._files.values():
                fh.close()
            h = hashlib.sha256()
            h.update(f"{MAGIC}:{TRACESTORE_VERSION}:{self.accesses}"
                     f":{self.nops}".encode())
            for name in sorted(_COLUMNS):
                h.update(name.encode())
                h.update(self._hash[name].digest())
            digest = h.hexdigest()
            meta = {"magic": MAGIC, "version": TRACESTORE_VERSION,
                    "accesses": self.accesses, "ops": self.nops,
                    "batch_len": self._batch_len,
                    "rows_len": self._rows_len,
                    "bytes": self.spilled_bytes, "digest": digest}
            fd, tmp = tempfile.mkstemp(dir=self.path, prefix=".tmp-",
                                       suffix=".json")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(meta, fh, indent=2)
                fh.write("\n")
            os.replace(tmp, os.path.join(self.path, "meta.json"))
        self._finalized = True
        logger.info("trace store %s: %d accesses, %d ops, %d bytes "
                    "(%d flush(es))", self.path, self.accesses, self.nops,
                    self.spilled_bytes, self.flushes)
        return StoredTrace(path=self.path, accesses=self.accesses,
                           nops=self.nops, digest=digest)

    def abort(self) -> None:
        """Close handles without finalizing (caller removes the dir)."""
        for fh in self._files.values():
            try:
                fh.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._finalized = True


class TraceStore:
    """Read-only mmap view of one trace-store directory.

    Columns open lazily: a reader that only scans ``ops`` (the split
    pass) never maps the side tables.  The numpy views are zero-copy
    windows onto the page cache, so every worker process sharing one
    store shares one set of physical pages.
    """

    def __init__(self, path: str) -> None:
        handle = load_trace(path)
        self.path = handle.path
        self.accesses = handle.accesses
        self.nops = handle.nops
        self.digest = handle.digest
        self._cols: Dict[str, np.ndarray] = {}
        self._mmaps: List[mmap.mmap] = []
        self._obs_opens = _obs.counter("trace.mmap_opens")

    def _col(self, name: str) -> np.ndarray:
        arr = self._cols.get(name)
        if arr is None:
            fname, dtype = _COLUMNS[name]
            fpath = os.path.join(self.path, fname)
            size = os.path.getsize(fpath)
            if size:
                with open(fpath, "rb") as fh:
                    mm = mmap.mmap(fh.fileno(), 0,
                                   access=mmap.ACCESS_READ)
                self._mmaps.append(mm)
                arr = np.frombuffer(mm, dtype=dtype)
                self._obs_opens.inc()
            else:
                arr = np.empty(0, dtype=dtype)
            if name == "ops":
                arr = arr.reshape(-1, 4)
            self._cols[name] = arr
        return arr

    @property
    def ops(self) -> np.ndarray:
        return self._col("ops")

    @property
    def batch_rids(self) -> np.ndarray:
        return self._col("batch_rids")

    @property
    def batch_addrs(self) -> np.ndarray:
        return self._col("batch_addrs")

    @property
    def batch_stores(self) -> np.ndarray:
        return self._col("batch_stores")

    @property
    def rows_rids(self) -> np.ndarray:
        return self._col("rows_rids")

    @property
    def rows_bases(self) -> np.ndarray:
        return self._col("rows_bases")

    @property
    def rows_strides(self) -> np.ndarray:
        return self._col("rows_strides")

    @property
    def rows_stores(self) -> np.ndarray:
        return self._col("rows_stores")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoredShardSlice:
    """One time shard of a stored trace, as file-offset ranges.

    A few dozen bytes however large the trace: the op payload is the
    half-open op-record range ``[op_lo, op_hi)`` plus the number of
    accesses of op ``op_lo`` already consumed by earlier shards
    (``skip`` — nonzero when the boundary landed mid-batch or mid-row).
    Workers mmap the store at ``path`` and replay only their range.
    """

    index: int
    nshards: int
    #: global clock before the shard's first access
    start: int
    #: accesses in the shard
    length: int
    #: scope stack live at the shard start (global entry clocks)
    seed_sids: Tuple[int, ...]
    seed_clocks: Tuple[int, ...]
    op_lo: int
    op_hi: int
    skip: int
    path: str


def split_stored_trace(trace, nshards: int) -> List[StoredShardSlice]:
    """Cut a stored trace into K contiguous time shards.

    Shard boundaries are access-count cuts at ``i * n // K``; K is
    clamped to the access count (each shard gets at least one access,
    and an empty trace yields a single empty shard).  Scope events that
    fall exactly on a cut go to the *following* shard, so a shard's seed
    clocks are all strictly below its start clock.  Slices are op-index
    ranges, so the pass reads ``nops * 32`` bytes however many accesses
    the trace holds.
    """
    store = trace if isinstance(trace, TraceStore) else trace.open()
    ops = store.ops
    n = int(store.accesses)
    k = max(1, min(int(nshards), n if n else 1))
    cuts = [(i * n) // k for i in range(k + 1)]
    shards: List[StoredShardSlice] = []
    sids: List[int] = []
    clocks: List[int] = []
    state = {"si": 0, "consumed": 0, "start": 0,
             "seed_s": (), "seed_c": (), "op_lo": 0, "skip": 0}

    def close(op_hi: int, next_lo: int, next_skip: int) -> None:
        shards.append(StoredShardSlice(
            state["si"], k, state["start"],
            state["consumed"] - state["start"],
            state["seed_s"], state["seed_c"],
            state["op_lo"], op_hi, state["skip"], store.path))
        state["si"] += 1
        state["seed_s"] = tuple(sids)
        state["seed_c"] = tuple(clocks)
        state["start"] = state["consumed"]
        state["op_lo"] = next_lo
        state["skip"] = next_skip

    def at_cut() -> bool:
        return (state["si"] < k - 1
                and state["consumed"] == cuts[state["si"] + 1])

    nops = int(ops.shape[0])
    for oi in range(nops):
        kind = int(ops[oi, 0])
        if kind == OP_ENTER:
            if at_cut():
                close(oi, oi, 0)
            sids.append(int(ops[oi, 1]))
            clocks.append(state["consumed"])
        elif kind == OP_EXIT:
            if at_cut():
                close(oi, oi, 0)
            sids.pop()
            clocks.pop()
        else:
            b = int(ops[oi, 2])
            total = b * int(ops[oi, 3]) if kind == OP_ROWS else b
            off = 0
            while off < total:
                if at_cut():
                    # a cut mid-op keeps op oi on both sides: the closing
                    # shard ends past it, the next one re-enters at skip
                    close(oi if off == 0 else oi + 1, oi, off)
                room = (cuts[state["si"] + 1] if state["si"] < k - 1
                        else n) - state["consumed"]
                take = min(room, total - off)
                state["consumed"] += take
                off += take
    close(nops, nops, 0)
    return shards


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def _emit_partial(out, rids, stores, bases, strides, row, jlo, jhi) -> None:
    out.append(("batch", list(rids[jlo:jhi]),
                [bases[j] + row * strides[j] for j in range(jlo, jhi)],
                list(stores[jlo:jhi]), 0))


def _emit_rows_piece(out, rids, stores, bases, strides, k, off, take) -> None:
    """Emit accesses [off, off+take) of an m-iteration affine rows op.

    Misaligned edges materialize only the partial rows; whole iterations
    in between stay an unmaterialized ``rows`` op with shifted bases.
    """
    end = off + take
    r0, j0 = divmod(off, k)
    r1, j1 = divmod(end, k)
    if j0:
        jhi = k if r1 > r0 else j1
        _emit_partial(out, rids, stores, bases, strides, r0, j0, jhi)
        if jhi < k:
            return
        r0 += 1
    if r1 > r0:
        out.append(("rows", rids, stores,
                    tuple(b + r0 * s for b, s in zip(bases, strides)),
                    strides, r1 - r0))
    if j1:
        _emit_partial(out, rids, stores, bases, strides, r1, 0, j1)


def replay_slice(store: TraceStore, sl: StoredShardSlice, handler) -> None:
    """Stream one stored slice through an event handler.

    Whole batch ops pass as Python lists; a batch cut mid-way keeps its
    period only when the piece is period-aligned; a rows op cut mid-way
    goes through :func:`_emit_rows_piece`, so only the partial rows
    materialize.  A downstream :class:`~repro.core.shard.ShardBatchState`
    therefore sees the recorder's own stream, chunk boundaries included.
    """
    ops = store.ops
    remaining = sl.length
    skip = sl.skip
    enter = handler.enter_scope
    leave = handler.exit_scope
    batch = handler.access_batch
    rows_fn = handler.access_rows
    read_bytes = 0
    for oi in range(sl.op_lo, sl.op_hi):
        kind = int(ops[oi, 0])
        a = int(ops[oi, 1])
        if kind == OP_ENTER:
            enter(a)
            continue
        if kind == OP_EXIT:
            leave(a)
            continue
        b = int(ops[oi, 2])
        c = int(ops[oi, 3])
        if kind == OP_BATCH:
            off = skip
            skip = 0
            take = min(b - off, remaining)
            if take <= 0:
                continue
            lo = a + off
            rids = store.batch_rids[lo:lo + take].tolist()
            addrs = store.batch_addrs[lo:lo + take].tolist()
            stores = store.batch_stores[lo:lo + take].tolist()
            read_bytes += take * _BATCH_ELEM_BYTES
            per = (c if c and off % c == 0 and take % c == 0 else 0)
            batch(rids, addrs, stores, per)
        else:
            total = b * c
            off = skip
            skip = 0
            take = min(total - off, remaining)
            if take <= 0:
                continue
            rids = tuple(store.rows_rids[a:a + b].tolist())
            stores = tuple(store.rows_stores[a:a + b].tolist())
            bases = tuple(store.rows_bases[a:a + b].tolist())
            strides = tuple(store.rows_strides[a:a + b].tolist())
            read_bytes += b * _ROWS_ELEM_BYTES
            if off == 0 and take == total:
                rows_fn(rids, stores, bases, strides, c)
            else:
                pieces: List[tuple] = []
                _emit_rows_piece(pieces, rids, stores, bases, strides,
                                 b, off, take)
                for op in pieces:
                    if op[0] == "batch":
                        batch(op[1], op[2], op[3], op[4])
                    else:
                        rows_fn(op[1], op[2], op[3], op[4], op[5])
        remaining -= take
    _obs.counter("trace.read_mb").inc(read_bytes / 1e6)
