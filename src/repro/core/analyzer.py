"""The online reuse-pattern analyzer: the paper's primary contribution.

:class:`ReuseAnalyzer` is an event handler (see :mod:`repro.lang.events`)
that, per memory access and per block granularity:

1. advances the logical access clock;
2. looks the block up in the block table to find its previous access
   (time, reference, scope);
3. queries the distance engine for the number of distinct blocks touched
   since then (the reuse distance);
4. finds the carrying scope by searching the dynamic scope stack for the
   most recent scope entered before the previous access;
5. increments the histogram of the reuse pattern
   ``(destination reference, source scope, carrying scope)``.

Multiple granularities run simultaneously off the same clock and scope
stack: cache levels share the line granularity, the TLB uses the page
granularity (reuse distance in distinct pages).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.blocktable import FlatBlockTable, HierarchicalBlockTable
from repro.core.fenwick import FenwickEngine
from repro.core.patterns import PatternDB
from repro.core.scopestack import ScopeStack
from repro.core.treap import TreapEngine
from repro.obs import metrics as _obs

#: Exact-bin limit, mirrored from repro.core.histogram for the inlined
#: binning in the hot loop.
_EXACT_LIMIT = 256
_EXACT_BITS = 8
_SUBBINS = 4

#: Serialization layout version for dump_state/load_state snapshots.
STATE_VERSION = 1


class GranularityState:
    """Per-block-size analysis state."""

    __slots__ = ("name", "block_bits", "table", "engine", "db",
                 "restored_blocks")

    def __init__(self, name: str, block_bits: int, table, engine) -> None:
        self.name = name
        self.block_bits = block_bits
        self.table = table
        self.engine = engine
        self.db = PatternDB()
        #: Footprint restored from a serialized state (the block table
        #: itself is not rehydrated; see ReuseAnalyzer.load_state).
        self.restored_blocks = 0

    @property
    def block_size(self) -> int:
        return 1 << self.block_bits


class ReuseAnalyzer:
    """Online reuse-distance analysis at one or more block granularities.

    Parameters
    ----------
    granularities:
        Mapping of granularity name to block size in bytes (must be powers
        of two), e.g. ``{"line": 64, "page": 512}``.
    engine:
        ``"fenwick"`` (default, fast), ``"treap"`` (the paper's balanced
        tree), or ``"numpy"`` (buffered array engine, see
        :mod:`repro.core.npengine`).  All three produce identical
        results.
    table:
        ``"flat"`` (default, dict) or ``"hierarchical"`` (the paper's
        three-level block table).  Both produce identical results.
    """

    def __init__(
        self,
        granularities: Optional[Dict[str, int]] = None,
        engine: str = "fenwick",
        table: str = "flat",
    ) -> None:
        if granularities is None:
            granularities = {"line": 64, "page": 512}
        if engine not in ("fenwick", "treap", "numpy"):
            raise ValueError(f"unknown engine {engine!r}")
        if table not in ("flat", "hierarchical"):
            raise ValueError(f"unknown table {table!r}")
        if engine == "numpy":
            try:
                from repro.core import npengine as _npengine
            except ImportError as exc:  # pragma: no cover - numpy present in CI
                raise ValueError(
                    "engine='numpy' requires the numpy package") from exc
        self.stack = ScopeStack()
        self.clock = 0
        self.grans: List[GranularityState] = []
        for name, size in granularities.items():
            if size & (size - 1):
                raise ValueError(f"block size must be a power of two: {size}")
            tbl = FlatBlockTable() if table == "flat" else HierarchicalBlockTable()
            if engine == "fenwick":
                eng = FenwickEngine()
            elif engine == "treap":
                eng = TreapEngine()
            else:
                eng = _npengine.NumpyFenwickEngine()
            self.grans.append(
                GranularityState(name, size.bit_length() - 1, tbl, eng)
            )
        # Hot-loop bindings: one tuple per granularity.
        self._hot: List[Tuple] = []
        for g in self.grans:
            if isinstance(g.table, FlatBlockTable):
                tget, tset = g.table.raw.get, g.table.raw.__setitem__
            else:
                tget, tset = g.table.get, g.table.set
            self._hot.append(
                (g.block_bits, tget, tset, g.engine.first, g.engine.reuse,
                 g.db.raw, g.db.cold)
            )
        # Observability: chunk-granularity counters only — the per-access
        # paths stay untouched, and while obs is disabled these are shared
        # no-op objects (see repro.obs.metrics).
        self._obs_batch_calls = _obs.counter("analyzer.batch_calls")
        self._obs_batch_events = _obs.counter("analyzer.batch_events")
        # Specialized closure hot path (fenwick + flat only): inlines the
        # Fenwick traversals and histogram binning, ~2x faster in CPython.
        if (engine == "fenwick" and table == "flat"
                and len(self.grans) in (1, 2)):
            self.access = _specialized_access(self)
            self.access_batch = _specialized_access_batch(self)
        elif engine == "numpy":
            # Buffered array path: accesses accumulate across calls and
            # scope events; the clock advances eagerly on append, results
            # are resolved in vectorised flushes (see repro.core.npengine).
            self._install_numpy_state(_npengine.NumpyBatchState(self))

    def _install_numpy_state(self, state) -> None:
        """Route the event-handler entry points through a buffered state.

        Called by ``__init__`` for ``engine="numpy"`` and by the sharded
        engine (:mod:`repro.core.shard`), which swaps in a subclassed
        state after seeding the scope stack.
        """
        self._np_state = state
        self.flush = state.flush
        self.access = state.scalar_access
        self.access_batch = state.append_batch
        self.access_rows = state.append_rows
        stack = self.stack

        # Scope events invalidate the state's cached stack snapshot
        # and close any open scalar segment (inlined from
        # NumpyBatchState.on_scope_event: these run once per loop
        # entry/exit, a measurable share of the batched hot path).
        def enter_scope(sid, _stack=stack, _state=state, _self=self):
            if _state._open_addrs is not None:
                _state._close_open()
            _state._cur_snap = -1
            _stack._sids.append(sid)
            _stack._clocks.append(_self.clock)

        def exit_scope(sid, _stack=stack, _state=state):
            if _state._open_addrs is not None:
                _state._close_open()
            _state._cur_snap = -1
            sids = _stack._sids
            # Sharded analyses seed the stack with scopes entered before
            # the shard; popping into that prefix shrinks it (_seed_live
            # is 0 for ordinary states, so this never fires).
            if len(sids) <= _state._seed_live:
                _state._seed_live = len(sids) - 1
            sids.pop()
            _stack._clocks.pop()

        self.enter_scope = enter_scope
        self.exit_scope = exit_scope

    # -- event handler protocol -------------------------------------------

    def enter_scope(self, sid: int) -> None:
        stack = self.stack
        stack._sids.append(sid)
        stack._clocks.append(self.clock)

    def exit_scope(self, sid: int) -> None:
        stack = self.stack
        stack._sids.pop()
        stack._clocks.pop()

    def access(self, rid: int, addr: int, is_store: bool) -> None:
        clock = self.clock + 1
        self.clock = clock
        stack_sids = self.stack._sids
        stack_clocks = self.stack._clocks
        cur_sid = stack_sids[-1] if stack_sids else -1
        for (shift, tget, tset, efirst, ereuse, raw, cold) in self._hot:
            block = addr >> shift
            prev = tget(block)
            if prev is None:
                efirst(clock)
                cold[rid] = cold.get(rid, 0) + 1
            else:
                t_prev = prev[0]
                d = ereuse(t_prev, clock)
                pos = bisect_left(stack_clocks, t_prev)
                carry = stack_sids[pos - 1] if pos else (
                    stack_sids[0] if stack_sids else -1)
                key = (rid, prev[2], carry)
                bins = raw.get(key)
                if bins is None:
                    bins = {}
                    raw[key] = bins
                if d < _EXACT_LIMIT:
                    b = d
                else:
                    hb = d.bit_length() - 1
                    b = _EXACT_LIMIT + (hb - _EXACT_BITS) * _SUBBINS + (
                        (d >> (hb - 2)) & 3)
                bins[b] = bins.get(b, 0) + 1
            tset(block, (clock, rid, cur_sid))

    def access_batch(self, rids: Sequence[int], addrs: Sequence[int],
                     stores: Sequence[bool], period: int = 0) -> None:
        """Process a chunk of accesses in one call.

        ``period`` (optional) declares that the chunk is row-structured:
        ``rids``/``stores`` repeat with period ``period`` and the chunk
        holds a whole number of rows (one row per loop iteration).  The
        generic path ignores the hint; the specialized Fenwick/flat path
        (installed in ``__init__``) exploits it.  Semantically identical
        to calling :meth:`access` per element.
        """
        self._obs_batch_calls.inc()
        self._obs_batch_events.inc(len(addrs))
        access = self.access
        for i, rid in enumerate(rids):
            access(rid, addrs[i], stores[i])

    # -- results -------------------------------------------------------------

    def flush(self) -> None:
        """Resolve buffered work now (no-op by default).

        Every result read flushes first, so results are identical either
        way; calling it where the event stream ends charges the numpy
        engine's last window to the phase that fed it.  The numpy engine
        replaces this with its buffer flush in ``__init__``; the
        per-access engines have nothing pending.
        """

    def granularity(self, name: str) -> GranularityState:
        self.flush()
        for g in self.grans:
            if g.name == name:
                return g
        raise KeyError(name)

    def db(self, name: str) -> PatternDB:
        return self.granularity(name).db

    def distinct_blocks(self, name: str) -> int:
        """Footprint: number of distinct blocks touched at granularity."""
        g = self.granularity(name)
        return len(g.table) or g.restored_blocks

    # -- serialization -----------------------------------------------------

    def dump_state(self) -> Dict:
        """Snapshot the analysis *results* as plain picklable data.

        Captures pattern databases, cold counts, footprints, and the clock
        — everything downstream consumers (prediction, scaling models,
        reports) read.  The block tables and distance-engine internals are
        deliberately excluded: a restored analyzer answers result queries
        but cannot resume the event stream.
        """
        self.flush()
        return {
            "version": STATE_VERSION,
            "clock": self.clock,
            "grans": [
                {
                    "name": g.name,
                    "block_size": g.block_size,
                    "raw": {k: dict(v) for k, v in g.db.raw.items()},
                    "cold": dict(g.db.cold),
                    "blocks": len(g.table) or g.restored_blocks,
                }
                for g in self.grans
            ],
        }

    def load_state(self, state: Dict) -> "ReuseAnalyzer":
        """Restore a :meth:`dump_state` snapshot into this analyzer.

        Granularity names and block sizes must match.  Pattern dicts are
        mutated in place so the specialized closures stay valid.
        """
        self.flush()
        version = state.get("version")
        if version != STATE_VERSION:
            raise ValueError(
                f"analyzer state version {version!r} does not match this "
                f"build (expected {STATE_VERSION}); the snapshot was "
                "written by an incompatible layout — re-run the analysis "
                "instead of restoring it"
            )
        gran_states = state["grans"]
        if len(gran_states) != len(self.grans) or any(
            gs["name"] != g.name or gs["block_size"] != g.block_size
            for gs, g in zip(gran_states, self.grans)
        ):
            raise ValueError(
                "state granularities do not match this analyzer: "
                f"{[(gs['name'], gs['block_size']) for gs in gran_states]}"
            )
        self.clock = state["clock"]
        for g, gs in zip(self.grans, gran_states):
            g.db.raw.clear()
            g.db.raw.update({k: dict(v) for k, v in gs["raw"].items()})
            g.db.cold.clear()
            g.db.cold.update(gs["cold"])
            g.restored_blocks = gs["blocks"]
        return self

    @classmethod
    def from_state(cls, state: Dict) -> "ReuseAnalyzer":
        """Rebuild a results-only analyzer from a :meth:`dump_state` dict."""
        analyzer = cls({gs["name"]: gs["block_size"]
                        for gs in state["grans"]})
        return analyzer.load_state(state)

    def __repr__(self) -> str:
        self.flush()
        parts = ", ".join(
            f"{g.name}:{g.block_size}B×{len(g.table)}" for g in self.grans
        )
        return f"ReuseAnalyzer(clock={self.clock}, {parts})"


def _specialized_access(analyzer: "ReuseAnalyzer"):
    """Build a closure-based access handler with the Fenwick ops inlined.

    Semantically identical to :meth:`ReuseAnalyzer.access` (the test suite
    cross-checks them); exists purely because attribute lookups and function
    calls dominate the generic path's cost in CPython.
    """
    stack_sids = analyzer.stack._sids
    stack_clocks = analyzer.stack._clocks
    grans = []
    for g in analyzer.grans:
        eng = g.engine
        grans.append((
            g.block_bits, g.table.raw, eng, eng._tree, g.db.raw, g.db.cold,
        ))
    state = analyzer  # clock lives on the analyzer (shared with scope events)

    def access(rid: int, addr: int, is_store: bool,
               _grans=tuple(grans), _bisect=bisect_left) -> None:
        clock = state.clock + 1
        state.clock = clock
        cur_sid = stack_sids[-1] if stack_sids else -1
        for shift, table, eng, tree, raw, cold in _grans:
            if clock > eng._cap:
                eng._grow(clock)
            block = addr >> shift
            prev = table.get(block)
            if prev is None:
                cap = eng._cap
                i = clock
                while i <= cap:
                    tree[i] += 1
                    i += i & (-i)
                eng._active += 1
                cold[rid] = cold.get(rid, 0) + 1
            else:
                t_prev = prev[0]
                cap = eng._cap
                i = t_prev
                while i <= cap:
                    tree[i] -= 1
                    i += i & (-i)
                prefix = 0
                i = t_prev
                while i > 0:
                    prefix += tree[i]
                    i -= i & (-i)
                d = (eng._active - 1) - prefix
                i = clock
                while i <= cap:
                    tree[i] += 1
                    i += i & (-i)
                pos = _bisect(stack_clocks, t_prev)
                carry = stack_sids[pos - 1] if pos else (
                    stack_sids[0] if stack_sids else -1)
                key = (rid, prev[2], carry)
                bins = raw.get(key)
                if bins is None:
                    bins = {}
                    raw[key] = bins
                if d < 256:
                    b = d
                else:
                    hb = d.bit_length() - 1
                    b = 256 + (hb - 8) * 4 + ((d >> (hb - 2)) & 3)
                bins[b] = bins.get(b, 0) + 1
            table[block] = (clock, rid, cur_sid)

    return access


#: Memo of per-position run distances keyed by the row's equality
#: structure (first-occurrence labeling).  Distances depend only on which
#: positions alias which, never on the block numbers themselves, and loop
#: nests produce a handful of structures, so this stays tiny.
_ROW_DIST_MEMO: Dict[Tuple[int, ...], Tuple[List[int], List[int]]] = {}

#: ``firsts`` for the all-one-block fast path in :func:`_apply_run`.
_SINGLE_FIRST = (0,)


def _row_distances(row_blocks: List[int], k: int):
    """Reuse structure of a steady-state repeated row.

    When an iteration touches exactly the same block sequence as the
    previous iteration, every access is a reuse whose previous touch sits
    either earlier in the same row or at the same block's last occurrence
    in the previous row.  The distance is then the number of distinct
    blocks strictly between the two occurrences (cyclically across rows),
    computable from the row's aliasing structure alone.

    Returns ``(dists, firsts)``: per-position distances and the positions
    of each distinct block's first occurrence.
    """
    # Block-number translation preserves the equality pattern, so relative
    # offsets from the first block are a sound (and cheap) memo key: one
    # key per (loop, stride) shape instead of a canonical relabeling pass.
    b0 = row_blocks[0]
    key = tuple([b - b0 for b in row_blocks])
    cached = _ROW_DIST_MEMO.get(key)
    if cached is not None:
        return cached
    label: Dict[int, int] = {}
    canon = []
    for block in row_blocks:
        lab = label.get(block)
        if lab is None:
            lab = len(label)
            label[block] = lab
        canon.append(lab)
    occ: Dict[int, List[int]] = {}
    for p, lab in enumerate(canon):
        occ.setdefault(lab, []).append(p)
    dists = [0] * k
    firsts = []
    for positions in occ.values():
        firsts.append(positions[0])
        for j, p in enumerate(positions):
            if j == 0:
                q = positions[-1]  # previous occurrence: previous row
                window = canon[q + 1:] + canon[:p]
            else:
                q = positions[j - 1]
                window = canon[q + 1:p]
            dists[p] = len(set(window))
    cached = (dists, firsts)
    _ROW_DIST_MEMO[key] = cached
    return cached


def _apply_run(row_blocks, row_rids, run_len, k, cur_sid, tree, cap,
               table, raw):
    """Fast-forward ``run_len`` repeated rows in one step.

    Called by the specialized batch path after detecting that consecutive
    iterations touch an identical block sequence: histogram counts are
    bulk-incremented and each distinct block's Fenwick mark moves straight
    to its final position — O(row) work instead of O(run_len * row).
    """
    raw_get = raw.get
    b0 = row_blocks[0]
    if row_blocks.count(b0) == k:
        # Whole row in one block (a row inside one line/page): every
        # position reuses at distance 0 and only one mark moves.
        for rid in row_rids:
            key = (rid, cur_sid, cur_sid)
            bins = raw_get(key)
            if bins is None:
                bins = {}
                raw[key] = bins
            bins[0] = bins.get(0, 0) + run_len
        firsts = _SINGLE_FIRST
    else:
        dists, firsts = _row_distances(row_blocks, k)
        for rid, d in zip(row_rids, dists):
            key = (rid, cur_sid, cur_sid)
            bins = raw_get(key)
            if bins is None:
                bins = {}
                raw[key] = bins
            bins[d] = bins.get(d, 0) + run_len
    shift_by = run_len * k
    for p in firsts:
        block = row_blocks[p]
        t_old, rid_last, _ = table[block]
        t_new = t_old + shift_by
        table[block] = (t_new, rid_last, cur_sid)
        # Move the mark t_old -> t_new; interleave the two update walks so
        # the shared path suffix cancels (-1 then +1) and is never touched.
        r, s = t_old, t_new
        while r != s and r <= cap and s <= cap:
            if r < s:
                tree[r] -= 1
                r += r & (-r)
            else:
                tree[s] += 1
                s += s & (-s)
        if r != s:  # pragma: no cover - only if the tree was under-grown
            while r <= cap:
                tree[r] -= 1
                r += r & (-r)
            while s <= cap:
                tree[s] += 1
                s += s & (-s)


def _specialized_access_batch(analyzer: "ReuseAnalyzer"):
    """Build the chunked access handler (fenwick + flat tables only).

    Semantically identical to calling :meth:`ReuseAnalyzer.access` per
    element (the test suite cross-checks this); the speed comes from four
    structural moves the scalar path cannot make:

    * per-chunk hoisting — capacity checks, scope-stack reads, and all
      attribute lookups happen once per (chunk, granularity), not per
      access;
    * path-cancelled Fenwick walks — the prefix difference
      ``prefix(now-1) - prefix(t_prev)`` merges both descents and stops at
      their common ancestor, and the mark move interleaves the two update
      walks so the shared suffix is never touched: short reuses (the
      overwhelming majority in loop nests) cost O(log span), not
      O(log clock);
    * carrying-scope shortcut — a previous access inside the current batch
      is necessarily newer than every scope entry, so the bisect collapses
      to the innermost scope;
    * steady-state run multiplication — consecutive iterations touching an
      identical block sequence are detected by row comparison and applied
      wholesale (see :func:`_apply_run`).
    """
    stack_sids = analyzer.stack._sids
    stack_clocks = analyzer.stack._clocks
    grans = []
    for g in analyzer.grans:
        grans.append((g.block_bits, g.table.raw, g.engine, g.db.raw,
                      g.db.cold))
    state = analyzer
    obs_calls = analyzer._obs_batch_calls
    obs_events = analyzer._obs_batch_events
    obs_runs = _obs.counter("analyzer.runs_fastforwarded")

    def access_batch(rids, addrs, stores, period=0,
                     _grans=tuple(grans), _bisect=bisect_left):
        n = len(addrs)
        if not n:
            return
        obs_calls.inc()
        obs_events.inc(n)
        clock0 = state.clock
        end = clock0 + n
        cur_sid = stack_sids[-1] if stack_sids else -1
        top_clock = stack_clocks[-1] if stack_clocks else -1
        k = period
        row_mode = k and 0 < k < _EXACT_LIMIT and n % k == 0
        for shift, table, eng, raw, cold in _grans:
            eng.ensure(end)
            tree = eng._tree
            cap = eng._cap
            active = eng._active
            clk = clock0
            table_get = table.get
            raw_get = raw.get
            if row_mode:
                row_rids = rids[:k]
                blocks = [a >> shift for a in addrs]
                run_row = None
                run_len = 0
                pos = 0
                while pos < n:
                    row_end = pos + k
                    row_blocks = blocks[pos:row_end]
                    if row_blocks == run_row:
                        run_len += 1
                        pos = row_end
                        continue
                    if run_len:
                        _apply_run(run_row, row_rids, run_len, k, cur_sid,
                                   tree, cap, table, raw)
                        obs_runs.inc()
                        clk += run_len * k
                        run_len = 0
                    for block, rid in zip(row_blocks, row_rids):
                        clk += 1
                        prev = table_get(block)
                        if prev is None:
                            i = clk
                            while i <= cap:
                                tree[i] += 1
                                i += i & (-i)
                            active += 1
                            cold[rid] = cold.get(rid, 0) + 1
                        else:
                            t_prev = prev[0]
                            a = clk - 1
                            b = t_prev
                            d = 0
                            while a != b:
                                if a > b:
                                    d += tree[a]
                                    a -= a & (-a)
                                else:
                                    d -= tree[b]
                                    b -= b & (-b)
                            r, s = t_prev, clk
                            while r != s and r <= cap and s <= cap:
                                if r < s:
                                    tree[r] -= 1
                                    r += r & (-r)
                                else:
                                    tree[s] += 1
                                    s += s & (-s)
                            if r != s:  # pragma: no cover - defensive
                                while r <= cap:
                                    tree[r] -= 1
                                    r += r & (-r)
                                while s <= cap:
                                    tree[s] += 1
                                    s += s & (-s)
                            if t_prev > top_clock:
                                carry = cur_sid
                            else:
                                p2 = _bisect(stack_clocks, t_prev)
                                carry = stack_sids[p2 - 1] if p2 else (
                                    stack_sids[0] if stack_sids else -1)
                            key = (rid, prev[2], carry)
                            bins = raw_get(key)
                            if bins is None:
                                bins = {}
                                raw[key] = bins
                            if d < 256:
                                bn = d
                            else:
                                hb = d.bit_length() - 1
                                bn = 256 + (hb - 8) * 4 + ((d >> (hb - 2)) & 3)
                            bins[bn] = bins.get(bn, 0) + 1
                        table[block] = (clk, rid, cur_sid)
                    run_row = row_blocks
                    pos = row_end
                if run_len:
                    _apply_run(run_row, row_rids, run_len, k, cur_sid,
                               tree, cap, table, raw)
                    obs_runs.inc()
                    clk += run_len * k
            else:
                for rid, addr in zip(rids, addrs):
                    clk += 1
                    block = addr >> shift
                    prev = table_get(block)
                    if prev is None:
                        i = clk
                        while i <= cap:
                            tree[i] += 1
                            i += i & (-i)
                        active += 1
                        cold[rid] = cold.get(rid, 0) + 1
                    else:
                        t_prev = prev[0]
                        a = clk - 1
                        b = t_prev
                        d = 0
                        while a != b:
                            if a > b:
                                d += tree[a]
                                a -= a & (-a)
                            else:
                                d -= tree[b]
                                b -= b & (-b)
                        r, s = t_prev, clk
                        while r != s and r <= cap and s <= cap:
                            if r < s:
                                tree[r] -= 1
                                r += r & (-r)
                            else:
                                tree[s] += 1
                                s += s & (-s)
                        if r != s:  # pragma: no cover - defensive
                            while r <= cap:
                                tree[r] -= 1
                                r += r & (-r)
                            while s <= cap:
                                tree[s] += 1
                                s += s & (-s)
                        if t_prev > top_clock:
                            carry = cur_sid
                        else:
                            p2 = _bisect(stack_clocks, t_prev)
                            carry = stack_sids[p2 - 1] if p2 else (
                                stack_sids[0] if stack_sids else -1)
                        key = (rid, prev[2], carry)
                        bins = raw_get(key)
                        if bins is None:
                            bins = {}
                            raw[key] = bins
                        if d < 256:
                            bn = d
                        else:
                            hb = d.bit_length() - 1
                            bn = 256 + (hb - 8) * 4 + ((d >> (hb - 2)) & 3)
                        bins[bn] = bins.get(bn, 0) + 1
                    table[block] = (clk, rid, cur_sid)
            eng._active = active
        state.clock = end

    return access_batch
