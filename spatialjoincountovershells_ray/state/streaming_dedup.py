"""Streaming ingest dedup: the shared-mutable-state stage.

The batch engine's exact_dedup (pipelines/dedup.py) is a keyed exchange
— correct and the right plan when the corpus is rereadable. An INGEST
pipeline is different: batches arrive once, each must be filtered
against EVERYTHING seen so far, and the seen-set must outlive any one
task. That is per-key mutable state with cross-batch lifetime — the
documented drop-to-raw-Ray case (`ray.data` map tasks are stateless;
actor-pool map_batches state is per-worker, not shared).

Design: a fixed ring of ``DedupShard`` actors, each owning a disjoint
hash-slice of the key space (key % nshards). A driver-side helper
routes each incoming block's keys to their shards (one `check_and_add`
round-trip per shard per block, vectorized inside the actor over numpy
arrays — never per-key RPCs) and emits the surviving rows. First
arrival wins; output row COUNT equals the distinct-key count and is
deterministic, while which duplicate survives follows arrival order
(the ingest contract; the batch engine's min-id rule is the
deterministic alternative when re-reading is possible).

Scale shape: state is sharded (nshards actors ~ cluster size), the
per-block traffic is O(block keys) int64s, and memory per shard is the
distinct-key count / nshards — the same footprint a shuffle dedup's
reducers would hold, but persistent and queryable mid-stream.

Failure semantics:

- ``check_and_add`` is side-effecting and NOT idempotent: a replayed
  call sees its own keys as already-admitted and drops every row. So
  ``streaming_exact_dedup`` (a) MATERIALIZES its result before
  returning — the lazy plan executes exactly once, re-consumption of
  the returned Dataset cannot re-run admissions — and (b) disables Ray
  task retries for the admission stage (``max_retries=0``): a lost map
  task fails LOUDLY instead of silently losing its block on replay.
- Actor death: with ``ckpt_dir`` set, each shard snapshots its seen-set
  atomically (tmp + os.replace, the sinks/checkpoint contract) every
  ``ckpt_every`` admission calls and restores it in ``__init__``; the
  ring creates shards with ``max_restarts=-1`` so Ray revives a killed
  shard ON ITS CHECKPOINT instead of empty.
- Calls made while a shard restarts WAIT for it: before routing a
  block, the router asks every shard for its ``incarnation`` token, a
  side-effect-free probe that Ray queues until a restarting actor is
  alive again (``max_task_retries=-1``). Only then are the admissions
  sent. Without ``ckpt_dir`` shards never restart and the probe is
  skipped.
- Only an admission IN FLIGHT at the death raises (``check_and_add``
  keeps actor task retries at 0): a RayActorError, loud, never a
  replay.
- The token is drawn once per incarnation, so the router sees a
  revived shard. With ``ckpt_every=1`` every completed admission is in
  the checkpoint and the stream carries on exactly. With any other
  ``ckpt_every`` the restored seen-set may miss admitted keys, so the
  router raises ``ShardRevivedError`` instead of readmitting their
  duplicates; it probes again after the admissions, so a shard revived
  while a batch was routed fails that batch, before it is returned.
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import ray


@ray.remote
class DedupShard:
    """Owns one hash-slice of the key space; holds the seen-set as a
    growing sorted-array index (amortized rebuilds, numpy membership).
    With ``ckpt_dir``, snapshots the seen-set atomically and restores
    it on (re)start — see the module docstring's failure semantics."""

    def __init__(
        self, shard_id: int = 0, ckpt_dir: str | None = None, ckpt_every: int = 0
    ) -> None:
        self._sorted = np.empty(0, np.int64)  # consolidated, sorted
        self._recent: list[np.ndarray] = []  # unconsolidated tail
        self._recent_n = 0
        self._ckpt_path = (
            os.path.join(ckpt_dir, f"shard-{shard_id:04d}.npy") if ckpt_dir else None
        )
        self._ckpt_every = int(ckpt_every)
        self._calls_since_ckpt = 0
        if self._ckpt_path and os.path.exists(self._ckpt_path):
            self._sorted = np.load(self._ckpt_path)  # restart-restore
        self._incarnation = uuid.uuid4().hex

    @ray.method(max_task_retries=-1)
    def incarnation(self) -> str:
        """Readiness probe: a token drawn once per (re)start. No side
        effects, so Ray may queue and retry it across a restart."""
        return self._incarnation

    def _consolidate(self) -> None:
        if self._recent:
            self._sorted = np.unique(
                np.concatenate([self._sorted, *self._recent])
            )
            self._recent, self._recent_n = [], 0

    def _checkpoint(self) -> None:
        """Atomic seen-set snapshot (tmp + rename; a torn write can
        never be restored as a valid checkpoint)."""
        if not self._ckpt_path:
            return
        self._consolidate()
        tmp = self._ckpt_path + ".tmp.npy"  # .npy suffix: np.save appends otherwise
        np.save(tmp, self._sorted)
        os.replace(tmp, self._ckpt_path)

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized first-seen mask for ``keys`` (True = first sight,
        dupes within the batch keep only their first instance), then
        admits the new keys. NOT idempotent — callers must not replay
        (see module docstring)."""
        if self._recent_n > max(65536, len(self._sorted) // 4):
            self._consolidate()
        # within-batch first instance
        _, first_idx = np.unique(keys, return_index=True)
        mask = np.zeros(len(keys), bool)
        mask[first_idx] = True
        # against consolidated set
        pos = np.searchsorted(self._sorted, keys)
        posc = np.minimum(pos, max(len(self._sorted) - 1, 0))
        if len(self._sorted):
            mask &= ~((pos < len(self._sorted)) & (self._sorted[posc] == keys))
        # against the unconsolidated tail
        for r in self._recent:
            rp = np.searchsorted(r, keys)
            rpc = np.minimum(rp, len(r) - 1)
            mask &= ~((rp < len(r)) & (r[rpc] == keys))
        fresh = np.unique(keys[mask])
        if len(fresh):
            self._recent.append(fresh)
            self._recent_n += len(fresh)
        if self._ckpt_path and self._ckpt_every > 0:
            self._calls_since_ckpt += 1
            if self._calls_since_ckpt >= self._ckpt_every:
                self._checkpoint()
                self._calls_since_ckpt = 0
        return mask

    def checkpoint_now(self) -> int:
        """Force a snapshot; returns the persisted key count."""
        self._checkpoint()
        return int(len(self._sorted))

    def n_seen(self) -> int:
        self._consolidate()
        return int(len(self._sorted))


def _make_ring(nshards: int, ckpt_dir: str | None, ckpt_every: int) -> list:
    if ckpt_dir:
        os.makedirs(ckpt_dir, exist_ok=True)
    restarts = -1 if ckpt_dir else 0  # revive-on-checkpoint only when restorable
    return [
        DedupShard.options(max_restarts=restarts).remote(i, ckpt_dir, ckpt_every)
        for i in range(nshards)
    ]


class ShardRevivedError(RuntimeError):
    """A shard restarted with ``ckpt_every != 1``: its restored seen-set
    may miss admitted keys, so the stream can no longer be exact."""


class StreamingDeduper:
    """Router over a DedupShard ring, shared by the driver-side API and
    the map tasks of :func:`streaming_exact_dedup` (it holds only actor
    handles and plain values, so tasks can carry it). Feed blocks in
    arrival order with :meth:`filter_batch`; each returns the first-seen
    rows. ``ckpt_dir`` enables the checkpoint/restore hardening."""

    def __init__(
        self, nshards: int = 8, ckpt_dir: str | None = None, ckpt_every: int = 0
    ):
        self.nshards = nshards
        self.shards = _make_ring(nshards, ckpt_dir, ckpt_every)
        self.ckpt_every = int(ckpt_every)
        # None: shards never restart, so there is nothing to wait for
        self.tokens = self._probe() if ckpt_dir else None

    def _probe(self) -> list[str]:
        return ray.get([s.incarnation.remote() for s in self.shards])

    def wait_ready(self) -> None:
        """Block until every shard is alive; raise if one was revived on
        a checkpoint that may be stale."""
        if self.tokens is None:
            return
        tokens = self._probe()
        if self.ckpt_every != 1:
            revived = [
                i for i, (a, b) in enumerate(zip(self.tokens, tokens)) if a != b
            ]
            if revived:
                raise ShardRevivedError(
                    f"dedup shards {revived} restarted with ckpt_every="
                    f"{self.ckpt_every}; their restored seen-sets may miss "
                    "admitted keys (use ckpt_every=1 for exact restarts)"
                )

    def filter_batch(self, batch: pa.Table, key: str) -> pa.Table:
        self.wait_ready()
        keys = batch.column(key).to_numpy()
        shard = keys % self.nshards
        masks = ray.get(
            [
                self.shards[s].check_and_add.remote(keys[shard == s])
                for s in range(self.nshards)
            ]
        )
        if self.ckpt_every != 1:
            # a shard revived between the probe and its admission answered
            # from a stale seen-set: refuse this batch, not the next one
            self.wait_ready()
        keep = np.zeros(len(keys), bool)
        for s in range(self.nshards):
            keep[shard == s] = masks[s]
        return batch.filter(pa.array(keep))

    def checkpoint(self) -> int:
        self.wait_ready()
        return sum(ray.get([s.checkpoint_now.remote() for s in self.shards]))

    def n_seen(self) -> int:
        self.wait_ready()
        return sum(ray.get([s.n_seen.remote() for s in self.shards]))


def streaming_exact_dedup(
    ds: "ray.data.Dataset",
    key: str,
    nshards: int = 8,
    ckpt_dir: str | None = None,
    ckpt_every: int = 0,
) -> "ray.data.Dataset":
    """Distributed ingest dedup: every map task routes its batch's keys
    to the shard ring and keeps the first-seen rows. Rows never visit
    the driver — only int64 keys travel to the owning shard, and the
    actor serializes admissions so exactly-once holds under concurrent
    tasks. Output row count == COUNT(DISTINCT key), deterministic; WHICH
    duplicate survives follows task completion order (the ingest
    contract — use pipelines.dedup.exact_dedup's min-id rule when a
    deterministic representative matters and the input is rereadable).

    The result is MATERIALIZED before returning and the admission stage
    runs with ``max_retries=0``: admissions are side-effecting and not
    idempotent, so the plan must execute exactly once and a lost task
    must fail loudly rather than silently drop its replayed block (see
    the module docstring). ``ckpt_dir``/``ckpt_every`` add the
    checkpoint-restore path for shard-actor death."""
    dd = StreamingDeduper(nshards, ckpt_dir, ckpt_every)

    def fn(batch: pa.Table) -> pa.Table:
        return dd.filter_batch(batch, key)

    return ds.map_batches(
        fn,
        batch_format="pyarrow",
        zero_copy_batch=True,
        max_retries=0,  # admissions are not idempotent: fail loudly, never replay
    ).materialize()
