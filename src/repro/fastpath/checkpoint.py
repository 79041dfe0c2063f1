"""Warm-state checkpoints: snapshot, digest, and content-addressed store.

The two-tier engine spends most of its non-detailed time re-executing
the same functional fast-forward stream: every rep, every config sharing
a cache/predictor geometry, and every run of the same cell rebuilds the
identical warm state from instruction 0.  This module makes that state a
first-class artifact:

* ``Processor.snapshot()`` / ``restore()`` (with matching methods on
  ``MemoryHierarchy``, ``Cache``, ``MemoryController``,
  ``StreamPrefetcher`` and ``BranchPredictor.snapshot_state()``) capture
  exactly the state a fast-forward gap carries into the next detailed
  burst: architectural registers and memory words, all cache arrays in
  LRU order, predictor tables/BTB/GHR/RAS, stream-prefetcher entries,
  and the DRAM-side accounting — as plain picklable data.
* :func:`snapshot_bytes` is the canonical serialization (dict contents
  sorted where insertion order is not semantic), so equal warm states
  produce equal bytes whichever fast-forward lane built them —
  the lane-equivalence gate in tests/test_warmup_parity.py pins this.
* :class:`CheckpointStore` is the on-disk content-addressed store, the
  ``KEY_SCHEMA`` experiment cache generalized from "finished stats" to
  "mid-stream warm state".  A checkpoint is addressed by
  :func:`checkpoint_key` over (schema, program content, warm-callback
  mask, cache/predictor/DRAM geometry, base-state digest, stream
  distance from that base).  Keying on the *digest of the state the
  chain started from* makes chains self-validating: any change to the
  program, the initial memory image, the warm-up budget, or the
  geometry changes the base digest and the old entries simply never hit
  again — invalidation is spelled "miss".

Provenance rule: the store only ever holds pure fast-forward state.
Callers must not save snapshots of a processor that has executed
detailed instructions (``committed != 0``); the engine and
:func:`restore_or_warm_up` enforce this.

The runahead configuration is deliberately *not* part of the key:
fast-forward warming never touches runahead state, so sweep cells that
differ only in runahead mode share every checkpoint — that is the
cross-cell reuse the live-point engine banks on.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

#: Version of the snapshot format + key derivation.  Bump on any change
#: to what a snapshot contains or how keys are derived; old store
#: entries then become unreachable (and CI's store cache rolls over).
CKPT_SCHEMA = 2  # v2: stream-prefetcher entries carry a training core

#: The warm-callback mask under which fast-forward state is produced.
#: ``Processor.fast_forward`` always warms instruction fetch, data
#: memory, and branches; a future lane that disables one of these must
#: use a different mask so its checkpoints cannot collide.
CB_MASK = "ifetch|mem|branch"

# Fixed serialization order of the hierarchy snapshot dict.
_HIERARCHY_KEYS = (
    "l1i", "l1d", "llc", "llc_misses", "llc_accesses",
    "ifetch_llc_misses", "fills", "mshr_rejections", "controller",
    "prefetcher",
)


def snapshot_bytes(snap: dict) -> bytes:
    """Canonical serialization of a ``Processor.snapshot()``.

    Containers whose iteration order is semantic (cache sets in LRU
    order, stream tables, the MSHR heap) keep their order; containers
    whose order is an execution artifact (the memory word dict) are
    sorted.  Equal warm states therefore serialize to equal bytes —
    across fast-forward lanes and across save/restore round-trips.
    """
    canon = (
        "repro-ckpt", CKPT_SCHEMA,
        snap["pc"], snap["regs"],
        tuple(sorted(snap["memory"].items())),
        snap["memory_fill"], snap["now"], snap["seq"], snap["committed"],
        snap["halted"], snap["ff_instructions"],
        tuple((key, snap["hierarchy"][key]) for key in _HIERARCHY_KEYS),
        snap["predictor"],
    )
    return pickle.dumps(canon, protocol=4)


def snapshot_digest(snap: dict) -> str:
    """SHA-256 of the canonical snapshot serialization."""
    return hashlib.sha256(snapshot_bytes(snap)).hexdigest()


def program_key(program) -> str:
    """Content identity of a program: entry PC plus the structural key of
    every instruction (equal-content programs share checkpoints, the
    same property the block JIT's code cache keys on)."""
    ident = (program.entry,
             tuple(inst.key() for inst in program.instructions))
    return hashlib.sha256(repr(ident).encode()).hexdigest()


def geometry_key(config) -> str:
    """Identity of every structure the warm state lives in: the three
    caches, the branch predictor, the stream prefetcher, and DRAM.
    Core-pipeline and runahead parameters are excluded on purpose —
    fast-forward never touches them, so cells differing only there
    share warm state."""
    ident = (config.l1i, config.l1d, config.llc, config.branch,
             config.prefetcher, config.dram)
    return hashlib.sha256(repr(ident).encode()).hexdigest()


def checkpoint_key(program, config, base_digest: str, delta: int) -> str:
    """Content address of "the warm state ``delta`` fast-forwarded
    instructions downstream of the state whose digest is
    ``base_digest``"."""
    h = hashlib.sha256()
    h.update(repr((CKPT_SCHEMA, CB_MASK, int(delta))).encode())
    h.update(program_key(program).encode())
    h.update(geometry_key(config).encode())
    h.update(base_digest.encode())
    return h.hexdigest()


class CheckpointStore:
    """Content-addressed on-disk checkpoint store.

    Layout: ``root/SCHEMA`` (the format version, for CI cache keying)
    and ``root/<key[:2]>/<key>.ckpt`` pickle files.  Writes are atomic
    (temp file + ``os.replace``), so concurrent writers — parallel sweep
    cells racing on a shared key — each leave a complete, identical
    entry.  Unreadable or wrong-schema entries count as misses and are
    removed.
    """

    _MAGIC = "repro-ckpt-file"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.saves = 0
        self.bytes_written = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.ckpt"

    @classmethod
    def _decode(cls, blob: bytes) -> Optional[dict]:
        """The snapshot inside one entry's bytes, or ``None`` when the
        blob is truncated, corrupt, foreign, or wrong-schema."""
        try:
            payload = pickle.loads(blob)
        except Exception:
            return None
        if (not isinstance(payload, tuple) or len(payload) != 3
                or payload[0] != cls._MAGIC or payload[1] != CKPT_SCHEMA):
            return None
        return payload[2]

    def load(self, key: str) -> Optional[dict]:
        """The stored snapshot for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        snap = self._decode(blob)
        if snap is None:
            # Truncated/corrupt/foreign/stale entry: evict it so the
            # next save rewrites a clean one.  Eviction may recover a
            # concurrent writer's fresh entry instead (see _evict).
            snap = self._evict(path)
        if snap is None:
            self.misses += 1
            return None
        self.hits += 1
        return snap

    def _evict(self, path: Path) -> Optional[dict]:
        """Remove a corrupt/stale entry without destroying a concurrent
        writer's fresh replacement.

        A bare ``unlink`` here races two ways under parallel window jobs
        (``--window-jobs``): two workers evicting the same stale entry
        race each other to the delete, and — worse — a peer's ``save``
        can atomically replace the corrupt file between our read and our
        delete, so the unlink would destroy the *good* entry (a lost
        update).  Instead the entry is claimed by an atomic rename to a
        name unique to this call (threads of one process share a pid,
        so a per-process name would let two claims overwrite each
        other): exactly one evictor wins each rename (losers see it fail
        and count a plain miss), and the claimed bytes are re-checked —
        if a concurrent save already replaced the corrupt entry, the
        claimed file is the fresh valid one, so it is put back (equal
        keys address equal states, so the replace is harmless) and
        returned as a hit.  A claim that is lost anyway counts as a
        miss; a valid claim that cannot be put back is still returned,
        and is removed (the next save rewrites the entry)."""
        claimed = path.with_name(f"{path.name}.evict.{uuid.uuid4().hex}")
        try:
            os.rename(path, claimed)
        except OSError:
            return None  # a peer already evicted (or replaced+evicted) it
        try:
            snap = self._decode(claimed.read_bytes())
        except OSError:
            return None
        if snap is None:
            claimed.unlink(missing_ok=True)
            return None
        try:
            os.replace(claimed, path)
        except OSError:
            claimed.unlink(missing_ok=True)
        return snap

    def save(self, key: str, snap: dict) -> None:
        """Persist one snapshot (atomic; last writer wins with identical
        content, since equal keys address equal states)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        schema_file = self.root / "SCHEMA"
        if not schema_file.exists():
            schema_file.write_text(f"{CKPT_SCHEMA}\n")
        blob = pickle.dumps((self._MAGIC, CKPT_SCHEMA, snap), protocol=4)
        tmp = path.with_name(f"{path.name}.tmp.{uuid.uuid4().hex}")
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        self.saves += 1
        self.bytes_written += len(blob)


@dataclass
class CheckpointPlan:
    """How the two-tier engine should run its checkpointed mode.

    ``jobs`` is the measured-window fan-out width (1 = in-process, the
    reference ordering every parallel run must byte-match).  ``store``
    is the optional on-disk store; without one, checkpoints live only in
    memory for the duration of the run (windows still fan out and the
    serial/parallel identity contract still holds).
    """

    jobs: int = 1
    store: Optional[CheckpointStore] = None
    # Filled by the engine as the run progresses (host bookkeeping).
    timings: dict = field(default_factory=dict)


def resolve_checkpoint_dir(explicit: Optional[str] = None) -> Optional[str]:
    """Store-directory precedence: explicit argument (``--checkpoint-dir``)
    over the ``REPRO_CKPT_DIR`` environment variable, else ``None``."""
    return explicit or os.environ.get("REPRO_CKPT_DIR") or None


def make_checkpoint_plan(jobs: Optional[int] = None,
                         checkpoint_dir: Optional[str] = None,
                         ) -> Optional[CheckpointPlan]:
    """Build a :class:`CheckpointPlan` from CLI-shaped inputs.

    Checkpoint mode engages when the caller asked for window parallelism
    (``jobs``) or a store directory resolves (argument or
    ``REPRO_CKPT_DIR``); otherwise returns ``None`` and the engine keeps
    its serial non-checkpointed path.
    """
    directory = resolve_checkpoint_dir(checkpoint_dir)
    if jobs is None and directory is None:
        return None
    store = CheckpointStore(directory) if directory else None
    return CheckpointPlan(jobs=max(1, jobs or 1), store=store)


def restore_or_warm_up(processor, warmup: int,
                       store: Optional[CheckpointStore] = None,
                       lane: Optional[str] = None) -> dict[str, Any]:
    """Pre-run warm-up through the store: restore the post-warm-up state
    when a matching checkpoint exists, else fast-forward and save it.

    The base of this chain is the *initial* state digest (taken before
    any execution), so the store path only applies to a freshly
    constructed processor — any prior detailed or functional execution
    falls back to a plain ``warm_up``.  Returns host-time bookkeeping:
    ``restored`` plus ``checkpoint_seconds``/``restore_seconds`` (digest
    and store time) and ``ff_seconds`` (functional execution time).
    """
    perf = time.perf_counter
    out = {"restored": False, "checkpoint_seconds": 0.0,
           "restore_seconds": 0.0, "ff_seconds": 0.0}
    if warmup <= 0:
        return out
    usable = (store is not None and processor.committed == 0
              and processor.ff_instructions == 0 and processor.now == 0)
    if not usable:
        t0 = perf()
        processor.warm_up(warmup, lane=lane)
        out["ff_seconds"] = perf() - t0
        return out
    t0 = perf()
    base_digest = snapshot_digest(processor.snapshot())
    key = checkpoint_key(processor.program, processor.config,
                         base_digest, warmup)
    out["checkpoint_seconds"] += perf() - t0
    t0 = perf()
    snap = store.load(key)
    if snap is not None:
        processor.restore(snap)
        out["restore_seconds"] += perf() - t0
        out["restored"] = True
        return out
    out["restore_seconds"] += perf() - t0
    t0 = perf()
    processor.warm_up(warmup, lane=lane)
    out["ff_seconds"] = perf() - t0
    t0 = perf()
    store.save(key, processor.snapshot())
    out["checkpoint_seconds"] += perf() - t0
    return out
