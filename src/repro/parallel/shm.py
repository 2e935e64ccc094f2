"""Zero-copy broadcast arrays for the process pool.

Every :class:`~repro.parallel.backend.ClientJob` carries the broadcast
parameter vector ``x_ref`` (and, for stateful methods under worker-replica
backends, the ``broadcast_state`` arrays).  Shipping those through the pool
pickles the same bytes once per job — at 10k+ simulated clients the
transport, not the compute, dominates wall clock.  This module publishes
each distinct broadcast array *once per version* into POSIX shared memory
and ships jobs carrying a tiny :class:`ArrayRef` descriptor instead; pool
workers attach the segment read-only and hand the mapped array straight to
``client_update``.

Parent side — :class:`BroadcastStore`:

* ``pack_job(job)`` swaps ``x_ref`` / ``broadcast_state`` ndarrays for
  :class:`ArrayRef` descriptors, publishing a new segment only when the
  content actually changed (identity fast-path for the common "same object
  every dispatch" case, content digest for round-stable arrays that are
  re-packed into fresh objects each dispatch).
* Segments are reference-counted per in-flight job and unlinked as soon as
  no outstanding job references a superseded version; ``close()`` unlinks
  everything.  The store is created tracked in the parent, so a crashed
  parent still gets segments reaped by the resource tracker.

Worker side — :func:`resolve_job_refs`:

* Attaches each referenced segment once per worker process (a small LRU
  keyed by segment name), maps it as a read-only ndarray, and returns the
  job with real arrays restored.  Attachment is *untracked* (Python 3.13's
  ``track=False`` where available, else an explicit ``resource_tracker``
  unregister) so worker exit does not unlink segments the parent still
  owns.

POSIX semantics make the lifecycle safe: the parent unlinking a segment
only removes its name — existing worker mappings stay valid until the
worker itself closes them, and pool workers run jobs serially, so evicting
cache entries not referenced by the current job can never invalidate an
array mid-``client_update``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = [
    "ArrayRef",
    "BroadcastStore",
    "attach_array",
    "resolve_job_refs",
]


@dataclass(frozen=True)
class ArrayRef:
    """Descriptor for one published broadcast array: what a job ships
    instead of the array itself.

    Attributes:
        name: the shared-memory segment name (attachable from any process).
        shape: array shape to map the segment as.
        dtype: dtype string (``str(arr.dtype)``), losslessly round-trippable
            through ``np.dtype``.
        version: store-wide monotonically increasing publish version —
            stable across jobs that reference the same content, which is
            what lets transports de-duplicate shipping per worker.
        nbytes: payload size, the per-job shipping cost the descriptor
            saves (accounted by the store's ``shm_bytes_saved`` counter).
    """

    name: str
    shape: tuple
    dtype: str
    version: int
    nbytes: int


class _Segment:
    __slots__ = ("shm", "ref", "refcount", "digest", "key")

    def __init__(self, shm, ref, digest, key):
        self.shm = shm
        self.ref = ref
        self.refcount = 0
        self.digest = digest
        self.key = key


class BroadcastStore:
    """Version-bumped publisher of broadcast arrays into shared memory.

    One store per :class:`~repro.parallel.backend.ProcessPoolBackend`
    binding; the backend calls :meth:`pack_job` at submit, :meth:`release`
    at collect, and :meth:`close` (unlink-on-close) from its own ``close``.

    Args:
        min_bytes: arrays smaller than this ship inline — below a few KiB
            the descriptor + attach overhead exceeds the pickle saved.
    """

    def __init__(self, min_bytes: int = 0) -> None:
        self.min_bytes = int(min_bytes)
        # by segment name; insertion order == publish order
        self._segments: "OrderedDict[str, _Segment]" = OrderedDict()
        # current anchor per logical key: (array object, its ArrayRef)
        self._current: dict[str, tuple[np.ndarray, ArrayRef]] = {}
        self._next_version = 0
        self._versions_published = 0
        self._bytes_published = 0
        self._bytes_saved = 0
        self._jobs_packed = 0
        self._closed = False

    # -- publishing ----------------------------------------------------------
    def publish(self, key: str, arr) -> ArrayRef | None:
        """Publish ``arr`` under logical ``key``; None when it ships inline.

        Same object as last time → same ref (no hashing).  New object with
        identical bytes (round-stable re-packs) → same ref, anchor updated.
        Changed content → new version in a fresh segment; superseded
        segments are unlinked once no in-flight job references them.
        """
        if self._closed:
            raise RuntimeError("BroadcastStore.publish after close()")
        if (
            not isinstance(arr, np.ndarray)
            or arr.nbytes == 0
            or arr.nbytes < self.min_bytes
        ):
            return None
        cur = self._current.get(key)
        if cur is not None and cur[0] is arr:
            return cur[1]
        data = np.ascontiguousarray(arr)
        digest = hashlib.sha1(data.tobytes()).digest()
        if cur is not None:
            ref = cur[1]
            if (
                ref.shape == tuple(arr.shape)
                and ref.dtype == str(arr.dtype)
                and self._segments[ref.name].digest == digest
            ):
                self._current[key] = (arr, ref)  # re-anchor identity fast path
                return ref
        shm = shared_memory.SharedMemory(create=True, size=data.nbytes)
        view = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
        view[...] = data
        del view  # release the buffer export so close()/unlink() can succeed
        version = self._next_version
        self._next_version += 1
        ref = ArrayRef(shm.name, tuple(arr.shape), str(arr.dtype), version,
                       int(arr.nbytes))
        self._segments[shm.name] = _Segment(shm, ref, digest, key)
        self._current[key] = (arr, ref)
        self._versions_published += 1
        self._bytes_published += int(arr.nbytes)
        self._gc()
        return ref

    def pack_job(self, job):
        """Swap a job's broadcast arrays for refs; returns ``(job, refs)``.

        Every returned ref is acquired (refcount +1); the backend must
        :meth:`release` each once the job's result is collected (or the
        job is abandoned), so superseded segments can be unlinked.
        """
        refs: list[ArrayRef] = []
        updates: dict = {}
        r = self.publish("x", job.x_ref)
        if r is not None:
            self._acquire(r)
            refs.append(r)
            updates["x_ref"] = r
        if job.broadcast_state:
            packed = {}
            changed = False
            for k, v in job.broadcast_state.items():
                rr = self.publish(f"bstate.{k}", v)
                if rr is not None:
                    self._acquire(rr)
                    refs.append(rr)
                    packed[k] = rr
                    changed = True
                else:
                    packed[k] = v
            if changed:
                updates["broadcast_state"] = packed
        if updates:
            job = replace(job, **updates)
            self._jobs_packed += 1
            self._bytes_saved += sum(r.nbytes for r in refs)
        return job, tuple(refs)

    def _acquire(self, ref: ArrayRef) -> None:
        self._segments[ref.name].refcount += 1

    def release(self, ref: ArrayRef) -> None:
        seg = self._segments.get(ref.name)
        if seg is not None:
            seg.refcount -= 1
            self._gc()

    def _gc(self) -> None:
        """Unlink superseded segments no in-flight job references."""
        live = {ref.name for _, ref in self._current.values()}
        for name in [
            n for n, s in self._segments.items()
            if s.refcount <= 0 and n not in live
        ]:
            self._unlink(self._segments.pop(name))

    @staticmethod
    def _unlink(seg: _Segment) -> None:
        seg.shm.close()
        try:
            seg.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass

    # -- observability -------------------------------------------------------
    def stats(self) -> dict:
        """Cumulative counters (folded into ``transport_stats``)."""
        return {
            "shm_versions": self._versions_published,
            "shm_segments_live": len(self._segments),
            "shm_bytes_published": self._bytes_published,
            "shm_bytes_saved": self._bytes_saved,
            "shm_jobs_packed": self._jobs_packed,
        }

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment.  Safe to call twice; the store is dead after."""
        for seg in self._segments.values():
            self._unlink(seg)
        self._segments = OrderedDict()
        self._current = {}
        self._closed = True

    def __enter__(self) -> "BroadcastStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- worker side -------------------------------------------------------------
#: per-process attach cache: segment name -> (SharedMemory, read-only array)
_ATTACHED: "OrderedDict[str, tuple[shared_memory.SharedMemory, np.ndarray]]"
_ATTACHED = OrderedDict()
#: how many mapped segments a worker keeps around; broadcast versions are
#: long-lived so a handful covers the steady state
ATTACH_CACHE_SEGMENTS = 16


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach without resource-tracker ownership (the parent owns unlink).

    Python < 3.13 has no ``track=False`` and registers attachments with the
    resource tracker exactly like creations, which is wrong two ways here:
    a worker-local tracker would *unlink* the parent's live segments when
    the worker exits, and a fork-shared tracker would lose the parent's
    registration if the worker unregistered after attaching.  Suppressing
    the register call during attach sidesteps both (the standard pre-3.13
    workaround); pool workers are single-threaded, so the swap is safe.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def attach_array(ref: ArrayRef) -> np.ndarray:
    """Map ``ref``'s segment as a read-only ndarray (cached per process)."""
    entry = _ATTACHED.get(ref.name)
    if entry is None:
        shm = _attach_untracked(ref.name)
        arr = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf)
        arr.setflags(write=False)
        _ATTACHED[ref.name] = entry = (shm, arr)
    else:
        _ATTACHED.move_to_end(ref.name)
    return entry[1]


def _evict_attached(keep: set) -> None:
    while len(_ATTACHED) > ATTACH_CACHE_SEGMENTS:
        victim = next((n for n in _ATTACHED if n not in keep), None)
        if victim is None:
            break
        shm, arr = _ATTACHED.pop(victim)
        del arr
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a caller kept a view alive
            pass  # mapping lives until process exit; tracking is dropped


def resolve_job_refs(job):
    """Restore a job's :class:`ArrayRef` fields to real (read-only) arrays.

    Called in the pool worker before :func:`~repro.parallel.backend.
    execute_jobs`; a job without refs passes through untouched.
    """
    updates: dict = {}
    keep: set = set()
    if isinstance(job.x_ref, ArrayRef):
        keep.add(job.x_ref.name)
        updates["x_ref"] = job.x_ref
    bstate = job.broadcast_state
    has_bstate_refs = bstate is not None and any(
        isinstance(v, ArrayRef) for v in bstate.values()
    )
    if has_bstate_refs:
        keep.update(v.name for v in bstate.values() if isinstance(v, ArrayRef))
    if not keep:
        return job
    if "x_ref" in updates:
        updates["x_ref"] = attach_array(updates["x_ref"])
    if has_bstate_refs:
        updates["broadcast_state"] = {
            k: attach_array(v) if isinstance(v, ArrayRef) else v
            for k, v in bstate.items()
        }
    _evict_attached(keep)
    return replace(job, **updates)
