"""Shared-memory segments for the serving layer's zero-copy ingress.

A client places its matrix in a named
:class:`multiprocessing.shared_memory.SharedMemory` segment and posts only
a ``(name, shape, dtype)`` descriptor; the server maps the segment by name
and transposes it in place.  This module owns the two lifecycle problems
that come with that:

* **Ownership.**  :class:`SharedArray` creates a segment, registers it in
  a process-local table, and ``destroy()`` (close + unlink) is idempotent.
  ``owned_segments()`` lists what is still live — the serving layer
  reports it as ``shm_leaked`` in the shutdown summary and CI asserts it
  is zero after a SIGTERM drain.  An ``atexit`` hook unlinks anything left
  behind by an abnormal exit so ``/dev/shm`` never accumulates
  ``repro_*`` segments.
* **Attachment.**  :func:`attach_array` maps a segment by name with a
  small LRU of open handles (a client reposts the same few segments) and
  keeps the attachment out of the ``resource_tracker`` — without that, a
  process that merely *attached* a segment would try to unlink it at exit
  and spam "leaked shared_memory" warnings (bpo-38119).
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from collections import OrderedDict
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SharedArray",
    "attach_array",
    "detach_all",
    "owned_segments",
    "cleanup_owned",
]

_lock = threading.Lock()
#: name -> SharedArray, for segments *created* by this process
_owned: dict[str, "SharedArray"] = {}

#: child-side attachment cache: name -> open SharedMemory handle
_attached: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
_ATTACH_CACHE_MAX = 8


def _unique_name() -> str:
    """A segment name unique across processes and collision-safe within one."""
    return f"repro_{os.getpid():x}_{secrets.token_hex(4)}"


class SharedArray:
    """A numpy array backed by a named shared-memory segment this process owns.

    ``seg.array`` is the live ndarray view; ``seg.name`` is the descriptor
    other processes attach by.  ``destroy()`` closes and unlinks — callers
    must copy results out first, since the mapping dies with the segment.
    """

    def __init__(self, shape, dtype) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        nbytes = self.dtype.itemsize
        for s in self.shape:
            nbytes *= s
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, nbytes), name=_unique_name()
        )
        self._name = self._shm.name
        self._owner_pid = os.getpid()
        self._destroyed = False
        self.array: np.ndarray | None = np.ndarray(
            self.shape, dtype=self.dtype, buffer=self._shm.buf
        )
        with _lock:
            _owned[self._name] = self

    @property
    def name(self) -> str:
        return self._name

    def destroy(self) -> None:
        """Close the mapping and unlink the segment (idempotent).

        Only the creating process unlinks: a forked child inheriting this
        object must not tear the parent's segment down.
        """
        with _lock:
            if self._destroyed:
                return
            self._destroyed = True
            _owned.pop(self._name, None)
        self.array = None
        try:
            self._shm.close()
        except BufferError:
            # A view outlived us; the mapping is reclaimed when it dies.
            # Unlinking below still frees the name and backing file.
            pass
        if self._owner_pid == os.getpid():
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()


def owned_segments() -> list[str]:
    """Names of segments created by this process and not yet destroyed."""
    with _lock:
        return sorted(name for name, seg in _owned.items()
                      if seg._owner_pid == os.getpid())


def cleanup_owned() -> int:
    """Destroy every still-live owned segment; returns how many there were.

    Runs at interpreter exit as a last-resort leak stop; orderly code paths
    destroy their segments in ``finally`` blocks long before this fires.
    """
    with _lock:
        leaked = [seg for seg in _owned.values()
                  if seg._owner_pid == os.getpid()]
    for seg in leaked:
        seg.destroy()
    return len(leaked)


atexit.register(cleanup_owned)


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment without enrolling it in the resource tracker.

    Before 3.13 (``track=False``) the only seam is the module-level
    ``register`` hook; suppressing it during the attach is safe here
    because callers hold :data:`_lock`.  Without this, every attaching
    process would believe it owns the segment and try to unlink it at exit.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    orig = resource_tracker.register
    resource_tracker.register = lambda *a, **kw: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig


def attach_array(name: str, shape, dtype) -> np.ndarray:
    """Map an existing segment as an ndarray (descriptor resolve).

    Handles are cached (LRU of :data:`_ATTACH_CACHE_MAX`) because a client
    reposts the same segment request after request; evicted handles close
    lazily.
    """
    with _lock:
        shm = _attached.get(name)
        if shm is not None:
            _attached.move_to_end(name)
        else:
            shm = _open_untracked(name)
            _attached[name] = shm
            while len(_attached) > _ATTACH_CACHE_MAX:
                _, old = _attached.popitem(last=False)
                try:
                    old.close()
                except BufferError:
                    pass  # a request-local view is still alive; freed with it
    return np.ndarray(tuple(int(s) for s in shape),
                      dtype=np.dtype(dtype), buffer=shm.buf)


def detach_all() -> None:
    """Close every cached attachment (server shutdown hygiene)."""
    with _lock:
        handles = list(_attached.values())
        _attached.clear()
    for shm in handles:
        try:
            shm.close()
        except BufferError:
            pass
