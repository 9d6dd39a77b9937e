"""Hot-swapping store: serve queries while following snapshot flips.

:class:`FollowingStore` exposes the same query surface as
:class:`repro.serving.store.ServingStore` but binds to a *snapshot
directory* (:class:`repro.streaming.snapshots.SnapshotManager`) instead
of one array file. A background follow thread (or an explicit
:meth:`refresh` call) polls the manifest; when the generation advances,
the new generation's store is opened **beside** the live one and then
swapped in under a lock — queries never observe a half-open store and
none are dropped during a flip (the zero-drop contract CI's
incremental-smoke job checks across a live flip).

Retirement is two-level. The manager's refcount pins a generation's
*files* against unlinking while this process still has it open; locally,
each query pins the store object it is using, so a superseded
:class:`ServingStore` (and its buffer pool) is only closed once the last
in-flight query on it finishes. A manifest that fails to parse or a
generation that fails to open is recorded on :attr:`errors` and the
current generation keeps serving — a torn flip degrades to staleness,
never to an outage.

Counter: ``serving.generation`` (one increment per observed flip; the
current generation number itself rides on the ``serve_request`` span's
``generation`` attribute and the ``stats`` op).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Hashable, Iterable, Iterator

from repro import obs
from repro.core.cfp_growth import DEFAULT_CACHE_BUDGET
from repro.errors import ReproError
from repro.rules import Rule
from repro.serving.store import DEFAULT_POOL_PAGES, ServingStore
from repro.streaming.snapshots import SnapshotError, SnapshotManager

#: Default manifest poll cadence for the follow thread.
DEFAULT_POLL_INTERVAL_S = 1.0

#: Opens the constructor tries while the writer keeps retiring the
#: generation it just read (see :meth:`FollowingStore.__init__`).
START_ATTEMPTS = 3


class FollowingStore:
    """Query facade over the newest generation in a snapshot directory.

    Construction requires at least one published, loadable generation
    (it performs the first :meth:`refresh` itself and raises
    :class:`SnapshotError` otherwise). Thereafter the store *always* has
    a live generation; flips only ever move it forward.

    The writer is usually another process, which cannot see this
    process's pin: it may publish a newer generation and retire the one
    just acquired before it is opened. The first refresh is therefore
    retried, up to :data:`START_ATTEMPTS` opens in all, as long as the
    manifest has moved past the generation that failed to open.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        pool_pages: int = DEFAULT_POOL_PAGES,
        cache_budget: int = DEFAULT_CACHE_BUDGET,
        hot_bytes: int = 0,
        verify: bool = True,
    ) -> None:
        self.manager = SnapshotManager(directory)
        self._options = {
            "pool_pages": pool_pages,
            "cache_budget": cache_budget,
            "hot_bytes": hot_bytes,
            "verify": verify,
        }
        self._lock = threading.Lock()
        self._store: ServingStore | None = None
        self._generation: int | None = None
        self._pins: dict[int, int] = {}
        self._superseded: dict[int, ServingStore] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._interval_s = DEFAULT_POLL_INTERVAL_S
        self._closed = False
        self.errors: list[str] = []
        #: Generation whose files the last :meth:`refresh` failed to open.
        self._open_failed: int | None = None
        for __ in range(START_ATTEMPTS):
            self._open_failed = None
            if self.refresh():
                return
            if not self._writer_moved_on():
                break
        detail = self.errors[-1] if self.errors else "no manifest"
        raise SnapshotError(
            f"{self.manager.directory}: no loadable snapshot generation "
            f"({detail})"
        )

    def _writer_moved_on(self) -> bool:
        """Whether the manifest is past the generation that failed to open."""
        if self._open_failed is None:
            return False
        try:
            state = self.manager.current()
        except SnapshotError:
            return False
        return state is not None and state[0] > self._open_failed

    # -- flip machinery -------------------------------------------------

    def refresh(self) -> bool:
        """Adopt the manifest's generation if it moved; True on a flip.

        Any failure — unreadable manifest, missing or corrupt generation
        files — leaves the current generation serving and is recorded on
        :attr:`errors`.
        """
        try:
            state = self.manager.current()
        except SnapshotError as exc:
            self.errors.append(str(exc))
            return False
        if state is None:
            self.errors.append(
                f"{self.manager.directory}: no snapshot published yet"
            )
            return False
        with self._lock:
            if self._generation is not None and state[0] <= self._generation:
                return False
        generation, path = self.manager.acquire()
        with self._lock:
            if self._generation is not None and generation <= self._generation:
                stale = True
            else:
                stale = False
        if stale:
            self.manager.release(generation)
            return False
        try:
            store = ServingStore(path, **self._options)
        except (ReproError, OSError) as exc:
            self.manager.release(generation)
            self.errors.append(f"generation {generation}: {exc}")
            self._open_failed = generation
            return False
        close_now: tuple[int, ServingStore] | None = None
        with self._lock:
            old_generation, old_store = self._generation, self._store
            self._generation, self._store = generation, store
            if old_generation is not None and old_store is not None:
                if self._pins.get(old_generation, 0) > 0:
                    # In-flight queries still read the old store; the
                    # last unpin closes it (see _pinned).
                    self._superseded[old_generation] = old_store
                else:
                    close_now = (old_generation, old_store)
        if close_now is not None:
            close_now[1].close()
            self.manager.release(close_now[0])
        obs.metrics.add("serving.generation")
        return True

    @contextmanager
    def _pinned(self) -> Iterator[ServingStore]:
        """The live store, pinned for the duration of one query."""
        with self._lock:
            generation, store = self._generation, self._store
            assert generation is not None and store is not None
            self._pins[generation] = self._pins.get(generation, 0) + 1
        try:
            yield store
        finally:
            close_now: ServingStore | None = None
            with self._lock:
                count = self._pins.get(generation, 0) - 1
                if count <= 0:
                    self._pins.pop(generation, None)
                    close_now = self._superseded.pop(generation, None)
                else:
                    self._pins[generation] = count
            if close_now is not None:
                close_now.close()
                self.manager.release(generation)

    def start_following(
        self, interval_s: float = DEFAULT_POLL_INTERVAL_S
    ) -> None:
        """Poll the manifest on a daemon thread until :meth:`stop_following`."""
        if self._thread is not None:
            return
        self._interval_s = interval_s
        self._thread = threading.Thread(
            target=self._follow, name="repro-follow", daemon=True
        )
        self._thread.start()

    def stop_following(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self._stop.clear()

    def _follow(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self.refresh()
            except ReproError as exc:  # pragma: no cover - defensive
                self.errors.append(str(exc))
            except OSError as exc:  # pragma: no cover - defensive
                self.errors.append(str(exc))

    # -- ServingStore surface -------------------------------------------

    @property
    def generation(self) -> int:
        with self._lock:
            assert self._generation is not None
            return self._generation

    @property
    def path(self) -> str:
        with self._lock:
            assert self._store is not None
            return self._store.path

    @property
    def table(self):
        with self._lock:
            assert self._store is not None
            return self._store.table

    @property
    def n_transactions(self) -> int:
        with self._lock:
            assert self._store is not None
            return self._store.n_transactions

    @property
    def array(self):
        with self._lock:
            assert self._store is not None
            return self._store.array

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            assert self._store is not None
            return self._store.resident_bytes

    def support(self, items: Iterable[Hashable]) -> int:
        with self._pinned() as store:
            return store.support(items)

    def top_k(
        self, k: int, min_length: int = 1
    ) -> list[tuple[tuple[Hashable, ...], int]]:
        with self._pinned() as store:
            return store.top_k(k, min_length=min_length)

    def rules(
        self,
        min_confidence: float = 0.5,
        max_consequent_size: int | None = None,
    ) -> list[Rule]:
        with self._pinned() as store:
            return store.rules(min_confidence, max_consequent_size)

    def also_bought(
        self,
        basket: Iterable[Hashable],
        limit: int = 10,
        min_confidence: float = 0.5,
    ) -> list[Rule]:
        with self._pinned() as store:
            return store.also_bought(
                basket, limit=limit, min_confidence=min_confidence
            )

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Stop following and close every store this process still holds."""
        if self._closed:
            return
        self._closed = True
        self.stop_following()
        with self._lock:
            stores = list(self._superseded.items())
            self._superseded.clear()
            if self._store is not None and self._generation is not None:
                stores.append((self._generation, self._store))
                self._store = None
        for generation, store in stores:
            store.close()
            self.manager.release(generation)

    def __enter__(self) -> "FollowingStore":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FollowingStore({self.manager.directory!r}, "
            f"generation={self._generation})"
        )


__all__ = ["DEFAULT_POLL_INTERVAL_S", "FollowingStore"]
