"""Mining-as-a-service: query serving over shared CFP-arrays.

The paper builds compressed structures so mining fits in memory; this
package is the payoff view of the same structures — once built, a
CFP-array is a read-only index that can answer itemset-support, top-k,
and "also bought" rule queries for many concurrent clients out of one
shared buffer pool (docs/serving.md). Support walks the array per
query; top-k and rules read a pattern index each store mines once, on
first use:

* :mod:`repro.serving.store` — persistence (array + item-vocabulary
  sidecar) and :class:`ServingStore`, the thread-safe query facade
  that owns the pattern index;
* :mod:`repro.serving.follow` — :class:`FollowingStore`, the same query
  facade following a streaming snapshot manifest
  (:class:`repro.streaming.snapshots.SnapshotManager`), hot-swapping
  generations under live queries with zero drops (docs/streaming.md);
* :mod:`repro.serving.server` — :class:`ReproServer`, the asyncio
  NDJSON protocol server that answers every request inline on its event
  loop, with per-request latency histograms and graceful drain;
* :mod:`repro.serving.loadgen` — the load harness that measures
  p50/p99/throughput under N concurrent clients while verifying every
  response against the direct library calls.

Start one from the command line with ``repro serve``.
"""

from typing import Any

from repro.serving.server import ReproServer
from repro.serving.store import ServingStore, StoreError, build_store, write_sidecar

__all__ = [
    "FollowingStore",
    "LoadReport",
    "ReproServer",
    "ServingStore",
    "StoreError",
    "build_store",
    "run_load",
    "write_sidecar",
]


def __getattr__(name: str) -> Any:
    # Lazy so `python -m repro.serving.loadgen` does not import the
    # module twice (once as a package attribute, once as __main__).
    # FollowingStore is lazy for a different reason: it pulls in
    # repro.streaming.snapshots, which imports this package's store
    # module — eager import here would re-enter a half-initialized
    # package and fail.
    if name in ("LoadReport", "run_load"):
        from repro.serving import loadgen

        return getattr(loadgen, name)
    if name == "FollowingStore":
        from repro.serving.follow import FollowingStore

        return FollowingStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
