"""Out-of-core storage: the paper's research class (3) as a subsystem.

When even the compressed structures exceed main memory, the paper argues
(§3.5, §4.3) that CFP-growth degrades gracefully because its overflow
accesses are largely sequential. This package makes that concrete with a
real disk path instead of a cost model:

* :class:`repro.storage.PageFile` — fixed-size pages in a single file,
* :class:`repro.storage.BufferPool` — an LRU page cache with pin counts,
  hit/miss/eviction statistics, and batch sequential read-ahead
  (:class:`repro.storage.Prefetcher` runs it on a background thread),
* :mod:`repro.storage.cfp_store` — on-disk formats for the CFP-array
  (monolithic v2 and partitioned v3 with a rank-range manifest) and
  checkpointing for the CFP-tree arena,
* :class:`repro.storage.PartitionedCfpArray` — the one paged CFP-array
  reader. It opens every format (a v1/v2 file is one partition) and
  fetches bytes through the buffer pool, so the mine phase and the query
  server run out-of-core with every page fault observable; it mines
  partition-at-a-time with a pinned hot set and sequential prefetch
  (docs/performance.md §partitioned). :class:`repro.storage.DiskCfpArray`
  is the same reader with per-node walks, the access pattern §4.3
  measures,
* :mod:`repro.storage.placement` — pluggable write-placement policies
  for partition payloads (append; wear-aware round-robin),
* :mod:`repro.storage.compaction` — repacking of fragmented partitioned
  stores through a placement policy (``repro compact``).

The buffer-pool statistics reproduce the paper's access-pattern story
measurably: writing subarrays during conversion faults once per page
(sequential), while backward traversals during mining fault per hop when
the pool is small (random) — unless the partitioned reader's read-ahead
turns the partition scan back into sequential I/O.
"""

from repro.storage.bufferpool import BufferPool, BufferPoolStats, Prefetcher
from repro.storage.cfp_store import (
    PartitionInfo,
    load_cfp_array,
    load_cfp_tree,
    load_cfp_tree_checkpoint,
    plan_partitions,
    save_cfp_array,
    save_cfp_array_partitioned,
    save_cfp_tree,
)
from repro.storage.compaction import CompactionReport, compact_store
from repro.storage.pagefile import PAGE_SIZE, PageFile
from repro.storage.partitioned import DiskCfpArray, PartitionedCfpArray
from repro.storage.placement import (
    AppendPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    get_placement,
)

__all__ = [
    "PageFile",
    "PAGE_SIZE",
    "BufferPool",
    "BufferPoolStats",
    "Prefetcher",
    "save_cfp_array",
    "save_cfp_array_partitioned",
    "load_cfp_array",
    "plan_partitions",
    "PartitionInfo",
    "DiskCfpArray",
    "PartitionedCfpArray",
    "PlacementPolicy",
    "AppendPlacement",
    "RoundRobinPlacement",
    "get_placement",
    "compact_store",
    "CompactionReport",
    "save_cfp_tree",
    "load_cfp_tree",
    "load_cfp_tree_checkpoint",
]
