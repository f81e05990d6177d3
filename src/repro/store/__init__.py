"""Content-addressed artifact store: one substrate for shared immutable data.

Before this package the repo grew parallel caching mechanisms, each
hand-rolled where it was first needed: bounded-LRU intern registries for
:class:`~repro.hardware.target.Target`,
:class:`~repro.hardware.coupling.CouplingGraph` and
:class:`~repro.sim.fastpath.CostDiagonal`, and a single-directory disk
:class:`~repro.service.cache.ResultCache`.

``repro.store`` replaces them with two tiers keyed by content
fingerprints:

* :class:`FingerprintRegistry` — the in-process tier: a generic bounded-LRU
  intern registry with hit/miss/eviction telemetry and configurable
  capacity (keyword or environment variable);
* :class:`ShardedDiskTier` — the durable tier: a fanout-sharded on-disk
  layout with atomic writes, corrupt-entry quarantine, size-bounded
  eviction, and per-shard hit/miss/eviction/quarantine telemetry
  (:class:`~repro.service.cache.ResultCache` is a thin facade over it).

Pool workers re-intern what they unpickle and rebuild derived tables
(distance matrices, cost diagonals) locally; no tier spans processes.

:func:`store_stats` aggregates every registry's counters into one JSON-safe
snapshot; the batch engine and fleet scheduler thread it through
``BatchReport``/``FleetReport`` and ``repro store`` exposes it on the CLI.
"""

from .artifact import diff_store_stats, flatten_store_events, store_stats
from .disk import DiskLookup, ShardStats, ShardedDiskTier, shard_for
from .registry import (
    FingerprintRegistry,
    all_registries,
    registry_capacity,
)

__all__ = [
    "DiskLookup",
    "FingerprintRegistry",
    "ShardStats",
    "ShardedDiskTier",
    "all_registries",
    "diff_store_stats",
    "flatten_store_events",
    "registry_capacity",
    "shard_for",
    "store_stats",
]
