"""Process-wide artifact-store telemetry.

:func:`store_stats` is the JSON-safe snapshot of every live
:class:`~repro.store.registry.FingerprintRegistry`; :func:`diff_store_stats`
turns two snapshots into per-run deltas, which is how
``BatchReport.store_stats`` and ``FleetReport.store`` report what one
batch actually did rather than process-lifetime totals.
"""

from __future__ import annotations

from typing import Dict

from .registry import all_registries

__all__ = [
    "diff_store_stats",
    "flatten_store_events",
    "store_stats",
]

#: Snapshot keys that are gauges (current values), not monotonic
#: counters — a diff reports the *after* value for these.  ``size`` and
#: ``capacity`` come from registries, the rest from disk-tier stats.
_GAUGE_KEYS = {"size", "capacity", "bytes", "shards", "max_bytes"}


def store_stats() -> Dict[str, object]:
    """Process-wide JSON-safe snapshot of every registry's counters."""
    return {
        "registries": {
            name: registry.stats() for name, registry in all_registries().items()
        },
    }


def flatten_store_events(before: Dict, after: Dict) -> Dict[str, int]:
    """Compact counter deltas between two :func:`store_stats` snapshots.

    This is the per-job event record workers stamp into result metrics
    (``store_events``) so the batch engine can see registry activity
    that happened in pool processes.  Registries are summed; zero-valued
    counters are dropped to keep envelopes small.
    """
    delta = diff_store_stats(before, after)
    events = {"registry_hits": 0, "registry_misses": 0, "registry_evictions": 0}
    for stats in delta.get("registries", {}).values():
        events["registry_hits"] += int(stats.get("hits", 0))
        events["registry_misses"] += int(stats.get("misses", 0))
        events["registry_evictions"] += int(stats.get("evictions", 0))
    return {k: v for k, v in events.items() if v}


def diff_store_stats(before: Dict, after: Dict) -> Dict[str, object]:
    """Delta between two :func:`store_stats` snapshots.

    Counters are diffed (clamped at zero, so a registry clear mid-run
    can't go negative); gauge keys report the *after* value; snapshot
    sections present only in ``after`` diff against zero.
    """
    out: Dict[str, object] = {}
    for key, after_value in after.items():
        before_value = before.get(key)
        if isinstance(after_value, dict):
            out[key] = diff_store_stats(
                before_value if isinstance(before_value, dict) else {}, after_value
            )
        elif isinstance(after_value, bool) or not isinstance(
            after_value, (int, float)
        ):
            out[key] = after_value
        elif key in _GAUGE_KEYS:
            out[key] = after_value
        else:
            prior = before_value if isinstance(before_value, (int, float)) else 0
            out[key] = max(0, after_value - prior)
    return out
