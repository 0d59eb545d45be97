"""Cluster-wide stats: merge per-shard STATS snapshots into one view.

Each shard's snapshot is exactly the payload ``python -m repro.serve
stats --json`` prints.  Counters and gauges add; histograms merge
through their sparse bucket counts
(:func:`repro.obs.merge_histogram_summaries`), so the
cluster-wide p50/p95/p99 are re-estimated from the summed distribution
rather than averaged — an average of percentiles is not a percentile.
Shards that could not be reached contribute an entry under
``shards_down`` instead of silently vanishing from the denominator.
"""

from __future__ import annotations

from typing import Dict

from repro.obs import merge_histogram_summaries


def merge_snapshots(snapshots: Dict[str, dict]) -> dict:
    """Merge ``{shard_name: snapshot_or_error}`` into one cluster view."""
    merged = {
        "shards": sorted(snapshots),
        "shards_down": sorted(
            name for name, snap in snapshots.items() if "error" in snap
        ),
        "counters": {},
        "gauges": {},
        "histograms": {},
        "per_shard": {},
    }
    live = {name: snap for name, snap in snapshots.items()
            if "error" not in snap}
    for name, snap in sorted(live.items()):
        for counter, value in snap.get("counters", {}).items():
            merged["counters"][counter] = (
                merged["counters"].get(counter, 0) + value
            )
        for gauge, value in snap.get("gauges", {}).items():
            if isinstance(value, (int, float)):
                merged["gauges"][gauge] = (
                    merged["gauges"].get(gauge, 0) + value
                )
        merged["per_shard"][name] = {
            "uptime_seconds": snap.get("uptime_seconds"),
            "cache_hit_rate": snap.get("cache_hit_rate"),
            "requests_total": snap.get("counters", {}).get("requests_total", 0),
            "degraded": bool(snap.get("health", {}).get("degraded")),
        }
    histogram_names = sorted({
        name for snap in live.values() for name in snap.get("histograms", {})
    })
    for histogram in histogram_names:
        merged["histograms"][histogram] = merge_histogram_summaries([
            snap.get("histograms", {}).get(histogram, {})
            for snap in live.values()
        ])
    hits = merged["counters"].get("cache_hits", 0)
    misses = merged["counters"].get("cache_misses", 0)
    if hits + misses:
        merged["cache_hit_rate"] = hits / (hits + misses)
    return merged


def render_cluster_snapshot(merged: dict) -> str:
    """Human-readable rendering for ``python -m repro.cluster stats``."""
    lines = [
        f"shards: {len(merged.get('shards', []))} "
        f"({', '.join(merged.get('shards', [])) or 'none'})"
    ]
    down = merged.get("shards_down")
    if down:
        lines.append(f"shards_down: {', '.join(down)}")
    if "cache_hit_rate" in merged:
        lines.append(f"cache_hit_rate: {merged['cache_hit_rate']:.3f}")
    for name, view in sorted(merged.get("per_shard", {}).items()):
        lines.append(
            f"  {name}: requests={view.get('requests_total', 0)} "
            f"degraded={str(view.get('degraded', False)).lower()}"
        )
    for name, value in sorted(merged.get("counters", {}).items()):
        lines.append(f"counter {name}: {value}")
    for name, summary in sorted(merged.get("histograms", {}).items()):
        if summary.get("count"):
            lines.append(
                f"histogram {name}: count={summary['count']} "
                f"mean={summary['mean']:.3f}ms p50={summary['p50']:.3f}ms "
                f"p95={summary['p95']:.3f}ms p99={summary['p99']:.3f}ms"
            )
    return "\n".join(lines)
