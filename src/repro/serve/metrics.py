"""Human-readable rendering of the daemon's ``STATS`` snapshot.

The metrics themselves (counters, gauges, histograms and the registry
whose snapshot the server ships) live in :mod:`repro.obs`;
``python -m repro.serve stats`` renders a snapshot with
:func:`render_snapshot`.
"""

from __future__ import annotations

from typing import List, Optional


def render_health(health: Optional[dict]) -> List[str]:
    """Render the server's health block (pool / breaker / faults / store)."""
    if not health:
        return []
    lines = [f"health: degraded={str(health.get('degraded', False)).lower()}"]
    pool = health.get("pool")
    if pool:
        lines.append(
            f"  pool: alive={pool.get('alive')}/{pool.get('size')} "
            f"restarts={pool.get('restarts')} hangs={pool.get('hangs')} "
            f"reaped={pool.get('reaped')} "
            f"respawn_storms={pool.get('respawn_storms', 0)}"
        )
    else:
        lines.append("  pool: none (inline mode)")
    breaker = health.get("breaker")
    if breaker:
        lines.append(
            f"  breaker: state={breaker.get('state')} "
            f"trips={breaker.get('trips')} "
            f"consecutive_failures={breaker.get('consecutive_failures')}"
        )
    lines.append(f"  inline_replays: {health.get('inline_replays', 0)}")
    faults = health.get("faultline") or {}
    if faults.get("installed"):
        fires = faults.get("fires") or {}
        lines.append(
            f"  faultline: installed seed={faults.get('seed')} "
            f"fired={sum(fires.values())}"
        )
        for point, count in sorted(fires.items()):
            lines.append(f"    {point}: {count}")
    else:
        lines.append("  faultline: not installed")
    store = health.get("store") or {}
    if store:
        lines.append("  store: " + " ".join(
            f"{key}={store.get(key, 0)}"
            for key in ("verified_trace_reads", "verified_result_reads",
                        "corrupt_detected", "quarantined")
        ))
    return lines


def render_snapshot(snap: dict) -> str:
    """Human-readable STATS rendering for the CLI."""
    lines = [f"uptime: {snap.get('uptime_seconds', 0.0):.1f}s"]
    if "cache_hit_rate" in snap:
        lines.append(f"cache_hit_rate: {snap['cache_hit_rate']:.3f}")
    for subsystem, stats in sorted(snap.get("subsystems", {}).items()):
        rendered = " ".join(f"{key}={value}" for key, value in sorted(stats.items()))
        lines.append(f"{subsystem}: {rendered}")
    lines.extend(render_health(snap.get("health")))
    for name, value in snap.get("counters", {}).items():
        lines.append(f"counter {name}: {value}")
    for name, value in snap.get("gauges", {}).items():
        lines.append(f"gauge {name}: {value}")
    for name, summary in snap.get("histograms", {}).items():
        if summary.get("count"):
            lines.append(
                f"histogram {name}: count={summary['count']} "
                f"mean={summary['mean']:.3f}ms p50={summary['p50']:.3f}ms "
                f"p95={summary['p95']:.3f}ms p99={summary['p99']:.3f}ms "
                f"max={summary['max']:.3f}ms"
            )
        else:
            lines.append(f"histogram {name}: count=0")
    return "\n".join(lines)
