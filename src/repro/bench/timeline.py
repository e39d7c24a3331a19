"""ASCII utilization timelines from cluster traces.

Enable tracing, run a batch, and render what every node was doing over
simulated time::

    db.enable_tracing()
    db.search(queries, k=10)
    print(render_timeline(db.cluster))

Each row is one node; each column a time bucket shaded by the node's
busy fraction within it (`` .:-=#`` from idle to saturated). Invaluable
for seeing pipeline bubbles, stragglers, and dispatch bottlenecks.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import CLIENT_NODE, Cluster

#: Shade characters from idle to fully busy.
SHADES = " .:-=#"


def utilization_grid(
    cluster: Cluster, buckets: int = 60
) -> tuple[list[int], np.ndarray]:
    """Busy fraction per (node, time bucket) from the cluster's tracer.

    Rows are the client and every worker; spans on any other lane (the
    client's merge timeline, host threads, the cache lane) are skipped.

    Returns:
        ``(node_ids, grid)`` where ``grid[i, j]`` is node
        ``node_ids[i]``'s busy fraction in bucket ``j``.

    Raises:
        RuntimeError: when tracing was not enabled.
        ValueError: for a non-positive bucket count, or a trace whose
            ring buffer dropped spans (early buckets would under-shade).
    """
    if cluster.tracer is None:
        raise RuntimeError(
            "tracing is not enabled; call db.enable_tracing() first"
        )
    if buckets <= 0:
        raise ValueError(f"buckets must be positive, got {buckets}")
    trace = cluster.tracer.trace()
    if trace.n_dropped > 0:
        raise ValueError(
            f"the trace dropped {trace.n_dropped} spans; raise the "
            "tracer's capacity to render a complete timeline"
        )
    node_ids = [CLIENT_NODE] + [w.node_id for w in cluster.workers]
    index_of = {nid: i for i, nid in enumerate(node_ids)}
    spans = [span for span in trace.spans if span.node in index_of]
    grid = np.zeros((len(node_ids), buckets), dtype=np.float64)
    horizon = max((span.end for span in spans), default=0.0)
    if horizon <= 0:
        return node_ids, grid
    width = horizon / buckets
    for span in spans:
        row = index_of[span.node]
        first = int(span.start / width)
        last = min(int(span.end / width), buckets - 1)
        for b in range(first, last + 1):
            lo = max(span.start, b * width)
            hi = min(span.end, (b + 1) * width)
            grid[row, b] += max(0.0, hi - lo) / width
    np.clip(grid, 0.0, 1.0, out=grid)
    return node_ids, grid


def render_timeline(cluster: Cluster, buckets: int = 60) -> str:
    """Render the utilization grid as aligned ASCII rows."""
    node_ids, grid = utilization_grid(cluster, buckets)
    lines = []
    for node_id, row in zip(node_ids, grid):
        name = "client" if node_id == CLIENT_NODE else f"worker {node_id}"
        shades = "".join(
            SHADES[min(int(v * (len(SHADES) - 1) + 0.5), len(SHADES) - 1)]
            for v in row
        )
        busy = float(row.mean())
        lines.append(f"{name:>9} |{shades}| {busy:4.0%}")
    return "\n".join(lines)
