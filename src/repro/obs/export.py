"""Trace and metrics exporters plus format validators.

:func:`chrome_trace` turns recorded spans into the Chrome
``trace_event`` JSON format (the ``traceEvents`` array of matched
``B``/``E`` duration events plus ``M`` metadata naming one lane per
simulated node), which loads directly in ``about:tracing`` and
https://ui.perfetto.dev.

:func:`validate_chrome_trace` / :func:`validate_prometheus` are the
structural checks behind the ``trace-smoke`` CI job: timestamps
non-decreasing, every ``B`` matched by an ``E`` on the same lane with
stack discipline, every Prometheus line parseable.
"""

from __future__ import annotations

import json

from repro.obs.trace import Span

#: Everything shares one trace "process"; lanes are threads.
TRACE_PID = 1

#: Seconds → trace_event microseconds.
TIME_SCALE = 1e6


def lane_name(node: int) -> str:
    """Human name for a span lane (simulated node or host thread)."""
    if node == -1:
        return "client"
    if node == -2:
        return "client (merge)"
    if node >= 1000:
        return f"host thread {node - 1000}"
    return f"worker {node}"


def _lane_order(node: int) -> tuple:
    # Client lanes first, then workers ascending, then host threads.
    return (0 if node < 0 else 1, node if node >= 0 else -node)


def chrome_trace(spans, process_name: str = "harmony") -> dict:
    """Build a Chrome ``trace_event`` JSON object from spans.

    Args:
        spans: iterable of :class:`~repro.obs.trace.Span`.
        process_name: display name of the single trace process.

    Returns:
        A dict with a ``traceEvents`` list, ready for ``json.dump``.
        Events are sorted by timestamp with ``E`` before ``B`` at ties,
        so zero-length gaps between adjacent spans stay well nested.
    """
    # Zero-length spans carry no visual information and would emit a
    # B/E pair whose E sorts before its own B at the shared timestamp.
    spans = [span for span in spans if span.end > span.start]
    nodes = sorted({span.node for span in spans}, key=_lane_order)
    tid_of = {node: i for i, node in enumerate(nodes)}
    events: list[dict] = [
        {
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for node in nodes:
        events.append(
            {
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid_of[node],
                "name": "thread_name",
                "args": {"name": lane_name(node)},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid_of[node],
                "name": "thread_sort_index",
                "args": {"sort_index": _lane_order(node)[1] * 2 + (
                    0 if node < 0 else 1
                )},
            }
        )
    duration: list[dict] = []
    for span in spans:
        tid = tid_of[span.node]
        begin = {
            "ph": "B",
            "pid": TRACE_PID,
            "tid": tid,
            "ts": span.start * TIME_SCALE,
            "name": span.name,
            "cat": span.category,
        }
        args = span.args_dict()
        if args:
            begin["args"] = args
        duration.append(begin)
        duration.append(
            {
                "ph": "E",
                "pid": TRACE_PID,
                "tid": tid,
                "ts": span.end * TIME_SCALE,
            }
        )
    # Stable sort; E sorts before B at equal timestamps so back-to-back
    # spans on one lane close before the next opens.
    duration.sort(key=lambda e: (e["ts"], e["ph"] == "B"))
    events.extend(duration)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans) -> dict:
    """Serialize :func:`chrome_trace` output to ``path``; returns it."""
    obj = chrome_trace(spans)
    with open(path, "w") as f:
        json.dump(obj, f, allow_nan=False)
    return obj


def validate_chrome_trace(obj) -> dict:
    """Structurally validate a ``trace_event`` JSON object.

    Checks the invariants Perfetto / ``about:tracing`` rely on:

    - top level is a dict with a ``traceEvents`` list;
    - every event has integer ``pid`` / ``tid``, a known phase, and
      (for ``B`` / ``E`` / ``i``) a finite, non-negative ``ts``;
    - timestamps are non-decreasing in file order;
    - per (pid, tid) lane, ``B`` and ``E`` match with LIFO stack
      discipline and no lane ends mid-span.

    Returns summary counts; raises ``ValueError`` on any violation.
    """
    if not isinstance(obj, dict) or not isinstance(
        obj.get("traceEvents"), list
    ):
        raise ValueError("trace must be a dict with a 'traceEvents' list")
    open_stacks: dict[tuple, list[str]] = {}
    last_ts: float | None = None
    counts = {"B": 0, "E": 0, "i": 0, "M": 0}
    for position, event in enumerate(obj["traceEvents"]):
        if not isinstance(event, dict):
            raise ValueError(f"event {position} is not an object")
        phase = event.get("ph")
        if phase not in ("B", "E", "i", "M"):
            raise ValueError(
                f"event {position}: unsupported phase {phase!r}"
            )
        if not isinstance(event.get("pid"), int) or not isinstance(
            event.get("tid"), int
        ):
            raise ValueError(f"event {position}: pid/tid must be integers")
        counts[phase] += 1
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts != ts or ts < 0:
            raise ValueError(
                f"event {position}: ts must be a finite number >= 0"
            )
        if last_ts is not None and ts < last_ts:
            raise ValueError(
                f"event {position}: ts {ts} < previous {last_ts} "
                "(events must be time-ordered)"
            )
        last_ts = float(ts)
        lane = (event["pid"], event["tid"])
        stack = open_stacks.setdefault(lane, [])
        if phase == "B":
            if not isinstance(event.get("name"), str) or not event["name"]:
                raise ValueError(f"event {position}: B events need a name")
            stack.append(event["name"])
        elif phase == "E":
            if not stack:
                raise ValueError(
                    f"event {position}: E with no open B on lane {lane}"
                )
            stack.pop()
    for lane, stack in open_stacks.items():
        if stack:
            raise ValueError(
                f"lane {lane} ends with {len(stack)} unclosed span(s): "
                f"{stack[-1]!r}"
            )
    if counts["B"] != counts["E"]:
        raise ValueError(
            f"unmatched B/E pairs: {counts['B']} B vs {counts['E']} E"
        )
    return counts


def validate_prometheus(text: str) -> dict:
    """Parse a Prometheus text exposition; raise ``ValueError`` if bad.

    A minimal parser covering what :meth:`MetricsRegistry.to_prometheus`
    emits (HELP / TYPE comments, labelled samples, histogram series).
    Returns ``{family: n_samples}``.
    """
    import re

    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
        r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
        r" ([0-9eE.+-]+|\+Inf|-Inf|NaN)$"
    )
    typed: dict[str, str] = {}
    samples: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE comment")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = sample_re.match(line)
        if match is None:
            raise ValueError(
                f"line {lineno}: unparseable sample {line!r}"
            )
        name = match.group(1)
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        family = family if family in typed else name
        samples[family] = samples.get(family, 0) + 1
    for family in typed:
        if samples.get(family, 0) == 0:
            raise ValueError(f"family {family!r} declared but has no samples")
    return samples
