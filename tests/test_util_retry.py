"""backoff_delay: the one exponential backoff."""

import pytest

from repro.util.retry import backoff_delay


def test_exponential_growth():
    assert backoff_delay(0, 0.1) == pytest.approx(0.1)
    assert backoff_delay(1, 0.1) == pytest.approx(0.2)
    assert backoff_delay(3, 0.1) == pytest.approx(0.8)


def test_zero_jitter_matches_pure_exponential():
    """Replayable: a delay is exactly ``base * 2**attempt``, every time."""
    delays = [backoff_delay(i, 2e-4) for i in range(3)]
    assert delays == [2e-4 * 2.0**i for i in range(3)]
    assert delays == [backoff_delay(i, 2e-4) for i in range(3)]


def test_policy_schedule_and_validation():
    with pytest.raises(ValueError, match="base"):
        backoff_delay(0, 0.0)
    with pytest.raises(ValueError, match="attempt"):
        backoff_delay(-1, 0.1)


def test_sim_pipeline_uses_shared_policy(tiny_data, tiny_queries):
    """The sim retry path charges exactly the policy's delays."""
    from tests.conftest import make_db

    db = make_db(
        tiny_data, tiny_queries, backend="sim",
        degraded_mode=True, replicas=2,
    )
    _, healthy = db.search(tiny_queries, k=5)
    from repro.cluster.faults import FaultEvent, FaultSchedule

    db.set_fault_schedule(
        FaultSchedule([FaultEvent(time=0.0, kind="crash", node=0)])
    )
    _, report = db.search(tiny_queries, k=5)
    stats = report.fault_stats
    assert stats is not None and (
        stats.retries > 0 or stats.failovers > 0 or stats.skipped_scans > 0
    )
