"""The published surface, pinned: ``to_dict()`` and metric families.

Three fixed reports cover every flat ``ExecutionReport`` field at a
non-default value. ``GOLDEN`` was generated at the commit *before* the
report's ``to_dict`` / metric families were derived from field metadata
(run this file as a script to regenerate it), so the derivation is held
to the hand-written surface: same keys, same values, same family
names, kinds, help strings and label sets.
"""

import dataclasses
import json

import numpy as np

from repro.cluster.stats import TimeBreakdown
from repro.core.config import HarmonyConfig
from repro.core.pruning import PruningStats
from repro.core.results import DegradedReport, ExecutionReport, FaultStats
from repro.obs.metrics import report_metrics


def _sim_fp32() -> ExecutionReport:
    pruning = PruningStats(4)
    for position, pruned in enumerate((0, 250, 600, 900)):
        pruning.record(position, pruned, 1000)
    return ExecutionReport(
        n_queries=4,
        k=10,
        nprobe=8,
        simulated_seconds=0.002,
        breakdown=TimeBreakdown(0.004, 0.001, 0.0005),
        worker_loads=np.array([0.001, 0.002, 0.0005, 0.0005]),
        pruning=pruning,
        peak_memory_bytes=123456,
        mean_peak_memory_bytes=100000.5,
        plan_summary="hybrid plan: 2 vector shard(s) x 2 dimension "
        "block(s) on 4 machine(s)",
        latencies=np.array([0.0005, 0.001, 0.0015, 0.002]),
        rerank_candidates=0,
    )


def _process_sq8() -> ExecutionReport:
    return ExecutionReport(
        n_queries=3,
        k=5,
        nprobe=4,
        simulated_seconds=0.25,
        breakdown=TimeBreakdown(computation=0.25),
        worker_loads=np.zeros(4),
        pruning=None,
        peak_memory_bytes=0,
        plan_summary="dimension plan: 1 vector shard(s) x 4 dimension "
        "block(s) on 4 machine(s) [process backend, host wall-clock]",
        fault_stats=FaultStats(
            skipped_scans=2,
            abandoned_scans=1,
            worker_respawns=1,
            tasks_requeued=3,
        ),
        degraded=DegradedReport(
            coverage=np.array([1.0, 0.5, 0.75]),
            n_degraded_queries=2,
            skipped_scans=2,
            abandoned_scans=1,
            recall_vs_healthy=0.8,
        ),
        layout_bytes=4096,
        rerank_candidates=77,
        code_bytes=1024,
        routing_cache_hits=5,
        routing_cache_misses=2,
        routing_cache_evictions=1,
        layout_generation=3,
        delta_rows=12,
        tombstones_pending=4,
        layout_builds=1,
        layout_refreshes=2,
        layout_compactions=1,
    )


def _served_cached() -> ExecutionReport:
    return ExecutionReport(
        n_queries=8,
        k=10,
        nprobe=16,
        simulated_seconds=0.5,
        breakdown=TimeBreakdown(computation=0.5),
        worker_loads=np.zeros(2),
        pruning=None,
        peak_memory_bytes=0,
        plan_summary="vector plan [thread backend, host wall-clock]",
        latencies=np.array([0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.5]),
        layout_bytes=2048,
        routing_cache_hits=9,
        result_cache_hits=6,
        result_cache_misses=2,
        result_cache_evictions=3,
        result_cache_invalidations=4,
        result_cache_bytes=8192,
        queue_seconds=0.125,
        layout_generation=1,
    )


REPORTS = {
    "sim_fp32": _sim_fp32,
    "process_sq8": _process_sq8,
    "served_cached": _served_cached,
}


def _surface(report: ExecutionReport) -> dict:
    """``to_dict()`` plus ``{family: [type, help, label sets, values]}``."""
    families = {}
    for name, family in report_metrics(report).to_dict().items():
        series = family["series"]
        families[name] = [
            family["type"],
            family["help"],
            [sorted(s["labels"].items()) for s in series],
            [
                s["value"]
                if "value" in s
                else [s["count"], s["sum"], [b["count"] for b in s["buckets"]]]
                for s in series
            ],
        ]
    # Through JSON so tuples and lists compare alike on both sides.
    return json.loads(
        json.dumps(
            {"to_dict": report.to_dict(), "metrics": families},
            allow_nan=False,
        )
    )


GOLDEN = {}
# fmt: off  (generated; see the module docstring)
GOLDEN['sim_fp32'] = {'to_dict': {'n_queries': 4,
             'k': 10,
             'nprobe': 8,
             'simulated_seconds': 0.002,
             'qps': 2000.0,
             'plan': 'hybrid plan: 2 vector shard(s) x 2 dimension block(s) '
                     'on 4 machine(s)',
             'breakdown': {'computation': 0.004,
                           'communication': 0.001,
                           'other': 0.0005},
             'worker_loads': [0.001, 0.002, 0.0005, 0.0005],
             'load_imbalance': 0.0006123724356957945,
             'normalized_imbalance': 0.6123724356957945,
             'peak_memory_bytes': 123456,
             'mean_peak_memory_bytes': 100000.5,
             'layout_bytes': 0,
             'rerank_candidates': 0,
             'code_bytes': 0,
             'routing_cache_hits': 0,
             'routing_cache_misses': 0,
             'routing_cache_evictions': 0,
             'result_cache_hits': 0,
             'result_cache_misses': 0,
             'result_cache_evictions': 0,
             'result_cache_invalidations': 0,
             'result_cache_bytes': 0,
             'queue_seconds': 0.0,
             'layout_generation': 0,
             'delta_rows': 0,
             'tombstones_pending': 0,
             'layout_builds': 0,
             'layout_refreshes': 0,
             'layout_compactions': 0,
             'latency': {'mean': 0.00125,
                         'p50': 0.00125,
                         'p95': 0.0019249999999999998,
                         'p99': 0.001985},
             'pruning_ratios': [0.0, 0.25, 0.6, 0.9]},
 'metrics': {'harmony_code_bytes': ['gauge',
                                    'Resident bytes of the packed SQ8 code '
                                    'blocks (0 on fp32)',
                                    [[]], [0.0]],
             'harmony_delta_rows': ['gauge',
                                    "Mutation rows pending in the layout's "
                                    'delta segments',
                                    [[]], [0.0]],
             'harmony_layout_bytes': ['gauge',
                                      'Resident bytes of the packed/shared '
                                      'shard layout scanned',
                                      [[]], [0.0]],
             'harmony_layout_generation': ['gauge',
                                           'Base-generation counter of the '
                                           'scanned packed layout',
                                           [[]], [0.0]],
             'harmony_load_imbalance': ['gauge',
                                        'Std dev of worker loads (I(pi))',
                                        [[]], [0.0006123724356957945]],
             'harmony_pruning_ratio': ['gauge',
                                       'Fraction already pruned entering each '
                                       'slice position',
                                       [[['position', '0']],
                                        [['position', '1']],
                                        [['position', '2']],
                                        [['position', '3']]],
                                       [0.0, 0.25, 0.6, 0.9]],
             'harmony_qps': ['gauge', 'Simulated queries per second', [[]],
                             [2000.0]],
             'harmony_queries_total': ['counter', 'Queries served', [[]],
                                       [4.0]],
             'harmony_query_latency_seconds': ['histogram',
                                               'Per-query simulated latency '
                                               '(dispatch to final merge)',
                                               [[]],
                                               [[4, 0.005,
                                                 [0, 0, 0, 0, 0, 1, 2, 4, 4, 4,
                                                  4, 4, 4]]]],
             'harmony_result_cache_bytes': ['gauge',
                                            'Resident bytes of the result '
                                            'cache (queries + cached answers)',
                                            [[]], [0.0]],
             'harmony_scan_candidates_total': ['counter',
                                               'Candidates entering the '
                                               'dimension pipeline',
                                               [[]], [1000.0]],
             'harmony_simulated_seconds': ['gauge',
                                           'Batch makespan (simulated)', [[]],
                                           [0.002]],
             'harmony_time_seconds': ['gauge',
                                      'Summed per-node seconds by paper '
                                      'category',
                                      [[['category', 'communication']],
                                       [['category', 'computation']],
                                       [['category', 'other']]],
                                      [0.001, 0.004, 0.0005]],
             'harmony_tombstones_pending': ['gauge',
                                            'Removals tombstoned since the '
                                            'base generation was built',
                                            [[]], [0.0]],
             'harmony_worker_busy_fraction': ['gauge',
                                              'Worker computation busy '
                                              'fraction of the makespan',
                                              [[['worker', '0']],
                                               [['worker', '1']],
                                               [['worker', '2']],
                                               [['worker', '3']]],
                                              [0.5, 1.0, 0.25, 0.25]],
             'harmony_worker_load_seconds': ['gauge',
                                             'Computation seconds per worker '
                                             '(Load(n, pi))',
                                             [[['worker', '0']],
                                              [['worker', '1']],
                                              [['worker', '2']],
                                              [['worker', '3']]],
                                             [0.001, 0.002, 0.0005, 0.0005]]}}
GOLDEN['process_sq8'] = {'to_dict': {'n_queries': 3,
             'k': 5,
             'nprobe': 4,
             'simulated_seconds': 0.25,
             'qps': 12.0,
             'plan': 'dimension plan: 1 vector shard(s) x 4 dimension '
                     'block(s) on 4 machine(s) [process backend, host '
                     'wall-clock]',
             'breakdown': {'computation': 0.25,
                           'communication': 0.0,
                           'other': 0.0},
             'worker_loads': [0.0, 0.0, 0.0, 0.0],
             'load_imbalance': 0.0,
             'normalized_imbalance': 0.0,
             'peak_memory_bytes': 0,
             'mean_peak_memory_bytes': 0.0,
             'layout_bytes': 4096,
             'rerank_candidates': 77,
             'code_bytes': 1024,
             'routing_cache_hits': 5,
             'routing_cache_misses': 2,
             'routing_cache_evictions': 1,
             'result_cache_hits': 0,
             'result_cache_misses': 0,
             'result_cache_evictions': 0,
             'result_cache_invalidations': 0,
             'result_cache_bytes': 0,
             'queue_seconds': 0.0,
             'layout_generation': 3,
             'delta_rows': 12,
             'tombstones_pending': 4,
             'layout_builds': 1,
             'layout_refreshes': 2,
             'layout_compactions': 1,
             'fault_stats': {'skipped_scans': 2,
                             'abandoned_scans': 1,
                             'worker_respawns': 1,
                             'tasks_requeued': 3},
             'degraded': {'mean_coverage': 0.75,
                          'min_coverage': 0.5,
                          'n_degraded_queries': 2,
                          'skipped_scans': 2,
                          'abandoned_scans': 1,
                          'recall_vs_healthy': 0.8,
                          'recall_delta': 0.19999999999999996}},
 'metrics': {'harmony_abandoned_scans_total': ['counter',
                                               'Fault handling: '
                                               'abandoned_scans',
                                               [[]], [1.0]],
             'harmony_code_bytes': ['gauge',
                                    'Resident bytes of the packed SQ8 code '
                                    'blocks (0 on fp32)',
                                    [[]], [1024.0]],
             'harmony_compactions_total': ['counter',
                                           'Delta-merge compactions into a '
                                           'fresh base generation',
                                           [[]], [1.0]],
             'harmony_delta_rows': ['gauge',
                                    "Mutation rows pending in the layout's "
                                    'delta segments',
                                    [[]], [12.0]],
             'harmony_layout_bytes': ['gauge',
                                      'Resident bytes of the packed/shared '
                                      'shard layout scanned',
                                      [[]], [4096.0]],
             'harmony_layout_generation': ['gauge',
                                           'Base-generation counter of the '
                                           'scanned packed layout',
                                           [[]], [3.0]],
             'harmony_layout_refreshes_total': ['counter',
                                                'In-place delta refreshes of '
                                                'the packed layout',
                                                [[]], [2.0]],
             'harmony_load_imbalance': ['gauge',
                                        'Std dev of worker loads (I(pi))',
                                        [[]], [0.0]],
             'harmony_mean_coverage': ['gauge', 'Mean degraded-mode coverage',
                                       [[]], [0.75]],
             'harmony_qps': ['gauge', 'Simulated queries per second', [[]],
                             [12.0]],
             'harmony_queries_total': ['counter', 'Queries served', [[]],
                                       [3.0]],
             'harmony_recall_vs_healthy': ['gauge',
                                           'Recall of degraded answers vs a '
                                           'healthy rerun',
                                           [[]], [0.8]],
             'harmony_rerank_candidates_total': ['counter',
                                                 'Survivors re-ranked against '
                                                 'fp32 rows (sq8 scan path)',
                                                 [[]], [77.0]],
             'harmony_result_cache_bytes': ['gauge',
                                            'Resident bytes of the result '
                                            'cache (queries + cached answers)',
                                            [[]], [0.0]],
             'harmony_routing_cache_evictions_total': ['counter',
                                                       'Routing-cache entries '
                                                       'evicted under '
                                                       'capacity pressure',
                                                       [[]], [1.0]],
             'harmony_routing_cache_hits_total': ['counter',
                                                  'Probe-cell routing lookups '
                                                  'served from the memoized '
                                                  'cache',
                                                  [[]], [5.0]],
             'harmony_routing_cache_misses_total': ['counter',
                                                    'Probe-cell routing '
                                                    'lookups that recomputed '
                                                    'touched shards',
                                                    [[]], [2.0]],
             'harmony_simulated_seconds': ['gauge',
                                           'Batch makespan (simulated)', [[]],
                                           [0.25]],
             'harmony_skipped_scans_total': ['counter',
                                             'Fault handling: skipped_scans',
                                             [[]], [2.0]],
             'harmony_tasks_requeued_total': ['counter',
                                              'Fault handling: tasks_requeued',
                                              [[]], [3.0]],
             'harmony_time_seconds': ['gauge',
                                      'Summed per-node seconds by paper '
                                      'category',
                                      [[['category', 'communication']],
                                       [['category', 'computation']],
                                       [['category', 'other']]],
                                      [0.0, 0.25, 0.0]],
             'harmony_tombstones_pending': ['gauge',
                                            'Removals tombstoned since the '
                                            'base generation was built',
                                            [[]], [4.0]],
             'harmony_worker_busy_fraction': ['gauge',
                                              'Worker computation busy '
                                              'fraction of the makespan',
                                              [[['worker', '0']],
                                               [['worker', '1']],
                                               [['worker', '2']],
                                               [['worker', '3']]],
                                              [0.0, 0.0, 0.0, 0.0]],
             'harmony_worker_load_seconds': ['gauge',
                                             'Computation seconds per worker '
                                             '(Load(n, pi))',
                                             [[['worker', '0']],
                                              [['worker', '1']],
                                              [['worker', '2']],
                                              [['worker', '3']]],
                                             [0.0, 0.0, 0.0, 0.0]],
             'harmony_worker_respawns_total': ['counter',
                                               'Fault handling: '
                                               'worker_respawns',
                                               [[]], [1.0]]}}
GOLDEN['served_cached'] = {'to_dict': {'n_queries': 8,
             'k': 10,
             'nprobe': 16,
             'simulated_seconds': 0.5,
             'qps': 16.0,
             'plan': 'vector plan [thread backend, host wall-clock]',
             'breakdown': {'computation': 0.5,
                           'communication': 0.0,
                           'other': 0.0},
             'worker_loads': [0.0, 0.0],
             'load_imbalance': 0.0,
             'normalized_imbalance': 0.0,
             'peak_memory_bytes': 0,
             'mean_peak_memory_bytes': 0.0,
             'layout_bytes': 2048,
             'rerank_candidates': 0,
             'code_bytes': 0,
             'routing_cache_hits': 9,
             'routing_cache_misses': 0,
             'routing_cache_evictions': 0,
             'result_cache_hits': 6,
             'result_cache_misses': 2,
             'result_cache_evictions': 3,
             'result_cache_invalidations': 4,
             'result_cache_bytes': 8192,
             'queue_seconds': 0.125,
             'layout_generation': 1,
             'delta_rows': 0,
             'tombstones_pending': 0,
             'layout_builds': 0,
             'layout_refreshes': 0,
             'layout_compactions': 0,
             'latency': {'mean': 0.0975,
                         'p50': 0.045,
                         'p95': 0.3494999999999998,
                         'p99': 0.4698999999999999}},
 'metrics': {'harmony_code_bytes': ['gauge',
                                    'Resident bytes of the packed SQ8 code '
                                    'blocks (0 on fp32)',
                                    [[]], [0.0]],
             'harmony_delta_rows': ['gauge',
                                    "Mutation rows pending in the layout's "
                                    'delta segments',
                                    [[]], [0.0]],
             'harmony_layout_bytes': ['gauge',
                                      'Resident bytes of the packed/shared '
                                      'shard layout scanned',
                                      [[]], [2048.0]],
             'harmony_layout_generation': ['gauge',
                                           'Base-generation counter of the '
                                           'scanned packed layout',
                                           [[]], [1.0]],
             'harmony_load_imbalance': ['gauge',
                                        'Std dev of worker loads (I(pi))',
                                        [[]], [0.0]],
             'harmony_qps': ['gauge', 'Simulated queries per second', [[]],
                             [16.0]],
             'harmony_queries_total': ['counter', 'Queries served', [[]],
                                       [8.0]],
             'harmony_query_latency_seconds': ['histogram',
                                               'Per-query simulated latency '
                                               '(dispatch to final merge)',
                                               [[]],
                                               [[8, 0.78,
                                                 [0, 0, 0, 0, 0, 0, 0, 0, 1, 5,
                                                  7, 8, 8]]]],
             'harmony_queue_wait_seconds_total': ['counter',
                                                  'Serving-layer coalescing '
                                                  'queue wait, summed over '
                                                  'requests',
                                                  [[]], [0.125]],
             'harmony_result_cache_bytes': ['gauge',
                                            'Resident bytes of the result '
                                            'cache (queries + cached answers)',
                                            [[]], [8192.0]],
             'harmony_result_cache_evictions_total': ['counter',
                                                      'Result-cache entries '
                                                      'evicted under capacity '
                                                      'pressure',
                                                      [[]], [3.0]],
             'harmony_result_cache_hits_total': ['counter',
                                                 'Queries answered from the '
                                                 'result cache',
                                                 [[]], [6.0]],
             'harmony_result_cache_invalidations_total': ['counter',
                                                          'Result-cache '
                                                          'entries dropped by '
                                                          'index/layout '
                                                          'generation moves',
                                                          [[]], [4.0]],
             'harmony_result_cache_misses_total': ['counter',
                                                   'Queries that missed the '
                                                   'result cache and were '
                                                   'scanned',
                                                   [[]], [2.0]],
             'harmony_routing_cache_hits_total': ['counter',
                                                  'Probe-cell routing lookups '
                                                  'served from the memoized '
                                                  'cache',
                                                  [[]], [9.0]],
             'harmony_simulated_seconds': ['gauge',
                                           'Batch makespan (simulated)', [[]],
                                           [0.5]],
             'harmony_time_seconds': ['gauge',
                                      'Summed per-node seconds by paper '
                                      'category',
                                      [[['category', 'communication']],
                                       [['category', 'computation']],
                                       [['category', 'other']]],
                                      [0.0, 0.5, 0.0]],
             'harmony_tombstones_pending': ['gauge',
                                            'Removals tombstoned since the '
                                            'base generation was built',
                                            [[]], [0.0]],
             'harmony_worker_busy_fraction': ['gauge',
                                              'Worker computation busy '
                                              'fraction of the makespan',
                                              [[['worker', '0']],
                                               [['worker', '1']]],
                                              [0.0, 0.0]],
             'harmony_worker_load_seconds': ['gauge',
                                             'Computation seconds per worker '
                                             '(Load(n, pi))',
                                             [[['worker', '0']],
                                              [['worker', '1']]],
                                             [0.0, 0.0]]}}
# fmt: on


def test_reports_cover_every_flat_field_at_a_non_default_value():
    # ``worker_steals`` is always None: kept only for the perf ledger.
    for field in dataclasses.fields(ExecutionReport):
        if field.default is dataclasses.MISSING or field.name in (
            "trace", "worker_steals"
        ):
            continue
        assert any(
            getattr(make(), field.name) != field.default
            for make in REPORTS.values()
        ), field.name


def test_to_dict_and_metric_families_equal_the_golden_surface():
    for name, make in REPORTS.items():
        got, want = _surface(make()), GOLDEN[name]
        assert got["to_dict"] == want["to_dict"], name
        assert got["metrics"] == want["metrics"], name


#: Numeric report fields that deliberately have no metric family. A new
#: counter either declares its family on the field or is listed here.
UNPUBLISHED = (
    "k", "nprobe", "peak_memory_bytes", "mean_peak_memory_bytes",
    "layout_builds",
)


def test_every_numeric_field_is_published_or_listed_unpublished():
    from repro.core.results import REPORT_FAMILIES

    published = {row[0] for row in REPORT_FAMILIES}
    numeric = {
        f.name
        for f in dataclasses.fields(ExecutionReport)
        if f.type in ("int", "float")
    }
    assert published <= numeric
    assert published.isdisjoint(UNPUBLISHED)
    assert published | set(UNPUBLISHED) == numeric
    families = [row[2] for row in REPORT_FAMILIES]
    assert len(families) == len(set(families))


def test_saved_config_json_has_exactly_the_config_fields(tmp_path):
    from repro.core.database import HarmonyDB
    from repro.data.synthetic import gaussian_blobs

    data = gaussian_blobs(200, 16, n_blobs=4, cluster_std=0.4, seed=3)
    db = HarmonyDB(dim=16, config=HarmonyConfig(n_machines=2, nlist=8))
    db.build(data)
    path = tmp_path / "db.npz"
    db.save(path)
    with np.load(path, allow_pickle=False) as saved:
        keys = set(json.loads(str(saved["config"])))
    assert keys == {f.name for f in dataclasses.fields(HarmonyConfig)}


if __name__ == "__main__":  # regenerate GOLDEN (run at the pinned commit)
    import pprint

    for name, make in REPORTS.items():
        print(f"GOLDEN[{name!r}] = ", end="")
        pprint.pprint(_surface(make()), width=79, compact=True, sort_dicts=False)
