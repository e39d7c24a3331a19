"""The five ledger workloads: seeded inputs, the passes that drive the
program through its public API, and the checks on what comes back.

The program under test receives generated arrays and a
:class:`~repro.HarmonyConfig` — never the benchmark seed or the
workload's name.

Every pass is a run of *blocks*: a block is a fixed list of operations
(so the work counts repeat exactly for a seed), every block has the same
shape, and each timing is taken per block, scaled to the machine's
nominal pace (:class:`Pace`) and reported as the median over the
blocks. ``--seconds`` only picks how many blocks a pass has; the traced
pass replays the first quarter of them.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from repro import HarmonyConfig, HarmonyDB
from repro.data.datasets import load_dataset
from repro.serve.server import AdmissionError
from repro.workload.skew import zipf_query_stream

K = 10
DIM = 128
POPULATION_SEED = 20250
#: Threads / workers of the pools under test: never more than the box has.
POOL = max(1, min(os.cpu_count() or 1, 4))

#: Settings every workload shares (L2, planner-chosen grid). The config
#: seed is the program's own clustering seed and stays fixed; the
#: benchmark seed only shapes the arrays.
COMMON = dict(n_machines=4, nlist=128, nprobe=16, seed=0)

CONFIGS = {
    "batch_fp32": dict(backend="serial"),
    "batch_sq8": dict(backend="serial", scan_precision="sq8"),
    "batch_process": dict(backend="process", n_workers=POOL),
    "serve_zipf": dict(
        backend="thread", n_threads=POOL, enable_cache=True, cache_size=1024
    ),
    "mixed_rw": dict(
        backend="process", n_workers=POOL, auto_compact=True,
        delta_compact_ratio=0.25,
    ),
}
KINDS = {
    "batch_fp32": "batch", "batch_sq8": "batch", "batch_process": "batch",
    "serve_zipf": "serve", "mixed_rw": "mixed",
}

SERVE = dict(max_batch=32, slo_ms=50.0, shed_policy="reject")
#: Latency limit of serve_zipf: p99 <= LIMIT_MS, failed share <= 1 %,
#: and no standing backlog when a segment's last request is submitted.
LIMIT_MS = 100.0
LIMIT_FAILED_SHARE = 0.01
BACKLOG_LIMIT = 2 * SERVE["max_batch"]
#: Offered rates (requests/s); README.md has the calibration. Latency is
#: reported at the operating rung, throughput at the overload rung.
LADDER = (450.0, 580.0, 750.0, 975.0, 1600.0)
OPERATING_RUNG = 2
OVERLOAD_RUNG = len(LADDER) - 1   # the top of the ladder

#: ``--seconds`` the block counts below are sized for (``run_seconds``
#: in BENCHMARK.json).
REFERENCE_SECONDS = 8.0
SEARCHES_PER_ROUND = 3


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is what the ledger reports, ``SMOKE`` is
    the self-test's (same code paths, seconds instead of minutes)."""

    n_base: int
    recall_sample: int
    blocks: dict           # workload -> blocks per REFERENCE_SECONDS
    # batch_*: a block is one search of `batch` queries (Phase A), then
    # `singles` single-query searches (Phase B)
    batch: int
    singles: int
    # serve_zipf: a block walks the ladder once, rung r for rung_s[r] s
    zipf_pool: int
    warmup_requests: int
    rate_scale: float      # multiplies LADDER
    rung_s: tuple
    # mixed_rw: a block is `rounds` rounds of add, remove, 3 searches
    rounds: int
    add_rows: int
    remove_rows: int
    round_queries: int


FULL = Sizes(
    n_base=20_000, recall_sample=256,
    blocks=dict(batch_fp32=13, batch_sq8=10, batch_process=10,
                serve_zipf=4, mixed_rw=4),
    batch=256, singles=200,
    zipf_pool=20_480, warmup_requests=2_048, rate_scale=1.0,
    rung_s=(0.2, 0.2, 0.7, 0.25, 0.5),
    rounds=12, add_rows=320, remove_rows=160, round_queries=32,
)
SMOKE = Sizes(
    n_base=4_000, recall_sample=64,
    blocks=dict(batch_fp32=16, batch_sq8=16, batch_process=16,
                serve_zipf=16, mixed_rw=16),
    batch=32, singles=30,
    zipf_pool=1_536, warmup_requests=256, rate_scale=0.5,
    rung_s=(0.06, 0.06, 0.25, 0.06, 0.12),
    rounds=6, add_rows=128, remove_rows=64, round_queries=8,
)


def block_count(name: str, sizes: Sizes, seconds: float) -> int:
    """Blocks in the untraced pass; the traced pass runs a quarter."""
    return max(4, int(round(sizes.blocks[name] * seconds / REFERENCE_SECONDS)))


def rung_counts(sizes: Sizes) -> "list[int]":
    """Requests each rung sends within one block."""
    return [
        max(8, int(round(rate * sizes.rate_scale * seconds)))
        for rate, seconds in zip(LADDER, sizes.rung_s)
    ]


@dataclass
class Inputs:
    base: np.ndarray
    plan_sample: np.ndarray   # what build() sees as the workload sample
    warm: np.ndarray          # first-search / warm-up queries
    queries: np.ndarray       # [block, operation row, DIM]
    heldout: "np.ndarray | None" = None   # rows mixed_rw adds
    victims: "np.ndarray | None" = None   # ids mixed_rw removes
    arrival_seed: int = 0


def _perturbed(base: np.ndarray, n: int, rng) -> np.ndarray:
    """``n`` distinct queries: base rows plus small Gaussian noise."""
    picks = rng.choice(base.shape[0], size=n, replace=n > base.shape[0])
    noise = rng.normal(0.0, 0.05 * float(base.std()), size=(n, base.shape[1]))
    return (base[picks] + noise).astype(np.float32)


def make_inputs(kind: str, seed: int, sizes: Sizes, n_blocks: int) -> Inputs:
    """Everything a workload feeds the program, from ``seed`` alone.

    All seeds draw from one population (the sift1m analogue at a fixed
    generator seed); ``seed`` picks which rows form the base and which
    are held out, and shapes every query, arrival and removal. A
    population per seed would also move the cluster geometry, and with
    it the candidates a query scans, by about a tenth from seed to seed
    — wider than the regressions the ledger is meant to catch.
    """
    rng = np.random.default_rng(seed)
    n_rounds = n_blocks * sizes.rounds if kind == "mixed" else 0
    n_rows = sizes.n_base + n_rounds * sizes.add_rows
    population = load_dataset(
        "sift1m", size=n_rows + n_rows // 10, n_queries=1,
        seed=POPULATION_SEED,
    ).base
    rows = population[rng.permutation(population.shape[0])[:n_rows]]
    base = np.ascontiguousarray(rows[: sizes.n_base])
    plan_sample = _perturbed(base, 128, rng)
    warm = _perturbed(base, max(sizes.batch + 32, sizes.recall_sample), rng)
    arrival_seed = int(rng.integers(1 << 31))
    heldout = victims = None
    if kind == "batch":
        per_block = sizes.batch + sizes.singles
        queries = _perturbed(base, n_blocks * per_block, rng)
    elif kind == "serve":
        per_block = sum(rung_counts(sizes))
        pool = _perturbed(base, sizes.zipf_pool, rng)
        stream, _ = zipf_query_stream(
            pool, alpha=0.8, n=sizes.warmup_requests + n_blocks * per_block,
            seed=int(rng.integers(1 << 31)),
        )
        warm, queries = stream[: sizes.warmup_requests], stream[sizes.warmup_requests:]
    else:
        per_block = sizes.rounds * SEARCHES_PER_ROUND * sizes.round_queries
        heldout = np.ascontiguousarray(rows[sizes.n_base:])
        victims = rng.permutation(sizes.n_base)[
            : n_rounds * sizes.remove_rows
        ].astype(np.int64)
        queries = _perturbed(base, n_blocks * per_block, rng)
    return Inputs(
        base=base, plan_sample=plan_sample, warm=warm,
        queries=queries.reshape(n_blocks, per_block, DIM),
        heldout=heldout, victims=victims, arrival_seed=arrival_seed,
    )


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def make_config(name: str) -> HarmonyConfig:
    return HarmonyConfig(**COMMON, **CONFIGS[name])


def set_up(name: str, inputs: Inputs) -> "tuple[HarmonyDB, float]":
    """``HarmonyDB.build`` plus the first search (layout pack, pool
    spawn, shm publish), timed together; input generation excluded."""
    db = HarmonyDB(dim=DIM, config=make_config(name))
    start = time.perf_counter()
    db.build(inputs.base, sample_queries=inputs.plan_sample, k=K)
    db.search(inputs.plan_sample[:1], k=K)
    return db, time.perf_counter() - start


def make_oracle(db: HarmonyDB, inputs: Inputs) -> HarmonyDB:
    """Serial fp32 per-query deployment over the *same* index object.

    Shares the trained index (so it always sees the same live set, and
    no second k-means run is paid) but packs its own layout and runs
    the per-query loop, not the fused batch path. The grid is pinned to
    the deployment's, so both slice dimensions identically and the
    float64 partial sums — hence the distances — compare bit for bit.
    """
    config = db.config.replace(
        backend="serial", scan_precision="fp32", batch_queries=False,
        enable_cache=False,
        forced_grid=(db.plan.n_vector_shards, db.plan.n_dim_blocks),
    )
    oracle = HarmonyDB.from_trained_index(
        db.index, config=config, sample_queries=inputs.plan_sample, k=K
    )
    if oracle.plan.slices != db.plan.slices:
        raise RuntimeError(
            f"oracle slices {oracle.plan.slices} != deployment slices "
            f"{db.plan.slices}; distances would not compare bit for bit"
        )
    return oracle


# ----------------------------------------------------------------------
# What a pass hands back
# ----------------------------------------------------------------------


@dataclass
class ReportSums:
    """Counters the program publishes on each ``ExecutionReport``."""

    routing_hits: int = 0
    routing_misses: int = 0
    routing_evictions: int = 0
    layout_refreshes: int = 0
    layout_compactions: int = 0
    delta_rows_peak: int = 0
    steals: int = 0
    respawns: int = 0
    scan_ratio_peak: float = 0.0

    def add(self, report, live_rows: int = 0) -> None:
        self.routing_hits += report.routing_cache_hits
        self.routing_misses += report.routing_cache_misses
        self.routing_evictions += report.routing_cache_evictions
        self.layout_refreshes += report.layout_refreshes
        self.layout_compactions += report.layout_compactions
        self.delta_rows_peak = max(self.delta_rows_peak, report.delta_rows)
        if report.worker_steals:
            self.steals += sum(report.worker_steals)
        if report.fault_stats is not None:
            self.respawns += report.fault_stats.worker_respawns
        if live_rows:
            self.scan_ratio_peak = max(
                self.scan_ratio_peak, scan_ratio(report, live_rows)
            )


def scan_ratio(report, live_rows: int) -> float:
    """Bytes of the representation candidate scans stream (the SQ8 code
    blocks when the layout carries them, the packed fp32 layout if not)
    over the raw fp32 size of the live rows."""
    scanned = report.code_bytes if report.code_bytes else report.layout_bytes
    return scanned / float(live_rows * DIM * 4)


@dataclass
class PassResult:
    busy: float = 0.0   # seconds inside the program's calls (sum of op walls)
                        # (serve_zipf: seconds the open-loop segments lasted)
    attempted: int = 0
    failed: int = 0
    figures: dict = field(default_factory=dict)    # name -> float
    blocks: dict = field(default_factory=dict)     # name -> per-block values
    sums: ReportSums = field(default_factory=ReportSums)
    answers: list = field(default_factory=list)    # (queries, ids, distances)
    ops: dict = field(default_factory=dict)        # operation counts issued
    rungs: list = field(default_factory=list)      # serve: pooled Rung per rate
    serve_stats: "dict | None" = None
    cache_stats: "dict | None" = None


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


class Factor(NamedTuple):
    """How much slower than nominal the machine ran over a section, by
    kind of work; 1.0 is the nominal pace."""

    bulk: float    # streaming many rows through memory (multi-query scans)
    small: float   # many small array operations (single-query searches)


class Pace:
    """The machine's pace, probed before and after every timed section.

    The reference box is a shared two-core VM whose speed moves by a
    tenth to a half for spells of seconds to minutes (same seed, same
    code, one process after another: throughput 613 to 890 queries/s).
    No statistic taken inside a run survives a spell that covers the
    run, so every timed section is bracketed by a fixed numpy kernel
    that shares no code with the program, and the section's timings are
    divided by ``kernel time / nominal kernel time``. A reported time is
    therefore the time the section would have taken with the machine at
    its nominal pace; the unscaled figures are printed beside them
    (``raw.*``).

    The kernel has two parts, timed apart, because what slows the box
    (neighbours on the same memory system) slows memory-bound work more
    than cache-resident work: ``bulk`` gathers rows at random from an
    array about the size of the base, its packed layout and a scan's
    gathered block together (32 MiB), as a multi-query scan does;
    ``small`` does the gather, distance and partial sort of a
    single-query scan on 150 rows at a time, within a quarter of the
    array. A section is scaled by the part that resembles it. (An
    array of 16 MiB left throughput under-corrected by the box's pace,
    one of 64 MiB over-corrected it.)
    """

    #: The parts' times on the reference box when nothing else runs.
    NOMINAL_S = np.array([0.0030, 0.0020])

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((65_536, DIM)).astype(np.float32)
        self.bulk = rng.integers(0, len(self.rows), size=(4, 8_192))
        self.small = rng.integers(0, len(self.rows) // 4, size=(80, 150))
        self.query = rng.standard_normal(DIM).astype(np.float32)
        self.factors: list[Factor] = []
        self.last = self.sample()

    def sample(self) -> np.ndarray:
        """(bulk, small) seconds: the fastest of three runs of each part."""
        clock, runs = time.perf_counter, []
        for _ in range(3):
            t0 = clock()
            for picks in self.bulk:
                rows = self.rows[picks]
                np.einsum("ij,ij->i", rows, rows)
            t1 = clock()
            for picks in self.small:
                diff = self.rows[picks] - self.query
                np.argpartition(np.einsum("ij,ij->i", diff, diff), K)
            runs.append((t1 - t0, clock() - t1))
        return np.min(runs, axis=0)

    def current(self) -> Factor:
        """Pace at the latest probe."""
        return Factor(*(self.last / self.NOMINAL_S))

    def factor(self) -> Factor:
        """Pace of the section that ends now: the mean of the probe
        taken when it began (the previous call) and one taken now, over
        the nominal."""
        before, self.last = self.last, self.sample()
        self.factors.append(
            Factor(*((before + self.last) / (2.0 * self.NOMINAL_S))))
        return self.factors[-1]


class _Pass:
    """A pass over one deployment: ``start()``, ``block(b)`` for the
    blocks it is to run (in order), then ``finish()``. Two passes over
    two deployments can be advanced block by block in turn."""

    def __init__(self, db, inputs: Inputs, sizes: Sizes, pace: Pace,
                 recorder=None, oracle=None):
        self.db, self.inputs, self.sizes = db, inputs, sizes
        self.pace = pace
        self.recorder = recorder
        self.oracle = oracle   # checked against as the pass goes (mixed_rw)
        self.out = PassResult()
        self.blocks_run = 0

    def tag(self, *request) -> None:
        if self.recorder is not None:
            self.recorder.request = request

    def timed_search(self, queries):
        t0 = time.perf_counter()
        result, report = self.db.search(queries, k=K)
        wall = time.perf_counter() - t0
        self.out.busy += wall
        self.out.answers.append((queries, result.ids, result.distances))
        return wall, report

    def note(self, paced: dict, raw: dict) -> None:
        """One block's figures, at the nominal pace and as clocked."""
        for name, value in paced.items():
            self.out.blocks.setdefault(name, []).append(value)
        for name, value in raw.items():
            self.out.blocks.setdefault("raw." + name, []).append(value)

    def block_medians(self) -> dict:
        return {name: _median(v) for name, v in self.out.blocks.items()}


# ----------------------------------------------------------------------
# batch_*: closed loop; a block is Phase A (one multi-query search)
# then Phase B (single-query searches)
# ----------------------------------------------------------------------


#: Phase B searches between two pace probes.
SINGLES_PER_SECTION = 100


class BatchPass(_Pass):
    def start(self) -> None:
        # Lazy work (pool threads, caches, allocator growth) is done
        # before the first block.
        sizes, warm = self.sizes, self.inputs.warm
        self.db.search(warm[: sizes.batch], k=K)
        for row in warm[sizes.batch: sizes.batch + 32]:
            self.db.search(row[None, :], k=K)
        self.single_ms: list[float] = []

    def block(self, b: int) -> None:
        sizes, rows, pace = self.sizes, self.inputs.queries[b], self.pace
        pace.factor()   # a fresh probe: other work ran since the last one
        self.tag("A", b)
        wall_a, report = self.timed_search(rows[: sizes.batch])
        pace_a = pace.factor().bulk
        self.out.sums.add(report)
        raw, paced = [], []
        for lo in range(sizes.batch, len(rows), SINGLES_PER_SECTION):
            walls = []
            for j in range(lo, min(lo + SINGLES_PER_SECTION, len(rows))):
                self.tag("B", b, j - sizes.batch)
                wall, report = self.timed_search(rows[j: j + 1])
                self.out.sums.add(report)
                walls.append(wall * 1e3)
            pace_b = pace.factor().small
            raw += walls
            paced += [wall / pace_b for wall in walls]
        self.note(
            paced=dict(throughput=sizes.batch / wall_a * pace_a,
                       p50_ms=_percentile(paced, 50),
                       p95_ms=_percentile(paced, 95)),
            raw=dict(throughput=sizes.batch / wall_a,
                     p50_ms=_percentile(raw, 50), p95_ms=_percentile(raw, 95)),
        )
        self.single_ms += paced
        self.blocks_run += 1

    def finish(self) -> PassResult:
        out, sizes = self.out, self.sizes
        out.ops = dict(blocks=self.blocks_run, batch_rows=sizes.batch,
                       singles_per_block=sizes.singles)
        out.attempted = self.blocks_run * (sizes.batch + sizes.singles)
        out.figures = dict(
            self.block_medians(), p99_ms=_percentile(self.single_ms, 99))
        return out


# ----------------------------------------------------------------------
# serve_zipf: open loop through HarmonyServer.submit; a block walks the
# ladder once
# ----------------------------------------------------------------------


@dataclass
class Rung:
    """One open-loop segment, or several at one rate pooled."""

    rate: float
    n: int
    latency_ms: np.ndarray   # completed requests only, due time -> done
    lag_ms: np.ndarray       # how late the generator submitted each one
    window_s: float          # first request due -> last completion,
                             # at the nominal pace
    depth_end: int
    responses: list

    @property
    def failed(self) -> int:
        return self.n - len(self.latency_ms)

    @property
    def meets(self) -> bool:
        return bool(
            len(self.latency_ms)
            and _percentile(self.latency_ms, 99) <= LIMIT_MS
            and self.failed <= LIMIT_FAILED_SHARE * self.n
            and self.depth_end <= BACKLOG_LIMIT
        )

    def describe(self) -> dict:
        done = self.latency_ms if len(self.latency_ms) else np.array([np.inf])
        return dict(
            rate=self.rate, n=self.n, failed=self.failed,
            p50_ms=_percentile(done, 50), p95_ms=_percentile(done, 95),
            p99_ms=_percentile(done, 99),
            completed_per_s=len(self.latency_ms) / self.window_s,
            within_limit_per_s=float(np.sum(done <= LIMIT_MS)) / self.window_s,
            depth_end=self.depth_end,
            lag_p99_ms=_percentile(self.lag_ms, 99), meets=self.meets,
        )


def pooled(segments: "list[Rung]") -> Rung:
    return Rung(
        rate=segments[0].rate, n=sum(s.n for s in segments),
        latency_ms=np.concatenate([s.latency_ms for s in segments]),
        lag_ms=np.concatenate([s.lag_ms for s in segments]),
        window_s=sum(s.window_s for s in segments),
        depth_end=max(s.depth_end for s in segments),
        responses=[x for s in segments for x in s.responses],
    )


def warm_server(server, queries: np.ndarray) -> None:
    """Closed-loop bursts: fills the caches, starts the pool threads."""
    burst = 2 * SERVE["max_batch"]
    for lo in range(0, len(queries), burst):
        futures = [server.submit(q, k=K) for q in queries[lo: lo + burst]]
        for future in futures:
            future.result(timeout=60)


def open_loop(server, queries: np.ndarray, rate: float, seed: int,
              tag=None) -> Rung:
    """Poisson arrivals at ``rate``; each request is timed from the
    instant it was due, on the thread that completes its future."""
    n = len(queries)
    clock = time.perf_counter
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, size=n)
    arrivals = np.cumsum(gaps)
    done_at = np.zeros(n)
    lag = np.empty(n)
    futures = []

    def on_done(i, _future):
        done_at[i] = clock()

    origin = clock() + 0.002
    for i in range(n):
        due = origin + arrivals[i]
        now = clock()
        while now < due:
            if due - now > 0.0006:
                time.sleep(due - now - 0.0004)
            now = clock()
        lag[i] = now - due
        if tag is not None:
            tag(i)
        future = server.submit(queries[i], k=K)
        future.add_done_callback(partial(on_done, i))
        futures.append(future)
    depth_end = server.depth

    responses: list = [None] * n
    for i, future in enumerate(futures):
        try:
            responses[i] = future.result(timeout=60)
        except (AdmissionError, FutureTimeout):
            pass
    ok = np.array([r is not None for r in responses])
    return Rung(
        rate=rate, n=n,
        latency_ms=(done_at - (origin + arrivals))[ok] * 1e3,
        lag_ms=lag * 1e3,
        window_s=float(max(done_at.max() - origin, arrivals[-1])),
        depth_end=int(depth_end), responses=responses,
    )


def max_rate_in_limit(ladder: "list[Rung]") -> float:
    """Highest offered rate that meets the limit.

    The ladder brackets it: every rung below the first miss met the
    limit. Between the last rung that met it and the first that missed,
    the rate at which p99 crosses ``LIMIT_MS`` is read off the straight
    line through the two rungs' p99. A bare "highest passing rung"
    jumps by a whole rung whenever the boundary rung's p99 wobbles
    across the limit; the crossing moves by a few percent.
    """
    met = 0
    while met < len(ladder) and ladder[met].meets:
        met += 1
    if met == len(ladder):
        return ladder[-1].rate
    if met == 0:
        return 0.0   # below the ladder
    miss, last = ladder[met], ladder[met - 1]
    miss_p99 = _percentile(miss.latency_ms, 99) if len(miss.latency_ms) else np.inf
    if not miss_p99 > LIMIT_MS:   # missed on drops or backlog alone
        return last.rate
    last_p99 = _percentile(last.latency_ms, 99)
    share = (LIMIT_MS - last_p99) / (miss_p99 - last_p99)
    return last.rate + share * (miss.rate - last.rate)


class ServePass(_Pass):
    def start(self) -> None:
        self.server = self.db.serve(**SERVE)
        self.counts = rung_counts(self.sizes)
        self.segments = [[] for _ in LADDER]
        warm_server(self.server, self.inputs.warm)
        self.cold = self.db.result_cache.stats().to_dict()

    def block(self, b: int) -> None:
        rows, lo, pace = self.inputs.queries[b], 0, self.pace
        pace.factor()   # a fresh probe: other work ran since the last one
        for r, n in enumerate(self.counts):
            segment = rows[lo: lo + n]
            # The schedule is stretched by the pace just probed, so a
            # slow spell does not push the server up its load curve:
            # the rates are requests per second *at the nominal pace*.
            rate = LADDER[r] * self.sizes.rate_scale
            stretch = pace.current().bulk
            clocked = open_loop(
                self.server, segment, rate / stretch,
                seed=self.inputs.arrival_seed + len(LADDER) * b + r,
                tag=partial(self.tag, b, r),
            )
            # Latencies stay as clocked: about half of one is the flush
            # timer, which does not stretch with the machine.
            rung = replace(
                clocked, rate=rate,
                window_s=clocked.window_s / pace.factor().bulk)
            self.segments[r].append(rung)
            self.out.answers += [
                (segment[i: i + 1], x.ids[None, :], x.distances[None, :])
                for i, x in enumerate(rung.responses) if x is not None
            ]
            if r == OPERATING_RUNG:
                latency = rung.latency_ms
            lo += n
        done = len(rung.latency_ms)   # the overload rung is the last one
        self.note(
            paced=dict(throughput=done / rung.window_s,
                       p50_ms=_percentile(latency, 50),
                       p95_ms=_percentile(latency, 95)),
            raw=dict(throughput=done / clocked.window_s),
        )
        self.blocks_run += 1

    def exec_p50_ms(self, blocks) -> float:
        """Median batch-search time behind the operating rung's misses."""
        return _percentile([
            x.service_seconds * 1e3
            for b in blocks
            for x in self.segments[OPERATING_RUNG][b].responses
            if x is not None and not x.cache_hit
        ], 50)

    def finish(self) -> PassResult:
        out, sizes = self.out, self.sizes
        self.server.close()
        out.serve_stats = self.server.stats.to_dict()
        # Cache counters of the measured blocks only: the warm-up fills
        # a cold cache and would drag the hit ratio below its steady value.
        warm = self.db.result_cache.stats().to_dict()
        out.cache_stats = {
            key: warm[key] - self.cold[key]
            for key in ("hits", "misses", "evictions")
        }
        out.rungs = [pooled(segments) for segments in self.segments]
        out.busy = sum(r.window_s for r in out.rungs)   # open loop: its wall
        out.ops = dict(blocks=self.blocks_run, warmup=sizes.warmup_requests,
                       per_block=dict(zip(
                           (f"{r * sizes.rate_scale:g}" for r in LADDER),
                           self.counts)))
        out.attempted = sizes.warmup_requests + sum(r.n for r in out.rungs)
        # Admission drops above the operating rung are the overload the
        # ladder asks for — an outcome (throughput, max rate), not a failure.
        out.failed = sum(r.failed for r in out.rungs[: OPERATING_RUNG + 1])
        op, top = out.rungs[OPERATING_RUNG], out.rungs[OVERLOAD_RUNG]
        answered = [x for x in op.responses if x is not None]
        misses = [x for x in answered if not x.cache_hit]
        hits = [x for x in answered if x.cache_hit]
        out.figures = dict(
            self.block_medians(),
            p99_ms=_percentile(op.latency_ms, 99),
            max_rate_in_slo=max_rate_in_limit(out.rungs),
            goodput_qps=float(np.sum(top.latency_ms <= LIMIT_MS)) / top.window_s,
            lag_p99_ms=max(
                _percentile(r.lag_ms, 99)
                for r in out.rungs[: OPERATING_RUNG + 1]
            ),
            queue_wait_p50_ms=_percentile([x.queue_seconds * 1e3 for x in misses], 50),
            queue_wait_p99_ms=_percentile([x.queue_seconds * 1e3 for x in misses], 99),
            exec_p50_ms=self.exec_p50_ms(range(self.blocks_run)),
            hit_p50_us=_percentile(
                [x.service_seconds * 1e6 for x in hits] or [0.0], 50),
        )
        return out


# ----------------------------------------------------------------------
# mixed_rw: closed loop; a block is `rounds` rounds of
# add -> remove -> searches
# ----------------------------------------------------------------------


class MixedPass(_Pass):
    """``oracle`` shares ``db``'s index, so it is asked at the end of a
    round — outside every timer — while the live set is still the one
    the round's searches saw."""

    def start(self) -> None:
        self.db.search(self.inputs.warm[: self.sizes.round_queries], k=K)
        self.search_ms = dict(paced=[], raw=[])

    def block(self, b: int) -> None:
        sizes, inputs, clock = self.sizes, self.inputs, time.perf_counter
        queries = inputs.queries[b].reshape(
            sizes.rounds, SEARCHES_PER_ROUND, sizes.round_queries, DIM)
        write_s = dict(paced=0.0, raw=0.0)
        search_ms = dict(paced=[], raw=[])
        self.pace.factor()   # a fresh probe: other work ran since the last one
        for i in range(sizes.rounds):
            r = b * sizes.rounds + i
            self.tag("round", r)
            rows = inputs.heldout[r * sizes.add_rows: (r + 1) * sizes.add_rows]
            ids = inputs.victims[r * sizes.remove_rows: (r + 1) * sizes.remove_rows]
            t0 = clock()
            self.db.add(rows)
            removed = self.db.remove(ids)
            wrote = clock() - t0
            self.out.busy += wrote
            self.out.failed += len(ids) - removed
            walls = []
            for s in range(SEARCHES_PER_ROUND):
                wall, report = self.timed_search(queries[i, s])
                self.out.sums.add(report, live_rows=self.db.index.nlive)
                walls.append(wall * 1e3)
            pace = self.pace.factor()
            write_s["raw"] += wrote
            write_s["paced"] += wrote / pace.small
            search_ms["raw"] += walls
            search_ms["paced"] += [wall / pace.bulk for wall in walls]
            if self.oracle is not None:
                s = r % SEARCHES_PER_ROUND
                _, got_ids, got_distances = self.out.answers[s - SEARCHES_PER_ROUND]
                expect, _ = self.oracle.search(queries[i, s], k=K)
                self.out.failed += mismatches(got_ids, got_distances, expect)
        rows_written = sizes.rounds * (sizes.add_rows + sizes.remove_rows)
        self.note(**{
            kind: dict(throughput=rows_written / write_s[kind],
                       p50_ms=_percentile(search_ms[kind], 50))
            for kind in ("paced", "raw")
        })
        for kind in ("paced", "raw"):
            self.search_ms[kind] += search_ms[kind]
        self.blocks_run += 1

    def finish(self) -> PassResult:
        out, sizes = self.out, self.sizes
        rounds = self.blocks_run * sizes.rounds
        out.ops = dict(blocks=self.blocks_run, rounds=rounds,
                       add_rows=sizes.add_rows, remove_rows=sizes.remove_rows,
                       searches=len(self.search_ms["raw"]),
                       search_rows=sizes.round_queries)
        out.attempted = (
            rounds * (sizes.add_rows + sizes.remove_rows)
            + len(self.search_ms["raw"]) * sizes.round_queries
        )
        # A block's ~36 searches hold no p95 of their own: pooled.
        out.figures = dict(
            self.block_medians(),
            **{"p95_ms": _percentile(self.search_ms["paced"], 95),
               "raw.p95_ms": _percentile(self.search_ms["raw"], 95),
               "raw.search_max_ms": float(np.max(self.search_ms["raw"]))},
        )
        return out


PASSES = {"batch": BatchPass, "serve": ServePass, "mixed": MixedPass}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def mismatches(ids: np.ndarray, distances: np.ndarray, expect) -> int:
    """Rows whose ids or distances differ from the oracle's, bit for bit."""
    same = np.all(ids == expect.ids, axis=1) & np.all(
        distances == expect.distances, axis=1
    )
    return int(len(same) - same.sum())


#: Cap on the answers one run compares with the oracle (evenly spaced
#: over the whole pass), so the check fits the driver's per-run budget.
VERIFY_CAP = 1024


def verify_answers(answers: list, oracle: HarmonyDB, cap: int = VERIFY_CAP) -> int:
    """Compare an evenly spaced sample of recorded answers (at most
    ``cap`` rows) against the oracle; returns the mismatching rows."""
    if not answers:
        return 0
    queries = np.concatenate([a[0] for a in answers])
    ids = np.concatenate([a[1] for a in answers])
    distances = np.concatenate([a[2] for a in answers])
    pick = np.unique(
        np.linspace(0, len(queries) - 1, min(cap, len(queries))).astype(int)
    )
    expect, _ = oracle.search(queries[pick], k=K)
    return mismatches(ids[pick], distances[pick], expect)


def recall_at_k(db: HarmonyDB, queries: np.ndarray, ids: np.ndarray) -> float:
    """Share of the exact top-K (brute force over the live rows) that
    ``ids`` contains, averaged over ``queries``."""
    index = db.index
    live = np.flatnonzero(~np.asarray(index.deleted_mask))
    rows = index.base[live].astype(np.float64)
    # |q|^2 is the same for every row of a query: it cannot change the order.
    d2 = queries.astype(np.float64) @ rows.T
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", rows, rows)[None, :]
    truth = live[np.argpartition(d2, K - 1, axis=1)[:, :K]]
    found = [
        len(set(truth[i].tolist()) & set(ids[i].tolist()))
        for i in range(len(queries))
    ]
    return float(np.sum(found)) / (K * len(queries))
