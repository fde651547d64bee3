"""Micro-benchmarks of the performance-critical substrates.

Unlike the figure benches (one-shot reproductions), these measure the hot
paths with real repetition: the event kernel's throughput, maximum-clique
search at controller-batch scale, k-means on campus-sized profile
matrices, churn extraction over a week of sessions, S³'s exhaustive
clique placement, a full replay of one evaluation day, trace
generation plus profile training (the paper pipeline's set-up front),
and the service's write path (journal and WAL lines).
Regressions here translate directly into slower experiment turnaround.
"""

import itertools
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.churn import extract_churn
from repro.cluster.kmeans import KMeans
from repro.core.demand import DemandEstimator
from repro.core.profiles import build_daily_profiles
from repro.core.selection import APState, Candidates, CostIndex, S3Selector
from repro.core.social import PairStats, SocialModel
from repro.core.typing import TypeModel
from repro.experiments.config import SMALL
from repro.graph.clique import max_clique
from repro.graph.graph import Graph
from repro.obs import journal
from repro.obs.journal import dumps_record, read_journal
from repro.service.supervisor import wal_line
from repro.service.workload import (
    WorkloadSpec,
    run_journaled_service,
    synthetic_events,
)
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.trace.generator import TraceGenerator
from repro.trace.social import build_world
from repro.wlan.replay import ReplayEngine
from repro.wlan.strategies import LeastLoadedFirst


def test_bench_kernel_event_throughput(benchmark, report_writer):
    def run_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1

        for t in range(10_000):
            sim.schedule(float(t), tick)
        sim.run_until_empty()
        return count[0]

    processed = benchmark(run_events)
    report_writer(
        "micro_kernel_events",
        f"event kernel: {processed} events processed",
        benchmark=benchmark,
        metrics={"events": int(processed)},
    )
    assert processed == 10_000


def test_bench_max_clique_controller_scale(benchmark):
    # A 48-user waiting graph with realistic density (~15% edges):
    # the size Algorithm 1 faces at a busy controller.
    rng = np.random.default_rng(42)
    graph = Graph()
    users = [f"u{i}" for i in range(48)]
    for user in users:
        graph.add_node(user)
    for u, v in itertools.combinations(users, 2):
        if rng.random() < 0.15:
            graph.add_edge(u, v, float(rng.random()) + 0.01)

    members, weight = benchmark(lambda: max_clique(graph))
    assert len(members) >= 3
    assert weight >= 0


def test_bench_kmeans_campus_scale(benchmark):
    rng = np.random.default_rng(0)
    data = np.vstack(
        [rng.dirichlet(np.full(6, 2.0) + 30 * np.eye(6)[i % 6], size=200) for i in range(4)]
    )

    result = benchmark(lambda: KMeans(k=4, n_init=4, rng=np.random.default_rng(1)).fit(data))
    assert result.k == 4


def test_bench_churn_extraction_week(benchmark, paper_workload):
    sessions = [
        s for s in paper_workload.collected.sessions if s.connect < 7 * 86400
    ]

    churn = benchmark.pedantic(
        lambda: extract_churn(sessions),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert len(churn.co_leavings) > 0


def test_bench_place_exhaustive(benchmark, report_writer):
    # Algorithm 1's clique step at its PAPER-scale worst case: a 6-member
    # clique over 5 APs (5**6 = 15,625 distributions) with 3 residents
    # per AP, some of them socially tied to the clique.
    rng = np.random.default_rng(7)
    members = [f"m{i}" for i in range(6)]
    residents = [f"r{i}" for i in range(15)]
    types = {user: i % 3 for i, user in enumerate(members + residents)}
    pairs = {
        pair: PairStats(encounters=9, co_leavings=6)
        for pair in itertools.combinations(members, 2)
    }
    for member in members:
        for resident in residents:
            if rng.random() < 0.3:
                encounters = int(rng.integers(2, 10))
                pairs[(member, resident)] = PairStats(
                    encounters=encounters,
                    co_leavings=int(rng.integers(0, encounters + 1)),
                )
    social = SocialModel(
        pairs,
        TypeModel(
            centroids=np.zeros((3, 6)),
            assignments=types,
            affinity=rng.random((3, 3)),
        ),
    )
    demand = DemandEstimator(smoothing=1.0, default_rate=50e3)
    for member in members:
        demand.observe(member, float(rng.uniform(20e3, 200e3)))
    states = [
        APState(
            ap_id=f"ap{a}",
            bandwidth=2.5e6,
            load=float(rng.uniform(0.0, 1.5e6)),
            users=tuple(residents[3 * a : 3 * a + 3]),
        )
        for a in range(5)
    ]
    # The controller domain's live index, built once outside the timing.
    aps = Candidates(states, CostIndex(social, [ap.users for ap in states]))
    selector = S3Selector(social, demand)

    placement = benchmark.pedantic(
        lambda: selector._place_exhaustive(members, aps),
        rounds=10,
        iterations=1,
        warmup_rounds=1,
    )
    report_writer(
        "micro_place_exhaustive",
        f"exhaustive clique placement: {len(members)} members over "
        f"{len(aps)} APs, {len(aps) ** len(members)} distributions",
        benchmark=benchmark,
        metrics={"distributions": len(aps) ** len(members)},
    )
    assert sorted(placement) == members
    per_ap = [list(placement.values()).count(ap.ap_id) for ap in aps]
    assert max(per_ap) <= 2  # the clique is spread, not stacked


def test_bench_social_graph_batch(benchmark, paper_model):
    # A 200-user controller batch: the graph Algorithm 1 thresholds on
    # every flush.
    social = paper_model.social
    users = sorted(paper_model.types.assignments)[:200]
    assert len(users) == 200

    def build():
        return social.build_graph(users, threshold=0.3)

    graph = benchmark.pedantic(build, rounds=3, iterations=1, warmup_rounds=1)
    assert len(graph.nodes) == 200


def test_bench_replay_one_day(benchmark, paper_workload, report_writer):
    day_demands = [
        d
        for d in paper_workload.test_demands
        if d.arrival < (paper_workload.config.train_days + 1) * 86400
    ]
    engine = ReplayEngine(
        paper_workload.world.layout, LeastLoadedFirst(), paper_workload.config.replay
    )

    result = benchmark.pedantic(
        lambda: engine.run(day_demands), rounds=5, iterations=1, warmup_rounds=1
    )
    report_writer(
        "micro_replay_one_day",
        f"one-day LLF replay: {len(result.sessions)} sessions, "
        f"{len(day_demands)} demands",
        benchmark=benchmark,
        metrics={
            "sessions": len(result.sessions),
            "demands": len(day_demands),
        },
    )
    assert len(result.sessions) > 0


def test_bench_trace_generate(benchmark, report_writer):
    # The set-up front of every experiment: build the SMALL campus,
    # generate its trace and train daily profiles from the flows.
    config = SMALL.generator_config()

    def generate():
        streams = RandomStreams(config.seed)
        world = build_world(config.world, streams)
        bundle = TraceGenerator(world, config, streams=streams).generate()
        return bundle, build_daily_profiles(bundle.flow_columns())

    bundle, profiles = benchmark.pedantic(
        generate, rounds=5, iterations=1, warmup_rounds=1
    )
    report_writer(
        "micro_trace_generate",
        f"SMALL trace generation + profile training: {len(bundle.demands)} "
        f"demands, {bundle.n_flows} flows, {len(profiles.user_ids)} users",
        benchmark=benchmark,
        metrics={"demands": len(bundle.demands), "flows": bundle.n_flows},
    )
    assert len(profiles.user_ids) > 0


def test_bench_journal_lines(benchmark, report_writer):
    # The supervised service's per-event writes: every decision and
    # balance-sample line of a recorded 2,000-event session, and the WAL
    # line of every event it delivered.
    spec = WorkloadSpec(users=64, aps=8, events=2000, seed=1)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "journal.jsonl"
        run_journaled_service(spec, journal=path)
        recorded = read_journal(path)
    records = recorded.decisions + recorded.samples
    events = synthetic_events(spec)

    def write():
        lines = [dumps_record(record) for record in records]
        lines.extend(wal_line(event) for event in events)
        return lines

    # Each round starts from an empty float memo, as a fresh run does:
    # a memo warmed by the previous round would hit on every value.
    lines = benchmark.pedantic(
        write,
        setup=journal._FLOAT_TEXT.clear,
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    report_writer(
        "micro_journal_lines",
        f"service write path: {len(recorded.decisions)} decision, "
        f"{len(recorded.samples)} sample and {len(events)} WAL lines",
        benchmark=benchmark,
        metrics={
            "decisions": len(recorded.decisions),
            "samples": len(recorded.samples),
            "wal_lines": len(events),
            "bytes": sum(len(line) for line in lines),
        },
    )
    assert len(lines) == len(records) + len(events)
