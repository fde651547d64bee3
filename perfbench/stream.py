"""``service-stream``: the controller service's decision path under load.

One ``synthetic_events`` stream (256 users, 16 APs, 100k events) goes
through a fresh ``make_service`` controller, observability off, twice:

* **flat-out** — a closed loop: every event is submitted as soon as the
  previous submit returns, then the service drains;
* **paced** — an open loop: event *i* is due at ``t0 + time_i /
  PACED_RATE`` whatever the service is doing, and a join's latency runs
  from its due time, so a stall is charged to every event behind it.

Join latency is stamped by a benchmark-side ``ServiceApp`` whose
``on_join`` hook runs when the decision commits.  The path exercised is
``service.loop`` -> ``service.admission`` -> ``service.fastpath`` ->
``core.online``; ``core.selection``, ``graph`` and ``wlan.replay`` are
never entered.
"""

from __future__ import annotations

import bisect
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from common import (
    Outcome,
    measure,
    measure_setups,
    median,
    peak_rss_mb,
    reconcile,
    timed,
)
from layers import LayerTracer, percentile

#: Offered load of the paced pass, in simulated seconds per wall second.
#: The stream's mean gap is one simulated second, so this is ~6k events/s
#: (about a third of the flat-out event rate on a 2-core x86-64 host).
PACED_RATE = 6000.0
#: An event sent later than this behind its due time counts as late.
LATE_MS = 5.0
#: Head start of the paced schedule over the first send.
LEAD_S = 0.01
#: Flat-out passes per run, at the least (each on a fresh service);
#: ``ops_per_s`` is the median of their rates.
FLAT_PASSES = 2

SIZES = {"full": (256, 16, 100_000), "tiny": (32, 8, 1_000)}


def spec_for(size: str, seed: int) -> Any:
    from repro.service import WorkloadSpec

    users, aps, events = SIZES[size]
    return WorkloadSpec(users=users, aps=aps, events=events, seed=seed)


def make_stamps(events: int) -> Any:
    """A ``ServiceApp`` recording each committed join's AP and wall time."""
    from repro.service import ServiceApp

    class Stamps(ServiceApp):
        def __init__(self) -> None:
            #: Wall time each event's submit started, by seq.
            self.sent = [0.0] * events
            #: ``(seq, wall at commit, ap_id)`` in commit order.
            self.commits: List[Tuple[int, float, str]] = []

        def on_join(self, event: Any, ap_id: str) -> None:
            self.commits.append((event.seq, time.perf_counter(), ap_id))

        def choices(self) -> List[Tuple[int, str]]:
            return [(seq, ap) for seq, _, ap in self.commits]

        def latencies(
            self, start: List[float], ticks: Sequence[Tuple[float, float]] = ()
        ) -> List[float]:
            """Commit minus ``start[seq]`` per join, less any host probe
            (``(start, seconds)`` in ``ticks``) that ran in between."""
            begins = [at for at, _ in ticks]
            out = []
            for seq, at, _ in self.commits:
                latency = at - start[seq]
                i = bisect.bisect_left(begins, start[seq])
                while i < len(begins) and begins[i] < at:
                    latency -= ticks[i][1]
                    i += 1
                out.append(latency)
            return out

    return Stamps()


def wrap_service(
    tracer: LayerTracer, submit: Any = "service.loop.submit", on_submit: Any = None
) -> None:
    """Time ``ControllerService.submit`` and the service layers below it."""
    from repro.core.online import OnlineLearner
    from repro.service import BalanceMonitorApp, ControllerService, FastAssociator
    from repro.service.admission import AdmissionQueue

    tracer.wrap(ControllerService, "submit", submit, samples=True, on_exit=on_submit)
    tracer.wrap(ControllerService, "drain", "service.loop.drain")
    tracer.wrap(AdmissionQueue, "flush", "service.admission.flush")
    tracer.wrap(FastAssociator, "select", "service.fastpath.select")
    tracer.wrap(FastAssociator, "apply_join", "service.fastpath.apply")
    tracer.wrap(FastAssociator, "apply_leave", "service.fastpath.apply")
    tracer.wrap(OnlineLearner, "on_arrival", "core.online.learn")
    tracer.wrap(OnlineLearner, "on_departure", "core.online.learn")
    for hook in ("on_join", "on_leave", "on_stats"):
        tracer.wrap(BalanceMonitorApp, hook, "service.apps.monitor")


def _setup(spec: Any) -> List[Any]:
    from repro.service import workload

    events = workload.synthetic_events(spec)
    workload.make_service(spec)
    return events


def _fresh(spec: Any, events: List[Any]) -> Tuple[Any, Any]:
    from repro.service import make_service

    service = make_service(spec)
    stamps = make_stamps(len(events))
    service.apps.append(stamps)
    return service, stamps


def _flat_out(service: Any, stamps: Any, events: List[Any]) -> None:
    sent = stamps.sent
    submit = service.submit
    clock = time.perf_counter
    for event in events:
        sent[event.seq] = clock()
        submit(event)
    service.drain()


def _spin(until: float) -> None:
    clock = time.perf_counter
    while clock() < until:
        pass


def _paced(
    service: Any,
    stamps: Any,
    events: List[Any],
    due: List[float],
    wait: Callable[[float], None] = _spin,
) -> None:
    sent = stamps.sent
    submit = service.submit
    clock = time.perf_counter
    start = clock() + LEAD_S
    for event in events:
        at = start + event.time / PACED_RATE
        if clock() < at:
            wait(at)
        due[event.seq] = at
        sent[event.seq] = clock()
        submit(event)
    service.drain()


class _Pass:
    """One flat-out or paced pass: its service, stamps and wall time."""

    def __init__(self, spec: Any, events: List[Any]) -> None:
        self.service, self.stamps = _fresh(spec, events)
        self.due = [0.0] * len(events)
        self.wall = 0.0
        #: Probe-scaled wall time (flat-out passes only).
        self.ref = 0.0
        self.ticks: List[Tuple[float, float]] = []

    def flat_out(self, events: List[Any], timer: Any = measure) -> "_Pass":
        timing = timer(_flat_out, self.service, self.stamps, events)
        self.wall, self.ref, self.ticks = timing.wall, timing.ref, timing.ticks
        return self

    def join_latencies(self) -> List[float]:
        """Flat-out join latencies: commit minus submit, probes excluded."""
        return self.stamps.latencies(self.stamps.sent, self.ticks)

    def paced(self, events: List[Any], wait: Optional[Callable[[float], None]] = None) -> "_Pass":
        self.wall = timed(
            _paced, self.service, self.stamps, events, self.due, wait or _spin
        ).wall
        return self


def _check(out: Outcome, label: str, run: _Pass, joins: int) -> None:
    queue = run.service.admission
    out.attempted += joins
    out.failed += max(0, joins - queue.decisions) + queue.sheds + queue.stale_decisions
    out.check(queue.decisions == joins, f"{label}: {queue.decisions} decisions for {joins} joins")
    out.check(queue.sheds == 0, f"{label}: {queue.sheds} joins shed")
    out.check(queue.stale_decisions == 0, f"{label}: {queue.stale_decisions} stale decisions")


def _joins(events: List[Any]) -> int:
    from repro.service import StationJoin

    return sum(isinstance(e, StationJoin) for e in events)


def _lateness(run: _Pass) -> List[float]:
    return [s - d for s, d in zip(run.stamps.sent, run.due)]


def run(seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    out = Outcome()
    spec = spec_for(size, seed)
    if trace:
        _traced(spec, out)
        return out
    setups = measure_setups(_setup, spec)
    events = setups[-1].result
    joins = _joins(events)
    join_us: List[float] = []
    choices: List[List[Tuple[int, str]]] = []
    rates: List[float] = []
    decisions = passes = 0
    flat_wall = 0.0
    while passes < FLAT_PASSES or flat_wall < seconds:
        run_ = _Pass(spec, events).flat_out(events)
        _check(out, "flat-out", run_, joins)
        rates.append(run_.service.admission.decisions / run_.ref)
        join_us += [1e6 * x for x in run_.join_latencies()]
        choices.append(run_.stamps.choices())
        decisions += run_.service.admission.decisions
        flat_wall += run_.wall
        passes += 1
        del run_  # one pass's service in memory at a time
    # The paced pass's length is set by its schedule, not by the host.
    paced = _Pass(spec, events).paced(events)
    _check(out, "paced", paced, joins)
    out.check(
        all(c == paced.stamps.choices() for c in choices),
        "flat-out and paced passes committed different user->AP choices",
    )
    paced_us = [1e6 * x for x in paced.stamps.latencies(paced.due)]
    late = _lateness(paced)
    out.metrics.update(
        setup_s=(median([t.ref for t in setups]), "s"),
        peak_rss_mb=(peak_rss_mb(), "MB"),
        ops_per_s=(median(rates), "1/s"),
    )
    out.detail.update(
        decisions_per_s=(decisions / flat_wall, "1/s"),
        events_per_s=(len(events) * passes / flat_wall, "1/s"),
        join_p50_us=(percentile(join_us, 0.5), "us"),
        join_p99_us=(percentile(join_us, 0.99), "us"),
        join_samples=(len(join_us), "count"),
        paced_join_p50_us=(percentile(paced_us, 0.5), "us"),
        paced_join_p99_us=(percentile(paced_us, 0.99), "us"),
        paced_offered_per_s=(PACED_RATE, "1/s"),
        paced_late_ms_max=(1e3 * max(late), "ms"),
        paced_late_share=(sum(x > LATE_MS / 1e3 for x in late) / len(late), "ratio"),
        setup_wall_s=(median([t.wall for t in setups]), "s"),
        host_probe_s=(median([t.probe for t in setups]), "s"),
        passes=(passes, "count"),
        setups=(len(setups), "count"),
    )
    return out


def _traced(spec: Any, out: Outcome) -> None:
    from repro.service import workload

    setup_tracer = LayerTracer()
    setup_tracer.wrap(workload, "synthetic_events", "service.workload.generate")
    setup_tracer.wrap(workload, "make_service", "service.workload.make_service")
    with setup_tracer.installed():
        setup = timed(_setup, spec)
    setup_s, events = setup.wall, setup.result
    joins = _joins(events)

    untraced = _Pass(spec, events).flat_out(events, timed)
    flat = _Pass(spec, events)
    flat_tracer = LayerTracer()
    wrap_service(flat_tracer)
    with flat_tracer.installed():
        flat.flat_out(events, timed)

    paced = _Pass(spec, events)
    paced_tracer = LayerTracer()
    wrap_service(paced_tracer)

    def idle(until: float) -> None:
        with paced_tracer.span("bench.paced.idle"):
            _spin(until)

    with paced_tracer.installed():
        paced.paced(events, idle)

    for label, run_ in (("untraced", untraced), ("flat-out", flat), ("paced", paced)):
        _check(out, label, run_, joins)
    out.check(
        flat.stamps.choices() == paced.stamps.choices() == untraced.stamps.choices(),
        "traced passes committed different user->AP choices",
    )
    reconcile(
        out,
        [(setup_s, setup_tracer), (flat.wall, flat_tracer), (paced.wall, paced_tracer)],
    )
    f = flat_tracer
    submit = f.layers["service.loop.submit"]
    queue = paced.service.admission
    late = _lateness(paced)
    out.metrics.update(
        {
            "bench.trace_overhead_s": (flat.wall - untraced.wall, "s"),
            "service.workload.generate_s": (setup_tracer.total("service.workload.generate"), "s"),
            "service.loop.submit_s": (submit.total, "s"),
            "service.loop.submit_p99_us": (1e6 * percentile(submit.samples or [], 0.99), "us"),
            "service.admission.flush_self_s": (f.self_time("service.admission.flush"), "s"),
            "service.fastpath.select_s": (f.total("service.fastpath.select"), "s"),
            "service.fastpath.select_calls": (f.calls("service.fastpath.select"), "count"),
            "service.fastpath.apply_s": (f.total("service.fastpath.apply"), "s"),
            "core.online.learn_s": (f.total("core.online.learn"), "s"),
            "service.apps.monitor_s": (f.total("service.apps.monitor"), "s"),
            "service.admission.hold_us_p50": (
                1e6 * percentile(paced.stamps.latencies(paced.stamps.sent), 0.5), "us"
            ),
            "service.admission.batches": (queue.batches, "count"),
            "service.admission.batch_size_mean": (queue.decisions / max(1, queue.batches), "count"),
            "service.admission.shed_ratio": (queue.sheds / max(1, joins), "ratio"),
            "bench.paced.idle_s": (paced_tracer.total("bench.paced.idle"), "s"),
            "bench.paced.late_ms_max": (1e3 * max(late), "ms"),
            "bench.paced.late_share": (sum(x > LATE_MS / 1e3 for x in late) / len(late), "ratio"),
            "bench.paced.join_p99_us": (
                1e6 * percentile(paced.stamps.latencies(paced.due), 0.99), "us"
            ),
        }
    )
    out.detail.update(
        untraced_flat_s=(untraced.wall, "s"),
        traced_flat_s=(flat.wall, "s"),
        traced_paced_s=(paced.wall, "s"),
    )
