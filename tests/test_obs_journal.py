"""Journal round-trips and seeded-run byte-determinism.

The format contract: write -> read -> re-render is the identity on the
journal text, and two same-seed replays journal byte-identically once
the ``"wall"`` key is stripped.
"""

from __future__ import annotations

import json

import pytest

from repro import obs, perf
from repro.obs.journal import (
    close_journal,
    open_journal,
    parse_journal,
    read_journal,
    render_journal,
    streamed_journal,
    strip_wall,
    write_journal,
)
from repro.obs.records import Candidate, DecisionRecord, SampleRecord
from repro.obs.tracer import Tracer
from repro.wlan.replay import ReplayEngine
from repro.wlan.strategies import LeastLoadedFirst, S3Strategy


@pytest.fixture(autouse=True)
def _isolate_globals():
    """Each test gets a fresh global tracer and perf registry."""
    yield
    obs.disable()
    obs.get_tracer().reset()
    perf.reset()


def journaled_replay(tmp_path, workload, strategy, name):
    obs.enable(reset=True)
    perf.reset()
    engine = ReplayEngine(workload.world.layout, strategy, workload.config.replay)
    result = engine.run(workload.test_demands)
    # meta must not mention the file name: two same-seed runs have to be
    # byte-identical after strip_wall
    path = write_journal(tmp_path / name, meta={"preset": workload.config.name})
    obs.disable()
    return result, path


class TestRoundTrip:
    def test_write_read_rerender_identity(self, tmp_path, tiny_workload):
        _, path = journaled_replay(
            tmp_path, tiny_workload, LeastLoadedFirst(), "a.jsonl"
        )
        text = path.read_text(encoding="utf-8")
        journal = parse_journal(text)
        assert render_journal(journal.records) == text

    def test_typed_records_survive(self, tmp_path):
        obs.enable(reset=True)
        with obs.span("outer", sim_time=1.0, preset="t") as span:
            span.sim_end = 4.0
        obs.decision(
            DecisionRecord(
                user_id="u1",
                strategy="s3",
                controller_id="c0",
                batch_id="c0#7",
                sim_time=42.0,
                chosen="ap1",
                candidates=(
                    Candidate(ap_id="ap0", load=3.0, users=2, score=0.5),
                    Candidate(ap_id="ap1", load=1.0, users=0, score=None),
                ),
                mode="batch",
            )
        )
        obs.sample(
            SampleRecord(
                sim_time=60.0, controller_id="c0", balance=0.75,
                total_load=10.0, users=3,
            )
        )
        perf.reset()
        perf.count("replay.events", 5)
        path = write_journal(tmp_path / "t.jsonl", meta={"k": "v"})
        journal = read_journal(path)

        assert journal.meta == {"k": "v"}
        (span_rec,) = journal.spans
        assert (span_rec.name, span_rec.sim_start, span_rec.sim_end) == (
            "outer", 1.0, 4.0,
        )
        assert span_rec.attrs == {"preset": "t"}
        (decision,) = journal.decisions
        assert decision.chosen == "ap1"
        assert decision.candidates[0].score == 0.5
        assert decision.candidates[1].score is None
        (sample,) = journal.samples
        assert sample.balance == 0.75
        assert journal.perf is not None
        assert journal.perf.counters == {"replay.events": 5}

    def test_journal_line_shape(self, tmp_path):
        obs.enable(reset=True)
        with obs.span("s", sim_time=0.0):
            pass
        path = write_journal(tmp_path / "shape.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [obj["type"] for obj in lines] == ["meta", "span", "perf"]
        assert lines[0]["data"]["format"] == 4
        # wall-time values appear under the top-level "wall" key only
        span_obj = lines[1]
        assert "wall" in span_obj
        assert set(span_obj["wall"]) == {"start", "elapsed"}
        assert "wall" not in json.loads(strip_wall(path.read_text()).splitlines()[1])


class TestByteDeterminism:
    def test_same_seed_replays_identical_after_strip(
        self, tmp_path, tiny_workload
    ):
        _, a = journaled_replay(
            tmp_path, tiny_workload, LeastLoadedFirst(), "a.jsonl"
        )
        _, b = journaled_replay(
            tmp_path, tiny_workload, LeastLoadedFirst(), "b.jsonl"
        )
        raw_a, raw_b = a.read_text(), b.read_text()
        assert strip_wall(raw_a) == strip_wall(raw_b)

    def test_wall_fields_do_not_leak_into_data(self, tmp_path, tiny_workload):
        _, path = journaled_replay(
            tmp_path, tiny_workload, LeastLoadedFirst(), "a.jsonl"
        )
        stripped = strip_wall(path.read_text())
        assert '"wall"' not in stripped
        # timers (wall durations) are gone, counters stay
        footer = json.loads(stripped.splitlines()[-1])
        assert footer["type"] == "perf"
        assert "timers" not in json.dumps(footer)
        assert footer["data"]["counters"]["replay.sessions"] > 0


class TestReplayProvenance:
    def test_llf_replay_journals_every_association(
        self, tmp_path, tiny_workload
    ):
        result, path = journaled_replay(
            tmp_path, tiny_workload, LeastLoadedFirst(), "llf.jsonl"
        )
        journal = read_journal(path)
        assert len(journal.decisions) == len(result.sessions)
        assert len(journal.samples) > 0
        assert any(s.name == "replay.run" for s in journal.spans)
        assert any(s.name == "sim.run" for s in journal.spans)
        for decision in journal.decisions:
            assert decision.strategy == "llf"
            assert decision.mode == "single"
            assert decision.chosen in {c.ap_id for c in decision.candidates}
            # LLF scores are the candidate loads
            for candidate in decision.candidates:
                assert candidate.score == pytest.approx(candidate.load)

    def test_s3_replay_journals_batch_decisions_with_scores(
        self, tmp_path, tiny_workload, tiny_model
    ):
        strategy = S3Strategy(tiny_model.selector())
        result, path = journaled_replay(
            tmp_path, tiny_workload, strategy, "s3.jsonl"
        )
        journal = read_journal(path)
        assert len(journal.decisions) == len(result.sessions)
        assert {d.mode for d in journal.decisions} == {"batch"}
        assert all(
            c.score is not None
            for d in journal.decisions
            for c in d.candidates
        )
        # batch ids name the controller and the flush sequence
        assert all("#" in d.batch_id for d in journal.decisions)

    def test_replay_without_tracing_journals_nothing(self, tiny_workload):
        obs.disable()
        tracer = obs.get_tracer()
        tracer.reset()
        engine = ReplayEngine(
            tiny_workload.world.layout,
            LeastLoadedFirst(),
            tiny_workload.config.replay,
        )
        engine.run(tiny_workload.test_demands)
        assert tracer.records == []


def _decision(user: str) -> DecisionRecord:
    return DecisionRecord(
        user_id=user,
        strategy="llf",
        controller_id="c0",
        batch_id="c0#0",
        sim_time=1.0,
        chosen="ap0",
    )


class TestStreaming:
    def test_streamed_bytes_equal_write_journal(self, tmp_path):
        # One framing path: records streamed as they complete land as the
        # same bytes write_journal renders from memory at exit.
        registry = perf.PerfRegistry()
        registry.count("replay.events", 3)
        memory = Tracer(enabled=True)
        with memory.span("run", sim_time=0.0):
            memory.decision(_decision("u1"))
        memory.sample(
            SampleRecord(
                sim_time=2.0, controller_id="c0", balance=0.5,
                total_load=1.0, users=1,
            )
        )
        at_exit = write_journal(
            tmp_path / "exit.jsonl", tracer=memory, perf_registry=registry,
            meta={"k": "v"},
        )
        assert len(memory.records) == 3  # write_journal leaves them be
        streaming = Tracer(enabled=True)
        open_journal(tmp_path / "streamed.jsonl", {"k": "v"}, streaming)
        streaming.inject(memory.records)
        streamed = close_journal(streaming, perf_registry=registry)
        assert streaming.records == [] and streaming.sink is None
        assert streamed.read_bytes() == at_exit.read_bytes()

    def test_restore_truncates_and_seeks(self, tmp_path):
        tracer = Tracer(enabled=True)
        path = tmp_path / "j.jsonl"
        writer = open_journal(path, {}, tracer)
        tracer.decision(_decision("kept"))
        state = tracer.export_state()
        assert state.offset == writer.tell() == path.stat().st_size
        for user in ("lost1", "lost2", "lost3"):
            tracer.decision(_decision(user))
        tracer.restore_state(state)
        tracer.decision(_decision("after"))
        close_journal(tracer, perf_registry=perf.PerfRegistry())
        raw = path.read_bytes()
        assert b"\x00" not in raw  # no hole where the cut tail was
        journal = read_journal(path)
        assert [d.user_id for d in journal.decisions] == ["kept", "after"]

    def test_unstreamed_enabled_tracer_refuses_export(self):
        with pytest.raises(RuntimeError, match="journal sink"):
            Tracer(enabled=True).export_state()
        assert Tracer().export_state().offset == 0

    def test_one_journal_per_tracer(self, tmp_path):
        tracer = Tracer(enabled=True)
        open_journal(tmp_path / "a.jsonl", {}, tracer)
        with pytest.raises(RuntimeError, match="already streams"):
            open_journal(tmp_path / "b.jsonl", {}, tracer)
        close_journal(tracer)
        with pytest.raises(RuntimeError, match="not streaming"):
            close_journal(tracer)

    def test_failed_block_leaves_journal_without_footer(self, tmp_path):
        tracer = Tracer(enabled=True)
        path = tmp_path / "dead.jsonl"
        with pytest.raises(ValueError):
            with streamed_journal(path, {}, tracer) as writer:
                tracer.decision(_decision("u1"))
                raise ValueError("run died")
        assert tracer.sink is None and writer._handle.closed
        journal = read_journal(path)
        assert len(journal.decisions) == 1 and journal.perf is None
        tracer.decision(_decision("u2"))  # back to memory, not the file
        assert len(tracer.records) == 1
