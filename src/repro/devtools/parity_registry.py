"""The parity registry: product functions and their equivalence proofs.

Each entry pairs one product function with the **test oracle** its
output must match byte for byte — the straightforward implementation,
kept under ``tests/`` (or, for a dispatcher that still selects between
two product paths, the reference path under ``src/``) — and the tests
that assert the match.  Figs. 2-5 and the S³ model are computed by the
product functions alone, so these proofs are what the reproduction
leans on:

* ``reference`` — the oracle: a ``tests/<file>.py::<function>`` node for
  a test-side oracle, or a dotted ``src`` name;
* ``fast`` — the second product path of an ``engine=`` dispatcher, when
  it is a separate function;
* ``tests`` — the pytest node ids of the equivalence tests.

The **engine-parity** lint rule fails when a public ``engine=`` function
is missing from this table, and when a registered name, oracle or test
node no longer exists (verified against the files' ASTs), so a refactor
cannot silently drop an equivalence proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class ParityEntry:
    """Oracle and equivalence tests for one product function."""

    reference: str
    tests: Tuple[str, ...]
    fast: Optional[str] = None


#: Product functions (every public ``engine=`` dispatcher among them), by
#: fully-qualified dotted name.
PARITY_REGISTRY: Dict[str, ParityEntry] = {
    "repro.analysis.churn.extract_churn": ParityEntry(
        reference="tests/churn_oracle.py::extract_churn_python",
        tests=(
            "tests/test_analysis_fastchurn.py::test_extract_churn_engines_identical_random",
            "tests/test_analysis_fastchurn.py::test_extract_churn_engines_identical_grid_boundaries",
            "tests/test_analysis_fastchurn.py::test_extract_churn_engines_identical_duplicate_times",
        ),
    ),
    "repro.analysis.churn.coleaving_fraction_per_user": ParityEntry(
        reference="tests/churn_oracle.py::coleaving_fraction_python",
        tests=(
            "tests/test_analysis_fastchurn.py::test_coleaving_fraction_engines_identical",
            "tests/test_analysis_fastchurn.py::test_churn_matches_oracle_on_every_small_log",
        ),
    ),
    "repro.core.social.SocialModel.build_graph": ParityEntry(
        reference="tests/social_oracle.py::build_graph_pairwise",
        tests=(
            "tests/test_analysis_fastchurn.py::test_build_graph_engines_identical",
            "tests/test_analysis_fastchurn.py::test_build_graph_cache_invalidated_by_record_events",
            "tests/test_analysis_fastchurn.py::test_build_graph_matches_oracle_on_small_grid",
        ),
    ),
    "repro.core.social.SocialModel.record_events": ParityEntry(
        # Not an ``engine=`` dispatcher but the same contract: the
        # incremental patch path must stay byte-identical to the batch
        # rebuild it replaces (ISSUE 9 online-delta updates).
        reference="repro.core.social.build_social_model",
        tests=(
            "tests/test_core_social_incremental.py::test_streamed_events_byte_identical_to_batch_rebuild",
            "tests/test_core_social_incremental.py::test_assign_user_type_patches_rows_byte_identically",
            "tests/test_core_social_incremental.py::test_streamed_model_matches_build_social_model",
        ),
    ),
    "repro.core.social.SocialModel.record_departure": ParityEntry(
        # One departure's pairs in one pass: the same model, generation,
        # adjacency order and pickle bytes as one record_events call per
        # pair, which the oracle learner makes.
        reference="tests/social_oracle.py::per_pair_departure",
        tests=(
            "tests/test_core_online.py::TestDepartureMatchesMaxOverlap::test_same_pairs_and_tallies",
            "tests/test_core_online.py::TestDepartureMatchesMaxOverlap::test_backwards_departure_keeps_the_full_scan",
            "tests/test_service_recovery.py::test_folded_learner_snapshots_match_per_pair_oracle",
        ),
    ),
    "repro.core.selection.CostIndex.row": ParityEntry(
        # The one S³ decision kernel: the live index every controller
        # domain keeps (replay, prototype, service) equals the
        # per-resident walk and an index rebuilt from the snapshots.
        reference="tests/selection_oracle.py::oracle_added_cost",
        tests=(
            "tests/test_service_fastpath.py::test_cost_row_is_bit_identical_to_per_ap_walk",
            "tests/test_wlan_replay.py::TestLiveCostIndex::test_live_rows_equal_rebuilt_rows",
            "tests/test_wlan_entities.py::TestCachedState::test_caches_track_every_mutation",
            "tests/test_service_fastpath.py::test_partner_order_sums_with_more_partners_than_residents",
            "tests/test_service_fastpath.py::test_order_sensitive_bucket_sums_in_partner_order",
            "tests/test_service_fastpath.py::test_kernel_parity_on_every_small_interleaving",
            "tests/test_service_fastpath.py::test_tiny_replay_stream_matches_selector",
            "tests/test_service_fastpath.py::test_select_matches_s3_selector_over_churn",
        ),
    ),
    "repro.core.selection.rank_singleton": ParityEntry(
        reference="tests/selection_oracle.py::literal_rank_singleton",
        tests=(
            "tests/test_core_selection.py::TestRankSingleton::test_matches_the_literal_reading",
            "tests/test_service_fastpath.py::test_cost_row_is_bit_identical_to_per_ap_walk",
            "tests/test_service_fastpath.py::test_kernel_parity_on_every_small_interleaving",
            "tests/test_service_fastpath.py::test_tiny_replay_stream_matches_selector",
        ),
    ),
    "repro.core.selection.S3Selector._place_exhaustive": ParityEntry(
        reference="tests/selection_oracle.py::reference_place_exhaustive",
        tests=(
            "tests/test_core_selection.py::TestPlaceExhaustive::test_matches_reference_loop",
            "tests/test_core_selection.py::TestPlaceExhaustive::test_equal_cost_ties_at_the_cut",
            "tests/test_core_selection.py::TestPlaceExhaustive::test_enumeration_cap_is_inclusive",
            "tests/test_core_selection.py::TestClosedFormBalance::test_sum_of_squares_ranks_as_normalized_jain",
        ),
    ),
    "repro.analysis.balance.balance_index": ParityEntry(
        # Pure Python in numpy's pairwise summation order: every value
        # is the vectorized form's bit for bit.
        reference="tests/balance_oracle.py::balance_index",
        tests=(
            "tests/test_analysis_balance.py::TestScalarIsNumpyBitForBit::test_every_length_up_to_600",
            "tests/test_analysis_balance.py::TestScalarIsNumpyBitForBit::test_any_vector_matches_numpy",
            "tests/test_analysis_balance.py::TestBalanceRows::test_every_row_is_the_scalar_byte_for_byte",
        ),
    ),
    "repro.obs.journal.dumps_record": ParityEntry(
        # Decision and sample lines are assembled by hand; the encoder
        # over their dict payloads defines the bytes.
        reference="tests/journal_oracle.py::record_line",
        tests=(
            "tests/test_journal_lines.py::test_decision_line_is_the_encoders",
            "tests/test_journal_lines.py::test_sample_line_is_the_encoders",
            "tests/test_journal_lines.py::test_float_memo_survives_hits_and_evictions",
            "tests/test_write_path_digests.py::test_write_path_bytes_match_the_pinned_digests",
        ),
    ),
    "repro.service.supervisor.wal_line": ParityEntry(
        reference="tests/journal_oracle.py::wal_line",
        tests=(
            "tests/test_journal_lines.py::test_wal_line_is_the_sorted_key_encoders",
            "tests/test_journal_lines.py::test_wal_lines_read_back_as_the_events",
            "tests/test_write_path_digests.py::test_write_path_bytes_match_the_pinned_digests",
        ),
    ),
    "repro.service.supervisor.run_supervised": ParityEntry(
        # Not an ``engine=`` dispatcher but the same contract: a
        # crashed-and-recovered supervised run must journal
        # byte-identically (post-``strip_wall``) to the same run with
        # the crash events removed from its plan, and to the plain
        # unsupervised service when the plan is empty (ISSUE 10
        # kill-and-restore parity) — for a crash at every event time of
        # a small stream, and with a torn journal tail past the snapshot.
        reference="repro.service.workload.run_journaled_service",
        tests=(
            "tests/test_service_recovery.py::test_kill_and_restore_byte_identical",
            "tests/test_service_recovery.py::test_multi_crash_with_stall_and_duplicate_byte_identical",
            "tests/test_service_recovery.py::test_metrics_on_same_plan_runs_byte_identical",
            "tests/test_service_recovery.py::test_supervised_empty_plan_matches_plain_service_run",
            "tests/test_service_recovery.py::test_crash_at_every_event_time_byte_identical",
            "tests/test_service_recovery.py::test_torn_journal_tail_is_truncated_on_restore",
        ),
    ),
    "repro.runtime.sweep.run_sweep": ParityEntry(
        reference="repro.runtime.sweep.run_sweep_serial",
        fast="repro.runtime.sweep.run_sweep_process",
        tests=(
            "tests/test_runtime_sweep.py::test_run_sweep_engines_identical",
        ),
    ),
}
