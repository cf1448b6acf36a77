"""Tests for the space-time timeline and JSON result serialisation."""

from __future__ import annotations

import pytest

from repro.analysis.timeline import Timeline, record_timeline
from repro.errors import ConfigurationError
from repro.experiments.runner import build_engine, run_experiment
from repro.experiments.serialize import (
    load_results,
    results_from_json,
    results_to_json,
    save_results,
)
from repro.ring.placement import Placement, equidistant_placement
from repro.store.records import result_from_payload, result_to_payload

#: A format-version-1 results file as written before the run store
#: existed; it must keep loading unchanged.
_V1_FILE = """{"format_version": 1, "results": [{"algorithm": "known_k_full",
"final_positions": [0, 4], "homes": [0, 4], "ideal_time": 9,
"max_memory_bits": 18, "max_moves": 8, "messages_sent": 0,
"report": {"agent_count": 2, "failures": [], "gaps": [4, 4], "ok": true,
"ring_size": 8}, "ring_size": 8, "scheduler": "SynchronousScheduler",
"total_moves": 16}]}"""


class TestTimeline:
    def test_records_initial_and_final_rows(self):
        engine = build_engine("known_k_full", equidistant_placement(12, 3))
        timeline = record_timeline(engine)
        assert len(timeline.rows) >= 2
        assert engine.quiescent
        # Final row: agents halted on token nodes -> digits present.
        assert any(ch.isdigit() for ch in timeline.final_row)

    def test_final_row_is_uniform_spread(self):
        engine = build_engine("known_k_full", Placement(ring_size=12, homes=(0, 1, 2)))
        timeline = record_timeline(engine)
        digits = [i for i, ch in enumerate(timeline.final_row) if ch.isdigit()]
        gaps = sorted(
            (digits[(i + 1) % 3] - digits[i]) % 12 for i in range(3)
        )
        assert gaps == [4, 4, 4]

    def test_sampling_interval(self):
        engine = build_engine("known_k_full", equidistant_placement(12, 3))
        timeline = record_timeline(engine, sample_every=5)
        assert all(r % 5 == 0 for r in timeline.sampled_rounds[:-1])

    def test_render_limit(self):
        engine = build_engine("known_k_full", Placement(ring_size=10, homes=(0, 4)))
        timeline = record_timeline(engine)
        text = timeline.render(limit=2)
        assert "more rows" in text
        assert text.count("\n") == 2

    def test_token_glyph_after_departure(self):
        engine = build_engine("known_k_full", Placement(ring_size=8, homes=(0, 3)))
        engine.run_rounds(2)
        timeline = Timeline(ring_size=8)
        timeline.snapshot(2, engine.snapshot())
        assert "-" in timeline.rows[0]  # a token node left behind


class TestSerialization:
    def _result(self):
        return run_experiment("known_k_full", equidistant_placement(12, 3))

    def test_round_trip_dict(self):
        original = self._result()
        rebuilt = result_from_payload(result_to_payload(original))
        assert rebuilt == original

    def test_round_trip_json(self):
        results = [self._result(), run_experiment("unknown", Placement(9, (0, 4, 6)))]
        text = results_to_json(results)
        rebuilt = results_from_json(text)
        assert rebuilt == results

    def test_file_round_trip(self, tmp_path):
        results = [self._result()]
        path = tmp_path / "results.json"
        save_results(results, path)
        assert load_results(path) == results

    def test_bad_version_rejected(self):
        with pytest.raises(ConfigurationError):
            results_from_json('{"format_version": 99, "results": []}')

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigurationError):
            result_from_payload({"algorithm": "known_k_full"})

    def test_json_is_stable(self):
        results = [self._result()]
        assert results_to_json(results) == results_to_json(results)

    def test_format_v1_file_still_loads(self):
        expected = run_experiment("known_k_full", equidistant_placement(8, 2))
        assert results_from_json(_V1_FILE) == [expected]
