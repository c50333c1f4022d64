"""Phase timelines: recording, clustering, probing, determinism."""

from __future__ import annotations

import pytest

from repro.core.configs import ExperimentConfig
from repro.errors import ConfigurationError
from repro.explore.timeline import (
    PhaseRecorder,
    PhaseTimeline,
    probe_timeline,
)


class TestRecorderClustering:
    def test_overlapping_spans_cluster_into_one_window(self):
        recorder = PhaseRecorder()
        for rank in range(4):
            recorder.enter(rank, "ckpt.L1.write", 2.0 + 0.01 * rank)
        for rank in range(4):
            recorder.exit(rank, "ckpt.L1.write", 2.5 + 0.01 * rank)
        timeline = PhaseTimeline.build(recorder)
        assert len(timeline.windows) == 1
        window = timeline.windows[0]
        assert window.ranks == (0, 1, 2, 3)
        assert window.start == pytest.approx(2.0)
        assert window.end == pytest.approx(2.53)

    def test_disjoint_spans_become_numbered_occurrences(self):
        recorder = PhaseRecorder()
        for start in (2.0, 4.0, 6.0):
            recorder.enter(0, "ckpt.L1.write", start)
            recorder.exit(0, "ckpt.L1.write", start + 0.5)
        timeline = PhaseTimeline.build(recorder)
        assert [w.occurrence for w in timeline.windows] == [0, 1, 2]
        assert [w.start for w in timeline.windows] == [2.0, 4.0, 6.0]

    def test_unmatched_enter_is_dropped(self):
        # a rank killed inside a phase never emits exit
        recorder = PhaseRecorder()
        recorder.enter(0, "ckpt.L1.write", 2.0)
        recorder.enter(1, "ckpt.L1.write", 2.0)
        recorder.exit(1, "ckpt.L1.write", 2.5)
        timeline = PhaseTimeline.build(recorder)
        assert timeline.windows[0].ranks == (1,)

    def test_epochs_kept_separate_and_numbered_globally(self):
        recorder = PhaseRecorder()
        recorder.enter(0, "ckpt.L1.write", 2.0)
        recorder.exit(0, "ckpt.L1.write", 2.5)
        recorder.epoch(1)
        recorder.enter(0, "ckpt.L1.write", 2.1)
        recorder.exit(0, "ckpt.L1.write", 2.6)
        timeline = PhaseTimeline.build(recorder)
        assert [(w.epoch, w.occurrence) for w in timeline.windows] \
            == [(0, 0), (1, 1)]

    def test_epoch_change_clears_pending(self):
        recorder = PhaseRecorder()
        recorder.enter(0, "ckpt.L1.write", 2.0)
        recorder.epoch(1)
        recorder.exit(0, "ckpt.L1.write", 9.9)  # stale exit: ignored
        assert PhaseTimeline.build(recorder).windows == ()


class TestTimelineLookup:
    def test_resolve_unknown_raises_with_catalog(self):
        recorder = PhaseRecorder()
        recorder.span(-1, "reinit.rollback", 1.0, 2.0)
        timeline = PhaseTimeline.build(recorder)
        with pytest.raises(ConfigurationError, match="reinit.rollback~0"):
            timeline.resolve("ulfm.shrink")

    def test_dict_roundtrip(self):
        recorder = PhaseRecorder()
        recorder.enter(0, "ckpt.L1.write", 2.0)
        recorder.exit(0, "ckpt.L1.write", 2.5)
        recorder.span(-1, "reinit.rollback", 3.0, 3.8)
        timeline = PhaseTimeline.build(recorder)
        assert PhaseTimeline.from_dict(timeline.to_dict()) == timeline


class TestProbe:
    def test_clean_probe_finds_checkpoint_windows(self):
        config = ExperimentConfig(app="hpccg", nprocs=8, design="ulfm-fti",
                                  faults="none")
        timeline, result = probe_timeline(config)
        assert timeline.anchors() == ("ckpt.L1.write",)
        # hpccg: 60 iterations, stride 10 -> writes after 10..50
        assert len(timeline.occurrences("ckpt.L1.write")) == 5
        assert result.verified and result.recovery_episodes == 0

    def test_probe_is_deterministic(self):
        config = ExperimentConfig(app="hpccg", nprocs=8, design="ulfm-fti",
                                  faults="none")
        first, _ = probe_timeline(config)
        second, _ = probe_timeline(config)
        assert first == second

    def test_probe_is_execute_unit_with_a_recorder(self):
        # one run path: a probe is the engine's execute_unit with the
        # recorder handed in as the phase hook — same timeline, same
        # result as a traced campaign unit of the clean config gets
        from repro.core.engine import RunUnit, execute_unit

        config = ExperimentConfig(app="hpccg", nprocs=8, design="ulfm-fti",
                                  faults="none")
        timeline, probed = probe_timeline(config)
        recorder = PhaseRecorder()
        result = execute_unit(RunUnit(config, 0), phase_hook=recorder)
        assert PhaseTimeline.build(recorder) == timeline
        assert result == probed
        assert recorder.last_iteration == config.make_app().niters - 1

    def test_prefix_probe_exposes_recovery_phases(self):
        config = ExperimentConfig(app="hpccg", nprocs=8, design="ulfm-fti",
                                  faults="none")
        clean, _ = probe_timeline(config)
        window = clean.resolve("ckpt.L1.write", 1)
        from repro.faults.plans import TimedFault

        kill = TimedFault(time=window.start + 0.05, rank=3)
        probed, _ = probe_timeline(config, (kill,))
        for anchor in ("ulfm.revoke", "ulfm.shrink", "ulfm.spawn",
                       "ulfm.merge", "ulfm.agree", "ckpt.L1.read"):
            assert anchor in probed.anchors()
