"""overlap_clusters: the one cluster-by-overlap loop behind ULFM's
episode accounting and the explorer's phase windows.

The references below are the two loops ``overlap_clusters`` replaced,
copied as they stood: ``UlfmRecovery.episode_list`` and
``PhaseTimeline.build``. Both callers must reproduce them exactly —
same clusters, same floats — on any input.
"""

from hypothesis import example, given, settings, strategies as st

from repro.explore.timeline import (
    PhaseRecorder,
    PhaseSpan,
    PhaseTimeline,
    PhaseWindow,
)
from repro.recovery import UlfmRecovery
from repro.recovery.base import overlap_clusters


# -- the replaced loops, as references -----------------------------------------
def reference_clusters(items, span):
    """The loop both callers carried, over items sorted by start."""
    if not items:
        return []
    clusters, current = [], [items[0]]
    cluster_end = span(items[0])[1]
    for item in items[1:]:
        start, end = span(item)
        if start > cluster_end:
            clusters.append(current)
            current = [item]
        else:
            current.append(item)
        cluster_end = max(cluster_end, end)
    clusters.append(current)
    return clusters


def reference_episode_list(intervals):
    if not intervals:
        return []
    items = sorted(intervals)
    clusters, current = [], [items[0]]
    cluster_end = items[0][1]
    for interval in items[1:]:
        if interval[0] > cluster_end:
            clusters.append(current)
            current = [interval]
        else:
            current.append(interval)
        cluster_end = max(cluster_end, interval[1])
    clusters.append(current)
    durations = []
    for cluster in clusters:
        survivor_starts = [s for s, _, is_replacement in cluster
                           if not is_replacement]
        starts = survivor_starts or [s for s, _, _ in cluster]
        end = max(e for _, e, _ in cluster)
        durations.append(end - max(starts))
    return durations


def reference_windows(spans):
    groups: dict = {}
    for span in spans:
        groups.setdefault((span.epoch, span.anchor), []).append(span)
    clusters: dict = {}
    for (epoch, anchor), group in sorted(
            groups.items(), key=lambda item: item[0]):
        group.sort(key=lambda s: (s.start, s.end, s.rank))
        current = [group[0]]
        cluster_end = group[0].end
        for span in group[1:]:
            if span.start > cluster_end:
                clusters.setdefault(anchor, []).append((epoch, current))
                current = [span]
            else:
                current.append(span)
            cluster_end = max(cluster_end, span.end)
        clusters.setdefault(anchor, []).append((epoch, current))
    windows = []
    for anchor in sorted(clusters):
        numbered = sorted(
            clusters[anchor],
            key=lambda item: (item[0], min(s.start for s in item[1])))
        for occurrence, (epoch, group) in enumerate(numbered):
            windows.append(PhaseWindow(
                anchor=anchor, occurrence=occurrence,
                start=min(s.start for s in group),
                end=max(s.end for s in group),
                ranks=tuple(sorted({s.rank for s in group})),
                epoch=epoch))
    windows.sort(key=lambda w: (w.epoch, w.start, w.anchor))
    return tuple(windows)


# -- input grammar ---------------------------------------------------------------
#: a coarse grid makes touching endpoints, zero lengths and duplicates
#: common; free floats cover everything else
times = st.one_of(st.integers(0, 12).map(lambda q: q * 0.25),
                  st.floats(0.0, 50.0, allow_nan=False))
lengths = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                    st.floats(0.0, 5.0, allow_nan=False))


@st.composite
def intervals(draw):
    """ULFM ``(start, end, is_replacement)`` records."""
    start = draw(times)
    return (start, start + draw(lengths), draw(st.booleans()))


@st.composite
def phase_spans(draw):
    start = draw(times)
    return PhaseSpan(anchor=draw(st.sampled_from(["ckpt", "ulfm.shrink"])),
                     rank=draw(st.integers(-1, 3)), start=start,
                     end=start + draw(lengths), epoch=draw(st.integers(0, 1)))


def _span(item):
    return item[0], item[1]


# -- overlap_clusters itself ---------------------------------------------------
@settings(max_examples=300)
@given(st.lists(intervals(), max_size=12))
@example([(0.0, 1.0, False), (1.0, 2.0, False)])        # touching joins
@example([(0.0, 0.0, False), (0.0, 0.0, False)])        # zero-length dupes
@example([(0.0, 1.0, False), (1.25, 1.25, False)])      # zero-length apart
def test_matches_the_replaced_loop(items):
    items = sorted(items)
    assert overlap_clusters(items, _span) == reference_clusters(items, _span)


def test_touching_endpoint_joins_the_cluster():
    items = [(0.0, 1.0), (1.0, 2.0), (2.5, 3.0)]
    assert overlap_clusters(items, _span) == [[(0.0, 1.0), (1.0, 2.0)],
                                              [(2.5, 3.0)]]


def test_cluster_end_is_the_running_maximum():
    # the short middle span does not end the cluster the long one opened
    items = [(0.0, 5.0), (1.0, 1.5), (4.0, 4.5), (5.5, 6.0)]
    assert overlap_clusters(items, _span) == [items[:3], items[3:]]


def test_empty_input_has_no_clusters():
    assert overlap_clusters([], _span) == []


def test_zero_length_and_duplicate_spans():
    items = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]
    assert overlap_clusters(items, _span) == [[(1.0, 1.0), (1.0, 1.0)],
                                              [(2.0, 2.0)]]


# -- the two callers against their old loops -------------------------------------
def _episodes(records):
    ulfm = UlfmRecovery()
    ulfm.intervals = list(records)
    return ulfm.episode_list()


@settings(max_examples=300)
@given(st.lists(intervals(), max_size=12))
def test_episode_list_unchanged(records):
    assert _episodes(records) == reference_episode_list(records)


def test_replacement_only_cluster_falls_back_to_all_starts():
    # no survivor in the second cluster: its duration runs from the
    # latest replacement start
    records = [(0.0, 2.0, False), (1.0, 2.0, True),
               (5.0, 6.0, True), (5.5, 6.5, True)]
    assert _episodes(records) == [2.0, 1.0]
    assert _episodes(records) == reference_episode_list(records)


def test_take_episodes_returns_and_resets():
    ulfm = UlfmRecovery()
    ulfm.intervals = [(0.0, 2.0, False), (1.0, 2.5, True)]
    assert ulfm.take_episodes() == [2.5]
    assert ulfm.intervals == []
    assert ulfm.take_episodes() == []


@settings(max_examples=300)
@given(st.lists(phase_spans(), max_size=14))
def test_phase_timeline_unchanged(spans):
    recorder = PhaseRecorder()
    recorder.spans = list(spans)
    assert PhaseTimeline.build(recorder).windows == reference_windows(spans)
