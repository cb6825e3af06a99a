"""The batch featurizer's code columns against the one-box functions."""
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from gridvad.bn import NODE_ORDER
from gridvad.featurize import (
    BOX_MODES,
    CODES,
    MODEL_KINDS,
    SPATIOTEMPORAL,
    ClassStats,
    DiscretizationModel,
    box_area,
    box_center,
    build_grid,
    cell_labels,
    fit_discretizer,
    generate_observations,
    motion,
    observation_codes,
    stream_columns,
)
from gridvad.ingest import TrackSet, TrackedDetection
from oracles import with_predecessors


UNSEEN_CLASS = 17


@st.composite
def streams(draw):
    """A frame-sorted stream on a random grid, plus a model fitted to its seen classes.

    Box edges often lie on cell boundaries, steps move a box center by
    exactly the idle cutoff or less, frames skip, one class may be unseen
    and some classes get sigma = 0 statistics whose mean one box hits.
    """
    w, h = draw(st.integers(40, 200)), draw(st.integers(40, 160))
    cell = draw(st.integers(5, min(w, h)))

    def coord(limit):
        return draw(st.one_of(st.integers(0, limit // cell).map(lambda k: float(k * cell)),
                              st.integers(0, limit).map(float),
                              st.floats(0, limit, allow_nan=False)))

    def span(limit):
        a, b = sorted((coord(limit), coord(limit)))
        assume(a < b)
        return a, b

    def fresh_box():
        (x1, x2), (y1, y2) = span(w), span(h)
        return (x1, y1, x2, y2)

    shifts = st.one_of(st.sampled_from([0.0, 0.25, 0.5, -0.5, 1.0, 7.0]),
                       st.floats(-12, 12, allow_nan=False))
    rows = []
    for track in range(draw(st.integers(1, 5))):
        class_id = draw(st.sampled_from((1, 2, 3) if track == 0 else (1, 2, 3, UNSEEN_CLASS)))
        frame, box = draw(st.integers(1, 3)), fresh_box()
        for _ in range(draw(st.integers(1, 4))):
            rows.append((frame, track, class_id, box))
            frame += draw(st.sampled_from((1, 1, 2, 3)))
            if draw(st.booleans()):
                box = fresh_box()
            else:
                dx, dy = draw(shifts), draw(shifts)
                moved = (max(0.0, box[0] + dx), max(0.0, box[1] + dy),
                         min(float(w), box[2] + dx), min(float(h), box[3] + dy))
                if moved[0] < moved[2] and moved[1] < moved[3]:
                    box = moved
    rows.sort(key=lambda r: (r[0], r[1]))
    dets = tuple(TrackedDetection(f, t, c, b, 0.9) for f, t, c, b in rows)
    tracks = TrackSet((w, h), rows[-1][0], dets)
    model = fit_discretizer(TrackSet((w, h), tracks.frame_count, tuple(
        d for d in dets if d.class_id != UNSEEN_CLASS)))
    per_class = dict(model.per_class)
    for class_id, stats in model.per_class.items():
        if draw(st.booleans()):
            area = box_area(next(d.box for d in dets if d.class_id == class_id))
            per_class[class_id] = ClassStats(area, 0.0, stats.speed_mean, 0.0)
    return tracks, build_grid((w, h), cell), DiscretizationModel(per_class)


def scalar_rows(tracks, grid, model, kind, box_mode):
    """(owner, code row) per (detection, cell) pair from the one-box :func:`cell_labels`."""
    out = []
    for d, (det, prev_center, gap) in enumerate(with_predecessors(tracks.detections)):
        for cell, labels in cell_labels(det.class_id, det.box, prev_center, gap, grid,
                                        model, kind, box_mode):
            codes = [CODES[rv][labels[rv]] if rv in labels else -1 for rv in NODE_ORDER[3:]]
            out.append((d, [det.frame_index, cell - 1, det.class_id, *codes]))
    return out


class TestBatchFeaturizer:
    @pytest.mark.parametrize("box_mode", BOX_MODES)
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @settings(max_examples=100, deadline=None)
    @given(case=streams())
    def test_codes_equal_one_box_functions(self, case, kind, box_mode):
        tracks, grid, model = case
        stream = stream_columns(tracks.detections, kind)
        for d, (det, prev_center, gap) in enumerate(with_predecessors(tracks.detections)):
            if prev_center is None:
                assert (stream.prev[d], stream.gap[d]) == (-1, -1)
                continue
            assert box_center(tracks.detections[stream.prev[d]].box) == prev_center
            assert stream.gap[d] == gap
            if kind == SPATIOTEMPORAL:
                speed, angle = motion(prev_center, box_center(det.box), gap)
                assert stream.speed[d] == speed
                assert math.isnan(stream.angle[d]) if angle is None else stream.angle[d] == angle
        try:
            expected = scalar_rows(tracks, grid, model, kind, box_mode)
        except ValueError:  # a box too thin to reach a cell, e.g. y2 = 5e-324
            with pytest.raises(ValueError):
                observation_codes(stream, grid, model, kind, box_mode)
            return
        owner, rows = observation_codes(stream, grid, model, kind, box_mode)
        assert owner.tolist() == [d for d, _ in expected]
        assert rows.tolist() == [row for _, row in expected]

    @pytest.mark.parametrize("box_mode", BOX_MODES)
    @settings(max_examples=40, deadline=None)
    @given(case=streams())
    def test_generate_observations_rows(self, case, box_mode):
        tracks, grid, model = case
        seen = TrackSet(tracks.resolution, tracks.frame_count, tuple(
            d for d in tracks.detections if model.knows(d.class_id)))
        try:
            expected = scalar_rows(seen, grid, model, SPATIOTEMPORAL, box_mode)
        except ValueError:
            with pytest.raises(ValueError):
                generate_observations(seen, grid, model, SPATIOTEMPORAL, box_mode)
            return
        table = generate_observations(seen, grid, model, SPATIOTEMPORAL, box_mode)
        assert table.rows.tolist() == [row for _, row in expected]


def assert_motion_bits(tracks):
    """Every stream speed and heading has the bits of the scalar :func:`motion`."""
    stream = stream_columns(tracks.detections, SPATIOTEMPORAL)
    for d, (det, prev_center, gap) in enumerate(with_predecessors(tracks.detections)):
        if prev_center is None:
            assert stream.speed[d] == 0.0 and math.isnan(stream.angle[d])
            continue
        speed, angle = motion(prev_center, box_center(det.box), gap)
        assert float(stream.speed[d]).hex() == speed.hex()
        if angle is None:
            assert math.isnan(stream.angle[d])
        else:
            assert float(stream.angle[d]).hex() == angle.hex()


class TestMotionColumns:
    @settings(max_examples=200, deadline=None)
    @given(case=streams())
    def test_speed_and_heading_bits_equal_motion(self, case):
        assert_motion_bits(case[0])

    def test_still_boxes_frame_gaps_and_rounding(self):
        # a still box over a gap of 3, a step of exactly -0.5 px, a move over a
        # gap of 2, and a step of (8.5, 13.5) px, whose length np.hypot rounds
        # one ulp above math.hypot
        boxes = {1: (10.0, 10.0, 20.0, 30.0), 4: (10.0, 10.0, 20.0, 30.0),
                 5: (9.5, 10.0, 19.5, 30.0), 7: (0.0, 0.0, 3.0, 4.0),
                 8: (8.5, 13.5, 11.5, 17.5)}
        tracks = TrackSet((64, 48), 8, tuple(TrackedDetection(f, 0, 1, box, 0.9)
                                             for f, box in boxes.items()))
        stream = stream_columns(tracks.detections, SPATIOTEMPORAL)
        assert stream.gap.tolist() == [-1, 3, 1, 2, 1]
        assert stream.speed[1] == 0.0 and math.isnan(stream.angle[1])
        assert stream.angle[2] == -180.0  # atan2(-dy, dx) with -dy = -0.0
        assert stream.speed[4] == math.hypot(8.5, 13.5)
        assert_motion_bits(tracks)

    def test_frame_gap_below_one_is_refused(self):
        # frames out of order within a track, as motion() refuses them
        rows = (TrackedDetection(3, 0, 1, (0.0, 0.0, 4.0, 4.0), 0.9),
                TrackedDetection(2, 0, 1, (1.0, 0.0, 5.0, 4.0), 0.9))
        with pytest.raises(ValueError, match="frame gap -1 must be >= 1"):
            stream_columns(TrackSet((8, 8), 3, rows).detections, SPATIOTEMPORAL)
