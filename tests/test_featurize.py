import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridvad.bn import NODE_ORDER
from gridvad.featurize import (
    CATEGORIES,
    DIRECTION_CATEGORIES,
    INTERSECTION_CATEGORIES,
    SIZE_CATEGORIES,
    VELOCITY_CATEGORIES,
    ClassStats,
    DiscretizationModel,
    GridConfigError,
    StreamColumns,
    UnseenClassError,
    aspect_category,
    bottom_edge_cells,
    box_area,
    build_grid,
    covered_cells,
    direction_category,
    fit_discretizer,
    generate_observations,
    intersection_category,
    motion,
    observation_codes,
    size_category,
    velocity_category,
)
from gridvad.ingest import TrackSet, TrackedDetection, slice_frames

from conftest import decoded


class TestGrid:
    def test_avenue_coarse(self):
        grid = build_grid((640, 360), 40)
        assert (grid.cols, grid.rows, grid.cell_count) == (16, 9, 144)

    def test_720p_coarse(self):
        grid = build_grid((1280, 720), 40)
        assert (grid.cols, grid.rows, grid.cell_count) == (32, 18, 576)

    def test_avenue_fine(self):
        grid = build_grid((640, 360), 20)
        assert (grid.cols, grid.rows) == (32, 18)

    def test_bad_cell_sizes(self):
        with pytest.raises(GridConfigError):
            build_grid((640, 360), 0)
        with pytest.raises(GridConfigError):
            build_grid((640, 360), 361)

    def test_cell_rect_row_major_and_clipped(self):
        grid = build_grid((650, 360), 40)  # 17 cols, last column 10 px wide
        assert grid.cell_rect(1) == (0, 0, 40, 40)
        assert grid.cell_rect(18) == (0, 40, 40, 80)
        assert grid.cell_rect(17) == (640, 0, 650, 40)


class TestBottomEdgeCells:
    def test_hand_geometry(self):
        grid = build_grid((640, 360), 40)
        # bottom edge at y = 80 sits on a boundary and stays in row 1
        assert bottom_edge_cells((10, 20, 30, 80), grid) == [17]

    def test_box_exactly_one_cell(self):
        grid = build_grid((640, 360), 40)
        assert bottom_edge_cells((0, 0, 40, 40), grid) == [1]

    def test_three_column_span(self):
        grid = build_grid((640, 360), 40)
        assert bottom_edge_cells((0, 0, 120, 40), grid) == [1, 2, 3]

    def test_single_row_count_equals_column_span(self):
        grid = build_grid((640, 360), 40)
        rng = np.random.default_rng(5)
        for _ in range(300):
            x1 = rng.uniform(0, 600)
            y1 = rng.uniform(0, 340)
            box = (x1, y1, x1 + rng.uniform(1, 40), y1 + rng.uniform(1, 20))
            cells = bottom_edge_cells(box, grid)
            rows = {(c - 1) // grid.cols for c in cells}
            assert len(rows) == 1
            span = math.ceil(box[2] / 40) - 1 - math.floor(box[0] / 40) + 1
            assert len(cells) == span
            assert cells == sorted(cells)

    def test_whole_box_superset(self):
        grid = build_grid((640, 360), 40)
        rng = np.random.default_rng(6)
        for _ in range(300):
            x1 = rng.uniform(0, 600)
            y1 = rng.uniform(0, 340)
            box = (x1, y1, x1 + rng.uniform(1, 40), y1 + rng.uniform(1, 20))
            assert set(bottom_edge_cells(box, grid)) <= set(covered_cells(box, grid))


class TestIntersection:
    def test_cell_inside_box_is_full(self):
        grid = build_grid((640, 360), 40)
        assert intersection_category((0, 0, 120, 120), 18, grid) == "full"

    def test_exact_half_bins_upward(self):
        grid = build_grid((640, 360), 40)
        assert intersection_category((0, 20, 40, 80), 1, grid) == "1/2"

    def test_quarter_boundary(self):
        grid = build_grid((640, 360), 40)
        # 10 * 40 / 1600 = 0.25 falls into the 1/4 bin
        assert intersection_category((0, 30, 40, 40), 1, grid) == "1/4"

    def test_empty_intersection_is_caller_bug(self):
        grid = build_grid((640, 360), 40)
        with pytest.raises(ValueError):
            intersection_category((100, 100, 120, 120), 1, grid)


def track_set(rows):
    """rows: (frame, track, class, box) tuples, confidence fixed."""
    dets = tuple(TrackedDetection(f, t, c, tuple(map(float, b)), 0.9)
                 for f, t, c, b in sorted(rows, key=lambda r: (r[0], r[1])))
    return TrackSet((640, 360), max(r[0] for r in rows), dets)


class TestDiscretizer:
    def test_constant_areas(self):
        ts = track_set([(f, 0, 1, (0, 0, 20, 40)) for f in range(1, 4)])
        model = fit_discretizer(ts)
        stats = model.stats(1)
        assert (stats.size_mean, stats.size_std) == (800.0, 0.0)

    def test_hand_computed_area_stats(self):
        ts = track_set([(1, 0, 1, (0, 0, 10, 10)), (2, 1, 1, (0, 0, 10, 20)),
                        (3, 2, 1, (0, 0, 10, 30))])
        stats = fit_discretizer(ts).stats(1)
        assert stats.size_mean == pytest.approx(200.0)
        assert stats.size_std == pytest.approx(math.sqrt(20000.0 / 3.0))

    def test_stationary_track_zero_speed_stats(self):
        ts = track_set([(f, 0, 1, (0, 0, 20, 40)) for f in range(1, 6)])
        stats = fit_discretizer(ts).stats(1)
        assert (stats.speed_mean, stats.speed_std) == (0.0, 0.0)

    def test_speed_uses_true_frame_gap(self):
        # same center displacement rate, observed over gaps of 2 frames
        boxes = [(1, (0, 0, 10, 10)), (3, (8, 0, 18, 10)), (5, (16, 0, 26, 10))]
        ts = track_set([(f, 0, 1, b) for f, b in boxes])
        stats = fit_discretizer(ts).stats(1)
        assert stats.speed_mean == pytest.approx(4.0)
        assert stats.speed_std == pytest.approx(0.0)

    def test_idle_speeds_excluded_from_stats(self):
        boxes = [(1, (0, 0, 10, 10)), (2, (0.1, 0, 10.1, 10)), (3, (8, 0, 18, 10))]
        ts = track_set([(f, 0, 1, b) for f, b in boxes])
        stats = fit_discretizer(ts).stats(1)
        assert stats.speed_mean == pytest.approx(7.9)  # only the non-idle step

    def test_unseen_class_signal(self):
        model = fit_discretizer(track_set([(1, 0, 1, (0, 0, 10, 10))]))
        with pytest.raises(UnseenClassError):
            model.stats(3)

    # steps whose length is an integer, so a k-frame step over gap k is the same float
    STEPS = [(0, 0), (1, 0), (0, -2), (3, 4), (-4, 3), (5, -12), (-6, -8)]

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 4), spans=st.integers(1, 4),
           tracks=st.lists(st.tuples(st.sampled_from([1, 3]), st.sampled_from(STEPS),
                                     st.integers(4, 40), st.integers(4, 40)),
                           min_size=1, max_size=5))
    def test_statistics_invariant_under_frame_slicing(self, k, spans, tracks):
        # every track spans frames 1 .. spans * k + 1, so slicing by k keeps each
        # track's share of the areas and of the speeds
        rows = [(f, tid, cls, (100 + dx * f, 200 + dy * f, 100 + dx * f + w, 200 + dy * f + h))
                for tid, (cls, (dx, dy), w, h) in enumerate(tracks)
                for f in range(1, spans * k + 2)]
        full = fit_discretizer(track_set(rows))
        sliced = fit_discretizer(slice_frames(track_set(rows), k))
        assert full.per_class.keys() == sliced.per_class.keys()
        for cls, stats in full.per_class.items():
            got = sliced.per_class[cls]
            # integer areas and speeds sum exactly; the squared deviations need not
            assert (got.size_mean, got.speed_mean) == (stats.size_mean, stats.speed_mean)
            assert got.size_std == pytest.approx(stats.size_std, rel=1e-12, abs=1e-12)
            assert got.speed_std == pytest.approx(stats.speed_std, rel=1e-12, abs=1e-12)


MODEL = DiscretizationModel({1: ClassStats(200.0, math.sqrt(20000.0 / 3.0), 2.0, 1.0),
                             3: ClassStats(800.0, 0.0, 0.0, 0.0)})


class TestSizeCategory:
    def test_mean_is_medium(self):
        assert size_category(200.0, 1, MODEL) == "medium"

    def test_hand_large(self):
        assert size_category(300.0, 1, MODEL) == "large"

    def test_zero_sigma_rules(self):
        assert size_category(900.0, 3, MODEL) == "x-large"
        assert size_category(800.0, 3, MODEL) == "medium"
        assert size_category(700.0, 3, MODEL) == "x-small"

    def test_every_area_maps_to_one_bin(self):
        rng = np.random.default_rng(7)
        for area in rng.uniform(0, 1000, 500):
            assert size_category(float(area), 1, MODEL) in SIZE_CATEGORIES

    def test_unseen_class(self):
        with pytest.raises(UnseenClassError):
            size_category(100.0, 42, MODEL)


class TestVelocityCategory:
    def test_zero_is_idle(self):
        assert velocity_category(0.0, 1, MODEL) == "idle"

    def test_mean_is_normal(self):
        assert velocity_category(2.0, 1, MODEL) == "normal"

    def test_hand_lightning(self):
        assert velocity_category(6.5, 1, MODEL) == "lightning fast"

    def test_bin_ladder(self):
        assert velocity_category(0.9, 1, MODEL) == "slow"
        assert velocity_category(3.5, 1, MODEL) == "fast"
        assert velocity_category(4.5, 1, MODEL) == "very fast"
        assert velocity_category(5.5, 1, MODEL) == "super fast"

    def test_zero_sigma_class_movement_is_extreme(self):
        assert velocity_category(0.6, 3, MODEL) == "lightning fast"


class TestAspect:
    def test_square(self):
        assert aspect_category((0, 0, 40, 40)) == "square"

    def test_landscape(self):
        assert aspect_category((0, 0, 80, 40)) == "landscape"

    def test_near_square_within_tolerance(self):
        assert aspect_category((0, 0, 40, 42)) == "square"

    def test_portrait(self):
        assert aspect_category((0, 0, 40, 45)) == "portrait"


# Every bin edge with the documented label one float step below it, on it and
# one step above it (None where no value can lie). Size: mean 100, std 10,
# so x-small < 80 <= small < 90 <= medium <= 110 < large <= 120 < x-large.
# Speed: mean 10, std 2, idle at or below 0.5 px/frame, then slow < 8 <=
# normal <= 12 < fast <= 14 < very fast <= 16 < super fast <= 18 < lightning
# fast. Covered fraction: small < 1/4 <= ... < 1 <= full. Aspect: square in
# [1/1.1, 1.1].
EDGE_MODEL = DiscretizationModel({1: ClassStats(100.0, 10.0, 10.0, 2.0)})
UNIT_GRID = build_grid((200, 200), 1)
EDGES = {
    "I": [(0.25, ("small", "1/4", "1/4")), (0.5, ("1/4", "1/2", "1/2")),
          (0.75, ("1/2", "3/4", "3/4")), (1.0, ("3/4", "full", None))],
    "BS": [(80.0, ("x-small", "small", "small")), (90.0, ("small", "medium", "medium")),
           (110.0, ("medium", "medium", "large")), (120.0, ("large", "large", "x-large"))],
    "BAR": [(1 / 1.1, ("portrait", "square", "square")),
            (1.1, ("square", "square", "landscape"))],
    "V": [(0.5, ("idle", "idle", "slow")), (8.0, ("slow", "normal", "normal")),
          (12.0, ("normal", "normal", "fast")), (14.0, ("fast", "fast", "very fast")),
          (16.0, ("very fast", "very fast", "super fast")),
          (18.0, ("super fast", "super fast", "lightning fast"))],
}
EDGE_CASES = [(rv, value, label)
              for rv, edges in EDGES.items() for edge, labels in edges
              for value, label in zip((math.nextafter(edge, -math.inf), edge,
                                       math.nextafter(edge, math.inf)), labels)
              if label is not None]


def edge_box(rv, value):
    """A box whose covered fraction of cell 1 (I), or whose area and aspect
    ratio (BS, BAR), is exactly ``value`` on the 1-pixel grid."""
    return (0.0, 0.0, 1.0, value) if rv == "I" else (0.0, 0.0, value, 1.0)


class TestBinEdges:
    @pytest.mark.parametrize("rv, value, label", EDGE_CASES,
                             ids=[f"{rv}-{value!r}" for rv, value, _ in EDGE_CASES])
    def test_scalar_and_column_bins_follow_the_documented_rule(self, rv, value, label):
        box = edge_box(rv, value)
        scalar = {"I": lambda: intersection_category(box, 1, UNIT_GRID),
                  "BS": lambda: size_category(value, 1, EDGE_MODEL),
                  "BAR": lambda: aspect_category(box),
                  "V": lambda: velocity_category(value, 1, EDGE_MODEL)}[rv]()
        # one moving detection whose speed is the value of a V case
        stream = StreamColumns(np.array([1]), np.array([1]), np.array([box]),
                               np.array([[0.0, 0.0]]), np.array([0]), np.array([1]),
                               np.array([value if rv == "V" else 1.0]), np.array([0.0]))
        _, rows = observation_codes(stream, UNIT_GRID, EDGE_MODEL)
        column = {CATEGORIES[rv][code] for code in rows[:, NODE_ORDER.index(rv)].tolist()}
        assert (scalar, column) == (label, {label})


class TestMotion:
    def test_zero_displacement(self):
        assert motion((5, 5), (5, 5), 1) == (0.0, None)

    def test_three_four_five(self):
        speed, _ = motion((0, 0), (3, 4), 1)
        assert speed == pytest.approx(5.0)

    def test_north_means_decreasing_y(self):
        speed, angle = motion((0, 10), (0, 0), 2)
        assert speed == pytest.approx(5.0)
        assert direction_category(angle) == "N"

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            motion((0, 0), (1, 1), 0)


class TestDirection:
    def test_due_east(self):
        assert direction_category(0.0) == "E"

    def test_44_degrees_past_north_toward_east(self):
        assert direction_category(90.0 - 44.0) == "NE"

    def test_none_for_idle(self):
        assert direction_category(None) == "none"

    def test_all_compass_points(self):
        expected = {0: "E", 45: "NE", 90: "N", 135: "NW", 180: "W",
                    225: "SW", 270: "S", 315: "SE"}
        for angle, label in expected.items():
            assert direction_category(float(angle)) == label
            assert direction_category(float(angle - 360)) == label


class TestGenerateObservations:
    def grid(self):
        return build_grid((640, 360), 40)

    def test_row_per_bottom_edge_cell(self):
        ts = track_set([(1, 0, 1, (0, 0, 120, 40))])
        table = generate_observations(ts, self.grid(), fit_discretizer(ts), "spatial")
        assert len(table.rows) == 3
        assert decoded(table, "G") == [1, 2, 3]

    def test_first_appearance_idle_none(self):
        ts = track_set([(1, 0, 1, (0, 0, 20, 40)), (2, 0, 1, (8, 0, 28, 40))])
        table = generate_observations(ts, self.grid(), fit_discretizer(ts))
        velocity, direction = decoded(table, "V"), decoded(table, "D")
        assert (velocity[0], direction[0]) == ("idle", "none")
        assert velocity[1] != "idle"
        assert direction[1] == "E"

    def test_spatial_rows_have_no_temporal_fields(self):
        ts = track_set([(1, 0, 1, (0, 0, 20, 40))])
        table = generate_observations(ts, self.grid(), fit_discretizer(ts), "spatial")
        assert decoded(table, "V")[0] is None and decoded(table, "D")[0] is None

    def test_whole_mode_superset_rows(self):
        ts = track_set([(1, 0, 1, (10, 10, 90, 150))])
        disc = fit_discretizer(ts)
        bottom = generate_observations(ts, self.grid(), disc, box_mode="bottom")
        whole = generate_observations(ts, self.grid(), disc, box_mode="whole")
        assert set(decoded(bottom, "G")) < set(decoded(whole, "G"))

    def test_all_values_within_value_spaces(self):
        rng = np.random.default_rng(8)
        rows = []
        for track in range(40):
            x1 = rng.uniform(0, 500)
            y1 = rng.uniform(0, 250)
            w, h = rng.uniform(5, 100), rng.uniform(5, 100)
            for step in range(3):
                cls = int(rng.integers(1, 4))
                rows.append((step + 1, track, cls,
                             (x1 + step * rng.uniform(-6, 6), y1,
                              min(x1 + w, 640), min(y1 + h, 360))))
        ts = track_set(rows)
        table = generate_observations(ts, self.grid(), fit_discretizer(ts))
        count = 0
        for i, bs, v, d, cell in zip(*(decoded(table, rv) for rv in ("I", "BS", "V", "D", "G"))):
            assert i in INTERSECTION_CATEGORIES
            assert bs in SIZE_CATEGORIES
            assert v in VELOCITY_CATEGORIES
            assert d in DIRECTION_CATEGORIES
            assert 1 <= cell <= 144
            count += 1
        assert count == len(table.rows)

    def test_scale_covariance_of_size_bins(self):
        rng = np.random.default_rng(9)
        rows = [(f + 1, t, 1, (x, y, x + w, y + h))
                for t in range(10) for f, (x, y, w, h) in enumerate(
                    (rng.uniform(0, 300), rng.uniform(0, 150),
                     rng.uniform(10, 60), rng.uniform(10, 60)) for _ in range(3))]
        ts = track_set(rows)
        k = 2.0
        scaled = track_set([(f, t, c, tuple(v * k for v in b)) for f, t, c, b in rows])
        disc, disc_k = fit_discretizer(ts), fit_discretizer(scaled)
        for d, dk in zip(ts.detections, scaled.detections):
            assert (size_category(box_area(d.box), 1, disc)
                    == size_category(box_area(dk.box), 1, disc_k))
            assert aspect_category(d.box) == aspect_category(dk.box)

    def test_csv_export_header(self):
        ts = track_set([(1, 0, 1, (0, 0, 20, 40))])
        table = generate_observations(ts, self.grid(), fit_discretizer(ts))
        buffer = io.StringIO()
        table.write_csv(buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "F,G,C,I,BS,BAR,V,D"
        assert len(lines) == 1 + len(table.rows)

