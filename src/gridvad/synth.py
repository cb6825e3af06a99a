"""Deterministic synthetic scene generation.

Scenes are scripted as lanes (horizontal corridors with one object class,
a speed band and a box-size profile) plus anomaly injections in the test
split. The generator produces tracker-shaped output so the whole pipeline
can be validated end to end without any real video: we know exactly which
frames and boxes are anomalous.

Every track draws from its own PCG64 stream keyed by (seed, track counter)
through numpy's SeedSequence spawn keys, so output is byte-identical for a
given script regardless of how many tracks exist.

Lanes mix in occasional "outlier" individuals (smaller people, slower
walkers) on a fixed spawn cadence. They serve two purposes: they widen the
class-wise standard deviations so the tightly-jittered majority lands well
inside the one-sigma bins, and because each outlier crosses the whole lane
they populate their rarer bins at every lane cell, in training and test
alike. Boxes are only emitted while fully inside the frame, which keeps a
lane's attribute bins identical between splits.
"""

from __future__ import annotations

import json
import types
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .ingest import GroundTruth, GtRegion, TrackSet, TrackedDetection

ANOMALY_KINDS = ("wrong-class", "wrong-speed", "wrong-direction",
                 "wrong-size", "wrong-location")


class ScriptError(ValueError):
    """Inconsistent scene script (lane geometry, injection parameters...)."""


@dataclass(frozen=True)
class Lane:
    """One traffic corridor: where box bottoms sit and how objects move."""

    name: str
    class_id: int
    bottom_range: tuple[float, float]
    heading: str = "E"
    speed_range: tuple[float, float] = (1.9, 2.1)
    base_width: float = 22.0
    base_height: float = 50.0
    spawn_interval: int = 40
    confidence_range: tuple[float, float] = (0.87, 0.95)
    # every n-th spawned track is an outlier individual (0 disables)
    size_outlier_every: int = 0
    size_outlier_scale: float = 0.55
    speed_outlier_every: int = 0
    speed_outlier_scale: float = 0.5


@dataclass(frozen=True)
class Injection:
    """One scripted anomaly, active over [start_frame, end_frame] of the test split."""

    kind: str
    start_frame: int
    end_frame: int
    lane: int = 0
    class_id: int | None = None
    speed_multiplier: float = 1.0
    size_multiplier: float = 1.0
    heading: str | None = None
    bottom_y: float | None = None


@dataclass(frozen=True)
class SceneScript:
    resolution: tuple[int, int]
    train_frames: int
    test_frames: int
    lanes: tuple[Lane, ...]
    injections: tuple[Injection, ...] = ()
    seed: int = 0


def validate_script(script: SceneScript) -> None:
    w, h = script.resolution
    if w < 1 or h < 1:
        raise ScriptError(f"bad resolution {script.resolution}")
    if script.train_frames < 1 or script.test_frames < 1:
        raise ScriptError("train_frames and test_frames must be >= 1")
    if not script.lanes:
        raise ScriptError("a scene needs at least one lane")
    for lane in script.lanes:
        lo, hi = lane.bottom_range
        if not (0 < lo <= hi <= h):
            raise ScriptError(f"lane {lane.name}: bottom range {lane.bottom_range} "
                              f"outside the frame height {h}")
        if lane.base_width <= 0 or lane.base_height <= 0:
            raise ScriptError(f"lane {lane.name}: non-positive base box size")
        if lo - lane.base_height * 1.2 < 0:
            raise ScriptError(f"lane {lane.name}: boxes would poke above the frame")
        if lane.heading not in ("E", "W"):
            raise ScriptError(f"lane {lane.name}: heading must be E or W")
        if lane.spawn_interval < 1:
            raise ScriptError(f"lane {lane.name}: spawn interval must be >= 1")
    for inj in script.injections:
        if inj.kind not in ANOMALY_KINDS:
            raise ScriptError(f"unknown anomaly kind {inj.kind!r}")
        if not (1 <= inj.start_frame <= inj.end_frame <= script.test_frames):
            raise ScriptError(f"injection {inj.kind}: frame span "
                              f"[{inj.start_frame}, {inj.end_frame}] outside the test split")
        if not 0 <= inj.lane < len(script.lanes):
            raise ScriptError(f"injection {inj.kind}: lane {inj.lane} does not exist")
        if inj.kind == "wrong-class" and inj.class_id is None:
            raise ScriptError("wrong-class injection needs class_id")
        if inj.kind == "wrong-speed" and inj.speed_multiplier == 1.0:
            raise ScriptError("wrong-speed injection needs speed_multiplier != 1")
        if inj.kind == "wrong-size" and inj.size_multiplier == 1.0:
            raise ScriptError("wrong-size injection needs size_multiplier != 1")
        if inj.kind == "wrong-direction" and inj.heading is None:
            raise ScriptError("wrong-direction injection needs heading")
        if inj.kind == "wrong-location" and inj.bottom_y is None:
            raise ScriptError("wrong-location injection needs bottom_y")


def _track_rng(seed: int, uid: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(uid,))))


def _synthesize_track(rng: np.random.Generator, lane: Lane, resolution: tuple[int, int],
                      *, class_id: int, track_id: int, start_frame: int, last_frame: int,
                      size_outlier: bool = False, speed_outlier: bool = False,
                      speed_multiplier: float = 1.0, size_multiplier: float = 1.0,
                      heading: str | None = None,
                      bottom_y: float | None = None) -> list[TrackedDetection]:
    frame_w, frame_h = resolution
    heading = heading or lane.heading
    sign = 1.0 if heading == "E" else -1.0
    speed = rng.uniform(*lane.speed_range)
    if speed_outlier:
        speed *= lane.speed_outlier_scale
    speed *= speed_multiplier
    scale = rng.uniform(0.98, 1.02)
    if size_outlier:
        scale = lane.size_outlier_scale * rng.uniform(0.98, 1.02)
    scale *= size_multiplier
    bottom = float(bottom_y) if bottom_y is not None else rng.uniform(*lane.bottom_range)
    width, height = lane.base_width * scale, lane.base_height * scale
    x_center = width / 2.0 + 1.0 if sign > 0 else frame_w - width / 2.0 - 1.0
    detections = []
    frame = start_frame
    while frame <= last_frame:
        # jitter width only: a wobbling height would wobble the box center
        # and leak vertical velocity noise into the motion attributes
        w = width * (1.0 + rng.uniform(-0.015, 0.015))
        box = (x_center - w / 2.0, bottom - height, x_center + w / 2.0, bottom)
        if box[0] < 0 or box[2] > frame_w:
            break  # tracks end before any border clipping
        confidence = float(rng.uniform(*lane.confidence_range))
        detections.append(TrackedDetection(frame, track_id, class_id, box, confidence))
        x_center += sign * speed * (1.0 + rng.uniform(-0.02, 0.02))
        frame += 1
    return detections


def generate_scene(script: SceneScript) -> tuple[TrackSet, TrackSet, GroundTruth]:
    """Produce (train tracks, test tracks, ground truth) from a script.

    Byte-identical for identical scripts. Ground-truth regions cover
    exactly the boxes emitted by the injected anomalous tracks.
    """
    validate_script(script)
    uid = 0

    def normal_split(frames: int) -> list[TrackedDetection]:
        nonlocal uid
        detections: list[TrackedDetection] = []
        track_id = 0
        for lane in script.lanes:
            for index, spawn in enumerate(range(1, frames + 1, lane.spawn_interval)):
                rng = _track_rng(script.seed, uid)
                uid += 1
                speed_outlier = (lane.speed_outlier_every > 0
                                 and index % lane.speed_outlier_every == 0)
                size_outlier = (lane.size_outlier_every > 0
                                and index % lane.size_outlier_every == 1)
                detections.extend(_synthesize_track(
                    rng, lane, script.resolution, class_id=lane.class_id,
                    track_id=track_id, start_frame=spawn, last_frame=frames,
                    size_outlier=size_outlier, speed_outlier=speed_outlier))
                track_id += 1
        return detections

    train_detections = normal_split(script.train_frames)
    test_detections = normal_split(script.test_frames)
    next_track_id = 1 + max((d.track_id for d in test_detections), default=-1)
    regions: list[GtRegion] = []
    for index, inj in enumerate(script.injections):
        lane = script.lanes[inj.lane]
        rng = _track_rng(script.seed, uid)
        uid += 1
        track = _synthesize_track(
            rng, lane, script.resolution,
            class_id=inj.class_id if inj.class_id is not None else lane.class_id,
            track_id=next_track_id + index,
            start_frame=inj.start_frame, last_frame=inj.end_frame,
            speed_multiplier=inj.speed_multiplier, size_multiplier=inj.size_multiplier,
            heading=inj.heading, bottom_y=inj.bottom_y)
        test_detections.extend(track)
        regions.extend(GtRegion(d.frame_index, index, d.box) for d in track)

    train_detections.sort(key=lambda d: (d.frame_index, d.track_id))
    test_detections.sort(key=lambda d: (d.frame_index, d.track_id))
    regions.sort(key=lambda r: (r.frame, r.gt_id))
    train = TrackSet(script.resolution, script.train_frames, tuple(train_detections))
    test = TrackSet(script.resolution, script.test_frames, tuple(test_detections))
    return train, test, GroundTruth(tuple(regions))


# ---------------------------------------------------------------------------
# script (de)serialization


def script_to_dict(script: SceneScript) -> dict:
    return asdict(script)


def _checked(value, hint, where: str):
    """A script field's JSON value checked against its type hint; lists become tuples."""
    if get_origin(hint) is types.UnionType:  # an optional field, X | None
        if value is None:
            return None
        hint = get_args(hint)[0]
    if get_origin(hint) is tuple:
        items = get_args(hint)
        if not isinstance(value, (list, tuple)) or (
                items[-1] is not Ellipsis and len(value) != len(items)):
            size = "" if items[-1] is Ellipsis else f" of {len(items)}"
            raise ScriptError(f"scene script field {where} must be a list{size}")
        return tuple(_checked(item, items[0], f"{where}[{i}]") for i, item in enumerate(value))
    if is_dataclass(hint):
        return _record(hint, value, where)
    if type(value) is bool or not isinstance(value, (int, float) if hint is float else hint):
        raise ScriptError(f"scene script field {where} must be {hint.__name__}, "
                          f"not {type(value).__name__}")
    return value


def _record(cls, payload, where: str):
    """A script dataclass from its JSON object, each field checked by :func:`_checked`."""
    if not isinstance(payload, dict):
        raise ScriptError(f"scene script {where or 'file'} must be a JSON object")
    hints = get_type_hints(cls)
    prefix = f"{where}." if where else ""
    for name in sorted(payload.keys() - hints.keys()):
        raise ScriptError(f"scene script has unknown field {prefix}{name}")
    for field in fields(cls):
        if field.name not in payload and field.default is MISSING:
            raise ScriptError(f"scene script is missing field {prefix}{field.name}")
    return cls(**{name: _checked(value, hints[name], prefix + name)
                  for name, value in payload.items()})


def script_from_dict(payload: dict) -> SceneScript:
    """A scene script from JSON; a ScriptError names a missing, unknown or mistyped field."""
    return _record(SceneScript, payload, "")


def load_script(path) -> SceneScript:
    with open(path, encoding="utf-8") as fh:
        return script_from_dict(json.load(fh))


def save_script(script: SceneScript, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(script_to_dict(script), fh, indent=2)


# ---------------------------------------------------------------------------
# reference scenes used by the validation suite and the demos


def reference_script(seed: int = 42) -> SceneScript:
    """Two lanes, two classes, five injections covering every anomaly kind.

    People walk east along an upper walkway, cars drive west along a lower
    road. Each lane's bottom edges stay within a single grid row at cell
    sizes 40 and 80. The wrong-location band sits between the lanes where
    no bottom edge ever lands during training.
    """
    walkway = Lane(name="walkway", class_id=1, bottom_range=(188.0, 198.0),
                   heading="E", speed_range=(1.9, 2.1), base_width=22.0,
                   base_height=50.0, spawn_interval=35,
                   size_outlier_every=25, speed_outlier_every=12)
    road = Lane(name="road", class_id=3, bottom_range=(332.0, 348.0),
                heading="W", speed_range=(6.3, 6.7), base_width=90.0,
                base_height=42.0, spawn_interval=45,
                size_outlier_every=19, speed_outlier_every=10)
    injections = (
        Injection("wrong-class", 60, 120, lane=0, class_id=17),
        Injection("wrong-speed", 170, 230, lane=0, speed_multiplier=5.0),
        Injection("wrong-direction", 280, 340, lane=0, heading="W"),
        Injection("wrong-size", 390, 450, lane=0, size_multiplier=3.0),
        Injection("wrong-location", 500, 560, lane=0, bottom_y=268.0),
    )
    return SceneScript(resolution=(640, 360), train_frames=900, test_frames=600,
                       lanes=(walkway, road), injections=injections, seed=seed)


def temporal_anomaly_script(seed: int = 7) -> SceneScript:
    """Single lane whose only anomalies are temporal (speed and direction)."""
    walkway = Lane(name="walkway", class_id=1, bottom_range=(188.0, 198.0),
                   heading="E", speed_range=(1.9, 2.1), base_width=22.0,
                   base_height=50.0, spawn_interval=35,
                   size_outlier_every=25, speed_outlier_every=12)
    injections = (
        Injection("wrong-speed", 80, 140, lane=0, speed_multiplier=5.0),
        Injection("wrong-direction", 200, 260, lane=0, heading="W"),
        Injection("wrong-speed", 320, 380, lane=0, speed_multiplier=6.0),
        Injection("wrong-direction", 440, 500, lane=0, heading="W"),
    )
    return SceneScript(resolution=(640, 360), train_frames=600, test_frames=600,
                       lanes=(walkway,), injections=injections, seed=seed)


def occlusion_script(seed: int = 11) -> SceneScript:
    """Far walkway behind a near road of tall boxes that overlap it.

    The tall near boxes cover the mid band of the frame, so whole-box
    training pollutes those cells with observations while no bottom edge
    ever lands there. The injected mid-band walkers are only separable
    when training sticks to bottom edges.
    """
    far_walkway = Lane(name="far-walkway", class_id=1, bottom_range=(104.0, 116.0),
                       heading="E", speed_range=(1.2, 1.6), base_width=14.0,
                       base_height=30.0, spawn_interval=30,
                       size_outlier_every=25, speed_outlier_every=12)
    near_road = Lane(name="near-road", class_id=3, bottom_range=(332.0, 348.0),
                     heading="W", speed_range=(6.2, 6.8), base_width=95.0,
                     base_height=190.0, spawn_interval=25,
                     size_outlier_every=19, speed_outlier_every=10)
    injections = (
        Injection("wrong-location", 80, 140, lane=0, bottom_y=235.0),
        Injection("wrong-location", 220, 280, lane=0, bottom_y=245.0),
        Injection("wrong-location", 360, 420, lane=0, bottom_y=255.0),
    )
    return SceneScript(resolution=(640, 360), train_frames=600, test_frames=500,
                       lanes=(far_walkway, near_road), injections=injections, seed=seed)
