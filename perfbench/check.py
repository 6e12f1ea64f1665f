"""Ground-truth check of the program's point-cloud outputs.

A frame passes when every true target has a point within half a range bin,
half a Doppler bin and 2 degrees of azimuth (the tolerances of acceptance
criterion 1), and every point lies that close to some true target. A frame
whose points file is missing or unreadable fails. Nothing is retried.
"""

from __future__ import annotations

import csv
from pathlib import Path

from workloads import RANGE_RES_M, VELOCITY_RES_M_S, Target

AZIMUTH_TOL_DEG = 2.0


def _matches(point: dict, t: Target) -> bool:
    return (
        abs(point["range_m"] - t.range_m) <= RANGE_RES_M / 2
        and abs(point["velocity_m_s"] - t.velocity_m_s) <= VELOCITY_RES_M_S / 2
        and abs(point["azimuth_deg"] - t.azimuth_deg) <= AZIMUTH_TOL_DEG
    )


def read_points(path: Path, frame_index: int) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    points = []
    for row in rows:
        if int(row["frame"]) != frame_index:
            raise ValueError(f"{path.name}: row for frame {row['frame']}")
        points.append({k: float(row[k]) for k in ("range_m", "velocity_m_s", "azimuth_deg")})
    return points


def frame_failure(out_dir: Path, frame_index: int, truth: list[Target]) -> str | None:
    """Why frame ``frame_index`` fails the check, or None when it passes."""
    path = out_dir / f"frame_{frame_index}_points.csv"
    try:
        points = read_points(path, frame_index)
    except (OSError, ValueError, KeyError) as e:
        return f"unreadable points: {e}"
    missed = [t for t in truth if not any(_matches(p, t) for p in points)]
    extra = [p for p in points if not any(_matches(p, t) for t in truth)]
    if missed or extra:
        return f"{len(missed)} of {len(truth)} targets missed, {len(extra)} unmatched points"
    return None


def check_frames(out_dir: Path, truths: list[list[Target]]) -> list[tuple[int, str]]:
    """(frame, reason) for each of frames 0..len(truths)-1 that fails."""
    failures = []
    for i, truth in enumerate(truths):
        reason = frame_failure(out_dir, i, truth)
        if reason is not None:
            failures.append((i, reason))
    return failures
