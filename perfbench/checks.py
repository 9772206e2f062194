"""Output checks of the benchmark: fronts against the lattice oracle, study cells.

The limits are those of the acceptance scorecard: check 3 for fronts (extreme
gaps at most 2 %, no oracle point better by more than 1 % in both
objectives) and check 5 for networks (mean test error at most 5 %).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

EXTREME_GAP_LIMIT = 0.02
BEATEN_MARGIN = 0.01
TEST_ERROR_LIMIT_PCT = 5.0

# Fixed hypervolume reference points (mass g, stress MPa) per design, beyond
# the nadir of every oracle front over the box for the fitted models.
HV_REFERENCE = {"A": (0.25, 300.0), "B": (0.28, 220.0)}


def hypervolume_2d(points: np.ndarray, ref: Sequence[float]) -> float:
    """Area dominated by a set of two-objective minimization points up to ``ref``."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pts = pts[(pts[:, 0] < ref[0]) & (pts[:, 1] < ref[1])]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    area = 0.0
    best_f2 = float(ref[1])
    for f1, f2 in pts[order]:
        if f2 < best_f2:
            area += (ref[0] - f1) * (best_f2 - f2)
            best_f2 = f2
    return area


def oracle_gap_check(front: np.ndarray, oracle: np.ndarray) -> tuple[bool, dict]:
    """Check a (k, 2) front against the (m, 2) lattice-oracle front."""
    front = np.asarray(front, dtype=float).reshape(-1, 2)
    oracle = np.asarray(oracle, dtype=float).reshape(-1, 2)
    if front.shape[0] == 0 or oracle.shape[0] == 0:
        return False, {"front_points": int(front.shape[0]), "oracle_points": int(oracle.shape[0])}
    o_min = oracle.min(axis=0)
    gaps = np.abs(front.min(axis=0) - o_min) / o_min
    beaten = (oracle[None, :, 0] < (1 - BEATEN_MARGIN) * front[:, None, 0]) & (
        oracle[None, :, 1] < (1 - BEATEN_MARGIN) * front[:, None, 1]
    )
    n_beaten = int(beaten.any(axis=1).sum())
    ok = bool(gaps.max() <= EXTREME_GAP_LIMIT and n_beaten == 0)
    return ok, {
        "mass_gap": float(gaps[0]),
        "stress_gap": float(gaps[1]),
        "beaten": n_beaten,
        "front_points": int(front.shape[0]),
    }


def study_check(payload: Mapping, trials: int, cells: Sequence[str]) -> tuple[bool, dict]:
    """Every expected cell present, no divergence, finite test error within limit."""
    by_key = {c["key"]: c for c in payload.get("cells", [])}
    problems = []
    for key in cells:
        cell = by_key.get(key)
        if cell is None:
            problems.append(f"{key}: missing")
            continue
        if cell["divergences"] or cell["trials"] != trials:
            problems.append(f"{key}: {cell['trials']} trials, {cell['divergences']} diverged")
        mean = cell["test_mean"]
        if mean is None or not math.isfinite(mean) or mean > TEST_ERROR_LIMIT_PCT:
            problems.append(f"{key}: test error {mean}")
    return not problems, {"problems": problems}
