"""Closed-form mechanics of a six-link flexible disc element, for the tests.

Converts between the buckling load a link can carry and the torque capacity
of the whole disc.  The pipeline states the paper's torque requirement only
as its buckling threshold, ``explorer.DEFAULT_BUCKLING_THRESHOLD_N``;
acceptance check 8 derives that threshold from the torque with these
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DiscGeometry:
    """Pitch circle diameter and the number of links loaded in compression."""

    pitch_circle_diameter_mm: float
    n_buckling_links: int = 3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pitch_circle_diameter_mm) and self.pitch_circle_diameter_mm > 0.0):
            raise ValueError(f"pitch circle diameter must be positive, got {self.pitch_circle_diameter_mm}")
        if self.n_buckling_links < 1:
            raise ValueError(f"need at least one buckling link, got {self.n_buckling_links}")


def torque_capacity(f2_n: float, geom: DiscGeometry) -> float:
    """Torque the disc transmits when each compressive link carries ``f2_n``.

    Equal tensile and compressive reactions are assumed, so the joint resultant
    is sqrt(3)*F2 and the torque is n_links * sqrt(3) * F2 * d/2 with the pitch
    circle diameter converted from millimetres to metres.  Result in N*m.
    """
    if f2_n < 0.0:
        raise ValueError(f"link force must be >= 0, got {f2_n}")
    radius_m = geom.pitch_circle_diameter_mm / 1000.0 / 2.0
    return geom.n_buckling_links * math.sqrt(3.0) * f2_n * radius_m


def min_buckling_for_torque(torque_nm: float, geom: DiscGeometry) -> float:
    """Smallest per-link buckling load that still transmits ``torque_nm``.

    Exact inverse of :func:`torque_capacity`.
    """
    if torque_nm < 0.0:
        raise ValueError(f"torque must be >= 0, got {torque_nm}")
    radius_m = geom.pitch_circle_diameter_mm / 1000.0 / 2.0
    return torque_nm / (geom.n_buckling_links * math.sqrt(3.0) * radius_m)
