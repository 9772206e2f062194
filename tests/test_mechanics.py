"""Closed-form link mechanics: torque capacity and its inverse."""

import numpy as np
import pytest

from disc_mechanics import DiscGeometry, min_buckling_for_torque, torque_capacity


def test_torque_capacity_reference_values():
    assert torque_capacity(150.0, DiscGeometry(80.0)) == pytest.approx(31.18, abs=0.01)
    assert torque_capacity(0.0, DiscGeometry(80.0)) == 0.0
    assert torque_capacity(150.0, DiscGeometry(48.0)) == pytest.approx(18.71, abs=0.01)


def test_torque_linear_in_force_and_diameter():
    base = torque_capacity(100.0, DiscGeometry(60.0))
    assert torque_capacity(200.0, DiscGeometry(60.0)) == pytest.approx(2.0 * base, rel=1e-12)
    assert torque_capacity(100.0, DiscGeometry(120.0)) == pytest.approx(2.0 * base, rel=1e-12)


def test_min_buckling_reference_value():
    assert min_buckling_for_torque(31.18, DiscGeometry(80.0)) == pytest.approx(150.0, abs=0.1)
    assert min_buckling_for_torque(0.0, DiscGeometry(80.0)) == 0.0


def test_torque_inverse_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        torque = float(rng.uniform(0.0, 200.0))
        d = float(rng.uniform(10.0, 200.0))
        geom = DiscGeometry(d, n_buckling_links=int(rng.integers(1, 7)))
        back = torque_capacity(min_buckling_for_torque(torque, geom), geom)
        assert back == pytest.approx(torque, rel=1e-9, abs=1e-12)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        DiscGeometry(0.0)
    with pytest.raises(ValueError):
        DiscGeometry(80.0, n_buckling_links=0)
    with pytest.raises(ValueError):
        torque_capacity(-5.0, DiscGeometry(80.0))
    with pytest.raises(ValueError):
        min_buckling_for_torque(-1.0, DiscGeometry(80.0))
