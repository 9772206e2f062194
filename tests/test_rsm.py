"""Polynomial response-surface models: evaluation, fitting, goodness of fit."""

import numpy as np
import pytest

from discflex.dataset import Dataset, DesignTag, latin_hypercube
from discflex.rsm import (
    MonomialBasis,
    RsmModel,
    evaluate_batch,
    evaluate_models,
    fit,
    models_from_payload,
    models_payload,
    r_squared,
    reference_basis,
    reference_models,
)
from oracles import evaluate as evaluate_by_terms

RESPONSES = ("mass_g", "stress_mpa", "buckling_n")

# hand evaluations of the shipped models at (32, 6, 0.6)
HAND_POINT = np.array([32.0, 6.0, 0.6])
HAND_VALUES = {
    DesignTag.A: {
        "mass_g": 0.00199 * 32 * 6 * 0.6 - 0.00371 * 6 * 0.6 + 0.00369,
        "stress_mpa": 263.3 + 1065.3 * 0.36 - 0.47 * 32 * 6 - 25.1 * 32 * 0.36,
        "buckling_n": -0.995 * 32**2 * 6 * 0.6**3 + 2075.19 * 6 * 0.6**3,
    },
    DesignTag.B: {
        "mass_g": 0.00153 * 32 * 6 * 0.6 + 0.01613 * 32 * 0.6 - 0.262 * 0.6 + 0.00044,
        "stress_mpa": 292.9 + 769.3 * 0.36 - 5.17 * 32 - 17.52 * 32 * 0.36,
        "buckling_n": -1.47792 * 32**2 * 6 * 0.6**3 + 3078.22 * 6 * 0.6**3,
    },
}


def evaluate(model, point):
    """The library's batch evaluation on a one-row batch."""
    return float(evaluate_batch(model, point[None, :])[0])


def _oracle_dataset(tag, n=50, seed=21, noise=0.0):
    designs = latin_hypercube(n, seed=seed)
    models = reference_models(tag)
    responses = np.column_stack([evaluate_batch(models[name], designs) for name in RESPONSES])
    if noise:
        rng = np.random.default_rng(seed + 1)
        responses = responses * (1.0 + noise * rng.standard_normal(responses.shape))
    return Dataset(designs, responses, tag)


def test_hand_evaluations_to_1e9_relative():
    for tag, expected in HAND_VALUES.items():
        models = reference_models(tag)
        for name, value in expected.items():
            assert evaluate(models[name], HAND_POINT) == pytest.approx(value, rel=1e-9)


def test_hand_evaluation_decimal_anchors():
    models_a = reference_models(DesignTag.A)
    models_b = reference_models(DesignTag.B)
    assert evaluate(models_a["mass_g"], HAND_POINT) == pytest.approx(0.219582, abs=1e-9)
    assert evaluate(models_a["stress_mpa"], HAND_POINT) == pytest.approx(267.416, abs=1e-9)
    assert evaluate(models_a["buckling_n"], HAND_POINT) == pytest.approx(1368.98, abs=0.005)
    assert evaluate(models_b["mass_g"], HAND_POINT) == pytest.approx(0.329192, abs=1e-9)
    assert evaluate(models_b["stress_mpa"], HAND_POINT) == pytest.approx(202.578, abs=0.001)
    assert evaluate(models_b["buckling_n"], HAND_POINT) == pytest.approx(2028.02, abs=0.005)


def test_published_coefficient_spot_checks():
    models_a = reference_models(DesignTag.A)
    mass = models_a["mass_g"]
    assert mass.coefficients[mass.basis.terms.index((0, 0, 0))] == 0.00369
    stress = models_a["stress_mpa"]
    assert stress.coefficients[stress.basis.terms.index((0, 0, 2))] == 1065.3
    buck_b = reference_models(DesignTag.B)["buckling_n"]
    assert buck_b.coefficients[buck_b.basis.terms.index((2, 1, 3))] == -1.47792


def test_evaluate_batch_matches_scalar_evaluate():
    models = reference_models(DesignTag.A)
    designs = latin_hypercube(20, seed=2)
    for name in RESPONSES:
        batch = evaluate_batch(models[name], designs)
        scalars = [evaluate_by_terms(models[name], row) for row in designs]
        assert np.allclose(batch, scalars, rtol=1e-14)


def test_evaluate_models_matches_one_stacked_design_matrix_per_model():
    # the models share monomials; each column must keep the bits of its own
    # C-ordered design matrix times its coefficients
    designs = latin_hypercube(101, seed=4)
    for tag in (DesignTag.A, DesignTag.B):
        models = [reference_models(tag)[name] for name in RESPONSES]
        got = evaluate_models(models, designs)
        assert got.shape == (101, 3)
        for m, model in enumerate(models):
            l, b, t = designs.T
            phi = np.stack([l**p * b**q * t**r for p, q, r in model.basis.terms], axis=1)
            assert np.array_equal(got[:, m], phi @ np.array(model.coefficients))
            assert np.array_equal(evaluate_batch(model, designs), got[:, m])


def test_exact_coefficient_recovery_all_six_models():
    for tag in (DesignTag.A, DesignTag.B):
        data = _oracle_dataset(tag)
        published = reference_models(tag)
        for name in RESPONSES:
            fitted = fit(reference_basis(tag, name), data, name)
            ref = np.array(published[name].coefficients)
            got = np.array(fitted.coefficients)
            assert np.allclose(got, ref, rtol=1e-8)
            assert fitted.r_squared >= 1.0 - 1e-12


def test_noisy_fit_keeps_high_r_squared():
    data = _oracle_dataset(DesignTag.A, noise=0.01)
    model = fit(reference_basis(DesignTag.A, "mass_g"), data, "mass_g")
    assert model.r_squared > 0.99


def test_r_squared_perfect_and_mean_models():
    data = _oracle_dataset(DesignTag.A, n=30, seed=5)
    exact = reference_models(DesignTag.A)["mass_g"]
    assert r_squared(exact, data) == pytest.approx(1.0, abs=1e-12)
    mean_model = RsmModel(
        MonomialBasis(((0, 0, 0),)),
        (float(data.response_column("mass_g").mean()),),
        "mass_g",
    )
    assert r_squared(mean_model, data) == pytest.approx(0.0, abs=1e-12)


def test_r_squared_rejects_zero_variance():
    designs = latin_hypercube(5, seed=7)
    responses = np.column_stack([np.full(5, 3.0), np.arange(5) + 1.0, np.arange(5) + 2.0])
    data = Dataset(designs, responses, DesignTag.A)
    model = RsmModel(MonomialBasis(((0, 0, 0),)), (3.0,), "mass_g")
    with pytest.raises(ValueError, match="variance"):
        r_squared(model, data)


def test_evaluate_linear_in_coefficients():
    basis = reference_basis(DesignTag.A, "stress_mpa")
    rng = np.random.default_rng(17)
    for _ in range(50):
        c1 = tuple(rng.standard_normal(len(basis)))
        c2 = tuple(rng.standard_normal(len(basis)))
        c_sum = tuple(a + b for a, b in zip(c1, c2))
        x = rng.uniform([24, 3, 0.3], [40, 9, 0.9])
        lhs = evaluate(RsmModel(basis, c_sum, "stress_mpa"), x)
        rhs = evaluate(RsmModel(basis, c1, "stress_mpa"), x) + evaluate(
            RsmModel(basis, c2, "stress_mpa"), x
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_fitted_coefficients_are_least_squares_optimal():
    data = _oracle_dataset(DesignTag.B, noise=0.02, seed=9)
    model = fit(reference_basis(DesignTag.B, "stress_mpa"), data, "stress_mpa")
    y = data.response_column("stress_mpa")

    def ss_res(coeffs):
        return float(np.sum((y - evaluate_batch(
            RsmModel(model.basis, tuple(coeffs), "stress_mpa"), data.designs)) ** 2))

    best = ss_res(model.coefficients)
    for k in range(len(model.coefficients)):
        for sign in (+1.0, -1.0):
            perturbed = list(model.coefficients)
            perturbed[k] *= 1.0 + sign * 1e-4
            assert ss_res(perturbed) >= best


def test_fit_rejects_underdetermined_and_collinear():
    small = _oracle_dataset(DesignTag.A, n=3, seed=3)
    with pytest.raises(ValueError, match="rows"):
        fit(reference_basis(DesignTag.A, "stress_mpa"), small, "stress_mpa")

    # constant l makes the l and l^2 columns proportional
    designs = np.column_stack(
        [np.full(10, 30.0), np.linspace(3, 9, 10), np.linspace(0.3, 0.9, 10)]
    )
    responses = np.column_stack([designs.sum(axis=1)] * 3)
    data = Dataset(designs, responses, DesignTag.A)
    with pytest.raises(ValueError, match="rank"):
        fit(MonomialBasis(((1, 0, 0), (2, 0, 0))), data, "mass_g")


def test_basis_validation():
    with pytest.raises(ValueError):
        MonomialBasis(())
    with pytest.raises(ValueError):
        MonomialBasis(((1, 0, 0), (1, 0, 0)))
    with pytest.raises(ValueError):
        MonomialBasis(((1, -1, 0),))


def test_model_record_round_trip():
    model = reference_models(DesignTag.B)["buckling_n"]
    clone = RsmModel.from_record(model.to_record())
    assert clone.basis.terms == model.basis.terms
    assert clone.coefficients == model.coefficients
    assert clone.response_name == model.response_name
    assert clone.r_squared == model.r_squared


def test_model_set_record_rejects_misfiled_and_overflowing_models():
    models = reference_models(DesignTag.A)
    payload = models_payload(DesignTag.A, models)
    payload["models"]["mass_g"] = payload["models"]["stress_mpa"]
    with pytest.raises(ValueError, match="malformed model payload.*the mass_g record models "
                                         "'stress_mpa'"):
        models_from_payload(payload)
    payload = models_payload(DesignTag.A, models)
    payload["models"]["mass_g"]["coefficients"][0] = 10**400  # past float's range
    with pytest.raises(ValueError, match="malformed model payload.*OverflowError"):
        models_from_payload(payload)
    # json reads NaN as nan and 1e400 as inf
    for coefficient in (float("nan"), float("inf")):
        payload["models"]["mass_g"]["coefficients"][0] = coefficient
        with pytest.raises(ValueError, match="malformed model payload.*must be finite"):
            models_from_payload(payload)
