"""Polynomial response-surface surrogates over (length, width, thickness).

A model is a linear combination of monomials l^a * b^c * t^e.  The module
ships the fitted case-study models for both disc variants, fits coefficients
to data by least squares over a caller-declared monomial basis, and scores
models with the coefficient of determination.  Several models evaluated on
one batch share their powers and monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset, DesignTag, RESPONSE_COLUMNS

ExponentTriple = tuple[int, int, int]


@dataclass(frozen=True)
class MonomialBasis:
    """Distinct monomial terms, each an exponent triple (exp_l, exp_b, exp_t)."""

    terms: tuple[ExponentTriple, ...]

    def __post_init__(self) -> None:
        terms = tuple(tuple(int(e) for e in term) for term in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("basis needs at least one term")
        if len(set(terms)) != len(terms):
            raise ValueError(f"basis terms must be distinct, got {terms}")
        if any(len(t) != 3 or min(t) < 0 for t in terms):
            raise ValueError(f"each term must be three non-negative exponents, got {terms}")

    def __len__(self) -> int:
        return len(self.terms)


def _design_matrices(bases: Sequence[MonomialBasis], points: np.ndarray) -> list[np.ndarray]:
    """Each basis's monomial values for the rows of ``points`` (n, 3).

    Every power ``pts[:, v] ** e`` and every monomial ``l^a * b^c * t^e`` is
    computed once however many bases share it.  Each matrix is C-ordered
    (n, n_terms) and filled column by column: a matrix-vector product's last
    bits depend on the memory order, and slicing columns out of one matrix of
    all monomials would give F-ordered copies.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    powers: dict[tuple[int, int], np.ndarray] = {}
    monomials: dict[ExponentTriple, np.ndarray] = {}

    def power(v: int, e: int) -> np.ndarray:
        if (v, e) not in powers:
            powers[v, e] = pts[:, v] ** e
        return powers[v, e]

    matrices = []
    for basis in bases:
        phi = np.empty((pts.shape[0], len(basis)))
        for k, term in enumerate(basis.terms):
            if term not in monomials:
                monomials[term] = power(0, term[0]) * power(1, term[1]) * power(2, term[2])
            phi[:, k] = monomials[term]
        matrices.append(phi)
    return matrices


@dataclass(frozen=True)
class RsmModel:
    """A fitted polynomial surrogate for one response."""

    basis: MonomialBasis
    coefficients: tuple[float, ...]
    response_name: str
    r_squared: float | None = None

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != len(self.basis):
            raise ValueError(
                f"{len(coeffs)} coefficients for a {len(self.basis)}-term basis"
            )
        if self.r_squared is not None and self.r_squared > 1.0:
            raise ValueError(f"r_squared cannot exceed 1, got {self.r_squared}")

    def to_record(self) -> dict:
        return {
            "response_name": self.response_name,
            "terms": [list(t) for t in self.basis.terms],
            "coefficients": list(self.coefficients),
            "r_squared": self.r_squared,
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "RsmModel":
        return cls(
            basis=MonomialBasis(tuple(tuple(t) for t in record["terms"])),
            coefficients=tuple(record["coefficients"]),
            response_name=record["response_name"],
            r_squared=record["r_squared"],
        )


def models_payload(design_tag: DesignTag, models: Mapping[str, RsmModel]) -> dict:
    """Record of a model set: its design tag and each response's model record."""
    return {
        "design_tag": design_tag.value,
        "models": {name: models[name].to_record() for name in RESPONSE_COLUMNS},
    }


def models_from_payload(payload: Mapping) -> tuple[DesignTag, dict[str, RsmModel]]:
    """Design tag and models of a :func:`models_payload` record, each under its response."""
    try:
        tag = DesignTag(payload["design_tag"])
        models = {name: RsmModel.from_record(payload["models"][name]) for name in RESPONSE_COLUMNS}
        for name, model in models.items():
            if model.response_name != name:
                raise ValueError(f"the {name} record models {model.response_name!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed model payload: {exc!r}") from None
    return tag, models


def evaluate_models(models: Sequence[RsmModel], points: np.ndarray) -> np.ndarray:
    """Values of several models for all rows of ``points`` (n, 3); shape (n, n_models).

    Monomials that the models share are evaluated once; each model's column
    is its design matrix times its coefficients.
    """
    matrices = _design_matrices([model.basis for model in models], points)
    out = np.empty((matrices[0].shape[0], len(matrices)))
    for m, (phi, model) in enumerate(zip(matrices, models)):
        out[:, m] = phi @ np.array(model.coefficients)
    return out


def evaluate_batch(model: RsmModel, points: np.ndarray) -> np.ndarray:
    """Model values for all rows of ``points`` (n, 3) at once."""
    return evaluate_models((model,), points)[:, 0]


# Case-study surrogate coefficients for the two disc variants (mass in g,
# stress in MPa, buckling load in N, over l/b/t in mm).
_VARIANT_MODELS: dict[DesignTag, dict[str, tuple[tuple[ExponentTriple, ...], tuple[float, ...]]]] = {
    DesignTag.A: {
        "mass_g": (((1, 1, 1), (0, 1, 1), (0, 0, 0)), (0.00199, -0.00371, 0.00369)),
        "stress_mpa": (
            ((0, 0, 0), (0, 0, 2), (1, 1, 0), (1, 0, 2)),
            (263.3, 1065.3, -0.47, -25.1),
        ),
        "buckling_n": (((2, 1, 3), (0, 1, 3)), (-0.995, 2075.19)),
    },
    DesignTag.B: {
        "mass_g": (
            ((1, 1, 1), (1, 0, 1), (0, 0, 1), (0, 0, 0)),
            (0.00153, 0.01613, -0.262, 0.00044),
        ),
        "stress_mpa": (
            ((0, 0, 0), (0, 0, 2), (1, 0, 0), (1, 0, 2)),
            (292.9, 769.3, -5.17, -17.52),
        ),
        "buckling_n": (((2, 1, 3), (0, 1, 3)), (-1.47792, 3078.22)),
    },
}


def reference_models(design: DesignTag) -> dict[str, RsmModel]:
    """The shipped case-study models keyed by response name.

    These serve both as ready-to-optimize surrogates and as the oracle for
    synthesizing datasets.
    """
    out = {}
    for name in RESPONSE_COLUMNS:
        terms, coeffs = _VARIANT_MODELS[design][name]
        out[name] = RsmModel(MonomialBasis(terms), coeffs, response_name=name)
    return out


def reference_basis(design: DesignTag, response_name: str) -> MonomialBasis:
    """The monomial basis of one shipped case-study model."""
    terms, _ = _VARIANT_MODELS[design][response_name]
    return MonomialBasis(terms)


def fit(basis: MonomialBasis, data: Dataset, response_name: str) -> RsmModel:
    """Least-squares fit of the basis to one response column.

    Uses an orthogonal decomposition (SVD-backed lstsq) so rank deficiency is
    detected instead of silently amplified through normal equations.
    """
    if response_name not in RESPONSE_COLUMNS:
        raise ValueError(f"unknown response {response_name!r}, expected one of {RESPONSE_COLUMNS}")
    if len(data) < len(basis):
        raise ValueError(f"{len(data)} rows cannot determine {len(basis)} coefficients")
    (phi,) = _design_matrices((basis,), data.designs)
    y = data.response_column(response_name)
    coeffs, _, rank, _ = np.linalg.lstsq(phi, y, rcond=None)
    if rank < len(basis):
        raise ValueError(
            f"design matrix is rank-deficient (rank {rank} < {len(basis)}); "
            "basis terms are collinear on this data"
        )
    model = RsmModel(basis, tuple(coeffs), response_name)
    return RsmModel(basis, tuple(coeffs), response_name, r_squared=r_squared(model, data))


def r_squared(model: RsmModel, data: Dataset) -> float:
    """Coefficient of determination of the model on a dataset."""
    y = data.response_column(model.response_name)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError(f"response {model.response_name!r} has zero variance")
    pred = evaluate_batch(model, data.designs)
    ss_res = float(np.sum((y - pred) ** 2))
    return 1.0 - ss_res / ss_tot
