"""The design box, datasets, sampling and persistence.

Everything here is immutable after construction and every operation is a pure
function of its inputs plus an explicit seed, so all of it is safe to use
concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Optional, Sequence

import numpy as np

DESIGN_COLUMNS = ("length_mm", "width_mm", "thickness_mm")
RESPONSE_COLUMNS = ("mass_g", "stress_mpa", "buckling_n")
CSV_HEADER = ",".join(DESIGN_COLUMNS + RESPONSE_COLUMNS)

# Two design points closer than this (per coordinate, mm) count as duplicates.
DUPLICATE_TOL_MM = 1e-9

SamplingScheme = Literal["grid", "latin_hypercube"]


class DesignTag(enum.Enum):
    """Which of the two disc variants a dataset or model refers to."""

    A = "A"
    B = "B"


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


# The exploration box of the disc case study: length, width, thickness in mm.
DESIGN_LOW = _readonly([24.0, 3.0, 0.3])
DESIGN_HIGH = _readonly([40.0, 9.0, 0.9])


def _duplicate_pair(designs: np.ndarray) -> Optional[tuple[int, int]]:
    """Rows (i, j), i < j, within DUPLICATE_TOL_MM of each other in every coordinate.

    Sweeps the rows sorted by length: pass k compares every row with the row
    k places later, and the sweep stops once no such pair is within tolerance
    in length, since rows further apart in that order differ more in length.
    """
    tol = DUPLICATE_TOL_MM
    order = np.argsort(designs[:, 0], kind="stable")
    x = designs[order]
    for k in range(1, len(x)):
        near = x[k:, 0] - x[:-k, 0] <= tol
        if not near.any():
            break
        near &= np.abs(x[k:] - x[:-k]).max(axis=1) <= tol
        if near.any():
            r = int(np.argmax(near))
            i, j = sorted((int(order[r]), int(order[r + k])))
            return i, j
    return None


@dataclass(frozen=True)
class Dataset:
    """Paired design points and measured/synthesized responses for one variant.

    ``designs`` is (n, 3) ordered as length, width, thickness; ``responses``
    is (n, 3) ordered as mass, stress, buckling.
    """

    designs: np.ndarray
    responses: np.ndarray
    design_tag: DesignTag

    def __post_init__(self) -> None:
        designs = _readonly(self.designs)
        responses = _readonly(self.responses)
        object.__setattr__(self, "designs", designs)
        object.__setattr__(self, "responses", responses)
        if designs.ndim != 2 or designs.shape[1] != 3:
            raise ValueError(f"designs must be (n, 3), got {designs.shape}")
        if responses.shape != designs.shape[:1] + (3,):
            raise ValueError(f"responses must be ({designs.shape[0]}, 3), got {responses.shape}")
        if designs.shape[0] == 0:
            raise ValueError("dataset must be non-empty")
        if not np.all(np.isfinite(designs)) or not np.all(designs > 0.0):
            raise ValueError("all design coordinates must be finite and > 0")
        if not np.all(np.isfinite(responses)):
            raise ValueError("all responses must be finite")
        pair = _duplicate_pair(designs)
        if pair is not None:
            i, j = pair
            raise ValueError(f"duplicate design points at rows {i} and {j} (within {DUPLICATE_TOL_MM} mm)")

    def __len__(self) -> int:
        return self.designs.shape[0]

    def response_column(self, name: str) -> np.ndarray:
        return self.responses[:, RESPONSE_COLUMNS.index(name)]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.designs[idx], self.responses[idx], self.design_tag)


@dataclass(frozen=True)
class NormalizationStats:
    """Per-column mean and standard deviation used to (de)normalize values.

    The standard deviation uses the population convention (denominator n);
    the inverse operation below is consistent with it.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = _readonly(np.atleast_1d(self.mean))
        std = _readonly(np.atleast_1d(self.std))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        if mean.shape != std.shape:
            raise ValueError("mean and std must have the same shape")
        if not np.all(std > 0.0):
            raise ValueError(f"stds must be > 0, got {std}")

    @classmethod
    def from_columns(cls, values: np.ndarray) -> "NormalizationStats":
        values = np.asarray(values, dtype=float)
        mean = values.mean(axis=0)
        std = values.std(axis=0)  # population convention, ddof=0
        if np.any(std == 0.0):
            col = int(np.flatnonzero(std == 0.0)[0])
            raise ValueError(f"column {col} has zero variance; drop or perturb it before normalizing")
        return cls(mean, std)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) * self.std + self.mean


def sample_designs(n: int, scheme: SamplingScheme = "latin_hypercube", seed: int = 0) -> np.ndarray:
    """Draw ``n`` design points from the design box, deterministically per seed.

    ``grid`` places points on a full k x k x k lattice and requires n = k^3;
    ``latin_hypercube`` stratifies each axis into n bins and places one
    uniform draw per bin.  Returns an (n, 3) array.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 design points, got {n}")
    low, high = DESIGN_LOW, DESIGN_HIGH
    span = high - low
    if scheme == "grid":
        levels = round(n ** (1.0 / 3.0))
        if levels**3 != n or levels < 2:
            raise ValueError(f"grid sampling requires n = k^3 with k >= 2, got n={n}")
        # linspace against the true endpoint keeps corners exactly on the bounds
        axes = [np.linspace(low[j], high[j], levels) for j in range(3)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)
    if scheme == "latin_hypercube":
        rng = np.random.default_rng(seed)
        points = np.empty((n, 3))
        for j in range(3):
            bins = rng.permutation(n)
            offsets = rng.random(n)
            points[:, j] = low[j] + (bins + offsets) / n * span[j]
        return points
    raise ValueError(f"unknown sampling scheme {scheme!r}")


def split(data: Dataset, n_train: int, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Random disjoint train/test partition, deterministic per seed."""
    n = len(data)
    if not 1 <= n_train < n:
        raise ValueError(f"n_train must be in [1, {n - 1}], got {n_train}")
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return data.subset(train_idx), data.subset(test_idx)


def write_csv(data: Dataset, path: str | Path) -> None:
    """Write a dataset to CSV with shortest round-trip decimal encoding."""
    lines = [CSV_HEADER]
    for x, y in zip(data.designs, data.responses):
        lines.append(",".join(repr(float(v)) for v in (*x, *y)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_csv(path: str | Path, *, design_tag: DesignTag) -> Dataset:
    """Read a dataset written by :func:`write_csv`.

    Malformed headers, wrong-arity rows and non-numeric cells are reported
    with their line number.
    """
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: line 1: empty file, expected header {CSV_HEADER!r}")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: line 1: malformed header {lines[0]!r}, expected {CSV_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 6:
            raise ValueError(f"{path}: line {lineno}: expected 6 cells, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            bad = next(c for c in cells if not _is_float(c))
            raise ValueError(f"{path}: line {lineno}: non-numeric cell {bad!r}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.array(rows, dtype=float)
    return Dataset(arr[:, :3], arr[:, 3:], design_tag)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
