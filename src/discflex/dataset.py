"""The design box, datasets, sampling and persistence.

Everything here is immutable after construction and every operation is a pure
function of its inputs plus an explicit seed, so all of it is safe to use
concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

DESIGN_COLUMNS = ("length_mm", "width_mm", "thickness_mm")
RESPONSE_COLUMNS = ("mass_g", "stress_mpa", "buckling_n")
CSV_HEADER = ",".join(DESIGN_COLUMNS + RESPONSE_COLUMNS)
# First line of a dataset CSV, followed by the design tag.
DESIGN_LINE_PREFIX = "# design: "

# Two design points closer than this (per coordinate, mm) count as duplicates.
DUPLICATE_TOL_MM = 1e-9


class DesignTag(enum.Enum):
    """Which of the two disc variants a dataset or model refers to."""

    A = "A"
    B = "B"


def readonly(arr: np.ndarray) -> np.ndarray:
    """A float copy of ``arr`` that cannot be written to."""
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


# The exploration box of the disc case study: length, width, thickness in mm.
DESIGN_LOW = readonly([24.0, 3.0, 0.3])
DESIGN_HIGH = readonly([40.0, 9.0, 0.9])


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
        designs = readonly(self.designs)
        responses = readonly(self.responses)
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
        mean = readonly(np.atleast_1d(self.mean))
        std = readonly(np.atleast_1d(self.std))
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


def latin_hypercube(n: int, seed: int = 0) -> np.ndarray:
    """``n`` design points of the design box, deterministic per seed; shape (n, 3).

    Each axis is stratified into n bins with one uniform draw per bin.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 design points, got {n}")
    span = DESIGN_HIGH - DESIGN_LOW
    rng = np.random.default_rng(seed)
    points = np.empty((n, 3))
    for j in range(3):
        bins = rng.permutation(n)
        offsets = rng.random(n)
        points[:, j] = DESIGN_LOW[j] + (bins + offsets) / n * span[j]
    return points


def lattice(levels: int) -> np.ndarray:
    """The full levels x levels x levels lattice over the design box; shape (levels**3, 3)."""
    if levels < 2:
        raise ValueError(f"need at least 2 levels per axis, got {levels}")
    # linspace against the true endpoint keeps corners exactly on the bounds
    axes = [np.linspace(DESIGN_LOW[j], DESIGN_HIGH[j], levels) for j in range(3)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def check_train_count(train_count: int, n_rows: int) -> None:
    """Reject a train count that leaves no training row or no test row."""
    if not 1 <= train_count < n_rows:
        raise ValueError(
            f"train_count {train_count} must be at least 1 and below the {n_rows} rows "
            "of the dataset, to leave a test remainder"
        )


def split(data: Dataset, train_count: int, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Random disjoint train/test partition, deterministic per seed."""
    check_train_count(train_count, len(data))
    perm = np.random.default_rng(seed).permutation(len(data))
    train_idx = np.sort(perm[:train_count])
    test_idx = np.sort(perm[train_count:])
    return data.subset(train_idx), data.subset(test_idx)


def write_csv(data: Dataset, path: str | Path) -> None:
    """Write a dataset to CSV: its design line, the header, then one row per point.

    Values use the shortest round-trip decimal encoding.
    """
    lines = [f"{DESIGN_LINE_PREFIX}{data.design_tag.value}", CSV_HEADER]
    for x, y in zip(data.designs, data.responses):
        lines.append(",".join(repr(float(v)) for v in (*x, *y)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_csv(path: str | Path, *, design_tag: DesignTag) -> Dataset:
    """Read a dataset written by :func:`write_csv` for design ``design_tag``.

    A missing or other design line, a malformed header, wrong-arity rows and
    non-numeric cells are reported with their line number.
    """
    lines = Path(path).read_text(encoding="ascii").splitlines() or [""]
    want = f"{DESIGN_LINE_PREFIX}{design_tag.value}"
    if lines[0] != want:
        raise ValueError(f"{path}: line 1: expected design line {want!r}, got {lines[0]!r}")
    if lines[1:2] != [CSV_HEADER]:
        got = lines[1] if len(lines) > 1 else ""
        raise ValueError(f"{path}: line 2: malformed header {got!r}, expected {CSV_HEADER!r}")
    values = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 6:
            raise ValueError(f"{path}: line {lineno}: expected 6 cells, got {len(cells)}")
        for cell in cells:
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric cell {cell!r}") from None
    if not values:
        raise ValueError(f"{path}: no data rows")
    arr = np.array(values, dtype=float).reshape(-1, 6)
    return Dataset(arr[:, :3], arr[:, 3:], design_tag)
