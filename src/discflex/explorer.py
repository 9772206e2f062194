"""Case-study assembly around the surrogates.

Synthesizes disc datasets from the shipped polynomial models, builds the
two-objective constrained optimization problem for either surrogate kind,
post-processes Pareto fronts (extremes and the equal-importance optimum),
provides a brute-force lattice oracle, and runs the parametric studies over
network size and training-data size.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import nsga2, rsm
from .ann import (
    NetworkShape,
    TrainConfig,
    TrainedNetwork,
    TrainingDivergenceError,
    mean_abs_percent_error,
    predict_batch,
    train,
)
from .dataset import (
    DESIGN_HIGH,
    DESIGN_LOW,
    RESPONSE_COLUMNS,
    Dataset,
    DesignTag,
    SamplingScheme,
    sample_designs,
    split,
)
from .nsga2 import GaConfig, GenerationSummary, ProblemSpec

DEFAULT_BUCKLING_THRESHOLD_N = 150.0
DEFAULT_NOISE_FRACTION = 0.01
DEFAULT_GRID_LEVELS = 101


class EmptyFrontError(RuntimeError):
    """Raised when optimization finishes without any feasible solution."""


@dataclass(frozen=True)
class ExplorationResult:
    """Feasible front with its three named solutions, GA history and provenance."""

    design_tag: DesignTag
    source: str  # "rsm" or "ann"
    threshold_n: float
    front_designs: np.ndarray  # (k, 3)
    front_objectives: np.ndarray  # (k, 2) mass, stress
    front_buckling: np.ndarray  # (k,) from the surrogate behind the constraint
    minimal_mass_index: int
    minimal_stress_index: int
    optimum_index: int
    provenance: Mapping[str, object]
    history: tuple[GenerationSummary, ...]

    def __post_init__(self):
        for name in ("front_designs", "front_objectives", "front_buckling"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "history", tuple(self.history))
        k = self.front_designs.shape[0]
        if k == 0:
            raise ValueError("front must be non-empty")
        for idx in (self.minimal_mass_index, self.minimal_stress_index, self.optimum_index):
            if not 0 <= idx < k:
                raise ValueError(f"named index {idx} outside front of size {k}")

    def named_design(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        return self.front_designs[index], self.front_objectives[index]

    def to_record(self) -> dict:
        return {
            "design_tag": self.design_tag.value,
            "source": self.source,
            "threshold_n": self.threshold_n,
            "front_designs": self.front_designs.tolist(),
            "front_objectives": self.front_objectives.tolist(),
            "minimal_mass_index": self.minimal_mass_index,
            "minimal_stress_index": self.minimal_stress_index,
            "optimum_index": self.optimum_index,
            "provenance": dict(self.provenance),
        }


@dataclass(frozen=True)
class StudyCell:
    """Aggregated prediction errors of one study configuration."""

    key: str
    test_mean: float
    test_std: Optional[float]
    all_mean: float
    all_std: Optional[float]
    trials: int
    divergences: int


@dataclass(frozen=True)
class StudyReport:
    """All cells of one parametric study."""

    axis: str
    cells: tuple[StudyCell, ...]

    def to_record(self) -> dict:
        # all-diverged cells carry nan means; JSON gets null instead
        return {
            "axis": self.axis,
            "cells": [
                {
                    name: None if isinstance(value, float) and np.isnan(value) else value
                    for name, value in dataclasses.asdict(cell).items()
                }
                for cell in self.cells
            ],
        }


def synthesize_dataset(
    design_tag: DesignTag,
    n: int,
    scheme: SamplingScheme = "latin_hypercube",
    seed: int = 0,
    noise_std_fraction: float = DEFAULT_NOISE_FRACTION,
) -> Dataset:
    """Sample the design box and evaluate the shipped models, plus noise.

    Responses are oracle * (1 + eps) with eps zero-mean Gaussian of the given
    relative standard deviation; zero noise reproduces the models exactly.
    """
    if not noise_std_fraction >= 0:
        raise ValueError(f"noise fraction must be >= 0, got {noise_std_fraction}")
    respond, _, _ = _surrogate(rsm.reference_models(design_tag))
    largest_basis = max(len(rsm.reference_basis(design_tag, name)) for name in RESPONSE_COLUMNS)
    if n < largest_basis:
        raise ValueError(f"need at least {largest_basis} samples to cover the model bases, got {n}")
    sample_seed, noise_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    designs = sample_designs(n, scheme, seed=sample_seed)
    responses = respond(designs)
    if noise_std_fraction > 0:
        eps = np.random.default_rng(noise_seed).standard_normal(responses.shape)
        responses = responses * (1.0 + noise_std_fraction * eps)
    return Dataset(designs=designs, responses=responses, design_tag=design_tag)


def _surrogate(
    surrogate: Mapping[str, rsm.RsmModel] | TrainedNetwork,
) -> tuple[Callable[[np.ndarray], np.ndarray], str, str]:
    """Response function, fingerprint and source name ("rsm" or "ann") of a surrogate.

    The surrogate is a trained network or a set of response models keyed by
    response name.  The function maps an (n, 3) design matrix to (n, 3)
    responses in ``RESPONSE_COLUMNS`` order.
    """
    if isinstance(surrogate, TrainedNetwork):
        return (lambda X: predict_batch(surrogate, X)), fingerprint_network(surrogate), "ann"
    missing = [name for name in RESPONSE_COLUMNS if name not in surrogate]
    if missing:
        raise ValueError(f"missing response model(s): {missing}")
    ordered = [surrogate[name] for name in RESPONSE_COLUMNS]

    def respond(X: np.ndarray) -> np.ndarray:
        return np.column_stack([rsm.evaluate_batch(model, X) for model in ordered])

    return respond, fingerprint_models(surrogate), "rsm"


def _problem_spec(respond: Callable[[np.ndarray], np.ndarray], threshold_n: float) -> ProblemSpec:
    """Minimize (mass, stress) over the design box subject to threshold - buckling <= 0."""

    def evaluate(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        responses = respond(X)
        return responses[:, :2], (threshold_n - responses[:, 2])[:, None]

    return ProblemSpec(lower=DESIGN_LOW, upper=DESIGN_HIGH, evaluate=evaluate)


def select_optimum(front_objectives: np.ndarray) -> int:
    """Front point of minimum Euclidean norm after per-objective normalization.

    Objectives are centered and scaled to unit (population) standard deviation
    across the front; a zero-variance objective contributes nothing.  Ties go
    to the lower index.
    """
    f = np.atleast_2d(np.asarray(front_objectives, dtype=float))
    if f.shape[0] == 0:
        raise ValueError("front must be non-empty")
    if f.shape[0] == 1:
        return 0
    mean = f.mean(axis=0)
    std = f.std(axis=0)
    z = np.zeros_like(f)
    nz = std > 0
    z[:, nz] = (f[:, nz] - mean[nz]) / std[nz]
    return int(np.argmin(np.sqrt((z**2).sum(axis=1))))


def extract_extremes(front_objectives: np.ndarray) -> tuple[int, int]:
    """Indices of the minimal-mass and minimal-stress front points."""
    f = np.atleast_2d(np.asarray(front_objectives, dtype=float))
    if f.shape[0] == 0:
        raise ValueError("front must be non-empty")
    return int(np.argmin(f[:, 0])), int(np.argmin(f[:, 1]))


@dataclass(frozen=True)
class GridFront:
    """Nondominated feasible subset of a full lattice evaluation."""

    designs: np.ndarray  # (k, 3)
    objectives: np.ndarray  # (k, 2) mass, stress
    buckling: np.ndarray  # (k,)
    levels: int

    def __post_init__(self):
        for name in ("designs", "objectives", "buckling"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def grid_pareto_oracle(
    design_tag: DesignTag,
    models: Optional[Mapping[str, rsm.RsmModel]] = None,
    levels: int = DEFAULT_GRID_LEVELS,
    threshold_n: float = DEFAULT_BUCKLING_THRESHOLD_N,
) -> GridFront:
    """Exact nondominated feasible set of the levels^3 lattice over the box.

    Independent of the evolutionary optimizer: evaluates every lattice point,
    drops constraint violators, and keeps a row iff no other row is at least
    as good in both objectives and better in one.
    """
    if levels < 2:
        raise ValueError("need at least 2 levels per axis")
    respond, _, _ = _surrogate(models if models is not None else rsm.reference_models(design_tag))
    pts = sample_designs(levels**3, "grid")
    mass, stress, buck = respond(pts).T
    feasible = buck >= threshold_n
    pts, mass, stress, buck = pts[feasible], mass[feasible], stress[feasible], buck[feasible]
    if pts.shape[0] == 0:
        return GridFront(
            designs=np.empty((0, 3)),
            objectives=np.empty((0, 2)),
            buckling=np.empty(0),
            levels=levels,
        )

    # Skyline sweep: sort by (mass, stress); a mass group survives iff its
    # minimum stress strictly undercuts everything at lower mass, and within
    # a surviving group exactly the minimum-stress rows are nondominated.
    order = np.lexsort((stress, mass))
    mass_s, stress_s = mass[order], stress[order]
    new_group = np.empty(mass_s.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = mass_s[1:] != mass_s[:-1]
    starts = np.nonzero(new_group)[0]
    group_min = np.minimum.reduceat(stress_s, starts)
    best_before = np.concatenate(([np.inf], np.minimum.accumulate(group_min)[:-1]))
    group_keeps = group_min < best_before
    group_id = np.cumsum(new_group) - 1
    keep_sorted = group_keeps[group_id] & (stress_s == group_min[group_id])
    keep = order[keep_sorted]
    keep = keep[np.lexsort((pts[keep, 2], pts[keep, 1], pts[keep, 0], stress[keep], mass[keep]))]
    return GridFront(
        designs=pts[keep],
        objectives=np.column_stack([mass[keep], stress[keep]]),
        buckling=buck[keep],
        levels=levels,
    )


def fingerprint_models(models: Mapping[str, rsm.RsmModel]) -> str:
    """Short stable digest of a model set, for result provenance."""
    payload = json.dumps(
        {name: models[name].to_record() for name in sorted(models)}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def fingerprint_network(net: TrainedNetwork) -> str:
    """Short stable digest of a trained network, for result provenance."""
    h = hashlib.sha256()
    h.update(repr(net.shape.layer_sizes).encode("ascii"))
    h.update(net.params.to_vector().tobytes())
    h.update(net.input_stats.mean.tobytes() + net.input_stats.std.tobytes())
    h.update(net.output_stats.mean.tobytes() + net.output_stats.std.tobytes())
    return h.hexdigest()[:16]


def explore(
    design_tag: DesignTag,
    surrogate: Mapping[str, rsm.RsmModel] | TrainedNetwork,
    ga: GaConfig,
    threshold_n: float = DEFAULT_BUCKLING_THRESHOLD_N,
) -> ExplorationResult:
    """Optimize the disc problem and name the mass/stress extremes and optimum.

    ``surrogate`` is an RSM model set keyed by response name or a trained network.
    """
    if not (np.isfinite(threshold_n) and threshold_n > 0):
        raise ValueError(f"buckling threshold must be finite and > 0, got {threshold_n}")
    respond, fingerprint, source = _surrogate(surrogate)
    result = nsga2.optimize(_problem_spec(respond, threshold_n), ga)
    if not result.feasible_front_found:
        raise EmptyFrontError(
            f"no feasible solution found for design {design_tag.value} "
            f"({source} surrogate, threshold {threshold_n} N)"
        )
    designs, objectives = result.front.X, result.front.F
    i_mass, i_stress = extract_extremes(objectives)
    i_opt = select_optimum(objectives)
    provenance = {
        "design_tag": design_tag.value,
        "source": source,
        "threshold_n": threshold_n,
        "population_size": ga.population_size,
        "generations": ga.generations,
        "seed": ga.seed,
        "surrogate_fingerprint": fingerprint,
    }
    return ExplorationResult(
        design_tag=design_tag,
        source=source,
        threshold_n=threshold_n,
        front_designs=designs,
        front_objectives=objectives,
        front_buckling=respond(designs)[:, 2],
        minimal_mass_index=i_mass,
        minimal_stress_index=i_stress,
        optimum_index=i_opt,
        provenance=provenance,
        history=result.history,
    )


def _study_trial(args: tuple) -> tuple[str, float, float]:
    """One train/evaluate trial; returns a status tag so divergence is countable."""
    data, hidden, train_count, split_seed, cfg = args
    train_data, test_data = split(data, train_count, seed=split_seed)
    shape = NetworkShape(n_inputs=3, hidden_layers=hidden, n_outputs=3)
    try:
        net = train(shape, train_data, cfg)
    except TrainingDivergenceError:
        return ("diverged", float("nan"), float("nan"))
    test_err = float(
        mean_abs_percent_error(test_data.responses, predict_batch(net, test_data.designs)).mean()
    )
    all_err = float(
        mean_abs_percent_error(data.responses, predict_batch(net, data.designs)).mean()
    )
    return ("ok", test_err, all_err)


def _aggregate_cell(key: str, outcomes: Sequence[tuple[str, float, float]]) -> StudyCell:
    good = [(t, a) for status, t, a in outcomes if status == "ok"]
    diverged = sum(1 for status, _, _ in outcomes if status == "diverged")
    if not good:
        return StudyCell(key, float("nan"), None, float("nan"), None, 0, diverged)
    tests = np.array([t for t, _ in good])
    alls = np.array([a for _, a in good])
    test_std = float(tests.std(ddof=1)) if len(good) >= 2 else None
    all_std = float(alls.std(ddof=1)) if len(good) >= 2 else None
    return StudyCell(
        key=key,
        test_mean=float(tests.mean()),
        test_std=test_std,
        all_mean=float(alls.mean()),
        all_std=all_std,
        trials=len(good),
        divergences=diverged,
    )


def _run_study(
    axis: str,
    data: Dataset,
    cells: Sequence[tuple[str, tuple[int, ...], int]],
    trials: int,
    seed: int,
    base_config: TrainConfig,
    workers: int,
) -> StudyReport:
    """Train ``trials`` networks per (key, hidden layers, train count) cell.

    Every cell sees the same sequence of (split, init) seeds, so comparisons
    between cells are paired.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    keys = [key for key, _, _ in cells]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate study cell keys in {keys}")
    for _, _, train_count in cells:
        if not 1 <= train_count < len(data):
            raise ValueError(
                f"train_count {train_count} must be at least 1 and below the {len(data)} rows "
                "of the dataset, to leave a test remainder"
            )
    draws = np.random.default_rng(seed).integers(0, 2**31 - 1, size=(trials, 2))
    configs = [(int(a), dataclasses.replace(base_config, seed=int(b))) for a, b in draws]
    report_cells = []
    # a process pool starts all its workers at once; more than the trials would idle
    workers = min(workers, trials)
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        run = map if pool is None else pool.map
        for key, hidden, train_count in cells:
            tasks = [(data, hidden, train_count, split_seed, cfg) for split_seed, cfg in configs]
            report_cells.append(_aggregate_cell(key, list(run(_study_trial, tasks))))
    return StudyReport(axis=axis, cells=tuple(report_cells))


def run_network_size_study(
    data: Dataset,
    layer_counts: Sequence[int] = (1, 2, 3),
    neuron_counts: Sequence[int] = (10, 20, 30, 40),
    trials: int = 10,
    seed: int = 0,
    train_count: int = 100,
    base_config: TrainConfig = TrainConfig(),
    workers: int = 1,
) -> StudyReport:
    """Prediction error versus hidden-layer count and width.

    Each cell trains ``trials`` networks on fresh train/test splits (the same
    split sequence for every cell, so comparisons between cells are paired)
    and reports mean and standard deviation of the error over Test rows and
    over All rows.
    """
    cells = [
        (f"{n_layers}x{width}", (width,) * n_layers, train_count)
        for n_layers in layer_counts
        for width in neuron_counts
    ]
    return _run_study("network_size", data, cells, trials, seed, base_config, workers)


def run_training_size_study(
    data: Dataset,
    sizes: Sequence[int] = (40, 60, 80, 100, 120),
    trials: int = 10,
    seed: int = 0,
    hidden_layers: Sequence[int] = (20, 20),
    base_config: TrainConfig = TrainConfig(),
    workers: int = 1,
) -> StudyReport:
    """Prediction error versus training-set size at a fixed network shape."""
    hidden = tuple(hidden_layers)
    cells = [(f"n{size}", hidden, size) for size in sizes]
    return _run_study("training_size", data, cells, trials, seed, base_config, workers)
