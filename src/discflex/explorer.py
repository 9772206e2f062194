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
    check_train_count,
    latin_hypercube,
    lattice,
    readonly,
    split,
)
from .nsga2 import GaConfig, GenerationSummary, ProblemSpec

# The per-link buckling load at which a disc with three compressive links on
# an 80 mm pitch circle carries the paper's 31.18 N*m: 3 * sqrt(3) * 150 N *
# 0.04 m.  Acceptance check 8 derives it.
DEFAULT_BUCKLING_THRESHOLD_N = 150.0
DEFAULT_NOISE_FRACTION = 0.01
DEFAULT_GRID_LEVELS = 101
# The lattice oracle evaluates this many rows per call, which bounds its
# temporaries; a row's responses do not depend on the block it is in.
LATTICE_BLOCK_ROWS = 65_536


class EmptyFrontError(RuntimeError):
    """Raised when optimization finishes without any feasible solution."""


@dataclass(frozen=True)
class ExplorationResult:
    """Non-empty feasible front of :func:`explore`, its named solutions, history, provenance."""

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
            object.__setattr__(self, name, readonly(getattr(self, name)))

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


def front_from_record(record: Mapping) -> tuple[str, str, np.ndarray, np.ndarray, dict[str, int]]:
    """Source, tag, front designs, objectives and named indices of an exploration record."""
    try:
        source, tag = record["source"], record["design_tag"]
        if source not in ("rsm", "ann") or tag not in ("A", "B"):
            raise ValueError(f"source {source!r} and design tag {tag!r}, "
                             "expected rsm or ann and A or B")
        designs = np.array(record["front_designs"], dtype=float)
        objectives = np.array(record["front_objectives"], dtype=float)
        k = len(designs)
        if k == 0 or designs.shape != (k, 3) or objectives.shape != (k, 2):
            raise ValueError(f"front shapes {designs.shape} and {objectives.shape}, "
                             "expected (k, 3) and (k, 2) with k >= 1")
        if not (np.isfinite(designs).all() and np.isfinite(objectives).all()):
            raise ValueError("front values must be finite")
        named = {name: record[f"{name}_index"]
                 for name in ("minimal_mass", "minimal_stress", "optimum")}
        # a bool is an int, and int() would read 1.7 as 1
        if not all(type(index) is int and 0 <= index < k for index in named.values()):
            raise ValueError(f"named indices {list(named.values())} must be integers "
                             f"inside a front of {k}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed exploration payload ({exc!r})") from None
    return source, tag, designs, objectives, named


@dataclass(frozen=True)
class StudyCell:
    """Aggregated prediction errors of one study configuration."""

    key: str
    test_mean: Optional[float]  # None when every trial diverged
    test_std: Optional[float]
    all_mean: Optional[float]
    all_std: Optional[float]
    trials: int
    divergences: int


@dataclass(frozen=True)
class StudyReport:
    """All cells of one parametric study."""

    axis: str
    cells: tuple[StudyCell, ...]

    def to_record(self) -> dict:
        return dataclasses.asdict(self)


def synthesize_dataset(
    design_tag: DesignTag,
    n: int,
    seed: int = 0,
    noise_std_fraction: float = DEFAULT_NOISE_FRACTION,
) -> Dataset:
    """Latin-hypercube designs with the shipped models' responses, plus noise.

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
    designs = latin_hypercube(n, seed=sample_seed)
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
    return (lambda X: rsm.evaluate_models(ordered, X)), fingerprint_models(surrogate), "rsm"


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
    mean = f.mean(axis=0)
    std = f.std(axis=0)
    z = np.zeros_like(f)
    nz = std > 0
    z[:, nz] = (f[:, nz] - mean[nz]) / std[nz]
    return int(np.argmin(np.sqrt((z**2).sum(axis=1))))


def front_order(designs: np.ndarray, objectives: np.ndarray) -> np.ndarray:
    """Row order of a front by mass, then stress, then length, width and thickness."""
    return np.lexsort(
        (designs[:, 2], designs[:, 1], designs[:, 0], objectives[:, 1], objectives[:, 0])
    )


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

    def __post_init__(self):
        for name in ("designs", "objectives", "buckling"):
            object.__setattr__(self, name, readonly(getattr(self, name)))


def _feasible_skyline(
    designs: np.ndarray, responses: np.ndarray, threshold_n: float
) -> tuple[np.ndarray, np.ndarray]:
    """The rows that meet the buckling threshold and no other such row dominates."""
    feasible = responses[:, 2] >= threshold_n
    designs, responses = designs[feasible], responses[feasible]
    order = nsga2.lexicographic_order(responses[:, 0], responses[:, 1])
    keep = order[nsga2.skyline_mask(responses[order, 0], responses[order, 1])]
    return designs[keep], responses[keep]


def grid_pareto_oracle(
    design_tag: DesignTag,
    models: Optional[Mapping[str, rsm.RsmModel]] = None,
    levels: int = DEFAULT_GRID_LEVELS,
    threshold_n: float = DEFAULT_BUCKLING_THRESHOLD_N,
) -> GridFront:
    """Exact nondominated feasible set of the levels^3 lattice over the box.

    Independent of the evolutionary optimizer: evaluates every lattice point,
    drops constraint violators, and keeps a row iff no other row is at least
    as good in both objectives and better in one.  It works through the
    lattice ``LATTICE_BLOCK_ROWS`` rows at a time and keeps the front of each
    block; the front of those fronts is the lattice front, in
    :func:`front_order`.
    """
    pts = lattice(levels)
    respond, _, _ = _surrogate(models if models is not None else rsm.reference_models(design_tag))
    fronts = []
    for start in range(0, len(pts), LATTICE_BLOCK_ROWS):
        block = pts[start:start + LATTICE_BLOCK_ROWS]
        fronts.append(_feasible_skyline(block, respond(block), threshold_n))
    designs, responses = _feasible_skyline(
        np.concatenate([d for d, _ in fronts]), np.concatenate([r for _, r in fronts]), threshold_n
    )
    order = front_order(designs, responses)
    return GridFront(
        designs=designs[order],
        objectives=responses[order, :2],
        buckling=responses[order, 2],
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
    h.update(net.w.tobytes())
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


def network_errors(
    net: TrainedNetwork, test_data: Dataset, data: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """Per-response mean absolute percent errors of ``net`` on the test rows and on all rows."""
    return tuple(
        mean_abs_percent_error(rows.responses, predict_batch(net, rows.designs))
        for rows in (test_data, data)
    )


def _study_trial(args: tuple) -> Optional[tuple[float, float]]:
    """One train/evaluate trial: its (test, all) errors, or None if training diverged."""
    data, hidden, train_count, split_seed, cfg = args
    train_data, test_data = split(data, train_count, seed=split_seed)
    shape = NetworkShape(n_inputs=3, hidden_layers=hidden, n_outputs=3)
    try:
        net = train(shape, train_data, cfg)
    except TrainingDivergenceError:
        return None
    test_err, all_err = network_errors(net, test_data, data)
    return float(test_err.mean()), float(all_err.mean())


def _aggregate_cell(key: str, outcomes: Sequence[Optional[tuple[float, float]]]) -> StudyCell:
    good = [outcome for outcome in outcomes if outcome is not None]
    diverged = len(outcomes) - len(good)
    if not good:
        return StudyCell(key, None, None, None, None, 0, diverged)
    tests = np.array([t for t, _ in good])
    alls = np.array([a for _, a in good])
    test_std = float(tests.std(ddof=1)) if len(good) >= 2 else None
    all_std = float(alls.std(ddof=1)) if len(good) >= 2 else None
    return StudyCell(
        key, float(tests.mean()), test_std, float(alls.mean()), all_std, len(good), diverged
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
        check_train_count(train_count, len(data))
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
    layer_counts: Sequence[int],
    neuron_counts: Sequence[int],
    trials: int,
    seed: int,
    train_count: int,
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
    sizes: Sequence[int],
    trials: int,
    seed: int,
    hidden_layers: Sequence[int],
    base_config: TrainConfig = TrainConfig(),
    workers: int = 1,
) -> StudyReport:
    """Prediction error versus training-set size at a fixed network shape."""
    hidden = tuple(hidden_layers)
    cells = [(f"n{size}", hidden, size) for size in sizes]
    return _run_study("training_size", data, cells, trials, seed, base_config, workers)
