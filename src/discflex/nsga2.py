"""Constrained multi-objective genetic optimizer (NSGA-II).

Implements the classic loop: fast non-dominated sorting with constrained
dominance, crowding-distance density estimates, binary tournament mating
selection, simulated binary crossover with polynomial mutation, and elitist
merge-truncate survival.  Objective and constraint evaluators operate on
whole populations at once (matrix in, matrix out) so surrogate models can
vectorize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class EvaluationError(RuntimeError):
    """Raised when an evaluator returns a non-finite value."""

    def __init__(self, message: str, design: np.ndarray):
        super().__init__(f"{message} at design {design.tolist()}")
        self.design = np.array(design, dtype=float)


@dataclass(frozen=True)
class ProblemSpec:
    """Box-bounded minimization problem with optional inequality constraints.

    ``objectives(X)`` maps an (n, n_vars) design matrix to an (n, n_obj)
    objective matrix.  ``constraints(X)``, if given, returns an (n, n_con)
    matrix where a row is feasible when every entry is <= 0.
    """

    n_vars: int
    lower: np.ndarray
    upper: np.ndarray
    objectives: Callable[[np.ndarray], np.ndarray]
    constraints: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != (self.n_vars,) or upper.shape != (self.n_vars,):
            raise ValueError("bounds must have one entry per variable")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("bounds must be finite")
        if not (lower < upper).all():
            raise ValueError("lower bounds must be strictly below upper bounds")
        lower = lower.copy()
        upper = upper.copy()
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass
class Individual:
    """One candidate design with its evaluation and sorting bookkeeping."""

    x: np.ndarray
    objectives: np.ndarray
    violation: float
    rank: int = -1
    crowding: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.objectives = np.asarray(self.objectives, dtype=float)
        if self.violation < 0:
            raise ValueError("violation must be >= 0")

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


@dataclass(frozen=True)
class GaConfig:
    """Run parameters; mutation probability None means 1/n_vars."""

    population_size: int = 500
    generations: int = 300
    crossover_probability: float = 0.9
    mutation_probability: Optional[float] = None
    crossover_index: float = 20.0
    mutation_index: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2 or self.population_size % 2 != 0:
            raise ValueError("population_size must be even and >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not (0.0 <= self.crossover_probability <= 1.0):
            raise ValueError("crossover_probability must be in [0, 1]")
        if self.mutation_probability is not None and not (
            0.0 <= self.mutation_probability <= 1.0
        ):
            raise ValueError("mutation_probability must be in [0, 1]")
        if self.crossover_index <= 0 or self.mutation_index <= 0:
            raise ValueError("distribution indices must be > 0")


@dataclass(frozen=True)
class GenerationSummary:
    """Progress record captured after each generation's survival step."""

    generation: int
    best_objectives: tuple[float, ...]  # best feasible value per objective, nan if none
    feasible_count: int
    front_size: int


@dataclass(frozen=True)
class OptimizeResult:
    population: tuple[Individual, ...]
    front: tuple[Individual, ...]  # feasible first front, empty if nothing feasible
    history: tuple[GenerationSummary, ...]

    @property
    def feasible_front_found(self) -> bool:
        return len(self.front) > 0


def dominates(a: Individual, b: Individual) -> bool:
    """Constrained dominance: feasibility first, then componentwise objectives."""
    if a.feasible and not b.feasible:
        return True
    if not a.feasible and b.feasible:
        return False
    if not a.feasible and not b.feasible:
        return a.violation < b.violation
    return bool(
        np.all(a.objectives <= b.objectives) and np.any(a.objectives < b.objectives)
    )


def _domination_matrix(objs: np.ndarray, viol: np.ndarray) -> np.ndarray:
    """D[i, j] True when individual i dominates individual j."""
    le = (objs[:, None, :] <= objs[None, :, :]).all(axis=2)
    lt = (objs[:, None, :] < objs[None, :, :]).any(axis=2)
    obj_dom = le & lt
    feas = viol == 0.0
    both_feas = feas[:, None] & feas[None, :]
    i_only = feas[:, None] & ~feas[None, :]
    both_infeas = ~feas[:, None] & ~feas[None, :]
    viol_less = viol[:, None] < viol[None, :]
    return (both_feas & obj_dom) | i_only | (both_infeas & viol_less)


def fast_nondominated_sort(pop: list[Individual]) -> list[list[int]]:
    """Partition indices into fronts and write ranks back onto individuals."""
    if not pop:
        raise ValueError("population must be non-empty")
    objs = np.array([ind.objectives for ind in pop])
    viol = np.array([ind.violation for ind in pop])
    dom = _domination_matrix(objs, viol)
    n_dominators = dom.sum(axis=0).astype(int)  # how many dominate each j
    fronts: list[list[int]] = []
    remaining = n_dominators.copy()
    assigned = np.zeros(len(pop), dtype=bool)
    while not assigned.all():
        members = np.nonzero(~assigned & (remaining == 0))[0]
        if members.size == 0:
            raise AssertionError("cyclic dominance bookkeeping")
        fronts.append(members.tolist())
        assigned[members] = True
        remaining = remaining - dom[members].sum(axis=0)
        for idx in members:
            pop[idx].rank = len(fronts) - 1
    return fronts


def crowding_distance(front: list[Individual]) -> None:
    """Assign crowding distances in place; boundaries get infinity."""
    if not front:
        raise ValueError("front must be non-empty")
    n = len(front)
    if n <= 2:
        for ind in front:
            ind.crowding = np.inf
        return
    objs = np.array([ind.objectives for ind in front])
    dist = np.zeros(n)
    for k in range(objs.shape[1]):
        order = np.argsort(objs[:, k], kind="stable")
        col = objs[order, k]
        span = col[-1] - col[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span > 0:
            dist[order[1:-1]] += (col[2:] - col[:-2]) / span
    for ind, d in zip(front, dist):
        ind.crowding = d


def tournament_select(pop: list[Individual], rng: np.random.Generator) -> int:
    """Binary tournament on (rank, crowding); full ties fall to a coin flip."""
    i, j = rng.integers(0, len(pop), size=2)
    a, b = pop[i], pop[j]
    if a.rank != b.rank:
        return int(i if a.rank < b.rank else j)
    if a.crowding != b.crowding:
        return int(i if a.crowding > b.crowding else j)
    return int(i if rng.random() < 0.5 else j)


def _sbx_pair(
    x1: np.ndarray, x2: np.ndarray, eta: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover; mean-preserving before bound clipping."""
    c1, c2 = x1.copy(), x2.copy()
    for k in range(x1.size):
        if rng.random() > 0.5:
            continue
        u = rng.random()
        if u <= 0.5:
            beta = (2.0 * u) ** (1.0 / (eta + 1.0))
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))
        c1[k] = 0.5 * ((1.0 + beta) * x1[k] + (1.0 - beta) * x2[k])
        c2[k] = 0.5 * ((1.0 - beta) * x1[k] + (1.0 + beta) * x2[k])
    return c1, c2


def _polynomial_mutation(
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    p_mut: float,
    eta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Deb's bounded polynomial mutation, one draw per mutated variable."""
    y = x.copy()
    for k in range(x.size):
        if rng.random() >= p_mut:
            continue
        span = upper[k] - lower[k]
        d1 = (y[k] - lower[k]) / span
        d2 = (upper[k] - y[k]) / span
        u = rng.random()
        exp = 1.0 / (eta + 1.0)
        if u <= 0.5:
            dq = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)) ** exp - 1.0
        else:
            dq = 1.0 - (
                2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)
            ) ** exp
        y[k] += dq * span
    return y


def variation(
    parents: np.ndarray,
    problem: ProblemSpec,
    cfg: GaConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Produce offspring designs from an even-sized mating pool."""
    parents = np.asarray(parents, dtype=float)
    if parents.ndim != 2 or parents.shape[0] % 2 != 0:
        raise ValueError("mating pool must be a 2-D matrix with an even row count")
    p_mut = (
        cfg.mutation_probability
        if cfg.mutation_probability is not None
        else 1.0 / problem.n_vars
    )
    children = np.empty_like(parents)
    for p in range(0, parents.shape[0], 2):
        x1, x2 = parents[p], parents[p + 1]
        if rng.random() <= cfg.crossover_probability:
            c1, c2 = _sbx_pair(x1, x2, cfg.crossover_index, rng)
        else:
            c1, c2 = x1.copy(), x2.copy()
        if p_mut > 0:
            c1 = _polynomial_mutation(c1, problem.lower, problem.upper, p_mut, cfg.mutation_index, rng)
            c2 = _polynomial_mutation(c2, problem.lower, problem.upper, p_mut, cfg.mutation_index, rng)
        children[p] = c1
        children[p + 1] = c2
    return np.clip(children, problem.lower, problem.upper)


def evaluate_population(problem: ProblemSpec, X: np.ndarray) -> list[Individual]:
    """Run the batch evaluators and wrap rows as individuals."""
    X = np.asarray(X, dtype=float)
    objs = np.asarray(problem.objectives(X), dtype=float)
    if objs.shape[0] != X.shape[0] or objs.ndim != 2:
        raise ValueError("objective evaluator must return one row per design")
    bad = ~np.isfinite(objs).all(axis=1)
    if bad.any():
        raise EvaluationError("non-finite objective", X[int(np.nonzero(bad)[0][0])])
    if problem.constraints is not None:
        g = np.atleast_2d(np.asarray(problem.constraints(X), dtype=float))
        if g.shape[0] != X.shape[0]:
            raise ValueError("constraint evaluator must return one row per design")
        bad = ~np.isfinite(g).all(axis=1)
        if bad.any():
            raise EvaluationError("non-finite constraint", X[int(np.nonzero(bad)[0][0])])
        viol = np.maximum(g, 0.0).sum(axis=1)
    else:
        viol = np.zeros(X.shape[0])
    return [Individual(x=x, objectives=o, violation=float(v)) for x, o, v in zip(X, objs, viol)]


def _rank_and_crowd(pop: list[Individual]) -> list[list[int]]:
    fronts = fast_nondominated_sort(pop)
    for front in fronts:
        crowding_distance([pop[i] for i in front])
    return fronts


def _truncate(pop: list[Individual], fronts: list[list[int]], size: int) -> list[Individual]:
    """Elitist survival: whole fronts, then the partial front by crowding."""
    survivors: list[Individual] = []
    for front in fronts:
        if len(survivors) + len(front) <= size:
            survivors.extend(pop[i] for i in front)
            if len(survivors) == size:
                break
        else:
            # crowding descending, stable on population index for determinism
            room = size - len(survivors)
            ordered = sorted(front, key=lambda i: -pop[i].crowding)
            survivors.extend(pop[i] for i in ordered[:room])
            break
    return survivors


def optimize(problem: ProblemSpec, cfg: GaConfig) -> OptimizeResult:
    """Run the full generational loop and return the feasible first front."""
    rng = np.random.default_rng(cfg.seed)
    span = problem.upper - problem.lower
    X = problem.lower + rng.random((cfg.population_size, problem.n_vars)) * span
    population = evaluate_population(problem, X)
    _rank_and_crowd(population)

    history: list[GenerationSummary] = []
    for gen in range(1, cfg.generations + 1):
        pool_idx = [tournament_select(population, rng) for _ in range(cfg.population_size)]
        parents = np.array([population[i].x for i in pool_idx])
        offspring_X = variation(parents, problem, cfg, rng)
        offspring = evaluate_population(problem, offspring_X)
        merged = population + offspring
        fronts = _rank_and_crowd(merged)
        population = _truncate(merged, fronts, cfg.population_size)
        fronts = _rank_and_crowd(population)

        feasible = [ind for ind in population if ind.feasible]
        if feasible:
            best = tuple(
                float(min(ind.objectives[k] for ind in feasible))
                for k in range(len(population[0].objectives))
            )
        else:
            best = tuple(float("nan") for _ in range(len(population[0].objectives)))
        history.append(
            GenerationSummary(
                generation=gen,
                best_objectives=best,
                feasible_count=len(feasible),
                front_size=len(fronts[0]),
            )
        )

    # the last generation already ranked this population
    front = tuple(population[i] for i in fronts[0] if population[i].feasible)
    return OptimizeResult(
        population=tuple(population),
        front=front,
        history=tuple(history),
    )
