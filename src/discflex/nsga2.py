"""Constrained multi-objective genetic optimizer (NSGA-II).

Implements the classic loop: sort-based constrained non-dominated ranking,
crowding-distance density estimates, binary tournament mating selection,
simulated binary crossover with polynomial mutation, and elitist
merge-truncate survival.  A population is a struct of arrays, and the
evaluator maps a whole population to its objectives and constraints at once
(matrix in, matrices out) so surrogate models can vectorize.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np


class EvaluationError(RuntimeError):
    """Raised when an evaluator returns a non-finite value."""

    def __init__(self, message: str, design: np.ndarray):
        super().__init__(f"{message} at design {design.tolist()}")
        self.design = np.array(design, dtype=float)


@dataclass(frozen=True)
class ProblemSpec:
    """Box-bounded minimization problem with inequality constraints.

    ``evaluate(X)`` maps an (n, n_vars) design matrix to (n, n_obj) objectives
    F and (n, n_con) constraints G; a row is feasible when every entry of G
    is <= 0.
    """

    lower: np.ndarray
    upper: np.ndarray
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("bounds must be 1-d with one entry per variable")
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

    @property
    def n_vars(self) -> int:
        return self.lower.size


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
        if not (self.crossover_index > 0 and self.mutation_index > 0):
            raise ValueError("distribution indices must be > 0")


@dataclass(frozen=True)
class GenerationSummary:
    """Progress record captured after each generation's survival step."""

    generation: int
    best_objectives: tuple[float, ...]  # best feasible value per objective, nan if none
    feasible_count: int
    front_size: int


@dataclass
class Population:
    """Struct of arrays, one row per individual.

    ``rank`` is the constrained front index (-1 until sorted) and
    ``crowding`` the crowding distance within that front.
    """

    X: np.ndarray  # (n, n_vars) designs
    F: np.ndarray  # (n, n_obj) objectives
    violation: np.ndarray  # (n,) summed constraint violation, 0 when feasible
    rank: np.ndarray
    crowding: np.ndarray

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def feasible(self) -> np.ndarray:
        return self.violation == 0.0

    def take(self, rows) -> "Population":
        return Population(*(getattr(self, f.name)[rows] for f in fields(self)))


def _merge(a: Population, b: Population) -> Population:
    return Population(
        *(np.concatenate((getattr(a, f.name), getattr(b, f.name))) for f in fields(Population))
    )


@dataclass(frozen=True)
class OptimizeResult:
    population: Population
    front: Population  # feasible first front, empty if nothing feasible
    history: tuple[GenerationSummary, ...]

    @property
    def feasible_front_found(self) -> bool:
        return len(self.front) > 0


def _pareto_ranks(F: np.ndarray) -> np.ndarray:
    """Pareto front index of every row of ``F``.

    Rows are swept in lexicographic order, so no row is dominated by a later
    one, and each joins the first front none of whose members dominates it.
    A front that dominates a row is itself dominated by every earlier front,
    so that front is found by bisection (ENS-BS, Zhang et al. 2015).  With
    two objectives a front dominates the row exactly when the (f2, f1) key of
    its last member is smaller; an exact duplicate of that member joins it.
    """
    order = np.lexsort(F.T[::-1])
    ranks = np.empty(F.shape[0], dtype=np.intp)
    if F.shape[1] == 2:
        tails: list[tuple[float, float]] = []
        for i, (f1, f2) in zip(order.tolist(), F[order].tolist()):
            k = bisect_left(tails, (f2, f1))
            if k == len(tails):
                tails.append((f2, f1))
            else:
                tails[k] = (f2, f1)
            ranks[i] = k
        return ranks
    members: list[list[np.ndarray]] = []
    for i in order.tolist():
        f = F[i]

        def clear_of(k: int) -> bool:
            M = np.array(members[k])
            return not ((M <= f).all(axis=1) & (M < f).any(axis=1)).any()

        k = bisect_left(range(len(members)), True, key=clear_of)
        if k == len(members):
            members.append([])
        members[k].append(f)
        ranks[i] = k
    return ranks


def fast_nondominated_sort(objectives: np.ndarray, violation: np.ndarray) -> list[list[int]]:
    """Constrained nondominated fronts as ascending index lists.

    Feasible rows (violation 0) come first, in Pareto fronts ranked by a
    sort-based sweep (Jensen 2003), O(N log N) for two objectives.
    Infeasible rows follow, one front per distinct violation, smallest first.
    """
    F = np.asarray(objectives, dtype=float)
    viol = np.asarray(violation, dtype=float)
    if F.shape[0] == 0:
        raise ValueError("population must be non-empty")
    rank = np.empty(F.shape[0], dtype=np.intp)
    feasible = viol == 0.0
    n_feasible_fronts = 0
    if feasible.any():
        rank[feasible] = _pareto_ranks(F[feasible])
        n_feasible_fronts = int(rank[feasible].max()) + 1
    if not feasible.all():
        _, dense = np.unique(viol[~feasible], return_inverse=True)
        rank[~feasible] = n_feasible_fronts + dense
    cuts = np.cumsum(np.bincount(rank))[:-1]
    return [front.tolist() for front in np.split(np.argsort(rank, kind="stable"), cuts)]


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Crowding distances of one front's rows, in row order; boundaries get infinity."""
    F = np.asarray(objectives, dtype=float)
    n = F.shape[0]
    if n == 0:
        raise ValueError("front must be non-empty")
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for k in range(F.shape[1]):
        order = np.argsort(F[:, k], kind="stable")
        col = F[order, k]
        span = col[-1] - col[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span > 0:
            dist[order[1:-1]] += (col[2:] - col[:-2]) / span
    return dist


def tournament_select(
    rank: np.ndarray, crowding: np.ndarray, picks: int, rng: np.random.Generator
) -> np.ndarray:
    """Binary tournaments on (rank, crowding); full ties fall to a coin flip.

    Every pick draws one index pair, plus a coin only on a full tie.
    """
    rank_l, crowd_l = rank.tolist(), crowding.tolist()
    winners = []
    for _ in range(picks):
        i, j = rng.integers(0, len(rank_l), size=2).tolist()
        if rank_l[i] != rank_l[j]:
            winners.append(i if rank_l[i] < rank_l[j] else j)
        elif crowd_l[i] != crowd_l[j]:
            winners.append(i if crowd_l[i] > crowd_l[j] else j)
        else:
            winners.append(i if rng.random() < 0.5 else j)
    return np.array(winners, dtype=np.intp)


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


def evaluate_population(problem: ProblemSpec, X: np.ndarray) -> Population:
    """Run the batch evaluator once on the rows of ``X``; the result is unranked."""
    X = np.asarray(X, dtype=float)
    # a non-finite result raises EvaluationError below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        objs, g = problem.evaluate(X)
    objs = np.asarray(objs, dtype=float)
    g = np.asarray(g, dtype=float)
    if objs.ndim != 2 or g.ndim != 2 or not objs.shape[0] == g.shape[0] == X.shape[0]:
        raise ValueError("evaluator must return (F, G) matrices with one row per design")
    for name, values in (("objective", objs), ("constraint", g)):
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            raise EvaluationError(f"non-finite {name}", X[int(np.nonzero(bad)[0][0])])
    n = X.shape[0]
    viol = np.maximum(g, 0.0).sum(axis=1)
    return Population(X, objs, viol, np.full(n, -1, dtype=np.intp), np.zeros(n))


def _truncate(pop: Population, size: int) -> list[int]:
    """Rank and crowd ``pop`` in place; return the rows of its ``size`` elitist survivors.

    Survivors are whole fronts, then the partial front's rows of largest
    crowding, ordered front by front.  Rows dropped from the partial front
    and later fronts dominate no survivor, so survivors keep their ranks and
    whole fronts their crowding.  Only the partial front's crowding is
    recomputed, over its survivors in survivor order.  At ``size == len(pop)``
    every row survives with the ranks and crowding of a full sort.
    """
    keep: list[int] = []
    for k, front in enumerate(fast_nondominated_sort(pop.F, pop.violation)):
        dist = crowding_distance(pop.F[front])
        room = size - len(keep)
        if len(front) > room:
            # crowding descending, stable on population index for determinism
            front = [front[i] for i in np.argsort(-dist, kind="stable")[:room]]
            dist = crowding_distance(pop.F[front])
        pop.rank[front] = k
        pop.crowding[front] = dist
        keep.extend(front)
        if len(keep) == size:
            break
    return keep


def optimize(problem: ProblemSpec, cfg: GaConfig) -> OptimizeResult:
    """Run the full generational loop and return the feasible first front."""
    rng = np.random.default_rng(cfg.seed)
    span = problem.upper - problem.lower
    X = problem.lower + rng.random((cfg.population_size, problem.n_vars)) * span
    population = evaluate_population(problem, X)
    _truncate(population, cfg.population_size)  # every row survives, in place

    history: list[GenerationSummary] = []
    for gen in range(1, cfg.generations + 1):
        pool = tournament_select(population.rank, population.crowding, cfg.population_size, rng)
        offspring = evaluate_population(problem, variation(population.X[pool], problem, cfg, rng))
        merged = _merge(population, offspring)
        population = merged.take(_truncate(merged, cfg.population_size))

        feasible = population.feasible
        if feasible.any():
            # builtin min keeps the first of tied values, such as -0.0 and 0.0
            best = tuple(float(min(col)) for col in population.F[feasible].T.tolist())
        else:
            best = tuple(float("nan") for _ in range(population.F.shape[1]))
        history.append(
            GenerationSummary(
                generation=gen,
                best_objectives=best,
                feasible_count=int(feasible.sum()),
                front_size=int(np.count_nonzero(population.rank == 0)),
            )
        )

    front = population.take(np.flatnonzero((population.rank == 0) & population.feasible))
    return OptimizeResult(population=population, front=front, history=tuple(history))
