"""Constrained multi-objective genetic optimizer (NSGA-II).

Implements the classic loop: constrained non-dominated ranking,
crowding-distance density estimates, binary tournament mating selection,
simulated binary crossover with polynomial mutation, and elitist
merge-truncate survival, which peels skyline fronts off one sort only up
to the front that fills the population.  A population is a struct of
arrays, and the evaluator maps a whole population to its objectives and
constraints at once (matrix in, matrices out) so surrogate models can
vectorize.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterator, Optional

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


def skyline_mask(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Nondominated mask of two-objective rows sorted lexicographically by (f1, f2).

    Only an earlier row with no larger f2 that is not an exact duplicate
    dominates a row, so a run of exact duplicates is kept iff its f2 is
    strictly below every f2 before the run (-0.0 and 0.0 are one value).
    A row whose f2 is +inf is never kept and dominates nothing, so rows set
    to +inf after sorting drop out, as long as no run of duplicates is split.
    """
    new_run = np.empty(f1.size, dtype=bool)
    new_run[:1] = True
    new_run[1:] = (f1[1:] != f1[:-1]) | (f2[1:] != f2[:-1])
    run_start = np.maximum.accumulate(np.where(new_run, np.arange(f1.size), 0))
    best_before = np.minimum.accumulate(np.concatenate(([np.inf], f2[:-1])))
    return f2 < best_before[run_start]


def _fronts(F: np.ndarray, violation: np.ndarray) -> Iterator[np.ndarray]:
    """Constrained nondominated fronts of the rows of ``F``, lazily, as ascending index arrays.

    With two objectives all rows are sorted once, infeasible ones as if their
    f2 were +inf so that exact duplicates stay adjacent, and each front is a
    skyline sweep of the sorted rows, after which its rows' f2 is set to
    +inf.  Every sweep works on arrays of one length: numpy keeps freed
    buffers under 1 KiB for reuse by size, so masks of a new length each
    sweep would hold more memory.  More objectives peel by a broadcast
    dominance mask.  Infeasible rows follow, one front per distinct
    violation, smallest first.  No front is computed before it is asked for.
    Objectives must be finite, as ``evaluate_population`` makes them.
    """
    feasible = violation == 0.0
    if F.shape[1] == 2:
        left = np.count_nonzero(feasible)
        f2 = np.where(feasible, F[:, 1], np.inf)
        order = np.lexsort((f2, F[:, 0]))
        f1, f2 = F[order, 0], f2[order]
        while left:
            top = skyline_mask(f1, f2)
            left -= np.count_nonzero(top)
            yield np.sort(order[top])
            f2[top] = np.inf
    else:
        rest = np.flatnonzero(feasible)
        while rest.size:
            R = F[rest]
            dominated = ((R[:, None] <= R[None]).all(2) & (R[:, None] < R[None]).any(2)).any(0)
            yield rest[~dominated]
            rest = rest[dominated]
    infeasible = np.flatnonzero(~feasible)
    if infeasible.size:
        infeasible = infeasible[np.argsort(violation[infeasible], kind="stable")]
        v = violation[infeasible]
        yield from np.split(infeasible, np.flatnonzero(v[1:] != v[:-1]) + 1)


def fast_nondominated_sort(objectives: np.ndarray, violation: np.ndarray) -> list[list[int]]:
    """Constrained nondominated fronts as ascending index lists.

    Every front of ``_fronts``: feasible Pareto fronts peeled off one sort,
    each an O(N) skyline sweep for two objectives, then infeasible rows, one
    front per distinct violation.  Survival pulls only the fronts it needs.
    """
    F = np.asarray(objectives, dtype=float)
    viol = np.asarray(violation, dtype=float)
    if F.shape[0] == 0:
        raise ValueError("population must be non-empty")
    if not np.isfinite(F).all():
        raise ValueError("objectives must be finite")
    return [front.tolist() for front in _fronts(F, viol)]


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

    Every pick draws one index pair, plus a coin only on a full tie.  The
    pairs are drawn as one block, which gives the values and end state of
    one ``integers(0, n, size=2)`` call per pick.  At the block's first full
    tie the generator is rewound to the block's start and redrawn through
    that pair, the coin is drawn, and the picks left start a new block.
    A ranked population has few full ties (about one a generation in a
    500-row paper run), so few blocks are drawn.
    """
    winners = np.empty(picks, dtype=np.intp)
    done = 0
    while done < picks:
        start = rng.bit_generator.state
        i, j = rng.integers(0, len(rank), size=(picks - done, 2)).T
        ri, rj, ci, cj = rank[i], rank[j], crowding[i], crowding[j]
        won = np.where(ri != rj, np.where(ri < rj, i, j), np.where(ci > cj, i, j))
        tie = np.flatnonzero((ri == rj) & (ci == cj))
        if tie.size == 0:
            winners[done:] = won
            break
        t = int(tie[0])
        winners[done : done + t] = won[:t]
        rng.bit_generator.state = start
        rng.integers(0, len(rank), size=(t + 1, 2))
        winners[done + t] = i[t] if rng.random() < 0.5 else j[t]
        done += t + 1
    return winners


def _libm_pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` one numpy scalar at a time, each a libm ``pow`` call.

    ``np.power`` over an array may run a SIMD kernel whose last bits differ
    from ``pow``, which would change the children a seed gives.
    """
    return np.array([b**exponent for b in base], dtype=float)


def variation(
    parents: np.ndarray,
    problem: ProblemSpec,
    cfg: GaConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Produce offspring designs from an even-sized mating pool.

    Pair by pair, the random stream holds a crossover coin; when it passes,
    one coin per variable, each coin <= 0.5 followed by an SBX draw.  Then,
    for each child, one mutation coin per variable, each coin below the
    mutation probability followed by a mutation draw.  Every draw is one
    ``random()`` double, so the most a pool can use is drawn as one block,
    and the generator is rewound and advanced by the number used.  The block
    is walked with pointer jumps: each position points to the next slot as
    if a crossover or a mutation coin stood there, these pointers composed
    give every position's pair end, and a chain from 0 gives the pair
    starts.  Following the pointers from the pair starts, slot by slot for
    all pairs at once, gives every slot's position, so the chosen variables
    and their draws are read as arrays.  SBX and Deb's bounded polynomial
    mutation then act on all chosen variables at once.
    """
    parents = np.asarray(parents, dtype=float)
    if parents.ndim != 2 or parents.shape[0] % 2 != 0:
        raise ValueError("mating pool must be a 2-D matrix with an even row count")
    n_pairs, n_vars = parents.shape[0] // 2, parents.shape[1]
    p_mut = (
        cfg.mutation_probability
        if cfg.mutation_probability is not None
        else 1.0 / problem.n_vars
    )
    start = rng.bit_generator.state
    # the block, then two padding positions whose coins all fail; the last is
    # a sink for the chains from positions other than pair starts
    block = np.ones(n_pairs * (1 + 6 * n_vars) + 2)
    rng.random(out=block[:-2])
    after_coin = np.arange(1, block.size + 1)
    after_coin[-1] = block.size - 1
    after_cross = after_coin + (block <= 0.5)
    after_mutate = after_coin + (block < p_mut)
    pair_end = after_cross
    for _ in range(n_vars - 1):
        pair_end = after_cross[pair_end]
    pair_end = np.where(block <= cfg.crossover_probability, pair_end[after_coin], after_coin)
    for _ in range(2 * n_vars if p_mut > 0 else 0):
        pair_end = after_mutate[pair_end]
    starts, used = [], 0
    for _ in range(n_pairs):
        starts.append(used)
        used = pair_end[used]
    rng.bit_generator.state = start
    rng.random(used)

    # every pair's n_vars crossover and 2 * n_vars mutation slots, as block
    # positions; a pair whose crossover coin fails stays put through the first
    crossing = block[starts] <= cfg.crossover_probability
    slots = np.empty((n_pairs, 3 * n_vars), dtype=np.intp)
    slots[:, 0] = after_coin[starts]
    for j in range(1, 3 * n_vars):
        at = slots[:, j - 1]
        slots[:, j] = np.where(crossing, after_cross[at], at) if j <= n_vars else after_mutate[at]
    cross_slots, mutate_slots = slots[:, :n_vars], slots[:, n_vars:]
    crossed = crossing[:, None] & (block[cross_slots] <= 0.5)
    mutated = block[mutate_slots] < p_mut  # no coin passes at p_mut 0

    children = parents.copy()
    flat = children.reshape(-1)

    # SBX, mean-preserving before bound clipping
    at, u = np.flatnonzero(crossed), block[cross_slots[crossed] + 1]
    at += at // n_vars * n_vars  # (pair, variable) to the first child's flat index
    beta = _libm_pow(
        np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))), 1.0 / (cfg.crossover_index + 1.0)
    )
    x1, x2 = flat[at], flat[at + n_vars]
    flat[at] = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)
    flat[at + n_vars] = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)

    # polynomial mutation of the crossed children
    at, u = np.flatnonzero(mutated), block[mutate_slots[mutated] + 1]
    lower, upper = problem.lower[at % n_vars], problem.upper[at % n_vars]
    span = upper - lower
    y = flat[at]
    left = u <= 0.5
    eta = cfg.mutation_index
    power = _libm_pow(
        np.where(left, 1.0 - (y - lower) / span, 1.0 - (upper - y) / span), eta + 1.0
    )
    root = _libm_pow(
        np.where(
            left,
            2.0 * u + (1.0 - 2.0 * u) * power,
            2.0 * (1.0 - u) + 2.0 * (u - 0.5) * power,
        ),
        1.0 / (eta + 1.0),
    )
    flat[at] = y + np.where(left, root - 1.0, 1.0 - root) * span
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


def _truncate(pop: Population, size: int) -> np.ndarray:
    """Rank and crowd ``pop`` in place; return the rows of its ``size`` elitist survivors.

    Survivors are whole fronts, then the partial front's rows of largest
    crowding, ordered front by front; no later front is computed.  Rows
    dropped from the partial front and later fronts dominate no survivor, so
    survivors keep their ranks and whole fronts their crowding.  Only the
    partial front's crowding is recomputed, over its survivors in survivor
    order.  At ``size == len(pop)`` every row survives with the ranks and
    crowding of a full sort.
    """
    keep: list[np.ndarray] = []
    room = size
    for k, front in enumerate(_fronts(pop.F, pop.violation)):
        dist = crowding_distance(pop.F[front])
        if front.size > room:
            # crowding descending, stable on population index for determinism
            front = front[np.argsort(-dist, kind="stable")[:room]]
            dist = crowding_distance(pop.F[front])
        pop.rank[front] = k
        pop.crowding[front] = dist
        keep.append(front)
        room -= front.size
        if room == 0:
            break
    return np.concatenate(keep)


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
