"""Brute-force references that only the tests use.

Constrained dominance by definition, the O(n^2) domination-matrix front
peel that the sort-based ranking in ``discflex.nsga2`` replaces, the
design-box membership mask, a response-surface model evaluated term by
term at one design point, and the GA operators decided one pick, pair and
variable at a time from the same blocks of random numbers, whose results the
whole-array ``discflex.nsga2`` operators must reproduce bit for bit.
"""

import numpy as np

from discflex import nsga2


def dominates(f_a, v_a: float, f_b, v_b: float) -> bool:
    """Constrained dominance: feasibility first, then componentwise objectives."""
    if v_a == 0.0 and v_b != 0.0:
        return True
    if v_a != 0.0 and v_b == 0.0:
        return False
    if v_a != 0.0 and v_b != 0.0:
        return v_a < v_b
    f_a, f_b = np.asarray(f_a, dtype=float), np.asarray(f_b, dtype=float)
    return bool(np.all(f_a <= f_b) and np.any(f_a < f_b))


def brute_force_fronts(objectives, violation) -> list[list[int]]:
    """Peel non-dominated layers by the definition of dominance."""
    objs = np.asarray(objectives, dtype=float)
    viol = np.asarray(violation, dtype=float)
    remaining = list(range(len(objs)))
    fronts = []
    while remaining:
        layer = [
            i
            for i in remaining
            if not any(dominates(objs[j], viol[j], objs[i], viol[i]) for j in remaining if j != i)
        ]
        fronts.append(sorted(layer))
        remaining = [i for i in remaining if i not in layer]
    return fronts


def domination_matrix(objs: np.ndarray, viol: np.ndarray) -> np.ndarray:
    """D[i, j] True when row i dominates row j."""
    le = (objs[:, None, :] <= objs[None, :, :]).all(axis=2)
    lt = (objs[:, None, :] < objs[None, :, :]).any(axis=2)
    obj_dom = le & lt
    feas = viol == 0.0
    both_feas = feas[:, None] & feas[None, :]
    i_only = feas[:, None] & ~feas[None, :]
    both_infeas = ~feas[:, None] & ~feas[None, :]
    viol_less = viol[:, None] < viol[None, :]
    return (both_feas & obj_dom) | i_only | (both_infeas & viol_less)


def matrix_fronts(objectives, violation) -> list[list[int]]:
    """Fronts by peeling the domination matrix; same contract as
    ``nsga2.fast_nondominated_sort``."""
    objs = np.asarray(objectives, dtype=float)
    viol = np.asarray(violation, dtype=float)
    if len(objs) == 0:
        raise ValueError("population must be non-empty")
    dom = domination_matrix(objs, viol)
    remaining = dom.sum(axis=0).astype(int)  # how many dominate each j
    assigned = np.zeros(len(objs), dtype=bool)
    fronts: list[list[int]] = []
    while not assigned.all():
        members = np.nonzero(~assigned & (remaining == 0))[0]
        if members.size == 0:
            raise AssertionError("cyclic dominance bookkeeping")
        fronts.append(members.tolist())
        assigned[members] = True
        remaining = remaining - dom[members].sum(axis=0)
    return fronts


def bounds_contains(low, high, points) -> np.ndarray:
    """Boolean mask of rows of ``points`` (n, 3) inside the box [low, high]."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.all((pts >= low) & (pts <= high), axis=1)


def evaluate(model, point) -> float:
    """Model value at one design point (length, width, thickness), one monomial at a time."""
    l, b, t = (float(v) for v in point)
    return sum(
        c * (l**p * b**q * t**r) for (p, q, r), c in zip(model.basis.terms, model.coefficients)
    )


def _pow(base: float, exponent: float) -> float:
    """``base ** exponent`` through ``np.power`` on a one-element array.

    Python's ``**`` calls libm ``pow``, whose last bits can differ from the
    SIMD kernel that ``np.power`` runs over an array.
    """
    return float(np.power(np.array([base]), exponent)[0])


def tournament_select(
    rank: np.ndarray, crowding: np.ndarray, picks: int, rng: np.random.Generator
) -> np.ndarray:
    """Binary tournaments on (rank, crowding), decided one pick at a time.

    Draws the same blocks as ``nsga2.tournament_select``: all index pairs,
    then one coin per pick, used only on a full tie.
    """
    first, second = rng.integers(0, len(rank), size=(2, picks)).tolist()
    coins = rng.random(picks).tolist()
    rank_l, crowd_l = rank.tolist(), crowding.tolist()
    winners = []
    for i, j, coin in zip(first, second, coins):
        if rank_l[i] != rank_l[j]:
            winners.append(i if rank_l[i] < rank_l[j] else j)
        elif crowd_l[i] != crowd_l[j]:
            winners.append(i if crowd_l[i] > crowd_l[j] else j)
        else:
            winners.append(i if coin < 0.5 else j)
    return np.array(winners, dtype=np.intp)


def _sbx_pair(
    x1: np.ndarray, x2: np.ndarray, eta: float, coins: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover; mean-preserving before bound clipping."""
    c1, c2 = x1.copy(), x2.copy()
    for k in range(x1.size):
        if coins[k] > 0.5:
            continue
        u = draws[k]
        if u <= 0.5:
            beta = _pow(2.0 * u, 1.0 / (eta + 1.0))
        else:
            beta = _pow(1.0 / (2.0 * (1.0 - u)), 1.0 / (eta + 1.0))
        c1[k] = 0.5 * ((1.0 + beta) * x1[k] + (1.0 - beta) * x2[k])
        c2[k] = 0.5 * ((1.0 - beta) * x1[k] + (1.0 + beta) * x2[k])
    return c1, c2


def _polynomial_mutation(
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    p_mut: float,
    eta: float,
    coins: np.ndarray,
    draws: np.ndarray,
) -> np.ndarray:
    """Deb's bounded polynomial mutation of each variable whose coin passes."""
    y = x.copy()
    for k in range(x.size):
        if coins[k] >= p_mut:
            continue
        span = upper[k] - lower[k]
        d1 = (y[k] - lower[k]) / span
        d2 = (upper[k] - y[k]) / span
        u = draws[k]
        exp = 1.0 / (eta + 1.0)
        if u <= 0.5:
            dq = _pow(2.0 * u + (1.0 - 2.0 * u) * _pow(1.0 - d1, eta + 1.0), exp) - 1.0
        else:
            dq = 1.0 - _pow(2.0 * (1.0 - u) + 2.0 * (u - 0.5) * _pow(1.0 - d2, eta + 1.0), exp)
        y[k] += dq * span
    return y


def variation(parents: np.ndarray, problem, rng: np.random.Generator) -> np.ndarray:
    """Offspring of an even-sized mating pool, made pair by pair and variable by variable.

    Draws the same block as ``nsga2.variation`` and reads it in the same
    layout: pair crossover coins, per-variable crossover coins, SBX draws,
    per-gene mutation coins and mutation draws.  The operator settings are
    read from ``nsga2`` at call time, so a test that patches them patches both.
    """
    parents = np.asarray(parents, dtype=float)
    if parents.ndim != 2 or parents.shape[0] % 2 != 0:
        raise ValueError("mating pool must be a 2-D matrix with an even row count")
    n_pairs, n_vars = parents.shape[0] // 2, parents.shape[1]
    p_mut = nsga2.MUTATED_GENES_PER_CHILD / problem.n_vars
    block = rng.random(n_pairs * (1 + 6 * n_vars))
    genes = n_pairs * n_vars
    cross_at, sbx_at = n_pairs, n_pairs + genes
    mutate_at, mutate_draw_at = n_pairs + 2 * genes, n_pairs + 4 * genes
    children = np.empty_like(parents)
    for k in range(n_pairs):
        x1, x2 = parents[2 * k], parents[2 * k + 1]
        if block[k] <= nsga2.CROSSOVER_PROBABILITY:
            pair = slice(k * n_vars, (k + 1) * n_vars)
            c1, c2 = _sbx_pair(
                x1, x2, nsga2.CROSSOVER_INDEX, block[cross_at:][pair], block[sbx_at:][pair]
            )
        else:
            c1, c2 = x1.copy(), x2.copy()
        for row, child in ((2 * k, c1), (2 * k + 1, c2)):
            gene = slice(row * n_vars, (row + 1) * n_vars)
            children[row] = _polynomial_mutation(
                child,
                problem.lower,
                problem.upper,
                p_mut,
                nsga2.MUTATION_INDEX,
                block[mutate_at:][gene],
                block[mutate_draw_at:][gene],
            )
    return np.clip(children, problem.lower, problem.upper)
