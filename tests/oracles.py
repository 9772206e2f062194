"""Brute-force references that only the tests use.

Constrained dominance by definition, the O(n^2) domination-matrix front
peel that the sort-based ranking in ``discflex.nsga2`` replaces, the
design-box membership mask, and a response-surface model evaluated term by
term at one design point.
"""

import numpy as np


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


def bounds_contains(bounds, points) -> np.ndarray:
    """Boolean mask of rows of ``points`` (n, 3) inside ``bounds``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.all((pts >= bounds.low_array()) & (pts <= bounds.high_array()), axis=1)


def evaluate(model, point) -> float:
    """Model value at one design point, summed one monomial at a time."""
    l, b, t = point.as_tuple()
    return sum(
        c * (l**p * b**q * t**r) for (p, q, r), c in zip(model.basis.terms, model.coefficients)
    )
