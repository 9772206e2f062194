"""Evolutionary optimizer: dominance, sorting, crowding, operators, runs."""

import numpy as np
import pytest

from discflex import nsga2
from discflex.nsga2 import (
    EvaluationError,
    GaConfig,
    ProblemSpec,
    crowding_distance,
    fast_nondominated_sort,
    optimize,
    tournament_select,
    variation,
)
from oracles import brute_force_fronts, dominates, matrix_fronts


def _no_constraint(X):
    """The constraint column of a problem every design satisfies."""
    return np.zeros((len(X), 1))


def _two_parabola(lower=-5.0, upper=5.0):
    def evaluate(X):
        x = X[:, 0]
        return np.column_stack([x**2, (x - 2.0) ** 2]), _no_constraint(X)

    return ProblemSpec(
        lower=np.array([lower]),
        upper=np.array([upper]),
        evaluate=evaluate,
    )


# ---------------------------------------------------------------------------
# dominance (the oracle the sort tests compare against)


def test_dominates_examples():
    assert dominates([1, 2], 0.0, [2, 2], 0.0)
    assert not dominates([1, 3], 0.0, [3, 1], 0.0)
    assert not dominates([3, 1], 0.0, [1, 3], 0.0)
    assert dominates([5, 5], 0.0, [0, 0], 1.0)
    assert dominates([9, 9], 0.5, [0, 0], 1.0)


def test_dominance_irreflexive_and_asymmetric():
    rng = np.random.default_rng(23)
    for _ in range(300):
        fa, va = rng.integers(0, 4, size=2), float(rng.integers(0, 2))
        fb, vb = rng.integers(0, 4, size=2), float(rng.integers(0, 2))
        assert not dominates(fa, va, fa, va)
        assert not (dominates(fa, va, fb, vb) and dominates(fb, vb, fa, va))


# ---------------------------------------------------------------------------
# sorting


def _feasible(n):
    return np.zeros(n)


def _assert_sort_matches_oracles(objs, viol):
    objs = np.asarray(objs, dtype=float)
    viol = np.asarray(viol, dtype=float)
    got = fast_nondominated_sort(objs, viol)
    # ascending index lists, exactly as the matrix peel returns them
    assert got == matrix_fronts(objs, viol)
    assert got == brute_force_fronts(objs, viol)


def test_sort_hand_example():
    fronts = fast_nondominated_sort(np.array([(1, 2), (2, 1), (2, 2), (3, 3)]), _feasible(4))
    assert fronts == [[0, 1], [2], [3]]


def test_sort_identical_objectives_single_front():
    fronts = fast_nondominated_sort(np.full((6, 2), [1.5, 2.5]), _feasible(6))
    assert fronts == [list(range(6))]


def test_sort_total_chain_gives_singletons():
    objs = np.array([[k, k] for k in range(5)], dtype=float)
    assert fast_nondominated_sort(objs, _feasible(5)) == [[0], [1], [2], [3], [4]]


def test_sort_rejects_empty_population():
    with pytest.raises(ValueError, match="non-empty"):
        fast_nondominated_sort(np.empty((0, 2)), np.empty(0))


def test_sort_matches_brute_force_on_random_populations():
    rng = np.random.default_rng(31)
    for trial in range(200):
        n = int(rng.integers(2, 65))
        m = int(rng.choice([2, 3]))
        objs = rng.integers(0, 6, size=(n, m)).astype(float)
        # mix in infeasible individuals to exercise constrained dominance
        viol = np.where(rng.random(n) < 0.3, rng.uniform(0.1, 2.0, n), 0.0)
        got = fast_nondominated_sort(objs, viol)
        want = brute_force_fronts(objs, viol)
        assert got == want, f"trial {trial}: {got} != {want}"


def test_sort_exact_duplicates_share_fronts():
    objs = [(1, 4), (2, 2), (1, 4), (3, 1), (2, 2), (2, 3), (2, 3), (1, 4)]
    _assert_sort_matches_oracles(objs, _feasible(len(objs)))
    assert fast_nondominated_sort(np.array(objs), _feasible(len(objs)))[0] == [0, 1, 2, 3, 4, 7]


def test_sort_ties_in_each_objective():
    # equal f1 with different f2, and equal f2 with different f1
    same_f1 = [(2, 5), (2, 3), (2, 4), (2, 3), (1, 6)]
    same_f2 = [(5, 2), (3, 2), (4, 2), (3, 2), (6, 1)]
    for objs in (same_f1, same_f2):
        _assert_sort_matches_oracles(objs, _feasible(len(objs)))
    assert fast_nondominated_sort(np.array(same_f1), _feasible(5)) == [[1, 3, 4], [2], [0]]


def test_sort_negative_zero_equals_zero():
    objs = [(0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (1.0, 0.0), (-0.0, -0.0), (0.0, 0.0)]
    _assert_sort_matches_oracles(objs, _feasible(len(objs)))
    fronts = fast_nondominated_sort(np.array(objs), _feasible(len(objs)))
    assert fronts == [[4, 5], [0, 1, 2, 3]]


def test_sort_equal_violations_share_a_front():
    objs = np.array([(0, 0), (5, 5), (1, 1), (3, 0), (2, 2), (0, 9)], dtype=float)
    viol = np.array([0.5, 0.0, 0.25, 0.5, 0.0, 0.25])
    _assert_sort_matches_oracles(objs, viol)
    assert fast_nondominated_sort(objs, viol) == [[4], [1], [2, 5], [0, 3]]


def test_sort_all_rows_infeasible():
    rng = np.random.default_rng(53)
    objs = rng.random((40, 2))
    viol = rng.choice([0.1, 0.7, 2.0, 3.5], size=40)
    _assert_sort_matches_oracles(objs, viol)
    fronts = fast_nondominated_sort(objs, viol)
    assert [sorted(set(viol[f])) for f in fronts] == [[0.1], [0.7], [2.0], [3.5]]


def test_sort_single_row():
    for viol in (0.0, 1.5):
        assert fast_nondominated_sort(np.array([[3.0, 4.0]]), np.array([viol])) == [[0]]


def test_sort_thousand_continuous_rows():
    rng = np.random.default_rng(59)
    objs = rng.random((1000, 2))
    viol = np.where(rng.random(1000) < 0.2, rng.random(1000), 0.0)
    assert fast_nondominated_sort(objs, viol) == matrix_fronts(objs, viol)


def test_first_front_has_no_dominating_pair():
    rng = np.random.default_rng(37)
    objs = rng.random((40, 2))
    first = fast_nondominated_sort(objs, _feasible(40))[0]
    for i in first:
        for j in first:
            assert not dominates(objs[i], 0.0, objs[j], 0.0)


# ---------------------------------------------------------------------------
# crowding


def test_crowding_hand_case():
    dist = crowding_distance(np.array([(1, 3), (2, 2), (3, 1)], dtype=float))
    assert dist[0] == np.inf
    assert dist[2] == np.inf
    assert dist[1] == pytest.approx(2.0)


def test_crowding_small_fronts_all_infinite():
    for size in (1, 2):
        dist = crowding_distance(np.array([[k, 1 - k] for k in range(size)], dtype=float))
        assert np.all(dist == np.inf)


def test_crowding_duplicate_vectors_get_zero():
    dist = crowding_distance(np.array([(0, 4), (1, 3), (1, 3), (1, 3), (4, 0)], dtype=float))
    # the middle duplicate is interior on both objectives with zero gaps
    assert dist[2] == pytest.approx(0.0)


def test_crowding_constant_objective_contributes_zero():
    dist = crowding_distance(np.array([(0, 7), (1, 7), (2, 7)], dtype=float))
    assert dist[1] == pytest.approx(1.0)  # only the first objective counts


# ---------------------------------------------------------------------------
# selection


def test_tournament_rules_against_shadow_rng():
    # distinct (rank, crowding) everywhere except when the same index is
    # drawn twice: each pick consumes one integer pair, plus a coin on that
    # full tie, so a same-seeded generator predicts every matchup
    rank = np.repeat(np.arange(4), 3)
    crowding = np.tile(np.arange(3, dtype=float), 4)
    rng = np.random.default_rng(41)
    shadow = np.random.default_rng(41)
    winners = tournament_select(rank, crowding, 500, rng)
    assert winners.shape == (500,)
    for winner in winners:
        i, j = (int(v) for v in shadow.integers(0, len(rank), size=2))
        if rank[i] != rank[j]:
            expect = i if rank[i] < rank[j] else j
        elif crowding[i] != crowding[j]:
            expect = i if crowding[i] > crowding[j] else j
        else:
            # same index drawn twice: a coin flip is still consumed
            expect = i if shadow.random() < 0.5 else j
        assert winner == expect
    # both generators stopped at the same point of the stream
    assert rng.random() == shadow.random()


def test_tournament_full_tie_is_seed_deterministic():
    rank = np.zeros(4, dtype=int)
    crowding = np.full(4, np.inf)
    picks1 = tournament_select(rank, crowding, 20, np.random.default_rng(5))
    picks2 = tournament_select(rank, crowding, 20, np.random.default_rng(5))
    assert np.array_equal(picks1, picks2)


# ---------------------------------------------------------------------------
# variation


def test_variation_identity_when_operators_off():
    problem = _two_parabola()
    cfg = GaConfig(
        population_size=4, generations=1, crossover_probability=0.0, mutation_probability=0.0
    )
    parents = np.array([[1.0], [2.0], [-3.0], [4.0]])
    children = variation(parents, problem, cfg, np.random.default_rng(0))
    assert np.array_equal(children, parents)


def test_variation_output_always_in_bounds():
    problem = ProblemSpec(
        lower=np.array([24.0, 3.0, 0.3]),
        upper=np.array([40.0, 9.0, 0.9]),
        evaluate=lambda X: (X[:, :2], _no_constraint(X)),
    )
    cfg = GaConfig(population_size=10, generations=1, mutation_probability=0.8)
    rng = np.random.default_rng(43)
    for _ in range(50):
        parents = problem.lower + rng.random((10, 3)) * (problem.upper - problem.lower)
        children = variation(parents, problem, cfg, rng)
        assert np.all(children >= problem.lower) and np.all(children <= problem.upper)


def test_sbx_preserves_pair_means():
    # with mutation off and bounds far away, child sums equal parent sums
    problem = ProblemSpec(
        lower=np.array([-1e9, -1e9]),
        upper=np.array([1e9, 1e9]),
        evaluate=lambda X: (X, _no_constraint(X)),
    )
    cfg = GaConfig(
        population_size=2, generations=1, crossover_probability=1.0, mutation_probability=0.0
    )
    rng = np.random.default_rng(47)
    for _ in range(10_000):
        parents = rng.uniform(-10.0, 10.0, size=(2, 2))
        children = variation(parents, problem, cfg, rng)
        assert np.allclose(children.sum(axis=0), parents.sum(axis=0), rtol=1e-10, atol=1e-9)


# ---------------------------------------------------------------------------
# full runs


def test_two_parabola_front_matches_analytic_pareto_set():
    cfg = GaConfig(population_size=100, generations=50, seed=1)
    result = optimize(_two_parabola(), cfg)
    xs = result.front.X[:, 0]
    assert xs.min() >= -0.05 and xs.max() <= 2.05
    f = result.front.F
    deviation = np.abs(f[:, 1] - (np.sqrt(f[:, 0]) - 2.0) ** 2)
    assert deviation.max() < 1e-2
    # the front should cover the whole trade-off, not collapse to a point
    assert xs.max() - xs.min() > 1.5


def test_degenerate_second_objective_collapses_to_minimizer():
    def evaluate(X):
        x = X[:, 0]
        return np.column_stack([(x - 1.0) ** 2, np.zeros_like(x)]), _no_constraint(X)

    problem = ProblemSpec(lower=np.array([-4.0]), upper=np.array([4.0]), evaluate=evaluate)
    result = optimize(problem, GaConfig(population_size=60, generations=60, seed=2))
    xs = result.front.X[:, 0]
    assert np.all(np.abs(xs - 1.0) < 1e-3)


def test_infeasible_everywhere_returns_empty_front_with_flag():
    problem = ProblemSpec(
        lower=np.array([0.0]),
        upper=np.array([1.0]),
        evaluate=lambda X: (
            np.column_stack([X[:, 0], 1.0 - X[:, 0]]),
            np.full((X.shape[0], 1), 2.0),
        ),
    )
    result = optimize(problem, GaConfig(population_size=20, generations=5, seed=3))
    assert len(result.front) == 0
    assert result.feasible_front_found is False
    assert not result.population.feasible.any()


def test_elitism_best_objectives_non_increasing():
    cfg = GaConfig(population_size=40, generations=40, seed=4)
    result = optimize(_two_parabola(), cfg)
    best = np.array([s.best_objectives for s in result.history])
    assert np.all(np.diff(best[:, 0]) <= 1e-12)
    assert np.all(np.diff(best[:, 1]) <= 1e-12)


def test_every_evaluated_design_is_inside_the_box():
    seen = []

    def evaluate(X):
        seen.append(X.copy())
        return np.column_stack([X[:, 0] ** 2, (X[:, 0] - 1.0) ** 2]), _no_constraint(X)

    problem = ProblemSpec(lower=np.array([-2.0]), upper=np.array([2.0]), evaluate=evaluate)
    optimize(problem, GaConfig(population_size=20, generations=10, seed=5))
    stacked = np.vstack(seen)
    assert np.all(stacked >= -2.0) and np.all(stacked <= 2.0)


def test_optimize_determinism():
    cfg = GaConfig(population_size=50, generations=10, seed=6)
    r1 = optimize(_two_parabola(), cfg)
    r2 = optimize(_two_parabola(), cfg)
    assert np.array_equal(r1.population.X, r2.population.X)
    assert np.array_equal(r1.population.F, r2.population.F)


def _constrained_problem():
    return ProblemSpec(
        lower=np.array([-2.0, -2.0]),
        upper=np.array([2.0, 2.0]),
        evaluate=lambda X: (
            np.column_stack([X[:, 0] ** 2 + X[:, 1] ** 2, (X[:, 0] - 1.0) ** 2 + X[:, 1] ** 2]),
            np.column_stack([0.25 - X[:, 1] ** 2, X[:, 0] - 1.5]),
        ),
    )


def test_optimize_evaluates_each_population_once():
    inner = _constrained_problem()
    rows = []

    def evaluate(X):
        rows.append(len(X))
        return inner.evaluate(X)

    problem = ProblemSpec(lower=inner.lower, upper=inner.upper, evaluate=evaluate)
    optimize(problem, GaConfig(population_size=20, generations=7, seed=0))
    assert rows == [20] * 8


def test_optimize_same_with_matrix_oracle_sort(monkeypatch):
    # a constrained run exercises infeasible fronts and partial fronts;
    # swapping in the O(n^2) peel must change nothing
    problem = _constrained_problem()
    cfg = GaConfig(population_size=60, generations=20, seed=8)
    fast = optimize(problem, cfg)
    monkeypatch.setattr(nsga2, "fast_nondominated_sort", matrix_fronts)
    slow = optimize(problem, cfg)
    assert fast.feasible_front_found
    for a, b in [(fast.population, slow.population), (fast.front, slow.front)]:
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.F, b.F)
        assert np.array_equal(a.rank, b.rank)
        assert np.array_equal(a.crowding, b.crowding)
    assert fast.history == slow.history


def test_survivors_keep_ranks_and_fresh_crowding(monkeypatch):
    # truncation does not re-sort: the initial population's and every
    # generation's survivors must carry the ranks and crowding that sorting
    # them afresh would give
    real = nsga2._truncate
    checked = []

    def truncate_and_check(pop, size):
        keep = real(pop, size)
        survivors = pop.take(keep)
        for k, front in enumerate(matrix_fronts(survivors.F, survivors.violation)):
            assert np.all(survivors.rank[front] == k)
            assert np.array_equal(survivors.crowding[front], crowding_distance(survivors.F[front]))
        checked.append((len(pop), len(keep)))
        return keep

    monkeypatch.setattr(nsga2, "_truncate", truncate_and_check)
    optimize(_constrained_problem(), GaConfig(population_size=60, generations=20, seed=8))
    assert checked == [(60, 60)] + [(120, 60)] * 20


def test_non_finite_evaluator_aborts_with_offending_design():
    def evaluate(X):
        out = np.column_stack([X[:, 0], X[:, 0]])
        out[0, 0] = np.nan
        return out, _no_constraint(X)

    problem = ProblemSpec(lower=np.array([0.0]), upper=np.array([1.0]), evaluate=evaluate)
    with pytest.raises(EvaluationError):
        optimize(problem, GaConfig(population_size=10, generations=2, seed=7))


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=7, generations=5)  # odd
    with pytest.raises(ValueError):
        GaConfig(population_size=10, generations=0)
    with pytest.raises(ValueError):
        GaConfig(population_size=10, generations=5, crossover_probability=1.5)
    with pytest.raises(ValueError):
        GaConfig(population_size=10, generations=5, crossover_index=0.0)
    for name in ("crossover_index", "mutation_index"):
        with pytest.raises(ValueError, match="distribution indices"):
            GaConfig(population_size=10, generations=5, **{name: float("nan")})


def test_problem_spec_validation():
    def evaluate(X):
        return X, _no_constraint(X)

    with pytest.raises(ValueError):
        ProblemSpec(
            lower=np.array([0.0, 1.0]),
            upper=np.array([1.0, 1.0]),  # not strictly above lower
            evaluate=evaluate,
        )
    with pytest.raises(ValueError):
        ProblemSpec(
            lower=np.array([np.inf]),
            upper=np.array([1.0]),
            evaluate=evaluate,
        )
    for lower, upper in (([0.0, 0.0], [1.0]), ([[0.0, 0.0]], [[1.0, 1.0]])):
        with pytest.raises(ValueError, match="1-d"):
            ProblemSpec(lower=np.array(lower), upper=np.array(upper), evaluate=evaluate)
    spec = ProblemSpec(lower=np.zeros(3), upper=np.ones(3), evaluate=evaluate)
    assert spec.n_vars == 3
