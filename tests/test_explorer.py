"""Case-study wiring: synthesis, problem assembly, fronts, studies."""

import dataclasses

import numpy as np
import pytest

from discflex import ann, explorer, rsm
from discflex.ann import NetworkShape, TrainConfig, predict_batch, train
from discflex.dataset import (
    DESIGN_HIGH,
    DESIGN_LOW,
    RESPONSE_COLUMNS,
    Dataset,
    DesignTag,
    NormalizationStats,
    lattice,
)
from discflex.explorer import (
    EmptyFrontError,
    explore,
    extract_extremes,
    fingerprint_models,
    fingerprint_network,
    grid_pareto_oracle,
    run_network_size_study,
    run_training_size_study,
    select_optimum,
    synthesize_dataset,
    train_and_score,
)
from discflex.nsga2 import GaConfig
from oracles import bounds_contains


@pytest.fixture(scope="module")
def small_data():
    return synthesize_dataset(DesignTag.A, 40, seed=1)


@pytest.fixture(scope="module")
def quick_net(small_data):
    return train(NetworkShape(3, (8,), 3), small_data, TrainConfig(seed=2, max_iterations=30))


# ---------------------------------------------------------------------------
# dataset synthesis


def test_zero_noise_reproduces_generating_models():
    data = synthesize_dataset(DesignTag.A, 30, seed=4, noise_std_fraction=0.0)
    models = rsm.reference_models(DesignTag.A)
    expected = np.column_stack(
        [rsm.evaluate_batch(models[name], data.designs) for name in RESPONSE_COLUMNS]
    )
    assert np.allclose(data.responses, expected, rtol=1e-12)
    assert np.all(bounds_contains(DESIGN_LOW, DESIGN_HIGH, data.designs))


def test_synthesis_is_deterministic_and_seed_sensitive():
    a1 = synthesize_dataset(DesignTag.B, 30, seed=5)
    a2 = synthesize_dataset(DesignTag.B, 30, seed=5)
    b = synthesize_dataset(DesignTag.B, 30, seed=6)
    assert np.array_equal(a1.designs, a2.designs)
    assert np.array_equal(a1.responses, a2.responses)
    assert not np.array_equal(a1.responses, b.responses)


def test_noise_perturbs_responses_but_not_sample_locations():
    clean = synthesize_dataset(DesignTag.A, 30, seed=7, noise_std_fraction=0.0)
    noisy = synthesize_dataset(DesignTag.A, 30, seed=7, noise_std_fraction=0.01)
    assert np.array_equal(clean.designs, noisy.designs)
    assert not np.array_equal(clean.responses, noisy.responses)
    rel = np.abs(noisy.responses / clean.responses - 1.0)
    assert rel.max() < 0.06  # a 1% sigma stays within a few sigma


def test_noisy_data_still_fits_generating_basis_well():
    data = synthesize_dataset(DesignTag.B, 128, seed=8, noise_std_fraction=0.01)
    for name in RESPONSE_COLUMNS:
        basis = rsm.reference_basis(DesignTag.B, name)
        model = rsm.fit(basis, data, name)
        assert rsm.r_squared(model, data) > 0.99


def test_synthesis_input_validation():
    with pytest.raises(ValueError, match="at least 4 samples"):
        synthesize_dataset(DesignTag.A, 3, seed=0)
    with pytest.raises(ValueError, match="noise"):
        synthesize_dataset(DesignTag.A, 10, seed=0, noise_std_fraction=-0.1)


# ---------------------------------------------------------------------------
# problem assembly


def test_reference_problem_hand_values():
    respond, _, source = explorer._surrogate(rsm.reference_models(DesignTag.A))
    assert source == "rsm"
    problem = explorer._problem_spec(respond, 150.0)
    X = np.array([[32.0, 6.0, 0.6], [24.0, 3.0, 0.3]])
    objs, cons = problem.evaluate(X)
    assert objs[0] == pytest.approx([0.219582, 267.416], abs=1e-9)
    assert cons[0, 0] == pytest.approx(-1218.97776, abs=1e-6)  # well inside
    assert cons[1, 0] == pytest.approx(28.33233, abs=1e-6)  # buckles too early
    assert np.array_equal(problem.lower, DESIGN_LOW)
    assert np.array_equal(problem.upper, DESIGN_HIGH)


def test_problem_rejects_incomplete_model_set(monkeypatch):
    models = rsm.reference_models(DesignTag.A)
    del models["stress_mpa"]
    with pytest.raises(ValueError, match="missing response model"):
        explorer._surrogate(models)
    with pytest.raises(ValueError, match="missing response model"):
        grid_pareto_oracle(DesignTag.A, models=models, levels=2)
    # the synthesizer always reads the shipped set, so shrink that
    monkeypatch.setattr(rsm, "reference_models", lambda design_tag: dict(models))
    with pytest.raises(ValueError, match="missing response model"):
        synthesize_dataset(DesignTag.A, 10)


def test_network_problem_wraps_predictions(quick_net):
    respond, fingerprint, source = explorer._surrogate(quick_net)
    assert (fingerprint, source) == (fingerprint_network(quick_net), "ann")
    problem = explorer._problem_spec(respond, 150.0)
    X = np.array([[30.0, 5.0, 0.5], [38.0, 8.0, 0.8]])
    pred = predict_batch(quick_net, X)
    objs, cons = problem.evaluate(X)
    assert np.array_equal(objs, pred[:, :2])
    assert np.allclose(cons[:, 0], 150.0 - pred[:, 2])
    # the evaluator is pure: a second call sees the same values
    assert np.array_equal(problem.evaluate(X)[0], pred[:, :2])


# ---------------------------------------------------------------------------
# named solutions


def test_optimum_prefers_balanced_point():
    front = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    assert select_optimum(front) == 1


def test_optimum_singleton_and_tie_rules():
    assert select_optimum(np.array([[3.0, 4.0]])) == 0
    assert select_optimum(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0


def test_optimum_ignores_constant_objective():
    front = np.array([[1.0, 7.0], [2.0, 7.0], [9.0, 7.0]])
    # the constant column contributes nothing; closest-to-mean wins on the other
    means = np.abs(front[:, 0] - front[:, 0].mean())
    assert select_optimum(front) == int(np.argmin(means))


def test_optimum_invariant_under_affine_objective_rescaling():
    rng = np.random.default_rng(21)
    for _ in range(50):
        front = rng.uniform(1.0, 10.0, size=(int(rng.integers(2, 30)), 2))
        scale = rng.uniform(0.1, 100.0, size=2)
        shift = rng.uniform(-50.0, 50.0, size=2)
        assert select_optimum(front * scale + shift) == select_optimum(front)


def test_extremes_and_empty_front_errors():
    front = np.array([[1.0, 5.0], [2.0, 1.0], [3.0, 3.0]])
    assert extract_extremes(front) == (0, 1)
    with pytest.raises(ValueError):
        extract_extremes(np.empty((0, 2)))
    with pytest.raises(ValueError):
        select_optimum(np.empty((0, 2)))


# ---------------------------------------------------------------------------
# lattice front oracle


def _brute_force_lattice_front(design_tag, levels):
    models = rsm.reference_models(design_tag)
    axes = [
        np.linspace(lo, hi, levels)
        for lo, hi in zip(DESIGN_LOW, DESIGN_HIGH)
    ]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    mass = rsm.evaluate_batch(models["mass_g"], pts)
    stress = rsm.evaluate_batch(models["stress_mpa"], pts)
    buck = rsm.evaluate_batch(models["buckling_n"], pts)
    ok = buck >= 150.0
    pts, mass, stress = pts[ok], mass[ok], stress[ok]
    keep = []
    for i in range(len(pts)):
        dominated = any(
            (mass[j] <= mass[i] and stress[j] <= stress[i])
            and (mass[j] < mass[i] or stress[j] < stress[i])
            for j in range(len(pts))
        )
        if not dominated:
            keep.append(i)
    return {tuple(np.round(p, 9)) for p in pts[keep]}


def test_grid_front_matches_brute_force_on_corners():
    got = grid_pareto_oracle(DesignTag.A, levels=2)
    want = _brute_force_lattice_front(DesignTag.A, 2)
    assert {tuple(np.round(p, 9)) for p in got.designs} == want


def test_grid_front_matches_brute_force_small_lattice():
    got = grid_pareto_oracle(DesignTag.B, levels=4)
    want = _brute_force_lattice_front(DesignTag.B, 4)
    assert {tuple(np.round(p, 9)) for p in got.designs} == want


def test_grid_front_structure():
    front = grid_pareto_oracle(DesignTag.A, levels=15)
    assert {tuple(p) for p in front.designs} <= {tuple(p) for p in lattice(15)}
    assert np.all(front.buckling >= 150.0)
    assert np.all(bounds_contains(DESIGN_LOW, DESIGN_HIGH, front.designs))
    mass, stress = front.objectives[:, 0], front.objectives[:, 1]
    # sorted as a proper trade-off curve
    assert np.all(np.diff(mass) >= 0)
    assert np.all(np.diff(stress) <= 0)
    # no member dominates another
    for i in range(len(mass)):
        better_eq = (mass <= mass[i]) & (stress <= stress[i])
        strictly = (mass < mass[i]) | (stress < stress[i])
        assert not np.any(better_eq & strictly & (np.arange(len(mass)) != i))


@pytest.mark.parametrize("tag", [DesignTag.A, DesignTag.B])
def test_grid_front_blocks_match_one_evaluation(monkeypatch, tag):
    levels = 41  # 68,921 rows: 16 full blocks of 4,096 and a partial one
    evaluate = rsm.evaluate_models
    blocks = []

    def recording(models, points):
        blocks.append(evaluate(models, points))
        return blocks[-1]

    monkeypatch.setattr(rsm, "evaluate_models", recording)
    monkeypatch.setattr(explorer, "LATTICE_BLOCK_ROWS", 4096)
    blocked = grid_pareto_oracle(tag, levels=levels)
    assert len(blocks) == 17
    models = rsm.reference_models(tag)
    whole = evaluate([models[name] for name in RESPONSE_COLUMNS], lattice(levels))
    assert np.concatenate(blocks).tobytes() == whole.tobytes()

    monkeypatch.setattr(explorer, "LATTICE_BLOCK_ROWS", levels**3)
    one_call = grid_pareto_oracle(tag, levels=levels)
    for name in ("designs", "objectives", "buckling"):
        assert getattr(blocked, name).tobytes() == getattr(one_call, name).tobytes()


def test_grid_front_empty_when_threshold_unreachable():
    front = grid_pareto_oracle(DesignTag.A, levels=5, threshold_n=1e12)
    assert (front.designs.shape, front.objectives.shape, front.buckling.shape) == (
        (0, 3), (0, 2), (0,)
    )


def test_grid_front_rejects_degenerate_lattice():
    with pytest.raises(ValueError, match="at least 2 levels"):
        grid_pareto_oracle(DesignTag.A, levels=1)


# ---------------------------------------------------------------------------
# exploration


def test_reference_exploration_names_consistent_solutions():
    models = rsm.reference_models(DesignTag.A)
    result = explore(DesignTag.A, models, GaConfig(population_size=48, generations=20, seed=0))
    k = result.front_objectives.shape[0]
    assert k > 0
    assert np.all(bounds_contains(DESIGN_LOW, DESIGN_HIGH, result.front_designs))
    # named indices agree with recomputing them from the stored front
    assert result.minimal_mass_index == extract_extremes(result.front_objectives)[0]
    assert result.minimal_stress_index == extract_extremes(result.front_objectives)[1]
    assert result.optimum_index == select_optimum(result.front_objectives)
    # stored objectives really are the surrogate values at the stored designs
    mass = rsm.evaluate_batch(models["mass_g"], result.front_designs)
    stress = rsm.evaluate_batch(models["stress_mpa"], result.front_designs)
    assert np.allclose(result.front_objectives, np.column_stack([mass, stress]), rtol=1e-12)
    buck = rsm.evaluate_batch(models["buckling_n"], result.front_designs)
    assert np.all(buck >= 150.0 - 1e-9)
    assert np.array_equal(result.front_buckling, buck)
    assert result.provenance["surrogate_fingerprint"] == fingerprint_models(models)
    assert result.provenance["design_tag"] == "A"
    assert result.source == result.provenance["source"] == result.to_record()["source"] == "rsm"
    design, objectives = result.named_design(result.optimum_index)
    assert design.shape == (3,) and objectives.shape == (2,)
    # one history entry per generation; the last one saw the returned front
    assert [s.generation for s in result.history] == list(range(1, 21))
    assert result.history[-1].best_objectives == tuple(result.front_objectives.min(axis=0))


def test_network_exploration_reports_network_buckling(quick_net):
    result = explore(DesignTag.A, quick_net, GaConfig(population_size=20, generations=5, seed=0))
    assert result.source == result.provenance["source"] == result.to_record()["source"] == "ann"
    pred = predict_batch(quick_net, result.front_designs)
    assert np.allclose(result.front_objectives, pred[:, :2], rtol=1e-12)
    assert np.array_equal(result.front_buckling, pred[:, 2])
    assert "front_buckling" not in result.to_record()


@pytest.mark.parametrize("make, names", [
    (lambda: Dataset(lattice(2), np.ones((8, 3)), DesignTag.A), ("designs", "responses")),
    (lambda: NormalizationStats(np.zeros(3), np.ones(3)), ("mean", "std")),
    (lambda: grid_pareto_oracle(DesignTag.B, levels=4), ("designs", "objectives", "buckling")),
    (lambda: explore(DesignTag.A, rsm.reference_models(DesignTag.A),
                     GaConfig(population_size=12, generations=3, seed=0)),
     ("front_designs", "front_objectives", "front_buckling")),
], ids=["Dataset", "NormalizationStats", "GridFront", "ExplorationResult"])
def test_result_arrays_are_read_only_copies(make, names):
    built = make()
    # the same type built again from writable arrays that the caller keeps
    sources = {name: np.array(getattr(built, name)) for name in names}
    rebuilt = dataclasses.replace(built, **sources)
    for result in (built, rebuilt):
        for name in names:
            assert getattr(result, name).flags.writeable is False, name
    for name, source in sources.items():
        assert source.size > 0, name
        kept = source.copy()
        source += 1.0
        assert np.array_equal(getattr(rebuilt, name), kept), name


def test_network_exploration_passes_each_population_once(quick_net, monkeypatch):
    rows = []

    def counting_predict(net, X):
        rows.append(len(X))
        return predict_batch(net, X)

    monkeypatch.setattr(explorer, "predict_batch", counting_predict)
    result = explore(DesignTag.A, quick_net, GaConfig(population_size=20, generations=5, seed=0))
    # the initial population, one offspring batch per generation, then the front
    assert rows == [20] * 6 + [len(result.front_designs)]


def test_unreachable_threshold_raises_empty_front():
    models = rsm.reference_models(DesignTag.A)
    with pytest.raises(EmptyFrontError):
        explore(DesignTag.A, models, GaConfig(population_size=20, generations=5, seed=0),
                threshold_n=1e9)


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf")])
def test_explore_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match="buckling threshold must be finite and > 0"):
        explore(DesignTag.A, rsm.reference_models(DesignTag.A),
                GaConfig(population_size=20, generations=5, seed=0), threshold_n=threshold)


def test_fingerprints_are_stable_and_distinct(quick_net):
    models_a = rsm.reference_models(DesignTag.A)
    models_b = rsm.reference_models(DesignTag.B)
    assert fingerprint_models(models_a) == fingerprint_models(rsm.reference_models(DesignTag.A))
    assert fingerprint_models(models_a) != fingerprint_models(models_b)
    assert len(fingerprint_network(quick_net)) == 16


def test_fingerprint_network_is_pinned():
    # the digest that exploration envelopes record as surrogate_fingerprint
    net = ann.TrainedNetwork.from_record({
        "shape": {"n_inputs": 2, "hidden_layers": [3], "n_outputs": 1},
        "weights": [[[0.5, -0.25, 1.0], [0.125, 2.0, -1.5]], [[1.0], [-0.5], [0.25]]],
        "biases": [[0.1, 0.2, -0.3], [0.75]],
        "input_stats": {"mean": [30.0, 6.0], "std": [4.0, 1.5]},
        "output_stats": {"mean": [12.0], "std": [3.0]},
        "summary": {"alpha": 0.5, "beta": 40.0, "gamma": 9.0, "iterations": 7,
                    "stop_reason": "evidence_peak"},
    })
    assert fingerprint_network(net) == "c0d827394a633acc"


# ---------------------------------------------------------------------------
# sweep studies


def _cheap_cfg(**overrides):
    base = dict(max_iterations=5, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def test_network_size_study_shape_and_keys(small_data):
    report = run_network_size_study(
        small_data,
        layer_counts=(1,),
        neuron_counts=(4, 6),
        trials=2,
        seed=3,
        train_count=30,
        base_config=_cheap_cfg(),
    )
    assert report.axis == "network_size"
    assert [c.key for c in report.cells] == ["1x4", "1x6"]
    for cell in report.cells:
        assert cell.trials == 2 and cell.divergences == 0
        assert cell.test_std is not None and cell.test_std >= 0.0
        assert np.isfinite(cell.test_mean) and np.isfinite(cell.all_mean)


def test_single_trial_reports_no_spread(small_data):
    report = run_training_size_study(
        small_data, sizes=(20,), trials=1, seed=0, hidden_layers=(4,),
        base_config=_cheap_cfg(),
    )
    (cell,) = report.cells
    assert cell.key == "n20"
    assert cell.trials == 1 and cell.test_std is None and cell.all_std is None


def test_training_size_study_keys(small_data):
    report = run_training_size_study(
        small_data, sizes=(20, 30), trials=1, seed=0, hidden_layers=(4,),
        base_config=_cheap_cfg(),
    )
    assert report.axis == "training_size"
    assert [c.key for c in report.cells] == ["n20", "n30"]


def test_study_determinism(small_data):
    kwargs = dict(
        layer_counts=(1,), neuron_counts=(4,), trials=2, seed=5,
        train_count=30, base_config=_cheap_cfg(),
    )
    r1 = run_network_size_study(small_data, **kwargs)
    r2 = run_network_size_study(small_data, **kwargs)
    assert r1.cells == r2.cells


def test_study_parallel_workers_match_serial(small_data):
    kwargs = dict(
        layer_counts=(1,), neuron_counts=(4,), trials=2, seed=5,
        train_count=30, base_config=_cheap_cfg(),
    )
    serial = run_network_size_study(small_data, workers=1, **kwargs)
    parallel = run_network_size_study(small_data, workers=2, **kwargs)
    assert serial.cells == parallel.cells


@pytest.mark.parametrize("workers, trials, pool_sizes", [
    (64, 3, [3]),  # capped at the trial count
    (64, 1, []),  # one trial runs serially, without a pool
    (2, 3, [2]),
    (1, 3, []),
])
def test_study_pool_never_exceeds_trial_count(small_data, monkeypatch, workers, trials,
                                              pool_sizes):
    sizes = []

    class RecordingPool:
        """Stand-in for ProcessPoolExecutor: records its size, starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(explorer, "ProcessPoolExecutor", RecordingPool)
    kwargs = dict(layer_counts=(1,), neuron_counts=(4,), trials=trials, seed=5,
                  train_count=30, base_config=_cheap_cfg())
    report = run_network_size_study(small_data, workers=workers, **kwargs)
    assert sizes == pool_sizes
    assert report.cells == run_network_size_study(small_data, workers=1, **kwargs).cells


def test_study_counts_divergent_trials(small_data, monkeypatch):
    # one worker trains in this process, so the patched constant reaches it
    monkeypatch.setattr(ann, "INITIAL_BETA", 1e308)
    report = run_network_size_study(
        small_data,
        layer_counts=(1,),
        neuron_counts=(4,),
        trials=3,
        seed=0,
        train_count=30,
        base_config=_cheap_cfg(),
        workers=1,
    )
    cell = report.cells[0]
    assert cell.divergences == 3 and cell.trials == 0
    assert cell.test_mean is None and cell.test_std is None
    assert cell.all_mean is None and cell.all_std is None


def test_study_input_validation(small_data):
    grid = dict(layer_counts=(1,), neuron_counts=(4,), seed=0, train_count=30)
    with pytest.raises(ValueError, match="at least one trial"):
        run_network_size_study(small_data, **grid, trials=0)
    with pytest.raises(ValueError, match="test remainder"):
        run_network_size_study(small_data, **dict(grid, train_count=40), trials=1)
    sized = dict(trials=1, seed=0, hidden_layers=(4,))
    with pytest.raises(ValueError, match="test remainder"):
        run_training_size_study(small_data, sizes=(40,), **sized)
    for layers, widths in (((1, 1), (4,)), ((1,), (4, 4))):
        with pytest.raises(ValueError, match="duplicate study cell keys"):
            run_network_size_study(small_data, **dict(grid, layer_counts=layers,
                                                      neuron_counts=widths), trials=1)
    with pytest.raises(ValueError, match="duplicate study cell keys"):
        run_training_size_study(small_data, sizes=(20, 20), **sized)


def test_study_rejects_a_bad_cell_before_training(small_data, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a network before checking every cell")

    monkeypatch.setattr(explorer, "train", no_training)
    # the first cell is valid; the second leaves no test row
    with pytest.raises(ValueError, match="train_count 40 must be at least 1 and below the 40"):
        run_training_size_study(small_data, sizes=(20, 40), trials=1, seed=0,
                                hidden_layers=(4,), workers=1)


def test_study_trial_is_train_and_score_on_the_first_draw(small_data):
    base = _cheap_cfg()
    report = run_training_size_study(small_data, sizes=(25,), trials=1, seed=7,
                                     hidden_layers=(4,), base_config=base)
    split_seed, init_seed = np.random.default_rng(7).integers(0, 2**31 - 1, size=(1, 2))[0]
    _, test_err, all_err = train_and_score(
        small_data, (4,), 25, int(split_seed), dataclasses.replace(base, seed=int(init_seed))
    )
    (cell,) = report.cells
    assert (cell.test_mean, cell.all_mean) == (float(test_err.mean()), float(all_err.mean()))
