"""Neural surrogate: forward pass, Jacobian, Gauss-Newton solves, training, metrics."""

import numpy as np
import pytest

from discflex import ann, rsm
from discflex.ann import (
    EVIDENCE_PATIENCE,
    NetworkShape,
    TrainConfig,
    TrainedNetwork,
    TrainingDivergenceError,
    TrainingSummary,
    _GaussNewtonFactors,
    _jacobian_and_residual,
    forward,
    layers,
    mean_abs_percent_error,
    predict_batch,
    train,
)
from discflex.dataset import (
    RESPONSE_COLUMNS,
    Dataset,
    DesignTag,
    NormalizationStats,
    split,
)
from discflex.explorer import synthesize_dataset


def _random_w(shape, rng, scale=1.0):
    return rng.uniform(-scale, scale, size=shape.total_params)


def _network(shape, w):
    """A network around parameter vector ``w`` with identity normalization."""
    return TrainedNetwork(
        shape=shape,
        w=w,
        input_stats=NormalizationStats(np.zeros(shape.n_inputs), np.ones(shape.n_inputs)),
        output_stats=NormalizationStats(np.zeros(shape.n_outputs), np.ones(shape.n_outputs)),
        summary=TrainingSummary(alpha=1.0, beta=1.0, gamma=1.0, iterations=1,
                                stop_reason="max_iterations"),
    )


def _linear_dataset(n=80, seed=11):
    """Three positive linear response surfaces over the design box."""
    rng = np.random.default_rng(seed)
    X = rng.uniform([24, 3, 0.3], [40, 9, 0.9], size=(n, 3))
    Y = np.column_stack(
        [
            2.0 * X[:, 0] + 3.0 * X[:, 1] + 10.0,
            X[:, 0] - 0.5 * X[:, 1] + 40.0 * X[:, 2] + 5.0,
            0.3 * X[:, 0] + X[:, 2] + 1.0,
        ]
    )
    return Dataset(X, Y, DesignTag.A)


@pytest.fixture(scope="module")
def case_study_net():
    """A 1x20 surrogate trained on the noisy design-A dataset, with its split."""
    data = synthesize_dataset(DesignTag.A, 127, seed=0)
    train_set, test_set = split(data, 100, seed=0)
    net = train(NetworkShape(3, (20,), 3), train_set, TrainConfig(seed=0, max_iterations=150))
    return net, train_set, test_set


@pytest.fixture(scope="module")
def two_layer_fit():
    """A 2x20 network (P = 563 parameters) on 100 rows of 3 targets, default budget."""
    data = synthesize_dataset(DesignTag.A, 127, seed=0)
    train_set, _ = split(data, 100, seed=0)
    return train_set, train(NetworkShape(3, (20, 20), 3), train_set, TrainConfig(seed=0))


# ---------------------------------------------------------------------------
# shapes and parameter layout


def test_shape_sizes_and_description():
    shape = NetworkShape(3, (20, 20), 3)
    assert shape.layer_sizes == (3, 20, 20, 3)
    assert shape.total_params == 4 * 20 + 21 * 20 + 21 * 3
    assert shape.describe() == "2x20x20"
    assert NetworkShape(3, (10,), 3).describe() == "1x10"


def test_shape_validation():
    with pytest.raises(ValueError):
        NetworkShape(3, (), 3)
    with pytest.raises(ValueError):
        NetworkShape(3, (0,), 3)
    with pytest.raises(ValueError):
        NetworkShape(0, (5,), 3)


def test_params_vector_round_trip():
    # per layer W row-major then b, tiling the vector in order, as views
    shape = NetworkShape(2, (4, 3), 2)
    vec = np.random.default_rng(1).standard_normal(shape.total_params)
    pairs = list(layers(shape, vec))
    assert [(W.shape, b.shape) for W, b in pairs] == [
        ((2, 4), (4,)), ((4, 3), (3,)), ((3, 2), (2,))
    ]
    assert np.array_equal(np.concatenate([np.append(W.ravel(), b) for W, b in pairs]), vec)
    assert all(np.shares_memory(W, vec) and np.shares_memory(b, vec) for W, b in pairs)
    net = _network(shape, vec)
    assert np.array_equal(TrainedNetwork.from_record(net.to_record()).w, vec)
    with pytest.raises(ValueError):
        list(layers(shape, vec[:-1]))


def test_params_validation():
    shape = NetworkShape(2, (3,), 1)
    w = np.zeros(shape.total_params)
    with pytest.raises(ValueError, match="expected 13 parameters"):
        _network(shape, w[:-1])
    w_nan = w.copy()
    w_nan[4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        _network(shape, w_nan)
    net = _network(shape, w)
    assert not net.w.flags.writeable
    record = net.to_record()
    for key, value in (
        ("biases", [[0.0, 0.0], [0.0]]),  # bias mismatch
        ("weights", [[[0.0] * 3] * 2, [[0.0]] * 4]),  # layers do not chain
        ("weights", [[[0.0] * 3] * 2]),  # a layer missing
    ):
        with pytest.raises(ValueError):
            TrainedNetwork.from_record(dict(record, **{key: value}))


@pytest.mark.parametrize("std", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("stats, column", [("input_stats", 1), ("output_stats", 0)])
def test_record_with_a_bad_std_names_the_column(stats, column, std):
    record = _network(NetworkShape(2, (3,), 1), np.zeros(13)).to_record()
    record[stats]["std"][column] = std
    with pytest.raises(ValueError, match=f"column {column} has std {std}, not > 0"):
        TrainedNetwork.from_record(record)


# ---------------------------------------------------------------------------
# forward pass


def test_forward_zero_params_gives_zero():
    shape = NetworkShape(2, (3,), 1)
    w = np.zeros(shape.total_params)
    assert np.array_equal(forward(shape, w, np.array([[5.0, -7.0]])), [[0.0]])


def test_forward_single_neuron_hand_value():
    # one input, one tanh neuron, identity output layer: y = tanh(2x)
    shape = NetworkShape(1, (1,), 1)
    w = np.array([2.0, 0.0, 1.0, 0.0])  # W1, b1, W2, b2
    out = forward(shape, w, np.array([[0.25]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(np.tanh(0.5), rel=1e-12)
    assert out[0, 0] == pytest.approx(0.46211715726000974, rel=1e-12)


def test_forward_output_layer_is_linear():
    shape = NetworkShape(2, (4,), 1)
    rng = np.random.default_rng(3)
    w = _random_w(shape, rng)
    doubled = w.copy()
    _, (W_out, b_out) = layers(shape, doubled)
    W_out *= 2.0
    x = rng.uniform(-2, 2, size=(1, 2))
    b = b_out[0]
    y1 = forward(shape, w, x)[0, 0]
    y2 = forward(shape, doubled, x)[0, 0]
    assert y2 - b == pytest.approx(2.0 * (y1 - b), rel=1e-12)


def test_forward_hidden_activations_are_bounded():
    # saturated hidden layer feeding a unit-weight sum: |y| <= width
    width = 5
    shape = NetworkShape(1, (width,), 1)
    w = np.zeros(shape.total_params)
    (W_in, _), (W_out, _) = layers(shape, w)
    W_in[...], W_out[...] = 1e6, 1.0
    for x in (-1e6, -1.0, 0.5, 1e6):
        assert abs(forward(shape, w, np.array([[x]]))[0, 0]) <= width + 1e-12


def test_forward_batch_matches_scalar_calls():
    shape = NetworkShape(3, (5, 4), 2)
    rng = np.random.default_rng(7)
    w = _random_w(shape, rng)
    X = rng.standard_normal((6, 3))
    batch = forward(shape, w, X)
    for i in range(6):
        assert np.allclose(batch[i], forward(shape, w, X[i : i + 1])[0], rtol=1e-14)


def test_forward_rejects_wrong_arity():
    shape = NetworkShape(3, (4,), 1)
    w = _random_w(shape, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"expected an \(n, 3\) input batch"):
        forward(shape, w, np.array([[1.0, 2.0]]))
    # a single vector is not a batch, even with the right arity
    with pytest.raises(ValueError, match=r"expected an \(n, 3\) input batch"):
        forward(shape, w, np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# gradient of the squared-error term, as training forms it from the Jacobian


def gradient(shape, w, X, Y):
    """Gradient of E_D = sum((yhat - y)^2) in the flat parameter layout: 2 J^T e."""
    J, e = _jacobian_and_residual(shape, w, X, Y)
    return 2.0 * J.T @ e


def test_gradient_zero_at_zero_residual():
    shape = NetworkShape(2, (3,), 2)
    rng = np.random.default_rng(13)
    w = _random_w(shape, rng)
    X = rng.standard_normal((5, 2))
    Y = forward(shape, w, X)
    g = gradient(shape, w, X, Y)
    assert np.allclose(g, 0.0, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for trial in range(100):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 4))
        hidden = tuple(int(v) for v in rng.integers(2, 7, size=rng.integers(1, 3)))
        shape = NetworkShape(n_in, hidden, n_out)
        w = rng.uniform(-1, 1, size=shape.total_params)
        X = rng.uniform(-2, 2, size=(int(rng.integers(1, 11)), n_in))
        Y = rng.uniform(-2, 2, size=(X.shape[0], n_out))
        g = gradient(shape, w, X, Y)

        def loss(vec):
            r = forward(shape, vec, X) - Y
            return float(np.sum(r * r))

        fd = np.empty_like(w)
        for i in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (loss(wp) - loss(wm)) / (2 * h)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7), f"trial {trial}"


def test_last_layer_gradient_closed_form():
    # for one hidden layer the output-layer gradient is 2 * a^T (yhat - y)
    shape = NetworkShape(3, (6,), 2)
    rng = np.random.default_rng(19)
    w = _random_w(shape, rng)
    X = rng.standard_normal((8, 3))
    Y = rng.standard_normal((8, 2))
    (W_in, b_in), (W_out, b_out) = layers(shape, w)
    a = np.tanh(X @ W_in + b_in)
    resid = a @ W_out + b_out - Y
    _, (gW_out, gb_out) = layers(shape, gradient(shape, w, X, Y))
    assert np.allclose(gW_out, 2.0 * a.T @ resid, rtol=1e-12)
    assert np.allclose(gb_out, 2.0 * resid.sum(axis=0), rtol=1e-12)


# ---------------------------------------------------------------------------
# spectral factorization behind the Gauss-Newton step


@pytest.mark.parametrize("low_rank", [False, True])
def test_gauss_newton_factors_match_dense_algebra(low_rank):
    # P <= N decomposes J^T J itself; P > N goes through the N x N Gram
    # matrix, here also with repeated rows so that J is rank-deficient
    rng = np.random.default_rng(23 + low_rank)
    for trial in range(60):
        n_rows = int(rng.integers(1, 9))
        low, high = (n_rows + 1, 16) if low_rank else (1, n_rows + 1)
        n_params = int(rng.integers(low, high))
        J = rng.standard_normal((n_rows, n_params))
        if low_rank and n_rows > 1 and trial % 2:
            J[-1] = J[0]
        factors = _GaussNewtonFactors(J, n_params)
        assert factors.low_rank is low_rank

        beta, shift = rng.uniform(0.1, 10.0), 10.0 ** rng.uniform(-3, 1)
        A = 2.0 * beta * J.T @ J + shift * np.eye(n_params)
        g = rng.standard_normal(n_params)
        want = np.linalg.solve(A, g)
        got = factors.solve(beta, shift, g)
        assert np.allclose(got, want, rtol=1e-8, atol=1e-10 * np.abs(want).max()), f"trial {trial}"
        trace = float(np.sum(1.0 / np.linalg.eigh(A)[0]))
        assert factors.trace_inv(beta, shift) == pytest.approx(trace, rel=1e-9), f"trial {trial}"
        sign, log_det = np.linalg.slogdet(A)
        assert sign == 1.0
        assert factors.log_det(beta, shift) == pytest.approx(log_det, rel=1e-9, abs=1e-9), (
            f"trial {trial}"
        )


# ---------------------------------------------------------------------------
# training


def test_train_recovers_linear_surfaces():
    data = _linear_dataset()
    train_set, test_set = split(data, 60, seed=1)
    net = train(NetworkShape(3, (20,), 3), train_set, TrainConfig(seed=0, max_iterations=150))
    mape = mean_abs_percent_error(test_set.responses, predict_batch(net, test_set.designs))
    assert np.all(mape < 1.0)


def test_train_is_deterministic():
    data = _linear_dataset()
    cfg = TrainConfig(seed=9, max_iterations=20)
    n1 = train(NetworkShape(3, (10,), 3), data, cfg)
    n2 = train(NetworkShape(3, (10,), 3), data, cfg)
    assert np.array_equal(n1.w, n2.w)
    assert n1.summary == n2.summary


def test_divergent_hyperparams_raise_at_initialization(monkeypatch):
    monkeypatch.setattr(ann, "INITIAL_BETA", 1e308)
    data = _linear_dataset(n=20)
    with pytest.raises(TrainingDivergenceError) as err:
        train(NetworkShape(3, (5,), 3), data, TrainConfig(seed=0, max_iterations=10))
    assert err.value.iteration == 0


def test_train_input_validation():
    data = _linear_dataset(n=20)
    with pytest.raises(ValueError, match="arity"):
        train(NetworkShape(2, (5,), 3), data, TrainConfig())
    one_row = data.subset([0])
    with pytest.raises(ValueError, match="at least 2 rows"):
        train(NetworkShape(3, (5,), 3), one_row, TrainConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(max_iterations=0)


# ---------------------------------------------------------------------------
# trained case-study surrogate


def test_case_study_generalization(case_study_net):
    net, _, test_set = case_study_net
    mape = mean_abs_percent_error(test_set.responses, predict_batch(net, test_set.designs))
    assert np.all(mape < 5.0)


def test_evidence_terms_balance_at_half_target_count(case_study_net):
    # after every hyperparameter re-estimation beta*E_D + alpha*E_W
    # collapses to (N - gamma)/2 + gamma/2, i.e. half the target count
    net, train_set, _ = case_study_net
    Xn = net.input_stats.apply(train_set.designs)
    Yn = net.output_stats.apply(train_set.responses)
    e = (forward(net.shape, net.w, Xn) - Yn).ravel()
    w = net.w
    objective = net.summary.beta * float(e @ e) + net.summary.alpha * 0.5 * float(w @ w)
    assert objective == pytest.approx(train_set.responses.size / 2, rel=1e-9)


def test_effective_parameter_count_within_bounds(case_study_net):
    net, _, _ = case_study_net
    assert 0.0 <= net.summary.gamma <= net.shape.total_params
    assert net.summary.alpha > 0 and net.summary.beta > 0
    assert net.summary.stop_reason in {"evidence_peak", "no_improving_step", "max_iterations"}


def test_overparameterized_fit_stops_at_evidence_peak(two_layer_fit):
    train_set, net = two_layer_fit
    assert net.shape.total_params > train_set.responses.size
    assert net.summary.stop_reason == "evidence_peak"
    assert net.summary.iterations < 300


def test_evidence_peak_returns_the_best_iterate(two_layer_fit):
    # the best-evidence iterate came EVIDENCE_PATIENCE accepted steps before
    # the stop, so a budget ending there returns it as its last iterate
    train_set, net = two_layer_fit
    capped = train(
        net.shape, train_set,
        TrainConfig(seed=0, max_iterations=net.summary.iterations - EVIDENCE_PATIENCE),
    )
    assert capped.summary.stop_reason == "max_iterations"
    assert np.array_equal(capped.w, net.w)
    for field in ("alpha", "beta", "gamma"):
        assert getattr(capped.summary, field) == getattr(net.summary, field)


def test_prediction_near_generating_model(case_study_net):
    net, _, _ = case_study_net
    models = rsm.reference_models(DesignTag.A)
    row = np.array([[32.0, 6.0, 0.6]])
    got = predict_batch(net, row)[0]
    want = np.array([rsm.evaluate_batch(models[name], row)[0] for name in RESPONSE_COLUMNS])
    assert np.all(np.abs(got - want) / np.abs(want) < 0.10)


def test_predict_batch_is_pure(case_study_net):
    net, _, test_set = case_study_net
    first = predict_batch(net, test_set.designs)
    second = predict_batch(net, test_set.designs)
    assert np.array_equal(first, second)
    assert predict_batch(net, test_set.designs[0]).shape == (1, 3)


# ---------------------------------------------------------------------------
# error metric


def test_mape_hand_values():
    same = np.array([[3.0, 4.0], [5.0, 6.0]])
    assert np.allclose(mean_abs_percent_error(same, same), [0.0, 0.0])
    got = mean_abs_percent_error(np.array([[100.0], [200.0]]), np.array([[90.0], [220.0]]))
    assert got == pytest.approx([10.0])


def test_mape_rejects_zero_truth_with_location():
    truth = np.array([[1.0, 0.0], [2.0, 3.0]])
    with pytest.raises(ValueError, match=r"\(0,1\)"):
        mean_abs_percent_error(truth, truth + 1.0)


def test_mape_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        mean_abs_percent_error(np.ones((2, 2)), np.ones((3, 2)))
