"""Feed-forward neural surrogate trained with Bayesian-regularized Gauss-Newton.

The network is a fully connected multilayer perceptron with hyperbolic-tangent
hidden layers and a linear output layer.  Training minimizes the regularized
objective F = beta * E_D + alpha * E_W, where E_D is the summed squared error
over normalized targets and E_W = 0.5 * sum(w^2) over all weights and biases.
After every accepted damped Gauss-Newton step the hyperparameters (alpha, beta)
are re-estimated from the evidence equations via the effective parameter count

    gamma = P - alpha * tr(H^-1),   H = 2 * beta * J^T J + alpha * I,

with alpha = gamma / (2 * E_W) and beta = (N - gamma) / (2 * E_D) for N total
scalar targets.  Networks, stats, and training summaries are immutable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dataset import Dataset, NormalizationStats

# Damping schedule for the Levenberg-Marquardt loop.  Classic multiplicative
# factors; the floor keeps the step solve well posed near convergence.
MU_INITIAL = 0.005
MU_INCREASE = 10.0
MU_DECREASE = 0.1
MU_MAX = 1e10
MU_FLOOR = 1e-20

# Consecutive accepted steps with objective decrease below tolerance needed
# to declare convergence.
STALL_STEPS = 5


class TrainingDivergenceError(RuntimeError):
    """Raised when the training objective leaves the finite range."""

    def __init__(self, message: str, iteration: int = 0):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class NetworkShape:
    """Layer widths of the perceptron: inputs, hidden layers, outputs."""

    n_inputs: int
    hidden_layers: tuple[int, ...]
    n_outputs: int

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        if self.n_inputs < 1 or self.n_outputs < 1:
            raise ValueError("input and output counts must be >= 1")
        if len(self.hidden_layers) < 1:
            raise ValueError("at least one hidden layer is required")
        if any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden layer widths must be >= 1")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.n_inputs,) + self.hidden_layers + (self.n_outputs,)

    @property
    def total_params(self) -> int:
        sizes = self.layer_sizes
        return sum((nin + 1) * nout for nin, nout in zip(sizes[:-1], sizes[1:]))

    def describe(self) -> str:
        return f"{len(self.hidden_layers)}x{'x'.join(str(h) for h in self.hidden_layers)}"


@dataclass(frozen=True)
class NetworkParams:
    """Per-layer weight matrices and bias vectors, input to output order."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must have one entry per layer")
        if not self.weights:
            raise ValueError("at least one layer is required")
        ws, bs = [], []
        prev_out = None
        for W, b in zip(self.weights, self.biases):
            W = np.asarray(W, dtype=float)
            b = np.asarray(b, dtype=float)
            if W.ndim != 2 or b.ndim != 1 or W.shape[1] != b.shape[0]:
                raise ValueError("layer shapes must be (n_in, n_out) with matching bias")
            if prev_out is not None and W.shape[0] != prev_out:
                raise ValueError("layer dimensions do not chain")
            prev_out = W.shape[1]
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")
            W = W.copy()
            b = b.copy()
            W.flags.writeable = False
            b.flags.writeable = False
            ws.append(W)
            bs.append(b)
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "biases", tuple(bs))

    def to_vector(self) -> np.ndarray:
        parts = []
        for W, b in zip(self.weights, self.biases):
            parts.append(W.ravel())
            parts.append(b)
        return np.concatenate(parts)


def params_from_vector(shape: NetworkShape, vec: np.ndarray) -> NetworkParams:
    """Rebuild layer parameters from the flat vector layout used in training."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (shape.total_params,):
        raise ValueError(f"expected vector of length {shape.total_params}, got {vec.shape}")
    sizes = shape.layer_sizes
    weights, biases, pos = [], [], 0
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        weights.append(vec[pos : pos + nin * nout].reshape(nin, nout))
        pos += nin * nout
        biases.append(vec[pos : pos + nout])
        pos += nout
    return NetworkParams(tuple(weights), tuple(biases))


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the training loop; defaults suit the case-study datasets."""

    max_iterations: int = 300
    tolerance: float = 1e-9
    initial_alpha: float = 0.01
    initial_beta: float = 1.0
    seed: int = 0
    adapt_hyperparams: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be > 0")
        if not (self.initial_alpha > 0 and self.initial_beta > 0):
            raise ValueError("initial alpha and beta must be > 0")


@dataclass(frozen=True)
class TrainingSummary:
    """Final state of the regularized optimizer."""

    alpha: float
    beta: float
    gamma: float
    iterations: int
    objective: float
    stop_reason: str


@dataclass(frozen=True)
class TrainedNetwork:
    """Immutable trained surrogate with its normalization context."""

    shape: NetworkShape
    params: NetworkParams
    input_stats: NormalizationStats
    output_stats: NormalizationStats
    summary: TrainingSummary

    def __post_init__(self):
        sizes = self.shape.layer_sizes
        got = tuple(W.shape[0] for W in self.params.weights) + (self.params.weights[-1].shape[1],)
        if got != sizes:
            raise ValueError("params do not match shape")

    def to_record(self) -> dict:
        return {
            "shape": dataclasses.asdict(self.shape),
            "weights": [W.tolist() for W in self.params.weights],
            "biases": [b.tolist() for b in self.params.biases],
            "input_stats": {
                "mean": self.input_stats.mean.tolist(),
                "std": self.input_stats.std.tolist(),
            },
            "output_stats": {
                "mean": self.output_stats.mean.tolist(),
                "std": self.output_stats.std.tolist(),
            },
            "summary": dataclasses.asdict(self.summary),
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "TrainedNetwork":
        return cls(
            shape=NetworkShape(**record["shape"]),
            params=NetworkParams(tuple(record["weights"]), tuple(record["biases"])),
            input_stats=NormalizationStats(**record["input_stats"]),
            output_stats=NormalizationStats(**record["output_stats"]),
            summary=TrainingSummary(**record["summary"]),
        )


def _init_vector(shape: NetworkShape, rng: np.random.Generator) -> np.ndarray:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer, W then b."""
    sizes = shape.layer_sizes
    parts = []
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        lim = 1.0 / np.sqrt(nin)
        parts.append(rng.uniform(-lim, lim, size=nin * nout))
        parts.append(rng.uniform(-lim, lim, size=nout))
    return np.concatenate(parts)


def _forward_cached(params: NetworkParams, X: np.ndarray) -> list[np.ndarray]:
    """Forward pass keeping every layer activation (input first, output last)."""
    acts = [X]
    a = X
    last = len(params.weights) - 1
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W + b
        a = z if i == last else np.tanh(z)
        acts.append(a)
    return acts


def forward(params: NetworkParams, X: np.ndarray) -> np.ndarray:
    """Network outputs for an (n, n_inputs) batch of normalized inputs."""
    X = np.asarray(X, dtype=float)
    n_inputs = params.weights[0].shape[0]
    if X.ndim != 2 or X.shape[1] != n_inputs:
        raise ValueError(f"expected an (n, {n_inputs}) input batch, got shape {X.shape}")
    return _forward_cached(params, X)[-1]


def _jacobian_and_residual(
    params: NetworkParams, X: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian of predictions wrt all parameters; rows sample-major, output-minor."""
    n, m = Y.shape
    acts = _forward_cached(params, X)
    e = (acts[-1] - Y).reshape(-1)
    P = sum(W.size + b.size for W, b in zip(params.weights, params.biases))
    J = np.empty((n * m, P))
    n_layers = len(params.weights)
    for k in range(m):
        d = np.zeros((n, params.weights[-1].shape[1]))
        d[:, k] = 1.0
        blocks: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
        for li in range(n_layers - 1, -1, -1):
            gW = np.einsum("ni,nj->nij", acts[li], d).reshape(n, -1)
            blocks[li] = np.concatenate([gW, d], axis=1)
            if li > 0:
                d = (d @ params.weights[li].T) * (1.0 - acts[li] ** 2)
        J[k::m, :] = np.concatenate(blocks, axis=1)
    return J, e


class _GaussNewtonFactors:
    """Spectral factorization of J^T J, shared by step solves and tr(H^-1).

    For P <= N the P x P matrix is decomposed directly.  For P > N the
    same spectrum comes from the N x N Gram matrix J J^T, and solves use
    the identity (2*beta*V L V^T + c*I)^-1 g = (g - V s V^T g) / c with
    s = 2*beta*L / (2*beta*L + c) on the column space basis V.
    """

    def __init__(self, J: np.ndarray, n_params: int):
        self.P = n_params
        n_rows = J.shape[0]
        if not np.isfinite(J).all():
            raise np.linalg.LinAlgError("non-finite Jacobian")
        if n_params <= n_rows:
            M = J.T @ J
            lam, Q = np.linalg.eigh(M)
            self.lam = np.maximum(lam, 0.0)
            self.basis = Q
            self.low_rank = False
        else:
            G = J @ J.T
            lam, U = np.linalg.eigh(G)
            lam = np.maximum(lam, 0.0)
            cut = lam.max() * 1e-14 if lam.size and lam.max() > 0 else 0.0
            keep = lam > cut
            self.lam = lam[keep]
            self.basis = (J.T @ U[:, keep]) / np.sqrt(self.lam)
            self.low_rank = True

    def solve(self, beta: float, c: float, g: np.ndarray) -> np.ndarray:
        """x = (2*beta*J^T J + c*I)^-1 g for shift c > 0."""
        if self.low_rank:
            proj = self.basis.T @ g
            scale = 2.0 * beta * self.lam / (2.0 * beta * self.lam + c)
            return (g - self.basis @ (scale * proj)) / c
        return self.basis @ ((self.basis.T @ g) / (2.0 * beta * self.lam + c))

    def trace_inv(self, beta: float, alpha: float) -> float:
        """tr((2*beta*J^T J + alpha*I)^-1)."""
        tr = float(np.sum(1.0 / (2.0 * beta * self.lam + alpha)))
        if self.low_rank:
            tr += (self.P - self.lam.size) / alpha
        return tr


def _factorize(J: np.ndarray, n_params: int, iteration: int) -> _GaussNewtonFactors:
    try:
        return _GaussNewtonFactors(J, n_params)
    except np.linalg.LinAlgError as exc:
        raise TrainingDivergenceError(f"factorization failed: {exc}", iteration) from exc


def train(shape: NetworkShape, data: Dataset, cfg: TrainConfig) -> TrainedNetwork:
    """Fit the network to a dataset; deterministic for a fixed config seed."""
    if len(data) < 2:
        raise ValueError("training requires at least 2 rows")
    if shape.n_inputs != data.designs.shape[1] or shape.n_outputs != data.responses.shape[1]:
        raise ValueError("shape does not match dataset arity")
    input_stats = NormalizationStats.from_columns(data.designs)
    output_stats = NormalizationStats.from_columns(data.responses)
    Xn = input_stats.apply(data.designs)
    Yn = output_stats.apply(data.responses)

    rng = np.random.default_rng(cfg.seed)
    w = _init_vector(shape, rng)
    P = w.size
    n_targets = Yn.size
    alpha, beta = cfg.initial_alpha, cfg.initial_beta
    mu = MU_INITIAL
    gamma = float(P)

    J, e = _jacobian_and_residual(params_from_vector(shape, w), Xn, Yn)
    e_d = float(e @ e)
    e_w = 0.5 * float(w @ w)
    objective = beta * e_d + alpha * e_w
    if not np.isfinite(objective):
        raise TrainingDivergenceError("non-finite objective at initialization", 0)

    stop_reason = "max_iterations"
    stall = 0
    iterations = 0
    factors = _factorize(J, P, 0)
    for iterations in range(1, cfg.max_iterations + 1):
        grad = 2.0 * beta * (J.T @ e) + alpha * w
        accepted = False
        while mu <= MU_MAX:
            w_new = w - factors.solve(beta, alpha + mu, grad)
            e_new = (forward(params_from_vector(shape, w_new), Xn) - Yn).reshape(-1)
            e_d_new = float(e_new @ e_new)
            e_w_new = 0.5 * float(w_new @ w_new)
            obj_new = beta * e_d_new + alpha * e_w_new
            if np.isfinite(obj_new) and obj_new < objective:
                accepted = True
                break
            mu *= MU_INCREASE
        if not accepted:
            stop_reason = "no_improving_step"
            break
        decrease = objective - obj_new
        w, e_d, e_w, objective = w_new, e_d_new, e_w_new, obj_new
        mu = max(mu * MU_DECREASE, MU_FLOOR)
        J, e = _jacobian_and_residual(params_from_vector(shape, w), Xn, Yn)
        factors = _factorize(J, P, iterations)
        if cfg.adapt_hyperparams:
            # evidence re-estimation at the accepted point
            gamma = P - alpha * factors.trace_inv(beta, alpha)
            alpha = gamma / (2.0 * e_w) if e_w > 0 else alpha
            beta = max(n_targets - gamma, 1e-12) / (2.0 * e_d) if e_d > 0 else beta
            objective = beta * e_d + alpha * e_w
        if decrease < cfg.tolerance:
            stall += 1
            if stall >= STALL_STEPS:
                stop_reason = "converged"
                break
        else:
            stall = 0

    if not np.isfinite(objective):
        raise TrainingDivergenceError("non-finite objective after update", iterations)

    summary = TrainingSummary(
        alpha=float(alpha),
        beta=float(beta),
        gamma=float(gamma),
        iterations=iterations,
        objective=float(objective),
        stop_reason=stop_reason,
    )
    return TrainedNetwork(
        shape=shape,
        params=params_from_vector(shape, w),
        input_stats=input_stats,
        output_stats=output_stats,
        summary=summary,
    )


def predict_batch(net: TrainedNetwork, designs: np.ndarray) -> np.ndarray:
    """Denormalized response matrix for a matrix of raw design rows."""
    designs = np.atleast_2d(np.asarray(designs, dtype=float))
    Xn = net.input_stats.apply(designs)
    return net.output_stats.invert(forward(net.params, Xn))


def mean_abs_percent_error(truth: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Per-column mean of |pred - truth| / |truth| * 100."""
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    if truth.shape != pred.shape or truth.size == 0:
        raise ValueError("truth and prediction shapes must match and be non-empty")
    zero_rows, zero_cols = np.nonzero(truth == 0.0)
    if zero_rows.size:
        spots = ", ".join(f"({r},{c})" for r, c in zip(zero_rows[:5], zero_cols[:5]))
        raise ValueError(f"zero ground-truth value at index {spots}")
    return np.mean(np.abs((pred - truth) / truth), axis=0) * 100.0
