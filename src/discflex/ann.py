"""Feed-forward neural surrogate trained with Bayesian-regularized Gauss-Newton.

The network is a fully connected multilayer perceptron with hyperbolic-tangent
hidden layers and a linear output layer.  Training minimizes the regularized
objective F = beta * E_D + alpha * E_W, where E_D is the summed squared error
over normalized targets and E_W = 0.5 * sum(w^2) over all weights and biases.
Starting from INITIAL_ALPHA and INITIAL_BETA, after every accepted damped
Gauss-Newton step the hyperparameters (alpha, beta) are re-estimated from
the evidence equations via the effective parameter count

    gamma = P - alpha * tr(H^-1),   H = 2 * beta * J^T J + alpha * I,

with alpha = gamma / (2 * E_W) and beta = (N - gamma) / (2 * E_D) for N total
scalar targets.  Each re-estimation also scores the log evidence (MacKay 1992)

    ln p(D | alpha, beta) = -beta * E_D - alpha * E_W - 0.5 * ln det H
                            + (N / 2) ln beta + (P / 2) ln alpha - (N / 2) ln pi

for P parameters.  Training keeps the iterate of highest evidence and stops
with reason ``evidence_peak`` once EVIDENCE_PATIENCE accepted steps in a row
set no new maximum, with ``no_improving_step`` when no damping makes a step
that lowers F, and with ``max_iterations`` when the budget runs out.  On every
exit after an accepted step it returns the best-evidence iterate (weights,
alpha, beta, gamma): the best-evidence point along the Levenberg-Marquardt
path, not a stationary point of F at its own alpha and beta, so the stop is
evidence-guided early stopping.  Networks, stats, and summaries are immutable.

At each accepted point the smaller Gram matrix of the Jacobian and its
eigenvalues give tr(H^-1) and ln det H, and each damped step is one direct
linear solve; no eigenvectors are formed.  A non-finite Jacobian or a failed
solve raises TrainingDivergenceError with the iteration.

Each fit works in one workspace: one (N, P) Jacobian buffer and one Gram
matrix.  After an accepted step the Jacobian is written into the buffer in
place from the activations of that step's forward pass, and the Gram matrix
is recomputed into its own storage; once the iteration's beta is fixed the
Gram matrix is scaled by 2*beta in place, and each damped step shifts its
diagonal in place and writes it back.  No forward pass is repeated and no
second Jacobian or Gram matrix is formed.

A network's P parameters live in one flat vector ``w``: per layer, input to
output, the (n_in, n_out) weight matrix in row-major order, then its n_out
biases.  Training steps this vector, and :func:`layers` yields each layer's
``(W, b)`` as views into it for the forward pass, the Jacobian and records.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

import numpy as np

from .dataset import Dataset, NormalizationStats, readonly

# Damping schedule for the Levenberg-Marquardt loop.  Classic multiplicative
# factors; the floor keeps the step solve well posed near convergence.
MU_INITIAL = 0.005
MU_INCREASE = 10.0
MU_DECREASE = 0.1
MU_MAX = 1e10
MU_FLOOR = 1e-20

# Hyperparameters at the start of training, before the first re-estimation.
INITIAL_ALPHA = 0.01
INITIAL_BETA = 1.0

# Consecutive accepted steps without a new log-evidence maximum after which
# training stops at the best-evidence iterate.
EVIDENCE_PATIENCE = 10


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


def layers(shape: NetworkShape, w: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield each layer's (W, b) as views of the flat vector w, input to output."""
    if w.shape != (shape.total_params,):
        raise ValueError(f"expected vector of length {shape.total_params}, got {w.shape}")
    sizes = shape.layer_sizes
    pos = 0
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        end = pos + nin * nout
        yield w[pos:end].reshape(nin, nout), w[end : end + nout]
        pos = end + nout


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the training loop; defaults suit the case-study datasets."""

    max_iterations: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class TrainingSummary:
    """Final state of the regularized optimizer."""

    alpha: float
    beta: float
    gamma: float
    iterations: int
    stop_reason: str


@dataclass(frozen=True)
class TrainedNetwork:
    """Immutable trained surrogate with its normalization context."""

    shape: NetworkShape
    w: np.ndarray
    input_stats: NormalizationStats
    output_stats: NormalizationStats
    summary: TrainingSummary

    def __post_init__(self):
        w = readonly(self.w)
        if w.shape != (self.shape.total_params,):
            raise ValueError(f"expected {self.shape.total_params} parameters, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("parameters must be finite")
        stats = (self.input_stats.mean.shape, self.output_stats.mean.shape)
        if stats != ((self.shape.n_inputs,), (self.shape.n_outputs,)):
            raise ValueError(f"input and output stats of shapes {stats[0]} and {stats[1]}, "
                             f"expected ({self.shape.n_inputs},) and ({self.shape.n_outputs},)")
        object.__setattr__(self, "w", w)

    def to_record(self) -> dict:
        pairs = list(layers(self.shape, self.w))
        return {
            "shape": dataclasses.asdict(self.shape),
            "weights": [W.tolist() for W, _ in pairs],
            "biases": [b.tolist() for _, b in pairs],
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
        """Network of a :meth:`to_record` record; a ValueError says what is malformed."""
        try:
            shape = NetworkShape(**record["shape"])
            w = np.empty(shape.total_params)
            records = zip(record["weights"], record["biases"], strict=True)
            for (W, b), (rW, rb) in zip(layers(shape, w), records, strict=True):
                rW, rb = np.asarray(rW, dtype=float), np.asarray(rb, dtype=float)
                if rW.shape != W.shape or rb.shape != b.shape:
                    raise ValueError(
                        f"layer shapes {rW.shape} and {rb.shape}, expected {W.shape} and {b.shape}"
                    )
                W[...], b[...] = rW, rb
            return cls(
                shape=shape,
                w=w,
                input_stats=NormalizationStats(**record["input_stats"]),
                output_stats=NormalizationStats(**record["output_stats"]),
                summary=TrainingSummary(**record["summary"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed network payload: {exc!r}") from None


def _init_vector(shape: NetworkShape, rng: np.random.Generator) -> np.ndarray:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer, W then b."""
    w = np.empty(shape.total_params)
    for W, b in layers(shape, w):
        lim = 1.0 / np.sqrt(W.shape[0])
        W[...] = rng.uniform(-lim, lim, size=W.shape)
        b[...] = rng.uniform(-lim, lim, size=b.shape)
    return w


def _forward_cached(shape: NetworkShape, w: np.ndarray, X: np.ndarray) -> list[np.ndarray]:
    """Forward pass keeping every layer activation (input first, output last)."""
    acts = [X]
    last = len(shape.hidden_layers)
    for i, (W, b) in enumerate(layers(shape, w)):
        z = acts[-1] @ W + b
        acts.append(z if i == last else np.tanh(z))
    return acts


def forward(
    shape: NetworkShape, w: np.ndarray, X: np.ndarray, activations: Optional[list] = None
) -> np.ndarray:
    """Network outputs for an (n, n_inputs) batch of normalized inputs.

    A list passed as ``activations`` receives every layer's activation, input
    first and output last, for :func:`_fill_jacobian`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != shape.n_inputs:
        raise ValueError(f"expected an (n, {shape.n_inputs}) input batch, got shape {X.shape}")
    acts = _forward_cached(shape, w, X)
    if activations is not None:
        activations.extend(acts)
    return acts[-1]


def _fill_jacobian(shape: NetworkShape, w: np.ndarray, acts: list[np.ndarray], J: np.ndarray):
    """Write the Jacobian of the outputs at w into the (n * m, P) buffer J in place.

    ``acts`` are the layer activations of the forward pass at w.  Rows run by
    sample, then by output within a sample; each block is written into its view
    of J, per output from the last layer back to the first.
    """
    n, m = acts[-1].shape
    J3 = J.reshape(n, m, w.size)
    weights = [W for W, _ in layers(shape, w)]
    for k in range(m):
        d = np.zeros((n, m))
        d[:, k] = 1.0
        end = w.size
        for li in range(len(weights) - 1, -1, -1):
            nin, nout = weights[li].shape
            bias = end - nout
            start = bias - nin * nout
            np.einsum("ni,nj->nij", acts[li], d, out=J3[:, k, start:bias].reshape(n, nin, nout))
            J3[:, k, bias:end] = d
            end = start
            if li > 0:
                d = (d @ weights[li].T) * (1.0 - acts[li] ** 2)


def _jacobian_and_residual(
    shape: NetworkShape, w: np.ndarray, X: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian of predictions wrt all parameters; rows sample-major, output-minor."""
    acts = _forward_cached(shape, w, X)
    J = np.empty((Y.size, w.size))
    _fill_jacobian(shape, w, acts, J)
    return J, (acts[-1] - Y).reshape(-1)


class _GaussNewtonFactors:
    """The smaller Gram matrix of J and its eigenvalues, for steps and evidence.

    For P <= N this is the P x P matrix J^T J; for P > N it is the N x N matrix
    J J^T, which has the same nonzero spectrum.  The eigenvalues alone give
    tr(H^-1) and ln det H; the P - k eigenvalues outside the k kept ones are
    zero, and for P <= N there are none.  Each damped step is a direct solve
    with the positive-definite matrix 2*beta*J^T J + c*I, c > 0; for P > N the
    push-through identity turns it into an N x N solve:

        (2*beta*J^T J + c*I)^-1 g = (g - 2*beta*J^T (2*beta*J J^T + c*I)^-1 J g) / c

    The object is the fit's workspace.  It keeps J, the caller's buffer, and
    one Gram matrix: :meth:`update` recomputes the matrix and its eigenvalues
    into it after J is refilled, :meth:`scale` multiplies it by 2*beta in place
    once beta is fixed, and :meth:`solve` adds c to its diagonal, solves (the
    solver factors a copy) and writes the saved diagonal back, so each solve
    sees the same bits as a freshly formed 2*beta*G + c*I.
    """

    def __init__(self, J: np.ndarray, n_params: int):
        self.P = n_params
        self.J = J
        self.low_rank = n_params > J.shape[0]
        size = J.shape[0] if self.low_rank else n_params
        self.gram = np.empty((size, size))
        self.update()

    def update(self):
        """Recompute the Gram matrix of J and its eigenvalues, unscaled."""
        if not np.isfinite(self.J).all():
            raise np.linalg.LinAlgError("non-finite Jacobian")
        if self.low_rank:
            np.matmul(self.J, self.J.T, out=self.gram)
        else:
            np.matmul(self.J.T, self.J, out=self.gram)
        self.two_beta = None
        lam = np.maximum(np.linalg.eigvalsh(self.gram), 0.0)
        self.lam = lam[lam > lam.max() * 1e-14] if self.low_rank else lam

    def scale(self, beta: float):
        """Scale the Gram matrix by 2*beta in place, for this beta's solves."""
        self.two_beta = 2.0 * beta
        self.gram *= self.two_beta

    def solve(self, c: float, g: np.ndarray) -> np.ndarray:
        """x = (2*beta*J^T J + c*I)^-1 g for shift c > 0 and the beta of :meth:`scale`."""
        diag = self.gram.reshape(-1)[:: self.gram.shape[0] + 1]
        saved = diag.copy()
        diag += c
        try:
            if self.low_rank:
                inner = np.linalg.solve(self.gram, self.J @ g)
                return (g - self.two_beta * (self.J.T @ inner)) / c
            return np.linalg.solve(self.gram, g)
        finally:
            diag[...] = saved

    def trace_inv(self, beta: float, alpha: float) -> float:
        """tr((2*beta*J^T J + alpha*I)^-1)."""
        tr = float(np.sum(1.0 / (2.0 * beta * self.lam + alpha)))
        return tr + (self.P - self.lam.size) / alpha

    def log_det(self, beta: float, alpha: float) -> float:
        """ln det(2*beta*J^T J + alpha*I)."""
        value = float(np.sum(np.log(2.0 * beta * self.lam + alpha)))
        return value + (self.P - self.lam.size) * np.log(alpha)


@contextlib.contextmanager
def _diverges_at(iteration: int, what: str):
    """Turn a linear-algebra failure into TrainingDivergenceError at ``iteration``."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise TrainingDivergenceError(f"{what} failed: {exc}", iteration) from exc


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
    alpha, beta = INITIAL_ALPHA, INITIAL_BETA
    mu = MU_INITIAL
    gamma = float(P)

    J, e = _jacobian_and_residual(shape, w, Xn, Yn)
    e_d = float(e @ e)
    e_w = 0.5 * float(w @ w)
    objective = beta * e_d + alpha * e_w
    if not np.isfinite(objective):
        raise TrainingDivergenceError("non-finite objective at initialization", 0)

    stop_reason = "max_iterations"
    best = None  # (log evidence, iteration, w, alpha, beta, gamma) at the maximum
    with _diverges_at(0, "factorization"):
        factors = _GaussNewtonFactors(J, P)
    for iterations in range(1, cfg.max_iterations + 1):
        factors.scale(beta)
        grad = 2.0 * beta * (J.T @ e) + alpha * w
        accepted = False
        while mu <= MU_MAX:
            with _diverges_at(iterations, "step solve"):
                step = factors.solve(alpha + mu, grad)
            w_new = w - step
            acts: list[np.ndarray] = []
            e_new = (forward(shape, w_new, Xn, acts) - Yn).reshape(-1)
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
        w, e, e_d, e_w = w_new, e_new, e_d_new, e_w_new
        mu = max(mu * MU_DECREASE, MU_FLOOR)
        _fill_jacobian(shape, w, acts, J)
        with _diverges_at(iterations, "factorization"):
            factors.update()
        # evidence re-estimation at the accepted point
        gamma = P - alpha * factors.trace_inv(beta, alpha)
        alpha = gamma / (2.0 * e_w) if e_w > 0 else alpha
        beta = max(n_targets - gamma, 1e-12) / (2.0 * e_d) if e_d > 0 else beta
        objective = beta * e_d + alpha * e_w
        evidence = (
            -objective - 0.5 * factors.log_det(beta, alpha)
            + 0.5 * n_targets * np.log(beta / np.pi) + 0.5 * P * np.log(alpha)
        )
        # every iteration that gets here took an accepted step
        if best is None or evidence > best[0]:
            best = (evidence, iterations, w, alpha, beta, gamma)
        elif iterations - best[1] >= EVIDENCE_PATIENCE:
            stop_reason = "evidence_peak"
            break

    if not np.isfinite(objective):
        raise TrainingDivergenceError("non-finite objective after update", iterations)
    if best is not None:
        _, _, w, alpha, beta, gamma = best

    summary = TrainingSummary(
        alpha=float(alpha),
        beta=float(beta),
        gamma=float(gamma),
        iterations=iterations,
        stop_reason=stop_reason,
    )
    return TrainedNetwork(
        shape=shape,
        w=w,
        input_stats=input_stats,
        output_stats=output_stats,
        summary=summary,
    )


def predict_batch(net: TrainedNetwork, designs: np.ndarray) -> np.ndarray:
    """Denormalized response matrix for a matrix of raw design rows."""
    designs = np.atleast_2d(np.asarray(designs, dtype=float))
    Xn = net.input_stats.apply(designs)
    return net.output_stats.invert(forward(net.shape, net.w, Xn))


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
