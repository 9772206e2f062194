"""Acceptance gate: nine end-to-end checks of the assembled toolkit.

Each check prints one verdict line to the real stdout (bypassing capture)
before asserting, so any pytest run yields a readable scorecard:

    ACCEPTANCE <n>: PASS|FAIL - <measured values and limits>

The heavy fixtures (full-size optimizer runs, ten-trial studies) are module
scoped and shared across checks, including the deliberate repeat runs that
back the determinism check.
"""

import sys

import numpy as np
import pytest

from discflex import rsm
from discflex.ann import NetworkShape, _jacobian_and_residual, forward, params_from_vector
from discflex.cli import RunConfig, make_envelope, render_envelope
from discflex.dataset import DesignTag
from discflex.explorer import (
    explore,
    grid_pareto_oracle,
    run_network_size_study,
    run_training_size_study,
    synthesize_dataset,
)
from discflex.mechanics import DiscGeometry, min_buckling_for_torque, torque_capacity
from discflex.nsga2 import GaConfig, crowding_distance, fast_nondominated_sort
from oracles import brute_force_fronts

FULL_GA = GaConfig(population_size=500, generations=300, seed=0)
FIXED_EPOCH = "946684800"  # 2000-01-01T00:00:00Z
RESPONSES = ("mass_g", "stress_mpa", "buckling_n")

# hand evaluations of the shipped polynomial models at (32, 6, 0.6)
HAND_POINT = np.array([32.0, 6.0, 0.6])
HAND_VALUES = {
    DesignTag.A: {
        "mass_g": 0.00199 * 32 * 6 * 0.6 - 0.00371 * 6 * 0.6 + 0.00369,
        "stress_mpa": 263.3 + 1065.3 * 0.36 - 0.47 * 32 * 6 - 25.1 * 32 * 0.36,
        "buckling_n": -0.995 * 32**2 * 6 * 0.6**3 + 2075.19 * 6 * 0.6**3,
    },
    DesignTag.B: {
        "mass_g": 0.00153 * 32 * 6 * 0.6 + 0.01613 * 32 * 0.6 - 0.262 * 0.6 + 0.00044,
        "stress_mpa": 292.9 + 769.3 * 0.36 - 5.17 * 32 - 17.52 * 32 * 0.36,
        "buckling_n": -1.47792 * 32**2 * 6 * 0.6**3 + 3078.22 * 6 * 0.6**3,
    },
}


_CONSOLE = None


@pytest.fixture(autouse=True)
def _scorecard_console(capsys):
    # lets _console_print suspend capture so verdicts reach the terminal
    global _CONSOLE
    _CONSOLE = capsys
    yield
    _CONSOLE = None


def _console_print(line: str) -> None:
    if _CONSOLE is not None:
        with _CONSOLE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _cells(report) -> dict:
    return {cell.key: cell for cell in report.cells}


def _verdict(number: int, ok: bool, detail: str) -> bool:
    _console_print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def noisy_a():
    """The canonical 127-row design-A dataset with 1 percent response noise."""
    return synthesize_dataset(DesignTag.A, 127, seed=0, noise_std_fraction=0.01)


@pytest.fixture(scope="module")
def explorations():
    """Full-size optimizer runs (twice per design) plus the lattice oracle."""
    runs = {}
    for tag in (DesignTag.A, DesignTag.B):
        models = rsm.reference_models(tag)
        first = explore(tag, models, FULL_GA)
        second = explore(tag, models, FULL_GA)
        oracle = grid_pareto_oracle(tag, levels=101)
        runs[tag] = (first, second, oracle)
    return runs


@pytest.fixture(scope="module")
def focus_cell_studies(noisy_a):
    """The 2x20/100-sample study cell, run twice for the determinism check."""
    kwargs = dict(layer_counts=(2,), neuron_counts=(20,), trials=10, seed=0, train_count=100)
    return (
        run_network_size_study(noisy_a, **kwargs),
        run_network_size_study(noisy_a, **kwargs),
    )


@pytest.fixture(scope="module")
def size_grid_study(noisy_a):
    return run_network_size_study(
        noisy_a, layer_counts=(1, 2), neuron_counts=(10, 20),
        trials=10, seed=0, train_count=100,
    )


@pytest.fixture(scope="module")
def sample_count_study(noisy_a):
    return run_training_size_study(
        noisy_a, sizes=(40, 60, 80, 100, 120), trials=10, seed=0, hidden_layers=(20, 20),
    )


def test_01_reference_model_evaluations():
    worst = 0.0
    for tag, by_name in HAND_VALUES.items():
        models = rsm.reference_models(tag)
        for name, value in by_name.items():
            got = float(rsm.evaluate_batch(models[name], HAND_POINT[None, :])[0])
            worst = max(worst, abs(got - value) / abs(value))
    ok = worst < 1e-9
    assert _verdict(
        1, ok,
        f"six model evaluations at (32, 6, 0.6): worst relative error {worst:.2e} (limit 1e-9)",
    )


def test_02_coefficient_recovery_and_noise_floor():
    worst_coeff = 0.0
    worst_clean_r2 = 1.0
    worst_noisy_r2 = 1.0
    for tag, n in ((DesignTag.A, 127), (DesignTag.B, 128)):
        clean = synthesize_dataset(tag, n, seed=5, noise_std_fraction=0.0)
        noisy = synthesize_dataset(tag, n, seed=5, noise_std_fraction=0.01)
        reference = rsm.reference_models(tag)
        for name in RESPONSES:
            fitted = rsm.fit(rsm.reference_basis(tag, name), clean, name)
            rel = np.max(
                np.abs(np.array(fitted.coefficients) / np.array(reference[name].coefficients) - 1.0)
            )
            worst_coeff = max(worst_coeff, float(rel))
            worst_clean_r2 = min(worst_clean_r2, fitted.r_squared)
            refit = rsm.fit(rsm.reference_basis(tag, name), noisy, name)
            worst_noisy_r2 = min(worst_noisy_r2, refit.r_squared)
    ok = worst_coeff < 1e-8 and worst_clean_r2 >= 1.0 - 1e-12 and worst_noisy_r2 >= 0.93
    assert _verdict(
        2, ok,
        f"noise-free recovery: worst coefficient error {worst_coeff:.2e} (limit 1e-8), "
        f"worst R2 {worst_clean_r2:.15f} (floor 1-1e-12); "
        f"1%-noise worst R2 {worst_noisy_r2:.4f} (floor 0.93)",
    )


def test_03_front_matches_lattice_oracle(explorations):
    # Margin check runs against the oracle front only: any lattice point that
    # beats a candidate by >1% in both objectives is itself matched or beaten
    # by some oracle-front point, which then beats the candidate by >1% too.
    parts = []
    ok = True
    for tag, (run, _, oracle) in explorations.items():
        front = run.front_objectives
        o = oracle.objectives
        mass_gap = abs(front[:, 0].min() - o[:, 0].min()) / o[:, 0].min()
        stress_gap = abs(front[:, 1].min() - o[:, 1].min()) / o[:, 1].min()
        beaten = (o[None, :, 0] < 0.99 * front[:, None, 0]) & (
            o[None, :, 1] < 0.99 * front[:, None, 1]
        )
        n_beaten = int(beaten.any(axis=1).sum())
        good = mass_gap <= 0.02 and stress_gap <= 0.02 and n_beaten == 0
        ok = ok and good
        parts.append(
            f"design {tag.value}: extreme gaps mass {mass_gap:.3%}, stress {stress_gap:.3%} "
            f"(limit 2%), {n_beaten}/{len(front)} points beaten by >1% in both objectives"
        )
    assert _verdict(3, ok, "; ".join(parts))


def test_04_published_solution_tables(explorations):
    run_a = explorations[DesignTag.A][0]
    run_b = explorations[DesignTag.B][0]
    rows = []

    def check(label, got, want, tol, relative=False):
        limit = tol * abs(want) if relative else tol
        good = abs(got - want) <= limit
        window = f"+/-{tol:.0%}" if relative else f"+/-{tol:g}"
        rows.append((label, got, want, window, good))
        return good

    d, o = run_a.named_design(run_a.minimal_mass_index)
    buckling = run_a.front_buckling[run_a.minimal_mass_index]
    a_mass = (
        check("A minimal-mass l (mm)", d[0], 24.0, 1.0)
        & check("A minimal-mass b (mm)", d[1], 3.0, 0.5)
        & check("A minimal-mass buckling at t, active (N)", buckling, 150.0, 1.5)
    )
    d, o = run_a.named_design(run_a.minimal_stress_index)
    a_stress = (
        check("A minimal-stress l (mm)", d[0], 39.0, 0.05, relative=True)
        & check("A minimal-stress b (mm)", d[1], 9.0, 0.05, relative=True)
        & check("A minimal-stress t (mm)", d[2], 0.31, 0.05, relative=True)
        & check("A minimal-stress value (MPa)", o[1], 106.7, 0.20, relative=True)
    )
    d, o = run_b.named_design(run_b.minimal_mass_index)
    b_mass = (
        check("B minimal-mass l (mm)", d[0], 28.7, 0.05, relative=True)
        & check("B minimal-mass value (g)", o[0], 0.10, 0.20, relative=True)
    )
    d, o = run_b.named_design(run_b.minimal_stress_index)
    b_stress = (
        check("B minimal-stress l (mm)", d[0], 40.0, 0.05, relative=True)
        & check("B minimal-stress value (MPa)", o[1], 92.4, 0.20, relative=True)
    )

    _console_print("published-solution discrepancy report:")
    for label, got, want, window, good in rows:
        _console_print(
            f"  {'ok ' if good else 'OUT'} {label}: got {got:.6g}, published {want:.6g} ({window})"
        )
    ok = bool(a_mass and a_stress and b_mass and b_stress)
    misses = sum(1 for r in rows if not r[-1])
    assert _verdict(
        4, ok, f"{misses} of {len(rows)} published-value comparisons out of tolerance (report above)"
    )


def test_05_network_surrogate_accuracy(focus_cell_studies):
    cell = _cells(focus_cell_studies[0])["2x20"]
    ok = (
        cell.divergences == 0
        and cell.trials == 10
        and cell.test_mean <= 5.0
        and cell.test_std is not None
        and cell.test_std <= 2.0
    )
    assert _verdict(
        5, ok,
        f"2x20 network, 100 training rows: test error {cell.test_mean:.2f} "
        f"+/- {cell.test_std:.2f} % over {cell.trials} trials (limits 5 and 2)",
    )


def test_06_study_trends(size_grid_study, sample_count_study, focus_cell_studies):
    g = _cells(size_grid_study)
    one_layer_ok = g["1x20"].test_mean <= g["1x10"].test_mean
    two_layer_ok = g["2x20"].test_mean <= g["2x10"].test_mean

    size_cells = [_cells(sample_count_study)[f"n{s}"] for s in (40, 60, 80, 100, 120)]
    means = [c.test_mean for c in size_cells]
    rises = [
        (i, means[i + 1] - means[i]) for i in range(len(means) - 1) if means[i + 1] >= means[i]
    ]
    sizes_ok = not rises or (
        len(rises) == 1 and rises[0][1] <= (size_cells[rises[0][0] + 1].test_std or 0.0)
    )

    every_cell = (
        list(size_grid_study.cells)
        + list(sample_count_study.cells)
        + list(focus_cell_studies[0].cells)
    )
    all_vs_test_ok = all(c.all_mean <= c.test_mean for c in every_cell if c.trials)

    ok = one_layer_ok and two_layer_ok and sizes_ok and all_vs_test_ok
    detail = (
        f"width 20 vs 10: one layer {g['1x20'].test_mean:.2f} vs "
        f"{g['1x10'].test_mean:.2f} ({'ok' if one_layer_ok else 'OUT'}), "
        f"two layers {g['2x20'].test_mean:.2f} vs {g['2x10'].test_mean:.2f} "
        f"({'ok' if two_layer_ok else 'OUT'}); "
        f"test error over sizes 40..120: {', '.join(f'{m:.2f}' for m in means)} "
        f"({'ok' if sizes_ok else 'OUT'}); "
        f"All <= Test per cell: {'ok' if all_vs_test_ok else 'OUT'}"
    )
    assert _verdict(6, ok, detail)


def test_07_numerical_kernels():
    # training's gradient of the squared error, 2 J^T e, against central
    # finite differences
    rng = np.random.default_rng(101)
    h = 1e-6
    worst_rel = 0.0
    for _ in range(100):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 4))
        hidden = tuple(int(v) for v in rng.integers(2, 7, size=rng.integers(1, 3)))
        shape = NetworkShape(n_in, hidden, n_out)
        w = rng.uniform(-1, 1, size=shape.total_params)
        X = rng.uniform(-2, 2, size=(int(rng.integers(1, 11)), n_in))
        Y = rng.uniform(-2, 2, size=(X.shape[0], n_out))
        J, e = _jacobian_and_residual(params_from_vector(shape, w), X, Y)
        g = 2.0 * J.T @ e

        fd = np.empty_like(w)
        for i in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            rp = forward(params_from_vector(shape, wp), X) - Y
            rm = forward(params_from_vector(shape, wm), X) - Y
            fd[i] = (float(np.sum(rp * rp)) - float(np.sum(rm * rm))) / (2 * h)
        rel = float(np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12))
        worst_rel = max(worst_rel, rel)
    gradient_ok = worst_rel < 1e-6

    # layered sorting against the definition-driven O(n^2) classifier
    rng = np.random.default_rng(103)
    sort_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 65))
        m = int(rng.choice([2, 3]))
        objs = rng.integers(0, 6, size=(n, m)).astype(float)
        viol = np.where(rng.random(n) < 0.3, rng.uniform(0.1, 2.0, n), 0.0)
        got = [sorted(f) for f in fast_nondominated_sort(objs, viol)]
        sort_ok = sort_ok and got == brute_force_fronts(objs, viol)

    # crowding distance hand cases
    dist = crowding_distance(np.array([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]))
    crowding_ok = (
        dist[0] == np.inf
        and dist[2] == np.inf
        and dist[1] == pytest.approx(2.0)
    )
    pair = crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
    crowding_ok = crowding_ok and all(d == np.inf for d in pair)

    ok = gradient_ok and sort_ok and crowding_ok
    assert _verdict(
        7, ok,
        f"gradient vs finite differences: worst relative error {worst_rel:.2e} (limit 1e-6); "
        f"sorting matches brute force on 200 populations: {sort_ok}; "
        f"crowding hand cases exact: {crowding_ok}",
    )


def test_08_torque_analytics():
    geom = DiscGeometry(pitch_circle_diameter_mm=80.0)
    torque = torque_capacity(150.0, geom)
    anchor_ok = abs(torque - 31.18) <= 0.01
    rng = np.random.default_rng(107)
    worst_round_trip = 0.0
    for _ in range(100):
        g = DiscGeometry(pitch_circle_diameter_mm=float(rng.uniform(40.0, 120.0)))
        f = float(rng.uniform(1.0, 500.0))
        back = min_buckling_for_torque(torque_capacity(f, g), g)
        worst_round_trip = max(worst_round_trip, abs(back / f - 1.0))
    ok = anchor_ok and worst_round_trip < 1e-9
    assert _verdict(
        8, ok,
        f"torque at 150 N on an 80 mm pitch circle: {torque:.4f} N*m (target 31.18 +/- 0.01); "
        f"worst inverse round-trip error {worst_round_trip:.2e} (limit 1e-9)",
    )


def test_09_bit_identical_reruns(explorations, focus_cell_studies, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", FIXED_EPOCH)
    parts = []
    ok = True
    for tag, (first, second, _) in explorations.items():
        cfg = RunConfig(design=tag.value, population=500, generations=300, seed=0)
        blob1 = render_envelope(make_envelope(cfg, "exploration", first.to_record()))
        blob2 = render_envelope(make_envelope(cfg, "exploration", second.to_record()))
        same = blob1 == blob2
        ok = ok and same
        parts.append(f"exploration {tag.value}: {'identical' if same else 'DIFFER'} "
                     f"({len(blob1)} bytes)")
    cfg = RunConfig(layer_counts=(2,), neuron_counts=(20,), trials=10)
    s1, s2 = focus_cell_studies
    blob1 = render_envelope(make_envelope(cfg, "study", s1.to_record()))
    blob2 = render_envelope(make_envelope(cfg, "study", s2.to_record()))
    same = blob1 == blob2
    ok = ok and same
    parts.append(f"study 2x20: {'identical' if same else 'DIFFER'} ({len(blob1)} bytes)")
    assert _verdict(9, ok, "; ".join(parts))
