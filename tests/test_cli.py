"""Command-line pipeline: config resolution, artifacts, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import discflex
from discflex import rsm
from discflex.ann import (
    TrainConfig,
    TrainedNetwork,
    TrainingDivergenceError,
    _GaussNewtonFactors,
    predict_batch,
)
from discflex.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_EMPTY_FRONT,
    EXIT_IO,
    EXIT_OK,
    FRONT_CSV_HEADER,
    ConfigError,
    RunConfig,
    format_study_table,
    load_envelope,
    main,
    make_envelope,
    models_from_payload,
    models_payload,
    render_envelope,
    resolve_config,
)
from discflex.dataset import RESPONSE_COLUMNS, DesignTag, read_csv
from discflex.explorer import StudyCell, StudyReport, explore, train_and_score
from discflex.nsga2 import GaConfig


QUICK_TRAIN = {
    "samples": 30,
    "train_count": 20,
    "hidden_layers": [4],
    "max_iterations": 5,
    "workers": 1,
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared artifact chain: datasets, surrogates, explorations."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "quick.json"
    cfg.write_text(json.dumps(QUICK_TRAIN))

    assert main(["gen-data", "--config", str(cfg), "--noise", "0.0",
                 "--out", str(root / "clean")]) == EXIT_OK
    assert main(["gen-data", "--config", str(cfg), "--out", str(root / "noisy")]) == EXIT_OK
    clean_csv = root / "clean" / "dataset_A.csv"
    noisy_csv = root / "noisy" / "dataset_A.csv"

    assert main(["fit-rsm", "--config", str(cfg), "--data", str(clean_csv),
                 "--out", str(root)]) == EXIT_OK
    assert main(["train-ann", "--config", str(cfg), "--data", str(noisy_csv),
                 "--out", str(root)]) == EXIT_OK

    ga = ["--pop", "24", "--gens", "8", "--out", str(root)]
    assert main(["optimize", "--config", str(cfg), "--source", "rsm", *ga]) == EXIT_OK
    assert main(["optimize", "--config", str(cfg), "--source", "ann",
                 "--surrogate", str(root / "network_A.json"), *ga]) == EXIT_OK

    return {
        "root": root,
        "config": cfg,
        "clean_csv": clean_csv,
        "noisy_csv": noisy_csv,
        "rsm_envelope": root / "rsm_models_A.json",
        "network_envelope": root / "network_A.json",
        "exploration_rsm": root / "exploration_A_rsm.json",
        "exploration_ann": root / "exploration_A_ann.json",
    }


# ---------------------------------------------------------------------------
# configuration resolution


def test_defaults_without_any_source():
    cfg = resolve_config(None, {})
    assert cfg == RunConfig()
    assert (cfg.design, cfg.population, cfg.generations) == ("A", 500, 300)
    assert (cfg.threshold_n, cfg.noise, cfg.max_iterations) == (150.0, 0.01, 300)
    assert cfg.resolved_samples == 127
    assert resolve_config(None, {"design": "B"}).resolved_samples == 128


def test_precedence_file_then_flags(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "population": 100}))
    assert resolve_config(str(path), {}).seed == 3
    assert resolve_config(str(path), {"seed": 5}).seed == 5
    # an untouched key keeps its file value throughout
    assert resolve_config(str(path), {"seed": 5}).population == 100


# run settings that are gone, with the values that are now fixed
REMOVED_SETTINGS = {
    "crossover_probability": 0.9,
    "mutation_probability": None,
    "crossover_index": 20.0,
    "mutation_index": 20.0,
    "scheme": "latin_hypercube",
}


def test_unknown_file_key_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # a misspelling, a key that training no longer has, and the removed GA and sampling settings
    for key, value in (("poulation", 100), ("tolerance", 1e-9), *REMOVED_SETTINGS.items()):
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        assert main(["gen-data", "--config", "cfg.json"]) == EXIT_CONFIG
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_unparseable_file_value_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"population": "many"}))
    with pytest.raises(ConfigError, match="bad value for population"):
        resolve_config(str(path), {})


TUPLE_FIELDS = ("hidden_layers", "layer_counts", "neuron_counts", "train_sizes")


def _assert_int_tuples(cfg):
    # (4, 2) == (4.0, 2.0), so equality alone would let a float through
    for name in TUPLE_FIELDS:
        values = getattr(cfg, name)
        assert type(values) is tuple and all(type(v) is int for v in values), (name, values)


def test_list_fields_parse_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"neuron_counts": [5, 10], "layer_counts": [2]}))
    cfg = resolve_config(str(path), {})
    assert (cfg.neuron_counts, cfg.layer_counts) == ((5, 10), (2,))
    _assert_int_tuples(cfg)
    _assert_int_tuples(RunConfig())


def test_optional_fields_accept_null(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"samples": None}))
    assert resolve_config(str(path), {}).samples is None


@pytest.mark.parametrize("command", ["gen-data", "optimize"])
@pytest.mark.parametrize("field", ["seed", "population", "out", "noise", "hidden_layers"])
def test_null_config_value_exits_without_artifacts(tmp_path, monkeypatch, capsys,
                                                   command, field):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(dict({"population": 20, "generations": 2},
                                                       **{field: None})))
    assert main([command, "--config", "cfg.json"]) == EXIT_CONFIG
    assert f"{field} cannot be null" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("field, value", [
    ("population", 20.7),
    ("population", True),
    ("trials", True),
    ("seed", 2.9),
    ("samples", 30.5),
    ("noise", True),
    ("threshold_n", False),
    ("hidden_layers", [1.5, 2]),
    ("hidden_layers", [True, 2]),
    ("hidden_layers", "55"),
    ("train_sizes", {"40": 1}),
    # a JSON string is no number either
    ("population", "20"),
    ("noise", "0.5"),
    ("samples", "30"),
    ("hidden_layers", ["4", 2]),
])
def test_booleans_and_fractions_rejected_for_numeric_fields(tmp_path, monkeypatch, capsys,
                                                           field, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(dict({"population": 20, "generations": 2},
                                                       **{field: value})))
    assert main(["gen-data", "--config", "cfg.json"]) == EXIT_CONFIG
    assert f"bad value for {field}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command, given_by, field, text", [
    ("optimize", "file", "threshold_n", "NaN"),
    ("optimize", "file", "threshold_n", "-Infinity"),
    ("optimize", "file", "threshold_n", "Infinity"),
    ("optimize", "file", "threshold_n", "1e999"),  # a literal that overflows to inf
    ("gen-data", "flag", "noise", "nan"),
    ("gen-data", "file", "noise", "NaN"),
])
def test_non_finite_numbers_rejected_without_artifacts(tmp_path, monkeypatch, capsys,
                                                       command, given_by, field, text):
    monkeypatch.chdir(tmp_path)
    extra = f', "{field}": {text}' if given_by == "file" else ""
    (tmp_path / "cfg.json").write_text(f'{{"population": 20, "generations": 2{extra}}}')
    flags = [f"--{field}", text] if given_by == "flag" else []
    assert main([command, "--config", "cfg.json", "--out", "out", *flags]) == EXIT_CONFIG
    assert f"bad value for {field}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_whole_numbers_accepted_for_numeric_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"population": 20.0, "noise": 1, "hidden_layers": [4.0, 2],
                                "layer_counts": [1.0], "neuron_counts": [10.0, 20],
                                "train_sizes": [40.0]}))
    cfg = resolve_config(str(path), {})
    assert (cfg.population, cfg.noise, cfg.hidden_layers) == (20, 1.0, (4, 2))
    assert type(cfg.population) is int and type(cfg.noise) is float
    _assert_int_tuples(cfg)


def test_semantic_validation_failures(tmp_path):
    with pytest.raises(ConfigError, match="design"):
        resolve_config(None, {"design": "C"})
    with pytest.raises(ConfigError):  # odd population rejected by the GA rules
        resolve_config(None, {"population": 7})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"threshold_n": -5}))
    with pytest.raises(ConfigError, match="threshold_n"):
        resolve_config(str(path), {})


def test_default_workers_count_the_cores_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert RunConfig().resolved_workers == 2  # as under `taskset -c 0,3`
    assert RunConfig(workers=5).resolved_workers == 5
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS and Windows
    assert RunConfig().resolved_workers == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert RunConfig().resolved_workers == 1


def test_unrelated_env_vars_ignored(monkeypatch):
    # settings come from the config file and flags only; no variable is read
    for key, value in (("DISCFLEX_NOT_A_FIELD", "1"), ("SEED", "9"), ("DISCFLEX_SEED", "9"),
                       ("DISCFLEX_POPULATION", "many")):
        monkeypatch.setenv(key, value)
    assert resolve_config(None, {}) == RunConfig()


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_row_counts(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert "wrote 127 rows" in capsys.readouterr().out
    data = read_csv(tmp_path / "a" / "dataset_A.csv", design_tag=DesignTag.A)
    assert len(data) == 127
    assert main(["gen-data", "--design", "B", "--out", str(tmp_path / "b")]) == EXIT_OK
    assert len(read_csv(tmp_path / "b" / "dataset_B.csv", design_tag=DesignTag.B)) == 128


def test_gen_data_is_reproducible(tmp_path):
    for sub in ("one", "two"):
        assert main(["gen-data", "--seed", "3", "--out", str(tmp_path / sub)]) == EXIT_OK
    assert (tmp_path / "one" / "dataset_A.csv").read_bytes() == (
        tmp_path / "two" / "dataset_A.csv"
    ).read_bytes()


def test_gen_data_unwritable_out_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(["gen-data", "--out", str(blocker / "sub")])
    assert code == EXIT_IO
    assert "I/O error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit-rsm


def test_fit_rsm_recovers_generating_coefficients(work, capsys):
    envelope = json.loads(work["rsm_envelope"].read_text())
    assert envelope["kind"] == "rsm_models"
    assert envelope["config"]["design"] == "A"
    tag, fitted = models_from_payload(envelope["payload"])
    assert tag is DesignTag.A
    reference = rsm.reference_models(DesignTag.A)
    for name, model in fitted.items():
        assert model.basis.terms == reference[name].basis.terms
        # noise-free synthesis, so least squares recovers the source model
        assert np.allclose(model.coefficients, reference[name].coefficients, rtol=1e-8)
        assert model.r_squared > 1.0 - 1e-12


def test_fit_rsm_on_noisy_data_reports_good_fit(work, tmp_path, capsys):
    code = main(["fit-rsm", "--data", str(work["noisy_csv"]), "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    r2_values = [float(line.split("=")[1]) for line in out.splitlines() if "R^2" in line]
    assert len(r2_values) == 3 and all(v > 0.95 for v in r2_values)


def test_fit_rsm_bad_header_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("l,b,t,m,s,f\n1,2,3,4,5,6\n")
    assert main(["fit-rsm", "--data", str(bad)]) == EXIT_CONFIG
    assert "line 1" in capsys.readouterr().err


def test_fit_rsm_missing_file_is_io_error(tmp_path):
    assert main(["fit-rsm", "--data", str(tmp_path / "nope.csv")]) == EXIT_IO


@pytest.mark.parametrize("argv", [
    ["train-ann"], ["fit-rsm"], ["study", "network_size"], ["study", "train_size"],
], ids=lambda argv: "-".join(argv))
def test_dataset_of_other_design_writes_nothing(work, tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main([*argv, "--design", "B", "--config", str(work["config"]),
                 "--data", str(work["noisy_csv"]), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "line 1: expected design line '# design: B', got '# design: A'" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_report_rejects_dataset_of_other_design(work, tmp_path, capsys):
    assert main(["gen-data", "--config", str(work["config"]), "--design", "B",
                 "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    # the network is for design A, the default, so the dataset must be too
    code = main(["report", str(work["network_envelope"]),
                 "--data", str(tmp_path / "dataset_B.csv"), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "line 1: expected design line '# design: A', got '# design: B'" in (
        capsys.readouterr().err
    )
    assert not out.exists()


# ---------------------------------------------------------------------------
# train-ann


def test_train_ann_writes_loadable_network(work, capsys):
    envelope = json.loads(work["network_envelope"].read_text())
    assert envelope["kind"] == "network"
    net = TrainedNetwork.from_record(envelope["payload"])
    assert net.shape.hidden_layers == (4,)
    data = read_csv(work["noisy_csv"], design_tag=DesignTag.A)
    pred = predict_batch(net, data.designs)
    assert pred.shape == (30, 3) and np.all(np.isfinite(pred))


def test_train_ann_prints_error_table(work, tmp_path, capsys):
    code = main(["train-ann", "--config", str(work["config"]),
                 "--data", str(work["noisy_csv"]), "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "trained 1x4 in" in out
    assert sum("test error" in line and "all error" in line for line in out.splitlines()) == 3


def test_train_ann_is_train_and_score(work, tmp_path, capsys):
    # train-ann and every study trial share one split, train and score path
    assert main(["train-ann", "--config", str(work["config"]), "--seed", "3",
                 "--data", str(work["noisy_csv"]), "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    data = read_csv(work["noisy_csv"], design_tag=DesignTag.A)
    net, test_err, all_err = train_and_score(
        data, tuple(QUICK_TRAIN["hidden_layers"]), QUICK_TRAIN["train_count"], 3,
        TrainConfig(max_iterations=QUICK_TRAIN["max_iterations"], seed=3),
    )
    payload = load_envelope(tmp_path / "network_A.json")["payload"]
    assert payload == json.loads(json.dumps(net.to_record()))
    for j, name in enumerate(RESPONSE_COLUMNS):
        assert f"{name}: test error {test_err[j]:.3f}%  all error {all_err[j]:.3f}%" in out


def test_train_ann_train_count_must_leave_test_rows(work, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(QUICK_TRAIN, train_count=40)))
    code = main(["train-ann", "--config", str(cfg), "--data", str(work["noisy_csv"]),
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "train_count" in capsys.readouterr().err


@pytest.mark.parametrize("train_count", [30, 31])
def test_train_ann_train_count_message_names_the_limit(work, tmp_path, capsys, train_count):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(QUICK_TRAIN, train_count=train_count)))
    out = tmp_path / "out"
    code = main(["train-ann", "--config", str(cfg), "--data", str(work["noisy_csv"]),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert (f"train_count {train_count} must be at least 1 and below the 30 rows "
            "of the dataset, to leave a test remainder") in err
    assert not out.exists() or not any(out.iterdir())


def test_train_ann_zero_response_writes_nothing(work, tmp_path, capsys):
    lines = work["noisy_csv"].read_text().splitlines()
    cells = lines[2].split(",")
    cells[3] = "0.0"
    lines[2] = ",".join(cells)
    data = tmp_path / "zero.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["train-ann", "--config", str(work["config"]), "--data", str(data),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "zero ground-truth value" in capsys.readouterr().err
    assert not out.exists()


def test_train_ann_divergence_exit_code(work, tmp_path, monkeypatch, capsys):
    def blow_up(*args, **kwargs):
        raise TrainingDivergenceError("non-finite objective at initialization", 0)

    monkeypatch.setattr("discflex.explorer.train", blow_up)
    code = main(["train-ann", "--config", str(work["config"]),
                 "--data", str(work["noisy_csv"]), "--out", str(tmp_path)])
    assert code == EXIT_DIVERGENCE
    assert "training diverged" in capsys.readouterr().err


def test_train_ann_step_solve_failure_writes_nothing(work, tmp_path, monkeypatch, capsys):
    def singular(self, beta, c, g):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(_GaussNewtonFactors, "solve", singular)
    out = tmp_path / "out"
    code = main(["train-ann", "--config", str(work["config"]),
                 "--data", str(work["noisy_csv"]), "--out", str(out)])
    assert code == EXIT_DIVERGENCE
    assert "step solve failed: Singular matrix" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# optimize


def test_optimize_artifacts(work, capsys):
    payload = json.loads(work["exploration_rsm"].read_text())["payload"]
    k = len(payload["front_designs"])
    assert k > 0
    for key in ("minimal_mass_index", "minimal_stress_index", "optimum_index"):
        assert 0 <= payload[key] < k

    front_lines = (work["root"] / "front_A_rsm.csv").read_text().splitlines()
    assert front_lines[0] == FRONT_CSV_HEADER
    assert len(front_lines) == k + 1
    values = np.array([[float(c) for c in line.split(",")] for line in front_lines[1:]])
    assert np.all(values[:, 5] >= 150.0 - 1e-9)  # buckling column stays feasible
    assert np.all(np.diff(values[:, 3]) >= 0)  # sorted by mass

    gen_lines = (work["root"] / "generations_A_rsm.csv").read_text().splitlines()
    assert gen_lines[0] == "generation,best_mass_g,best_stress_mpa,feasible_count,front_size"
    assert len(gen_lines) > 2


@pytest.mark.parametrize("source", ["rsm", "ann"])
def test_optimize_is_explore(work, source):
    """The CLI writes what the library returns: same payload, one log row per generation."""
    if source == "ann":
        surrogate = TrainedNetwork.from_record(load_envelope(work["network_envelope"])["payload"])
    else:
        surrogate = rsm.reference_models(DesignTag.A)
    result = explore(DesignTag.A, surrogate, GaConfig(population_size=24, generations=8, seed=0))
    written = json.loads(work[f"exploration_{source}"].read_text())["payload"]
    assert written == json.loads(json.dumps(result.to_record()))

    gen_lines = (work["root"] / f"generations_A_{source}.csv").read_text().splitlines()
    assert len(result.history) == 8
    assert len(gen_lines) == 1 + len(result.history)
    for line, summary in zip(gen_lines[1:], result.history):
        generation, mass, stress, feasible, front = line.split(",")
        assert int(generation) == summary.generation
        assert (float(mass), float(stress)) == summary.best_objectives
        assert (int(feasible), int(front)) == (summary.feasible_count, summary.front_size)


def test_optimize_prints_named_rows(work, tmp_path, capsys):
    code = main(["optimize", "--config", str(work["config"]), "--pop", "24",
                 "--gens", "8", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    for label in ("minimal mass", "minimal stress", "optimum"):
        assert any(line.startswith(label) for line in out.splitlines())


def test_optimize_bytes_reproducible_under_pinned_clock(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    args = ["optimize", "--pop", "24", "--gens", "8", "--seed", "2",
            "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    first = {
        name: (tmp_path / name).read_bytes()
        for name in ("exploration_A_rsm.json", "front_A_rsm.csv", "generations_A_rsm.csv")
    }
    assert main(args) == EXIT_OK
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob, name
    envelope = json.loads(first["exploration_A_rsm.json"])
    assert envelope["timestamp"] == "2023-11-14T22:13:20Z"


@pytest.mark.parametrize("epoch", ["abc", "1e9", "99999999999999"])
@pytest.mark.parametrize("command", ["gen-data", "optimize", "study"])
def test_bad_source_date_epoch_exits_before_any_work(work, tmp_path, monkeypatch, capsys,
                                                     epoch, command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("synthesize_dataset", "explore", "run_network_size_study"):
        monkeypatch.setattr(discflex.explorer, name, no_work)
    argv = {"gen-data": ["gen-data"],
            "optimize": ["optimize", "--pop", "24", "--gens", "8"],
            "study": ["study", "network_size", "--data", str(work["noisy_csv"])]}[command]
    assert main([*argv, "--out", "out"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"SOURCE_DATE_EPOCH must be whole seconds since 1970, got {epoch!r}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_optimize_accepts_fitted_surrogate_envelope(work, tmp_path):
    code = main(["optimize", "--surrogate", str(work["rsm_envelope"]), "--pop", "24",
                 "--gens", "8", "--out", str(tmp_path)])
    assert code == EXIT_OK


def _with_removed_settings(path: Path, tmp_path: Path) -> Path:
    """A copy of an envelope whose config still echoes the removed settings."""
    envelope = json.loads(path.read_text())
    envelope["config"].update(REMOVED_SETTINGS)
    copy = tmp_path / f"old_{path.name}"
    copy.write_text(json.dumps(envelope))
    return copy


@pytest.mark.parametrize("source, envelope", [("rsm", "rsm_envelope"),
                                              ("ann", "network_envelope")])
def test_envelopes_echoing_removed_settings_still_load(work, tmp_path, source, envelope):
    inputs = {
        "new": (work[envelope], work[f"exploration_{source}"], work["network_envelope"]),
        "old": tuple(_with_removed_settings(work[name], tmp_path) for name in
                     (envelope, f"exploration_{source}", "network_envelope")),
    }
    for sub, (surrogate, *reported) in inputs.items():
        assert main(["optimize", "--config", str(work["config"]), "--source", source,
                     "--surrogate", str(surrogate), "--pop", "24", "--gens", "8",
                     "--out", str(tmp_path / sub)]) == EXIT_OK
        assert main(["report", *map(str, reported), "--data", str(work["noisy_csv"]),
                     "--out", str(tmp_path / sub / "report")]) == EXIT_OK
    for name in (f"front_A_{source}.csv", "report/front_overlay.csv",
                 "report/front_overlay.svg", "report/prediction_scatter.csv"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()


def test_optimize_rejects_design_mismatch(work, tmp_path, capsys):
    code = main(["optimize", "--design", "B", "--surrogate", str(work["rsm_envelope"]),
                 "--pop", "24", "--gens", "8", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "rsm_models for design 'A', expected 'B'" in capsys.readouterr().err


def test_optimize_rejects_swapped_models(work, tmp_path, capsys):
    envelope = json.loads(work["rsm_envelope"].read_text())
    models = envelope["payload"]["models"]
    models["mass_g"], models["stress_mpa"] = models["stress_mpa"], models["mass_g"]
    path = tmp_path / "rsm_models_A.json"
    path.write_text(json.dumps(envelope))
    out = tmp_path / "out"
    code = main(["optimize", "--surrogate", str(path), "--pop", "24", "--gens", "8",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert (f"{path}: malformed model payload: ValueError(\"the mass_g record models "
            "'stress_mpa'\")") in capsys.readouterr().err
    assert not out.exists()


def test_optimize_ann_requires_surrogate(tmp_path, capsys):
    code = main(["optimize", "--source", "ann", "--pop", "24", "--gens", "8",
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "requires --surrogate" in capsys.readouterr().err


def test_optimize_rejects_wrong_envelope_kind(work, tmp_path, capsys):
    code = main(["optimize", "--source", "ann", "--surrogate",
                 str(work["exploration_rsm"]), "--pop", "24", "--gens", "8",
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "envelope kind 'exploration', expected network" in capsys.readouterr().err
    code = main(["optimize", "--source", "rsm", "--surrogate",
                 str(work["network_envelope"]), "--pop", "24", "--gens", "8",
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "envelope kind 'network', expected rsm_models" in capsys.readouterr().err


@pytest.mark.parametrize("design, config", [("B", "kept"), ("A", "dropped")])
def test_optimize_ann_rejects_network_of_other_design(work, tmp_path, capsys, design, config):
    envelope = json.loads(work["network_envelope"].read_text())
    if config == "dropped":
        del envelope["config"]
    path = tmp_path / "network.json"
    path.write_text(json.dumps(envelope))
    code = main(["optimize", "--source", "ann", "--design", design, "--surrogate", str(path),
                 "--pop", "24", "--gens", "8", "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    echo = "A" if config == "kept" else None
    assert f"network for design {echo!r}, expected {design!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _objective_in_summary(payload):
    # networks written when the summary still carried ``objective`` are not read
    payload["summary"]["objective"] = 60.0


def _nan_weight(payload):
    payload["weights"][0][0][0] = float("nan")


def _short_bias(payload):
    payload["biases"][0].pop()


def _narrow_weight(payload):
    payload["weights"][-1] = [row[:-1] for row in payload["weights"][-1]]


def _missing_layer(payload):
    del payload["weights"][-1], payload["biases"][-1]


def _wider_shape(payload):
    payload["shape"]["hidden_layers"] = [h + 1 for h in payload["shape"]["hidden_layers"]]


def _two_outputs(payload):
    # weights and stats agree with the shape, which maps 3 designs to 2 responses
    payload["shape"]["n_outputs"] = 2
    payload["weights"][-1] = [row[:2] for row in payload["weights"][-1]]
    payload["biases"][-1] = payload["biases"][-1][:2]
    for key in ("mean", "std"):
        payload["output_stats"][key] = payload["output_stats"][key][:2]


def _two_inputs(payload):
    payload["shape"]["n_inputs"] = 2
    payload["weights"][0] = payload["weights"][0][:2]
    for key in ("mean", "std"):
        payload["input_stats"][key] = payload["input_stats"][key][:2]


def _huge_weight(payload):
    # JSON integers have no range, and float() overflows past about 1.8e308
    payload["weights"][0][0][0] = 10**400


def _one_entry_stats(payload):
    for stats in ("input_stats", "output_stats"):
        for key in ("mean", "std"):
            payload[stats][key] = payload[stats][key][:1]


def _infinite_input_std(payload):
    payload["input_stats"]["std"][0] = float("inf")  # json writes and reads it as Infinity


# json.dumps cannot write 1e400, which json.loads reads as inf; this cell becomes it
_OVERFLOWING_NUMBER = "1e400 goes here"


def _overflowing_input_std(payload):
    payload["input_stats"]["std"][0] = _OVERFLOWING_NUMBER


def _assert_network_rejected(work, tmp_path, capsys, command, edit):
    envelope = json.loads(work["network_envelope"].read_text())
    edit(envelope["payload"])
    path = tmp_path / "network_A.json"
    path.write_text(json.dumps(envelope).replace(json.dumps(_OVERFLOWING_NUMBER), "1e400"))
    out = tmp_path / "out"
    if command == "optimize":
        argv = ["optimize", "--source", "ann", "--surrogate", str(path),
                "--pop", "24", "--gens", "8", "--out", str(out)]
    else:
        argv = ["report", str(path), "--data", str(work["noisy_csv"]), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert f"{path}: malformed network payload" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["optimize", "report"])
def test_network_with_extra_summary_field_writes_nothing(work, tmp_path, capsys, command):
    _assert_network_rejected(work, tmp_path, capsys, command, _objective_in_summary)


@pytest.mark.parametrize("command", ["optimize", "report"])
@pytest.mark.parametrize("edit", [_nan_weight, _short_bias, _narrow_weight, _missing_layer,
                                  _wider_shape, _huge_weight, _two_outputs, _two_inputs,
                                  _one_entry_stats, _infinite_input_std,
                                  _overflowing_input_std])
def test_broken_network_writes_nothing(work, tmp_path, capsys, command, edit):
    _assert_network_rejected(work, tmp_path, capsys, command, edit)


def _overflowing_network(work, tmp_path) -> Path:
    """A copy of the network envelope whose output weights overflow its predictions."""
    envelope = json.loads(work["network_envelope"].read_text())
    envelope["payload"]["weights"][-1] = [
        [1e308] * len(row) for row in envelope["payload"]["weights"][-1]
    ]
    path = tmp_path / "network_A.json"
    path.write_text(json.dumps(envelope))
    return path


# the error line must be all the user sees: a numpy RuntimeWarning fails the test
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_optimize_ann_overflowing_network_is_input_error(work, tmp_path, capsys):
    path = _overflowing_network(work, tmp_path)
    code = main(["optimize", "--source", "ann", "--surrogate", str(path),
                 "--pop", "24", "--gens", "8", "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("input error: non-finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("explorations", [[], ["exploration_rsm"]],
                         ids=["network-alone", "with-exploration"])
def test_report_overflowing_network_writes_nothing(work, tmp_path, capsys, explorations):
    path = _overflowing_network(work, tmp_path)
    out = tmp_path / "out"
    code = main(["report", *(str(work[name]) for name in explorations), str(path),
                 "--data", str(work["noisy_csv"]), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path}: non-finite prediction on data row ")
    assert not out.exists()


def test_optimize_unreachable_threshold_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold_n": 1e9}))
    code = main(["optimize", "--config", str(cfg), "--pop", "20", "--gens", "4",
                 "--out", str(tmp_path)])
    assert code == EXIT_EMPTY_FRONT
    err = capsys.readouterr().err
    assert err.startswith("empty feasible set: no feasible solution found for design A")
    assert not (tmp_path / "exploration_A_rsm.json").exists()


# ---------------------------------------------------------------------------
# study


def test_study_network_size_quick(work, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        QUICK_TRAIN, layer_counts=[1], neuron_counts=[4], trials=2, max_iterations=3
    )))
    code = main(["study", "network_size", "--config", str(cfg),
                 "--data", str(work["noisy_csv"]), "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "network_size study, 2 trials per cell" in out
    assert "hidden layers: 1" in out and "n=4" in out and "+/-" in out
    payload = json.loads((tmp_path / "study_network_size_A.json").read_text())["payload"]
    assert payload["axis"] == "network_size"
    assert [(c["key"], c["trials"]) for c in payload["cells"]] == [("1x4", 2)]


def test_study_train_size_quick(work, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        QUICK_TRAIN, train_sizes=[15, 20], trials=1, max_iterations=3
    )))
    code = main(["study", "train_size", "--config", str(cfg),
                 "--data", str(work["noisy_csv"]), "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "n=15" in out and "n=20" in out
    assert (tmp_path / "study_train_size_A.json").exists()


_NETWORK_REPORT = StudyReport("network_size", (
    StudyCell("1x10", 1.7734, 0.3121, 1.6904, 0.2511, 10, 0),
    StudyCell("1x20", 2.5, 0.125, 2.25, 0.0625, 9, 1),
    StudyCell("2x10", None, None, None, None, 0, 3),
    StudyCell("2x20", 12.345, None, 11.0, None, 1, 0),
))
_SIZE_REPORT = StudyReport("training_size", (
    StudyCell("n40", 10.654, 2.04, 8.08, 1.63, 2, 0),
    StudyCell("n80", None, None, None, None, 0, 2),
    StudyCell("n120", 3.0, None, 2.995, None, 1, 1),
))


def test_study_table_network_size_text():
    # a 20-character cell fills its column; one space still separates it
    # from its left neighbour, and the header lines up with the cells
    assert format_study_table(_NETWORK_REPORT, 10) == (
        "network_size study, 10 trials per cell, mean percent error\n"
        "hidden layers: 1\n"
        "                       n=10                 n=20\n"
        "  Test        1.77 +/- 0.31 2.50 +/- 0.12 (1 div)\n"
        "  All         1.69 +/- 0.25 2.25 +/- 0.06 (1 div)\n"
        "hidden layers: 2\n"
        "                       n=10                 n=20\n"
        "  Test     diverged (3 div)                12.35\n"
        "  All      diverged (3 div)                11.00"
    )


def test_study_table_training_size_text():
    assert format_study_table(_SIZE_REPORT, 2) == (
        "training_size study, 2 trials per cell, mean percent error\n"
        "                       n=40                 n=80                n=120\n"
        "  Test       10.65 +/- 2.04     diverged (2 div)         3.00 (1 div)\n"
        "  All         8.08 +/- 1.63     diverged (2 div)         3.00 (1 div)"
    )


def test_study_rejects_zero_trials_without_artifacts(work, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(QUICK_TRAIN, trials=0)))
    code = main(["study", "network_size", "--config", str(cfg),
                 "--data", str(work["noisy_csv"]), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "trials" in capsys.readouterr().err
    assert not (tmp_path / "study_network_size_A.json").exists()


@pytest.mark.parametrize("which, axes", [
    ("network_size", {"layer_counts": [1, 1], "neuron_counts": [4]}),
    ("train_size", {"train_sizes": [12, 12]}),
])
def test_study_rejects_repeated_axis_values_before_training(work, tmp_path, capsys,
                                                            monkeypatch, which, axes):
    def no_training(*args, **kwargs):
        raise AssertionError("a network was trained")

    monkeypatch.setattr("discflex.explorer.train", no_training)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(QUICK_TRAIN, trials=2, **axes)))
    out = tmp_path / "out"
    code = main(["study", which, "--config", str(cfg),
                 "--data", str(work["noisy_csv"]), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "duplicate study cell keys" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# report


def test_report_front_overlay(work, tmp_path, capsys):
    code = main(["report", str(work["exploration_rsm"]), str(work["exploration_ann"]),
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "front_overlay.csv").read_text().splitlines()
    assert lines[0] == "source,length_mm,width_mm,thickness_mm,mass_g,stress_mpa,marker"
    labels = {line.split(",")[0] for line in lines[1:]}
    assert labels == {"rsm_A", "ann_A"}
    markers = [line.split(",")[-1] for line in lines[1:]]
    for name in ("minimal_mass", "minimal_stress", "optimum"):
        assert markers.count(name) >= 1

    # the row marked optimum carries the payload's named objective values
    payload = json.loads(work["exploration_rsm"].read_text())["payload"]
    want = payload["front_objectives"][payload["optimum_index"]]
    rows = [line.split(",") for line in lines[1:]]
    got = next(
        (float(r[4]), float(r[5])) for r in rows if r[0] == "rsm_A" and r[6] == "optimum"
    )
    assert got == pytest.approx(want, rel=1e-12)

    svg = (tmp_path / "front_overlay.svg").read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    for text in ("mass (g)", "stress (MPa)", "optimum", "rsm_A", "ann_A"):
        assert text in svg


def test_report_svg_is_deterministic(work, tmp_path):
    for sub in ("one", "two"):
        assert main(["report", str(work["exploration_rsm"]),
                     "--out", str(tmp_path / sub)]) == EXIT_OK
    assert (tmp_path / "one" / "front_overlay.svg").read_bytes() == (
        tmp_path / "two" / "front_overlay.svg"
    ).read_bytes()


def test_report_prediction_scatter(work, tmp_path):
    code = main(["report", str(work["network_envelope"]),
                 "--data", str(work["noisy_csv"]), "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "prediction_scatter.csv").read_text().splitlines()
    assert lines[0] == "response,truth,prediction_mean,prediction_std"
    assert len(lines) == 1 + 3 * 30
    # a single network has no ensemble spread
    assert all(line.endswith(",0.0") for line in lines[1:])


@pytest.mark.parametrize("design, config", [("B", "kept"), ("A", "dropped")])
def test_report_rejects_network_of_other_design(work, tmp_path, capsys, design, config):
    envelope = json.loads(work["network_envelope"].read_text())
    if config == "dropped":
        del envelope["config"]
    path = tmp_path / "network.json"
    path.write_text(json.dumps(envelope))
    out = tmp_path / "out"
    code = main(["report", str(work["exploration_rsm"]), str(path), "--design", design,
                 "--data", str(work["noisy_csv"]), "--out", str(out)])
    assert code == EXIT_CONFIG
    echo = "A" if config == "kept" else None
    assert f"network for design {echo!r}, expected {design!r}" in capsys.readouterr().err
    assert not out.exists()


def test_report_network_needs_data(work, tmp_path, capsys):
    code = main(["report", str(work["network_envelope"]), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "--data" in capsys.readouterr().err


@pytest.mark.parametrize("data, code", [("missing", EXIT_IO), ("malformed", EXIT_CONFIG)])
def test_report_bad_data_writes_nothing(work, tmp_path, data, code):
    path = tmp_path / "data.csv"
    if data == "malformed":
        path.write_text("not,a,dataset\n")
    out = tmp_path / "out"
    argv = ["report", str(work["exploration_rsm"]), str(work["network_envelope"]),
            "--data", str(path), "--out", str(out)]
    assert main(argv) == code
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    lambda p: p.update(front_objectives=[]),
    lambda p: p.update(front_objectives=[row[:1] for row in p["front_objectives"]]),
    lambda p: p.update(front_designs=[], front_objectives=[]),
    lambda p: p.update(front_designs=[row[:2] for row in p["front_designs"]]),
    lambda p: p.update(front_designs=7),
    lambda p: p.update(optimum_index=len(p["front_designs"])),
    lambda p: p.update(minimal_mass_index=-1),
    lambda p: p.update(optimum_index=float("inf")),
    lambda p: p.update(optimum_index=1.7),
    lambda p: p.update(minimal_stress_index=True),
    lambda p: p["front_objectives"][0].__setitem__(1, float("nan")),
    lambda p: p.update(source="<script>alert(1)</script>,x"),
    lambda p: p.update(design_tag="C"),
], ids=["no-objectives", "one-objective", "empty-front", "two-variables", "scalar-front",
        "index-past-end", "negative-index", "infinite-index", "fractional-index",
        "boolean-index", "nan-objective", "markup-source", "unknown-design"])
def test_report_rejects_bad_front_without_artifacts(work, tmp_path, capsys, edit):
    envelope = json.loads(work["exploration_rsm"].read_text())
    edit(envelope["payload"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(envelope))
    out = tmp_path / "out"
    assert main(["report", str(work["exploration_ann"]), str(path), "--out", str(out)]) == (
        EXIT_CONFIG
    )
    assert "malformed exploration payload" in capsys.readouterr().err
    assert not out.exists()


def test_report_rejects_other_schema_versions(work, tmp_path, capsys):
    envelope = json.loads(work["exploration_rsm"].read_text())
    for version in (99, True):  # a JSON true is no number, so it is no 1
        envelope["schema_version"] = version
        path = tmp_path / "future.json"
        path.write_text(json.dumps(envelope))
        out = tmp_path / "out"
        assert main(["report", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{path}: envelope schema version {version!r}" in err and "reads 1" in err
        assert not out.exists()


@pytest.mark.parametrize("missing", ["kind", "payload"])
@pytest.mark.parametrize("command", ["report", "optimize"])
def test_envelope_without_kind_or_payload_is_config_error(work, tmp_path, capsys,
                                                          missing, command):
    source = "network_envelope" if command == "optimize" else "exploration_rsm"
    envelope = json.loads(work[source].read_text())
    del envelope[missing]
    path = tmp_path / "hollow.json"
    path.write_text(json.dumps(envelope))
    out = tmp_path / "out"
    if command == "report":
        argv = ["report", str(path), "--out", str(out)]
    else:
        argv = ["optimize", "--source", "ann", "--surrogate", str(path),
                "--pop", "20", "--gens", "2", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert f"envelope has no {missing}" in capsys.readouterr().err
    assert not out.exists()


def test_report_rejects_unreportable_kind(work, tmp_path, capsys):
    code = main(["report", str(work["rsm_envelope"]), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "envelope kind 'rsm_models', expected exploration or network" in (
        capsys.readouterr().err
    )


def test_report_rejects_malformed_payload(tmp_path, capsys):
    envelope = make_envelope(RunConfig(), "exploration", {})
    path = tmp_path / "hollow.json"
    path.write_text(render_envelope(envelope))
    assert main(["report", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "malformed exploration payload" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# payload records


def test_models_payload_round_trip():
    models = rsm.reference_models(DesignTag.B)
    tag, back = models_from_payload(
        json.loads(json.dumps(models_payload(DesignTag.B, models)))
    )
    assert tag is DesignTag.B
    for name, model in models.items():
        assert back[name].basis.terms == model.basis.terms
        assert np.array_equal(back[name].coefficients, model.coefficients)
        assert back[name].r_squared == model.r_squared


def test_network_payload_round_trip(work):
    envelope = json.loads(work["network_envelope"].read_text())
    net = TrainedNetwork.from_record(envelope["payload"])
    record = json.loads(json.dumps(net.to_record()))
    assert record == envelope["payload"]
    back = TrainedNetwork.from_record(record)
    X = np.array([[30.0, 5.0, 0.5], [24.0, 3.0, 0.3]])
    assert np.array_equal(predict_batch(back, X), predict_batch(net, X))
    assert back.summary == net.summary


def test_study_record_writes_diverged_cells_as_null():
    report = StudyReport(
        axis="network_size",
        cells=(
            StudyCell("1x4", 2.5, 0.3, 1.5, 0.2, 10, 0),
            StudyCell("1x8", None, None, None, None, 0, 10),
        ),
    )
    record = json.loads(render_envelope(report.to_record()))
    assert record == {
        "axis": "network_size",
        "cells": [
            {"key": "1x4", "test_mean": 2.5, "test_std": 0.3, "all_mean": 1.5,
             "all_std": 0.2, "trials": 10, "divergences": 0},
            {"key": "1x8", "test_mean": None, "test_std": None, "all_mean": None,
             "all_std": None, "trials": 0, "divergences": 10},
        ],
    }


# ---------------------------------------------------------------------------
# entry points


MINIMAL_ENV = {"PATH": "/usr/local/bin:/usr/bin:/bin"}


def _small_config(tmp_path: Path) -> str:
    """A config file that keeps an entry-point gen-data run small."""
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"samples": 10}))
    return str(path)


def _project_table():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    return tomllib.loads(pyproject.read_text())["project"]


def test_module_and_console_entry_points(tmp_path):
    ret = subprocess.run(
        [sys.executable, "-m", "discflex.cli", "--version"],
        capture_output=True, text=True,
    )
    assert ret.returncode == 0 and ret.stdout.strip() == "discflex 0.1.0"

    # run the declared console-script target the way a generated script does,
    # against the discflex package this test imported, so no install is needed
    module, _, attr = _project_table()["scripts"]["discflex"].partition(":")
    package_root = Path(discflex.__file__).resolve().parents[1]
    ret = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())",
         "gen-data", "--config", _small_config(tmp_path), "--out", str(tmp_path)],
        capture_output=True, text=True,
        env=dict(MINIMAL_ENV, PYTHONPATH=str(package_root)),
    )
    assert ret.returncode == 0, ret.stderr
    assert (tmp_path / "dataset_A.csv").exists()


def test_cli_import_loads_every_package_module():
    # a module that the CLI does not load is code no pipeline run reaches;
    # it belongs in the tests, as disc_mechanics does
    package = Path(discflex.__file__).resolve().parent
    want = sorted(f"discflex.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    ret = subprocess.run(
        [sys.executable, "-c",
         "import sys, discflex.cli; "
         "print(' '.join(sorted(m for m in sys.modules if m.startswith('discflex.'))))"],
        capture_output=True, text=True,
        env=dict(MINIMAL_ENV, PYTHONPATH=str(package.parent)),
    )
    assert ret.returncode == 0, ret.stderr
    assert ret.stdout.split() == want


@pytest.mark.parametrize("module, given, seen", [
    ("discflex.cli", {}, "1"),
    ("discflex.cli", {"OPENBLAS_NUM_THREADS": "3"}, "3"),
    # OpenBLAS falls back to these two, so either counts as a choice made
    ("discflex.cli", {"GOTO_NUM_THREADS": "2"}, None),
    ("discflex.cli", {"OMP_NUM_THREADS": "2"}, None),
    ("discflex.ann", {}, None),
], ids=["cli-unset", "cli-openblas", "cli-goto", "cli-omp", "ann-unset"])
def test_only_the_cli_sets_one_blas_thread(module, given, seen):
    # the child's environment is built here: once this process has imported
    # discflex.cli, its own os.environ holds OPENBLAS_NUM_THREADS
    env = dict(MINIMAL_ENV, PYTHONPATH=str(Path(discflex.__file__).resolve().parents[1]),
               **given)
    ret = subprocess.run(
        [sys.executable, "-c", f"import os, {module}; "
         "print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        capture_output=True, text=True, env=env,
    )
    assert ret.returncode == 0, ret.stderr
    assert ret.stdout.strip() == str(seen)


@pytest.mark.skipif(
    shutil.which("discflex") is None,
    reason="no `discflex` console script on PATH; "
           "install it with `pip install -e . --no-build-isolation`",
)
def test_installed_console_script(tmp_path):
    binary = shutil.which("discflex")
    ret = subprocess.run([binary, "--version"], capture_output=True, text=True,
                         env=MINIMAL_ENV)
    # a stale install of another version does not stand for this checkout
    assert ret.returncode == 0, ret.stderr
    assert ret.stdout.strip() == f"discflex {_project_table()['version']}"
    ret = subprocess.run(
        [binary, "gen-data", "--config", _small_config(tmp_path), "--out", str(tmp_path)],
        capture_output=True, text=True, env=MINIMAL_ENV,
    )
    assert ret.returncode == 0, ret.stderr
    assert (tmp_path / "dataset_A.csv").exists()


def test_bad_arguments_exit_via_argparse():
    with pytest.raises(SystemExit) as err:
        main(["optimize", "--design", "Z"])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main([])
