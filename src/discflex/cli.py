"""Command-line front end for the disc design-exploration pipeline.

Owns run configuration (defaults, config file and flags, in rising
precedence), the versioned JSON result envelope that every
artifact-producing command emits, and the six subcommands: gen-data,
fit-rsm, train-ann, optimize, study, report.

Exit codes: 0 success, 2 configuration or input-content error, 3 I/O error,
4 training divergence, 5 empty feasible set.
"""

from __future__ import annotations

import os

# A CLI process owns its BLAS threads, and OpenBLAS reads its thread variables
# once, when numpy is first imported.  Its pool of one thread per core costs
# about 55 ms of every start-up on 2 cores, makes network artifacts depend on
# the core count, and oversubscribes the cores when a study runs one worker per
# core.  One thread is slower where a core would otherwise sit idle: on 2
# cores, 3x40 networks took 3 % more wall time in `train-ann` and 13 % more in
# a `--workers 1` study (README, Reproducibility).  Any of the three variables
# OpenBLAS reads counts as a choice and is left alone.  A program that imports
# this module before numpy takes one thread too, as do the processes it starts.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import __version__, dataset, explorer, rsm
from .ann import TrainConfig, TrainedNetwork, TrainingDivergenceError, predict_batch
from .ann import train  # not called: perfbench traces discflex.cli.train; sites must resolve
from .dataset import RESPONSE_COLUMNS, DesignTag
from .explorer import EmptyFrontError, StudyCell, StudyReport
from .nsga2 import EvaluationError, GaConfig
from .rsm import models_from_payload, models_payload  # benchmark reads models through cli

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4
EXIT_EMPTY_FRONT = 5

FRONT_CSV_HEADER = "length_mm,width_mm,thickness_mm,mass_g,stress_mpa,buckling_n"

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class ConfigError(ValueError):
    """Invalid run configuration or input file contents."""


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings of one pipeline run."""

    design: str = "A"
    source: str = "rsm"
    seed: int = 0
    population: int = GaConfig.population_size
    generations: int = GaConfig.generations
    threshold_n: float = explorer.DEFAULT_BUCKLING_THRESHOLD_N
    noise: float = explorer.DEFAULT_NOISE_FRACTION
    samples: Optional[int] = None
    hidden_layers: tuple[int, ...] = (20, 20)
    train_count: int = 100
    max_iterations: int = TrainConfig.max_iterations
    trials: int = 10
    layer_counts: tuple[int, ...] = (1, 2, 3)
    neuron_counts: tuple[int, ...] = (10, 20, 30, 40)
    train_sizes: tuple[int, ...] = (40, 60, 80, 100, 120)
    workers: int = 0  # 0 means the cores this process may use
    out: str = "."

    @property
    def design_tag(self) -> DesignTag:
        return DesignTag(self.design)

    @property
    def resolved_samples(self) -> int:
        if self.samples is not None:
            return self.samples
        return {"A": 127, "B": 128}[self.design]

    @property
    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        if hasattr(os, "sched_getaffinity"):  # honours taskset and cgroup cpusets
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    def ga_config(self) -> GaConfig:
        return GaConfig(
            population_size=self.population, generations=self.generations, seed=self.seed
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(max_iterations=self.max_iterations, seed=self.seed)

    def validate(self) -> None:
        if self.design not in ("A", "B"):
            raise ConfigError(f"design must be A or B, got {self.design!r}")
        if self.source not in ("rsm", "ann"):
            raise ConfigError(f"source must be rsm or ann, got {self.source!r}")
        if not self.noise >= 0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")
        if self.samples is not None and self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.train_count < 1:
            raise ConfigError(f"train_count must be >= 1, got {self.train_count}")
        if self.workers < 0:
            raise ConfigError(f"workers must be >= 0, got {self.workers}")
        if not self.threshold_n > 0:
            raise ConfigError(f"threshold_n must be > 0, got {self.threshold_n}")
        for name in ("hidden_layers", "layer_counts", "neuron_counts", "train_sizes"):
            values = getattr(self, name)
            if not values or not all(v >= 1 for v in values):
                raise ConfigError(f"{name} must be positive ints, got {values}")
        # delegate the rest to the module constructors so rules live in one place
        try:
            self.ga_config()
            self.train_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _coerce_field(name: str, raw: object) -> object:
    """Parse one config-file or flag value into its annotated field type.

    ``None`` (JSON null) is accepted only by ``Optional[...]`` fields.  A
    list field takes only a JSON list, booleans and strings are no numbers,
    an int field takes no fractional value, and a float field takes no NaN or
    infinity.
    """
    kind = _FIELD_TYPES[name]
    if type(None) in typing.get_args(kind):
        if raw is None:
            return None
        kind = typing.get_args(kind)[0]  # Optional[X] is Union[X, None]
    elif raw is None:
        raise ConfigError(f"{name} cannot be null")
    try:
        if typing.get_origin(kind) is tuple:
            if not isinstance(raw, list):  # a string would iterate by character
                raise TypeError(f"expected a JSON list, got {type(raw).__name__}")
            item = typing.get_args(kind)[0]
            return tuple(_coerce_scalar(item, v) for v in raw)
        return _coerce_scalar(kind, raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name}: {raw!r} ({exc})") from None


def _coerce_scalar(kind: type, raw: object) -> object:
    if kind is str and not isinstance(raw, str):
        raise TypeError(f"expected a string, got {type(raw).__name__}")
    if kind is not str and isinstance(raw, bool):
        raise TypeError("expected a number, got a boolean")
    if kind is not str and isinstance(raw, str):
        raise TypeError("expected a number, got a string")
    if kind is int and isinstance(raw, float) and not raw.is_integer():
        raise ValueError("expected a whole number")
    value = kind(raw)
    if kind is float and not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    try:
        values = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return values


def resolve_config(
    config_path: Optional[str] = None, flag_values: Optional[Mapping[str, object]] = None
) -> RunConfig:
    """Merge defaults, config file and flags, then validate."""
    merged: dict = {}
    if config_path is not None:
        file_values = _load_config_file(config_path)
        unknown = sorted(set(file_values) - set(_FIELD_TYPES))
        if unknown:
            raise ConfigError(f"{config_path}: unknown config keys {unknown}")
        merged.update(file_values)
    for key, value in (flag_values or {}).items():
        if value is not None:
            merged[key] = value
    cfg = RunConfig(**{name: _coerce_field(name, raw) for name, raw in merged.items()})
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# result envelope


def _timestamp() -> str:
    """UTC timestamp; SOURCE_DATE_EPOCH pins it for reproducible artifacts."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        moment = datetime.now(tz=timezone.utc)
    else:
        try:
            moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
        except (ValueError, OverflowError, OSError) as exc:
            raise ConfigError(f"SOURCE_DATE_EPOCH must be whole seconds since 1970, "
                              f"got {epoch!r} ({exc})") from None
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def make_envelope(cfg: RunConfig, kind: str, payload: Mapping) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "timestamp": _timestamp(),
        "kind": kind,
        "config": dataclasses.asdict(cfg),
        "payload": dict(payload),
    }


def render_envelope(envelope: Mapping) -> str:
    return json.dumps(envelope, indent=2, allow_nan=False) + "\n"


def write_envelope(path: Path, envelope: Mapping) -> None:
    path.write_text(render_envelope(envelope))


def load_envelope(path: str | Path) -> dict:
    try:
        envelope = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not a result envelope ({exc})") from None
    version = envelope.get("schema_version") if isinstance(envelope, dict) else None
    if version != SCHEMA_VERSION or isinstance(version, bool):  # JSON true is no 1
        raise ConfigError(
            f"{path}: envelope schema version {version!r}, this toolkit reads {SCHEMA_VERSION}"
        )
    missing = [key for key in ("kind", "payload") if key not in envelope]
    if missing:
        raise ConfigError(f"{path}: envelope has no {' or '.join(missing)}")
    return envelope


def _read_input(cfg: RunConfig, path: str, kinds: Sequence[str]) -> tuple[str, object]:
    """Kind and payload of an envelope of ``kinds``, parsed by the module that writes it."""
    envelope = load_envelope(path)
    kind, payload = envelope["kind"], envelope["payload"]
    if kind not in kinds:
        raise ConfigError(f"{path}: envelope kind {kind!r}, expected {' or '.join(kinds)}")
    try:
        if kind == "exploration":
            return kind, explorer.front_from_record(payload)
        if kind == "rsm_models":
            tag, value = models_from_payload(payload)
            design = tag.value
        else:
            config = envelope.get("config")
            design = config.get("design") if isinstance(config, dict) else None
            value = TrainedNetwork.from_record(payload)
            if (value.shape.n_inputs, value.shape.n_outputs) != (3, 3):
                raise ValueError(f"malformed network payload: {value.shape.n_inputs} inputs "
                                 f"and {value.shape.n_outputs} outputs, expected 3 and 3")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if design != cfg.design:
        raise ConfigError(f"{path}: {kind} for design {design!r}, expected {cfg.design!r}")
    return kind, value


# ---------------------------------------------------------------------------
# shared helpers


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _named_row(label: str, design: np.ndarray, objectives: np.ndarray) -> str:
    l, w, t = design
    return (
        f"{label:<15} l={l:8.3f} mm  b={w:7.3f} mm  t={t:6.3f} mm  "
        f"mass={objectives[0]:.6f} g  stress={objectives[1]:.3f} MPa"
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(cfg: RunConfig) -> int:
    data = explorer.synthesize_dataset(
        cfg.design_tag, cfg.resolved_samples, seed=cfg.seed, noise_std_fraction=cfg.noise
    )
    path = _out_dir(cfg) / f"dataset_{cfg.design}.csv"
    dataset.write_csv(data, path)
    print(f"wrote {len(data)} rows to {path}")
    return EXIT_OK


def cmd_fit_rsm(cfg: RunConfig, data_path: str) -> int:
    data = dataset.read_csv(data_path, design_tag=cfg.design_tag)
    models = {
        name: rsm.fit(rsm.reference_basis(cfg.design_tag, name), data, name)
        for name in RESPONSE_COLUMNS
    }
    envelope = make_envelope(cfg, "rsm_models", models_payload(cfg.design_tag, models))
    path = _out_dir(cfg) / f"rsm_models_{cfg.design}.json"
    write_envelope(path, envelope)
    for name in RESPONSE_COLUMNS:
        model = models[name]
        print(f"{name}: R^2 = {model.r_squared:.6f}")
        for term, coeff in zip(model.basis.terms, model.coefficients):
            print(f"  l^{term[0]} b^{term[1]} t^{term[2]}: {coeff:.6g}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_train_ann(cfg: RunConfig, data_path: str) -> int:
    data = dataset.read_csv(data_path, design_tag=cfg.design_tag)
    net, test_err, all_err = explorer.train_and_score(
        data, cfg.hidden_layers, cfg.train_count, cfg.seed, cfg.train_config()
    )
    envelope = make_envelope(cfg, "network", net.to_record())
    path = _out_dir(cfg) / f"network_{cfg.design}.json"
    write_envelope(path, envelope)
    print(f"trained {net.shape.describe()} in {net.summary.iterations} iterations "
          f"({net.summary.stop_reason})")
    for j, name in enumerate(RESPONSE_COLUMNS):
        print(f"{name}: test error {test_err[j]:.3f}%  all error {all_err[j]:.3f}%")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, surrogate_path: Optional[str]) -> int:
    if surrogate_path is not None:
        kind = "rsm_models" if cfg.source == "rsm" else "network"
        _, surrogate = _read_input(cfg, surrogate_path, (kind,))
    elif cfg.source == "ann":
        raise ConfigError("source ann requires --surrogate with a network envelope")
    else:
        surrogate = rsm.reference_models(cfg.design_tag)

    result = explorer.explore(cfg.design_tag, surrogate, cfg.ga_config(), cfg.threshold_n)

    out = _out_dir(cfg)
    stem = f"{cfg.design}_{cfg.source}"
    write_envelope(
        out / f"exploration_{stem}.json",
        make_envelope(cfg, "exploration", result.to_record()),
    )
    order = explorer.front_order(result.front_designs, result.front_objectives)
    front = np.column_stack([result.front_designs, result.front_objectives, result.front_buckling])
    dataset.write_rows(out / f"front_{stem}.csv", [FRONT_CSV_HEADER], front[order].tolist())
    dataset.write_rows(
        out / f"generations_{stem}.csv",
        ["generation,best_mass_g,best_stress_mpa,feasible_count,front_size"],
        ((g.generation, *g.best_objectives, g.feasible_count, g.front_size)
         for g in result.history),
    )

    print(f"front of {len(result.front_designs)} solutions "
          f"({cfg.source} surrogate, design {cfg.design}, seed {cfg.seed})")
    for label, index in (("minimal mass", result.minimal_mass_index),
                         ("minimal stress", result.minimal_stress_index),
                         ("optimum", result.optimum_index)):
        print(_named_row(label, *result.named_design(index)))
    print(f"wrote {out / f'exploration_{stem}.json'}, {out / f'front_{stem}.csv'}, "
          f"{out / f'generations_{stem}.csv'}")
    return EXIT_OK


def _format_cell(mean: Optional[float], std: Optional[float], divergences: int) -> str:
    if mean is None:
        cell = "diverged"
    elif std is None:
        cell = f"{mean:.2f}"
    else:
        cell = f"{mean:.2f} +/- {std:.2f}"
    if divergences:
        cell += f" ({divergences} div)"
    return cell


def _study_rows(cells: Sequence[StudyCell], labels: Sequence[str]) -> list[str]:
    """Column header, Test row and All row of one group of study cells."""
    rows = [
        ("", [f"n={label}" for label in labels]),
        ("Test", [_format_cell(c.test_mean, c.test_std, c.divergences) for c in cells]),
        ("All", [_format_cell(c.all_mean, c.all_std, c.divergences) for c in cells]),
    ]
    return [f"  {name:<4}" + "".join(f" {text:>20}" for text in texts) for name, texts in rows]


def format_study_table(report: StudyReport, trials: int) -> str:
    """Layers-by-neurons (or sizes) grid with Test and All rows per group."""
    lines = [f"{report.axis} study, {trials} trials per cell, mean percent error"]
    if report.axis == "network_size":
        groups: dict[int, list[StudyCell]] = {}
        for cell in report.cells:
            groups.setdefault(int(cell.key.split("x")[0]), []).append(cell)
        for n_layers, cells in sorted(groups.items()):
            lines.append(f"hidden layers: {n_layers}")
            lines += _study_rows(cells, [c.key.split("x")[1] for c in cells])
    else:
        lines += _study_rows(report.cells, [c.key.lstrip("n") for c in report.cells])
    return "\n".join(lines)


def cmd_study(cfg: RunConfig, data_path: str, which: str) -> int:
    data = dataset.read_csv(data_path, design_tag=cfg.design_tag)
    base = cfg.train_config()
    if which == "network_size":
        report = explorer.run_network_size_study(
            data, layer_counts=cfg.layer_counts, neuron_counts=cfg.neuron_counts,
            trials=cfg.trials, seed=cfg.seed, train_count=cfg.train_count,
            base_config=base, workers=cfg.resolved_workers,
        )
    else:  # train_size, the only other choice argparse admits
        report = explorer.run_training_size_study(
            data, sizes=cfg.train_sizes, trials=cfg.trials, seed=cfg.seed,
            hidden_layers=cfg.hidden_layers, base_config=base, workers=cfg.resolved_workers,
        )
    path = _out_dir(cfg) / f"study_{which}_{cfg.design}.json"
    write_envelope(path, make_envelope(cfg, "study", report.to_record()))
    print(format_study_table(report, cfg.trials))
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report plumbing


def _svg_front_overlay(
    series: Sequence[tuple[str, np.ndarray, dict[int, str]]],
) -> str:
    """Static stress-vs-mass rendering of one or more fronts.

    Each entry is (label, objectives in front order, {point index: marker
    name}).  Fixed canvas, fixed palette, fixed float formatting, so repeated
    runs produce identical bytes.
    """
    width, height, pad = 640.0, 480.0, 60.0
    all_pts = np.vstack([objs for _, objs, _ in series])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    lo = lo - 0.05 * span
    hi = hi + 0.05 * span

    def sx(v: float) -> float:
        return pad + (v - lo[0]) / (hi[0] - lo[0]) * (width - 2 * pad)

    def sy(v: float) -> float:
        return height - pad - (v - lo[1]) / (hi[1] - lo[1]) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{pad:.2f}" y1="{height - pad:.2f}" x2="{width - pad:.2f}" '
        f'y2="{height - pad:.2f}" stroke="black"/>',
        f'<line x1="{pad:.2f}" y1="{pad:.2f}" x2="{pad:.2f}" y2="{height - pad:.2f}" '
        f'stroke="black"/>',
    ]
    for k in range(5):
        fx = lo[0] + (hi[0] - lo[0]) * k / 4
        fy = lo[1] + (hi[1] - lo[1]) * k / 4
        x = sx(fx)
        y = sy(fy)
        parts.append(
            f'<text x="{x:.2f}" y="{height - pad + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{fx:.4g}</text>'
        )
        parts.append(
            f'<text x="{pad - 8:.2f}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">{fy:.4g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.2f}" y="{height - 16:.2f}" font-size="13" '
        f'text-anchor="middle">mass (g)</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.2f})">stress (MPa)</text>'
    )
    for idx, (label, objs, markers) in enumerate(series):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        coords = " ".join(f"{sx(m):.2f},{sy(s):.2f}" for m, s in objs)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1"/>'
        )
        for m, s in objs:
            parts.append(f'<circle cx="{sx(m):.2f}" cy="{sy(s):.2f}" r="2" fill="{color}"/>')
        for point_index, name in sorted(markers.items()):
            m, s = objs[point_index]
            parts.append(
                f'<circle cx="{sx(m):.2f}" cy="{sy(s):.2f}" r="5" fill="none" '
                f'stroke="black" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{sx(m) + 8:.2f}" y="{sy(s) - 6:.2f}" font-size="11">{name}</text>'
            )
        parts.append(
            f'<text x="{width - pad:.2f}" y="{pad + 16 * idx:.2f}" font-size="12" '
            f'text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_report(cfg: RunConfig, paths: Sequence[str], data_path: Optional[str]) -> int:
    inputs = [(path, *_read_input(cfg, path, ("exploration", "network"))) for path in paths]
    fronts = [value for _, kind, value in inputs if kind == "exploration"]
    networks = [(path, value) for path, kind, value in inputs if kind == "network"]
    if networks and data_path is None:
        raise ConfigError("network envelopes need --data with ground-truth rows")

    # every input is parsed and checked before the first file is written
    overlay_rows = []
    series = []
    for source, tag, designs, objectives, named in fronts:
        label = f"{source}_{tag}"
        marker_names = {index: name for name, index in named.items()}
        order = explorer.front_order(designs, objectives)
        sorted_markers = {}
        for rank, original in enumerate(order):
            marker = marker_names.get(int(original), "")
            if marker:
                sorted_markers[rank] = marker
            overlay_rows.append((label, *designs[original], *objectives[original], marker))
        series.append((label, objectives[order], sorted_markers))
    if networks:
        data = dataset.read_csv(data_path, design_tag=cfg.design_tag)
        # a non-finite value is reported below, so numpy need not warn
        with np.errstate(all="ignore"):
            predictions = np.stack([predict_batch(net, data.designs) for _, net in networks])
            pred_mean = predictions.mean(axis=0)
            pred_std = (predictions.std(axis=0, ddof=1) if len(networks) >= 2
                        else np.zeros_like(pred_mean))
        checks = [(path, pred) for (path, _), pred in zip(networks, predictions)]
        checks.append((", ".join(path for path, _ in networks), np.hstack([pred_mean, pred_std])))
        for label, values in checks:
            bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
            if bad.size:
                raise ValueError(f"{label}: non-finite prediction on data row {bad[0] + 1}")

    out = _out_dir(cfg)
    written = []
    if fronts:
        dataset.write_rows(out / "front_overlay.csv",
                           ["source,length_mm,width_mm,thickness_mm,mass_g,stress_mpa,marker"],
                           overlay_rows)
        (out / "front_overlay.svg").write_text(_svg_front_overlay(series))
        written += [out / "front_overlay.csv", out / "front_overlay.svg"]
    if networks:
        dataset.write_rows(out / "prediction_scatter.csv",
                           ["response,truth,prediction_mean,prediction_std"],
                           ((name, data.responses[i, j], pred_mean[i, j], pred_std[i, j])
                            for j, name in enumerate(RESPONSE_COLUMNS)
                            for i in range(len(data))))
        written.append(out / "prediction_scatter.csv")
    print("wrote " + ", ".join(str(p) for p in written))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (flags override it)")
    common.add_argument("--design", choices=("A", "B"), help="disc design variant")
    common.add_argument("--source", choices=("rsm", "ann"), help="surrogate family")
    common.add_argument("--seed", type=int, help="master random seed")
    common.add_argument("--pop", type=int, dest="population", help="GA population size")
    common.add_argument("--gens", type=int, dest="generations", help="GA generations")
    common.add_argument("--out", help="output directory")
    common.add_argument("--workers", type=int,
                        help="parallel trial workers (0 = the cores this process may use)")
    common.add_argument("--noise", type=float, help="relative response noise for gen-data")

    parser = argparse.ArgumentParser(
        prog="discflex",
        description="Surrogate-driven design exploration for flexible disc elements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-data", parents=[common], help="synthesize a design-response CSV")
    p_fit = sub.add_parser("fit-rsm", parents=[common], help="fit polynomial response models")
    p_fit.add_argument("--data", required=True, help="input dataset CSV")
    p_train = sub.add_parser("train-ann", parents=[common], help="train a network surrogate")
    p_train.add_argument("--data", required=True, help="input dataset CSV")
    p_opt = sub.add_parser("optimize", parents=[common], help="run the constrained GA")
    p_opt.add_argument("--surrogate", help="surrogate envelope (required for --source ann)")
    p_study = sub.add_parser("study", parents=[common], help="run a parametric study")
    p_study.add_argument("which", choices=("network_size", "train_size"))
    p_study.add_argument("--data", required=True, help="input dataset CSV")
    p_report = sub.add_parser("report", parents=[common], help="emit plot data and SVG")
    p_report.add_argument("envelopes", nargs="+", help="result envelopes to render")
    p_report.add_argument("--data", help="dataset CSV for prediction scatter")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # flag destinations are named after the RunConfig fields they set
        flag_values = {name: value for name, value in vars(args).items() if name in _FIELD_TYPES}
        cfg = resolve_config(config_path=args.config, flag_values=flag_values)
        _timestamp()  # a bad SOURCE_DATE_EPOCH fails here, before any work
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "fit-rsm":
            return cmd_fit_rsm(cfg, args.data)
        if args.command == "train-ann":
            return cmd_train_ann(cfg, args.data)
        if args.command == "optimize":
            return cmd_optimize(cfg, args.surrogate)
        if args.command == "study":
            return cmd_study(cfg, args.data, args.which)
        return cmd_report(cfg, args.envelopes, args.data)  # argparse admits no other command
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, EvaluationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except EmptyFrontError as exc:
        print(f"empty feasible set: {exc}", file=sys.stderr)
        return EXIT_EMPTY_FRONT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
