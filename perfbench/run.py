#!/usr/bin/env python3
"""Benchmark of the discflex command-line pipeline.

    python3 perfbench/run.py --workload ga-paper --seed 0 --seconds 20 --trace 0

Runs one workload in-process through ``discflex.cli.main``, importing the
package from the ``src/`` tree next to this directory, checks every output
and prints one JSON result as the last line of standard output.  With
``--trace 1`` it reports per-layer metrics from spans recorded around the
public functions of each module instead.  perfbench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from checks import HV_REFERENCE, hypervolume_2d, oracle_gap_check, study_check
from tracer import Site, Tracer, has_ancestor, nrows, self_times, span_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Pins the envelope timestamp so artifacts of one seed are byte-identical.
PINNED_EPOCH = "1700000000"
SETUP_REPEATS = 5
# Set-up is timed in CPU seconds, which leave out the time the process waits
# for a core while other tenants of a shared host load it.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
    "import discflex.cli; print(time.process_time() - t)"
)


# ---------------------------------------------------------------------------
# workloads


class GaWorkload:
    """gen-data and fit-rsm per design (set-up), then optimize per design (timed)."""

    def __init__(self, name: str, population: int, generations: int, designs=("A", "B")):
        self.name = name
        self.population = population
        self.generations = generations
        self.designs = designs

    def describe(self) -> dict:
        return {"population": self.population, "generations": self.generations}

    def prepare(self, out: Path) -> None:
        pass

    def setup_steps(self, seed: int, out: Path) -> list[list[str]]:
        steps = []
        for d in self.designs:
            steps.append(["gen-data", "--design", d, "--seed", str(seed), "--out", str(out)])
            steps.append(["fit-rsm", "--design", d, "--data", str(out / f"dataset_{d}.csv"),
                          "--out", str(out)])
        return steps

    def timed_steps(self, seed: int, out: Path) -> list[list[str]]:
        return [
            ["optimize", "--design", d, "--source", "rsm",
             "--surrogate", str(out / f"rsm_models_{d}.json"),
             "--pop", str(self.population), "--gens", str(self.generations),
             "--seed", str(seed), "--out", str(out)]
            for d in self.designs
        ]

    def work_per_rep(self) -> int:
        """Surrogate design evaluations made by the timed commands."""
        return self.population * (self.generations + 1) * len(self.designs)

    def digest(self, out: Path) -> str:
        h = hashlib.sha256()
        for d in self.designs:
            path = out / f"front_{d}_rsm.csv"
            h.update(path.read_bytes() if path.exists() else b"missing")
        return h.hexdigest()

    def check(self, disc, out: Path) -> tuple[list[bool], dict, list[str]]:
        """Per timed step: front against the lattice oracle of the fitted models."""
        oks, lines, ratios = [], [], []
        for d in self.designs:
            try:
                envelope = disc.cli.load_envelope(out / f"rsm_models_{d}.json")
                tag, models = disc.cli.models_from_payload(envelope["payload"])
                oracle = disc.explorer.grid_pareto_oracle(tag, models=models).objectives
                front = np.loadtxt(out / f"front_{d}_rsm.csv", delimiter=",", skiprows=1,
                                   ndmin=2)[:, 3:5]
            except (OSError, ValueError, KeyError) as exc:
                oks.append(False)
                lines.append(f"design {d}: FAIL - {exc!r}")
                continue
            ok, detail = oracle_gap_check(front, oracle)
            ref = HV_REFERENCE[d]
            ratios.append(hypervolume_2d(front, ref) / hypervolume_2d(oracle, ref))
            oks.append(ok)
            lines.append(
                f"design {d}: {'PASS' if ok else 'FAIL'} - extreme gaps mass "
                f"{detail.get('mass_gap', float('nan')):.3%}, stress "
                f"{detail.get('stress_gap', float('nan')):.3%} (limit 2%), "
                f"{detail.get('beaten', '?')}/{detail['front_points']} points beaten by >1% "
                f"in both objectives; hypervolume ratio {ratios[-1]:.5f}"
            )
        hv = statistics.fmean(ratios) if ratios else 0.0
        return oks, {"front_hv_ratio": hv}, lines

    def own_metrics(self, wall_s: float, quality: dict) -> dict:
        return {
            "evals_per_s": (self.work_per_rep() / wall_s, "1/s"),
            "front_hv_ratio": (quality["front_hv_ratio"], "ratio"),
        }


class StudyWorkload:
    """gen-data (set-up), then one single-worker network-size study (timed)."""

    design = "A"
    layer_counts = (1, 2)
    neuron_counts = (10, 20)
    train_count = 100

    def __init__(self, name: str, trials: int):
        self.name = name
        self.trials = trials

    @property
    def cells(self) -> list[str]:
        return [f"{n}x{w}" for n in self.layer_counts for w in self.neuron_counts]

    def describe(self) -> dict:
        """The study settings, written to the config file the study reads."""
        return {
            "layer_counts": list(self.layer_counts),
            "neuron_counts": list(self.neuron_counts),
            "trials": self.trials,
            "train_count": self.train_count,
        }

    def prepare(self, out: Path) -> None:
        (out / "study_config.json").write_text(json.dumps(self.describe()))

    def setup_steps(self, seed: int, out: Path) -> list[list[str]]:
        return [["gen-data", "--design", self.design, "--seed", str(seed), "--out", str(out)]]

    def timed_steps(self, seed: int, out: Path) -> list[list[str]]:
        return [["study", "network_size", "--config", str(out / "study_config.json"),
                 "--data", str(out / f"dataset_{self.design}.csv"), "--workers", "1",
                 "--design", self.design, "--seed", str(seed), "--out", str(out)]]

    def work_per_rep(self) -> int:
        """Networks trained by the timed command."""
        return len(self.cells) * self.trials

    def _payload(self, out: Path) -> dict:
        return json.loads((out / f"study_network_size_{self.design}.json").read_text())["payload"]

    def digest(self, out: Path) -> str:
        try:
            text = json.dumps(self._payload(out), sort_keys=True)
        except (OSError, ValueError, KeyError):
            text = "missing"
        return hashlib.sha256(text.encode()).hexdigest()

    def check(self, disc, out: Path) -> tuple[list[bool], dict, list[str]]:
        try:
            payload = self._payload(out)
        except (OSError, ValueError, KeyError) as exc:
            return [False], {"test_err_pct": 0.0}, [f"study: FAIL - {exc!r}"]
        ok, detail = study_check(payload, self.trials, self.cells)
        means = [c["test_mean"] for c in payload["cells"] if c["test_mean"] is not None]
        err = statistics.fmean(means) if means else 0.0
        cells = ", ".join(
            f"{c['key']} {c['test_mean']:.2f}%" if c["test_mean"] is not None else f"{c['key']} -"
            for c in payload["cells"]
        )
        line = (f"study: {'PASS' if ok else 'FAIL'} - test error {cells} (limit 5%), "
                f"{self.trials} trials per cell, no divergence required")
        if detail["problems"]:
            line += "; " + "; ".join(detail["problems"])
        return [ok], {"test_err_pct": err}, [line]

    def own_metrics(self, wall_s: float, quality: dict) -> dict:
        return {
            "fits_per_s": (self.work_per_rep() / wall_s, "1/s"),
            "test_err_pct": (quality["test_err_pct"], "%"),
        }


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "ga-paper": GaWorkload("ga-paper", population=500, generations=100),
    "ga-quick": GaWorkload("ga-quick", population=150, generations=300),
    "train-study": StudyWorkload("train-study", trials=3),
}


# ---------------------------------------------------------------------------
# tracing sites and per-layer metrics


def _rows_of(position: int, key: str):
    def count(counts, args, result):
        if len(args) > position:
            counts[key] += nrows(args[position])
    return count


def _train_summary(counts, args, result):
    summary = getattr(result, "summary", None)
    if summary is None:
        return
    no_step = summary.stop_reason == "no_improving_step"
    counts["ann.train.iterations"] += summary.iterations
    counts["ann.train.converged"] += summary.stop_reason == "converged"
    counts["ann.train.accepted_steps"] += summary.iterations - no_step


def _study_trials(counts, args, result):
    for cell in getattr(result, "cells", ()):
        counts["explorer.trials"] += cell.trials + cell.divergences
        counts["explorer.trials_diverged"] += cell.divergences


def _envelope_bytes(counts, args, result):
    if args:
        counts["cli.write_envelope.bytes"] += Path(args[0]).stat().st_size


SITES = [
    Site("discflex.cli", "cmd_gen_data", "cli.gen-data"),
    Site("discflex.cli", "cmd_fit_rsm", "cli.fit-rsm"),
    Site("discflex.cli", "cmd_optimize", "cli.optimize"),
    Site("discflex.cli", "cmd_study", "cli.study"),
    Site("discflex.cli", "write_envelope", "cli.write_envelope", _envelope_bytes),
    Site("discflex.cli", "train", "ann.train", _train_summary),
    Site("discflex.cli", "predict_batch", "ann.predict_batch", _rows_of(1, "ann.predict_batch.rows")),
    Site("discflex.explorer", "run_network_size_study", "explorer.run_network_size_study",
         _study_trials),
    Site("discflex.explorer", "grid_pareto_oracle", "explorer.grid_pareto_oracle"),
    Site("discflex.explorer", "train", "ann.train", _train_summary),
    Site("discflex.explorer", "predict_batch", "ann.predict_batch",
         _rows_of(1, "ann.predict_batch.rows")),
    Site("discflex.explorer", "split", "dataset.split"),
    Site("discflex.nsga2", "optimize", "nsga2.optimize"),
    Site("discflex.nsga2", "fast_nondominated_sort", "nsga2.fast_nondominated_sort"),
    Site("discflex.nsga2", "crowding_distance", "nsga2.crowding_distance"),
    Site("discflex.nsga2", "tournament_select", "nsga2.tournament_select"),
    Site("discflex.nsga2", "variation", "nsga2.variation"),
    Site("discflex.nsga2", "evaluate_population", "nsga2.evaluate_population",
         _rows_of(1, "nsga2.evaluate_population.rows")),
    Site("discflex.rsm", "evaluate_batch", "rsm.evaluate_batch",
         _rows_of(1, "rsm.evaluate_batch.rows")),
    Site("discflex.rsm", "fit", "rsm.fit"),
    Site("discflex.ann", "forward", "ann.forward"),
    Site("discflex.ann", "predict_batch", "ann.predict_batch", _rows_of(1, "ann.predict_batch.rows")),
    Site("discflex.dataset", "split", "dataset.split"),
    Site("discflex.dataset", "read_csv", "dataset.read_csv"),
    Site("discflex.dataset", "write_csv", "dataset.write_csv"),
]

# (metric, unit, spans it needs); a metric whose spans were never installed
# is reported as unmeasured, value -1.
PER_LAYER = [
    ("nsga2.optimize.s", "s", ("nsga2.optimize",)),
    ("nsga2.self.s", "s", ("nsga2.optimize",)),
    ("nsga2.sort_share", "ratio", ("nsga2.optimize", "nsga2.fast_nondominated_sort")),
    ("nsga2.fast_nondominated_sort.s", "s", ("nsga2.fast_nondominated_sort",)),
    ("nsga2.fast_nondominated_sort.calls", "count", ("nsga2.fast_nondominated_sort",)),
    ("nsga2.crowding_distance.s", "s", ("nsga2.crowding_distance",)),
    ("nsga2.crowding_distance.calls", "count", ("nsga2.crowding_distance",)),
    ("nsga2.tournament_select.s", "s", ("nsga2.tournament_select",)),
    ("nsga2.tournament_select.calls", "count", ("nsga2.tournament_select",)),
    ("nsga2.variation.s", "s", ("nsga2.variation",)),
    ("nsga2.evaluate_population.s", "s", ("nsga2.evaluate_population",)),
    ("nsga2.evaluate_population.rows", "count", ("nsga2.evaluate_population",)),
    ("rsm.evaluate_batch.s", "s", ("rsm.evaluate_batch",)),
    ("rsm.evaluate_batch.calls", "count", ("rsm.evaluate_batch",)),
    ("rsm.evaluate_batch.rows", "count", ("rsm.evaluate_batch",)),
    ("rsm.fit.s", "s", ("rsm.fit",)),
    ("ann.train.s", "s", ("ann.train",)),
    ("ann.train.calls", "count", ("ann.train",)),
    ("ann.train.iterations", "count", ("ann.train",)),
    ("ann.train.converged_ratio", "ratio", ("ann.train",)),
    ("ann.forward.calls", "count", ("ann.train", "ann.forward")),
    ("ann.step_accept_ratio", "ratio", ("ann.train", "ann.forward")),
    ("ann.predict_batch.s", "s", ("ann.predict_batch",)),
    ("ann.predict_batch.rows", "count", ("ann.predict_batch",)),
    ("explorer.run_network_size_study.s", "s", ("explorer.run_network_size_study",)),
    ("explorer.trials", "count", ("explorer.run_network_size_study",)),
    ("explorer.trials_diverged", "count", ("explorer.run_network_size_study",)),
    ("explorer.grid_pareto_oracle.s", "s", ("explorer.grid_pareto_oracle",)),
    ("dataset.split.s", "s", ("dataset.split",)),
    ("dataset.split.calls", "count", ("dataset.split",)),
    ("dataset.read_csv.s", "s", ("dataset.read_csv",)),
    ("dataset.write_csv.s", "s", ("dataset.write_csv",)),
    ("cli.gen-data.s", "s", ("cli.gen-data",)),
    ("cli.fit-rsm.s", "s", ("cli.fit-rsm",)),
    ("cli.optimize.s", "s", ("cli.optimize",)),
    ("cli.study.s", "s", ("cli.study",)),
    ("cli.write_envelope.s", "s", ("cli.write_envelope",)),
    ("cli.write_envelope.bytes", "bytes", ("cli.write_envelope",)),
    ("cli.self.s", "s", ()),
    ("check.front_hv_ratio", "ratio", ()),
    ("check.test_err_pct", "%", ()),
    ("trace.overhead_s", "s", ()),
    ("trace.spans", "count", ()),
    ("trace.hidden_trials", "count", ("explorer.run_network_size_study", "ann.train")),
    ("trace.unmeasured_sites", "count", ()),
]


def layer_values(tracer: Tracer, quality: dict) -> dict[str, float]:
    """Per-layer values of one traced pass, all but trace.overhead_s."""
    spans = tracer.spans
    totals = span_totals(spans)
    selfs = self_times(spans)
    counts = tracer.counts

    def secs(name):
        return totals.get(name, (0.0, 0))[0]

    def calls(name):
        return totals.get(name, (0.0, 0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    forward_in_train = sum(
        1 for i, s in enumerate(spans) if s[0] == "ann.forward" and has_ancestor(spans, i, "ann.train")
    )
    train_in_study = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "ann.train" and has_ancestor(spans, i, "explorer.run_network_size_study")
    )
    v = {
        "nsga2.self.s": sum(t for t, s in zip(selfs, spans) if s[0] == "nsga2.optimize"),
        "nsga2.sort_share": ratio(secs("nsga2.fast_nondominated_sort"), secs("nsga2.optimize")),
        "nsga2.evaluate_population.rows": counts["nsga2.evaluate_population.rows"],
        "rsm.evaluate_batch.rows": counts["rsm.evaluate_batch.rows"],
        "ann.train.iterations": counts["ann.train.iterations"],
        "ann.train.converged_ratio": ratio(counts["ann.train.converged"], calls("ann.train")),
        "ann.forward.calls": forward_in_train,
        "ann.step_accept_ratio": ratio(counts["ann.train.accepted_steps"], forward_in_train),
        "ann.predict_batch.rows": counts["ann.predict_batch.rows"],
        "explorer.trials": counts["explorer.trials"],
        "explorer.trials_diverged": counts["explorer.trials_diverged"],
        "cli.write_envelope.bytes": counts["cli.write_envelope.bytes"],
        "cli.self.s": sum(t for t, s in zip(selfs, spans) if s[0].startswith("cli.")),
        "check.front_hv_ratio": quality.get("front_hv_ratio", 0.0),
        "check.test_err_pct": quality.get("test_err_pct", 0.0),
        "trace.spans": len(spans),
        "trace.hidden_trials": max(0.0, counts["explorer.trials"] - train_in_study),
        "trace.unmeasured_sites": len(tracer.missing),
    }
    for name, _, _ in PER_LAYER:
        if name in v:
            continue
        span, _, kind = name.rpartition(".")
        if kind == "s":
            v[name] = secs(span)
        elif kind == "calls":
            v[name] = calls(span)
    for name, _, needs in PER_LAYER:
        if not all(tracer.measured(span) for span in needs):
            v[name] = -1.0
    return v


# ---------------------------------------------------------------------------
# environment


def _blas_record() -> dict:
    record: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["name"] = blas.get("name")
        record["version"] = blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    # numpy and scipy each load their own OpenBLAS; report the threads of both.
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            fn = getattr(lib, f"{prefix}_get_num_threads64_", None) or getattr(
                lib, f"{prefix}_get_num_threads", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record[f"threads[{Path(path).parent.name}]"] = fn()
                break
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            record[var] = os.environ[var]
    return record


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or "unknown"


def env_record() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_record(),
        "git_sha": git_sha(),
        "src_digest": src_digest(),
    }


# ---------------------------------------------------------------------------
# running


def import_discflex():
    """Import discflex from this checkout's src/ tree, or exit 2 without a result."""
    if not (SRC / "discflex" / "__init__.py").is_file():
        print(f"perfbench: no discflex sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import discflex.cli
    elapsed = perf_counter() - start
    if Path(discflex.__file__).resolve().parent != SRC / "discflex":
        print(f"perfbench: imported discflex from {discflex.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return discflex, elapsed


class Bench:
    """One benchmark run: operations, reps, checks and determinism echo."""

    def __init__(self, disc, workload, seed: int, out: Path):
        self.disc = disc
        self.wl = workload
        self.seed = seed
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.digests: list[str] = []
        self.rep_cpu: list[float] = []
        self.step_ok = [0] * len(workload.timed_steps(seed, out))
        self.tracer: Tracer | None = None
        workload.prepare(out)

    def call(self, argv: list[str]) -> tuple[float, int]:
        """One CLI operation through discflex.cli.main; returns wall time and exit code."""
        span = self.tracer.span("cli.main") if self.tracer else contextlib.nullcontext()
        start = perf_counter()
        with span, contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = self.disc.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error ends a real CLI process with code 1
                traceback.print_exc()
                rc = 1
        elapsed = perf_counter() - start
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.notes.append(f"{argv[0]} exited with code {rc}")
        return elapsed, rc

    def setup(self) -> float:
        """The set-up commands once; returns the CPU seconds they took."""
        start = process_time()
        for argv in self.wl.setup_steps(self.seed, self.out):
            self.call(argv)
        return process_time() - start

    def import_probe(self) -> float:
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed: {done.stderr.strip()}")
        return float(done.stdout.strip())

    def rep(self) -> float:
        """The timed commands once; returns their summed wall time."""
        wall = 0.0
        cpu = process_time()
        for i, argv in enumerate(self.wl.timed_steps(self.seed, self.out)):
            elapsed, rc = self.call(argv)
            wall += elapsed
            self.step_ok[i] += rc == 0
        self.rep_cpu.append(process_time() - cpu)
        digest = self.wl.digest(self.out)
        if self.digests and digest != self.digests[0]:
            self.failed += 1
            self.notes.append("outputs differ between two runs of one seed")
        self.digests.append(digest)
        return wall

    def check(self) -> tuple[dict, list[str]]:
        """Check the outputs; a failed check fails every successful call of its step."""
        oks, quality, lines = self.wl.check(self.disc, self.out)
        for ok, n_ok in zip(oks, self.step_ok):
            if not ok:
                self.failed += n_ok
        self.step_ok = [0] * len(self.step_ok)
        return quality, lines

    def echo_across_runs(self) -> None:
        """Compare this run's digest with earlier runs of the same seed and sources."""
        store = WORK / "digests.json"
        steps = json.dumps(self.wl.timed_steps(self.seed, Path("OUT")) + [self.wl.describe()])
        key = (f"{self.wl.name}|seed={self.seed}|src={src_digest()}"
               f"|steps={hashlib.sha256(steps.encode()).hexdigest()[:16]}")
        known = json.loads(store.read_text()) if store.exists() else {}
        if key in known and known[key] != self.digests[0]:
            self.failed += 1
            self.notes.append("outputs differ from an earlier run of this seed")
        known[key] = self.digests[0]
        store.write_text(json.dumps(known, indent=1, sort_keys=True))


def _fill(seconds: float, step) -> list[float]:
    """Repeat ``step`` until another repetition would exceed ``seconds``, at least once."""
    start = perf_counter()
    values = [step()]
    while perf_counter() - start + statistics.fmean(values) <= seconds:
        values.append(step())
    return values


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, list[str], dict]:
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    imports = [bench.import_probe() for _ in range(SETUP_REPEATS)]
    walls = _fill(seconds, bench.rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality, lines = bench.check()
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "work_per_s": (bench.wl.work_per_rep() / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "reps": walls,
        "rep_cpu_s": bench.rep_cpu,
        "setup_cli_s": setups,
        "import_s": imports,
        "own_metrics": bench.wl.own_metrics(wall_s, quality),
    }
    return metrics, lines, extra


def run_traced(bench: Bench, seconds: float) -> tuple[dict, list[str], dict]:
    bench.setup()
    untraced = _fill(seconds / 2, bench.rep)
    bench.check()
    passes = []  # (tracer, layer values, check lines) per traced pass

    def one_pass() -> float:
        tracer = Tracer(SITES)
        bench.tracer = tracer
        try:
            with tracer:
                bench.setup()
                wall = bench.rep()
                quality, lines = bench.check()
        finally:
            bench.tracer = None
        passes.append((tracer, layer_values(tracer, quality), lines))
        return wall

    traced = _fill(seconds / 2, one_pass)
    values = {name: statistics.median(p[1][name] for p in passes) for name in passes[0][1]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    tracer, _, lines = passes[-1]
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_dir / f"{bench.wl.name}-seed{bench.seed}.jsonl")
    if tracer.missing:
        lines.append("unmeasured lookup sites: " + ", ".join(tracer.missing))
    if metrics["trace.hidden_trials"][0] > 0:
        lines.append(f"{metrics['trace.hidden_trials'][0]:.0f} study trials ran outside the "
                     "traced ann.train sites, in a process pool or through a renamed function")
    extra = {"untraced_walls": untraced, "traced_walls": traced}
    return metrics, lines, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    disc, import_s = import_discflex()
    os.environ["SOURCE_DATE_EPOCH"] = PINNED_EPOCH
    workload = WORKLOADS[args.workload]
    out = WORK / "runs" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        bench = Bench(disc, workload, args.seed, out)
        runner = run_traced if args.trace else run_untraced
        metrics, lines, extra = runner(bench, args.seconds)
        bench.echo_across_runs()
    finally:
        shutil.rmtree(out, ignore_errors=True)

    env = env_record()
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "first_import_s": import_s,
        "checks": lines, "notes": bench.notes, "digest": bench.digests[0],
        "metrics": metrics, **extra,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=list)
    )

    print("env " + json.dumps(env, sort_keys=True))
    for line in lines + bench.notes:
        print("check " + line)
    print(f"digest {bench.digests[0]} (repetitions of seed {args.seed}: {len(bench.digests)}, "
          f"all equal: {len(set(bench.digests)) == 1})")
    shown = dict(metrics)
    shown.update(extra.get("own_metrics", {}))
    for name, (value, unit) in shown.items():
        print(f"metric {name} = {value:.6g} {unit}")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
