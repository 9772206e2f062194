"""The benchmark under perfbench/ looks up discflex names from outside the package.

Its tracer skips a lookup site that no longer exists and reports the metrics
it fed as unmeasured, and its GA check reads fitted models through two CLI
functions.  A refactor that renames or removes one of these names fails
here instead of quietly in a benchmark record.  The benchmark files are
imported read-only: no bytecode is written next to them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from discflex import rsm
from discflex.cli import (
    RunConfig,
    load_envelope,
    make_envelope,
    models_from_payload,
    models_payload,
    write_envelope,
)
from discflex.dataset import RESPONSE_COLUMNS, DesignTag

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench_run():
    saved_flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved_flag
        # the benchmark imports its sibling modules under these bare names
        for name in ("checks", "tracer"):
            sys.modules.pop(name, None)
    return module


def test_every_traced_site_resolves(bench_run):
    with bench_run.Tracer(bench_run.SITES) as tracer:
        assert tracer.missing == []


def test_ga_check_reads_fitted_models_through_the_cli(tmp_path):
    models = rsm.reference_models(DesignTag.B)
    path = tmp_path / "rsm_models_B.json"
    payload = models_payload(DesignTag.B, models)
    write_envelope(path, make_envelope(RunConfig(design="B"), "rsm_models", payload))
    # the benchmark calls both with one positional argument
    tag, back = models_from_payload(load_envelope(path)["payload"])
    assert tag is DesignTag.B
    assert list(back) == list(RESPONSE_COLUMNS)
    for name in RESPONSE_COLUMNS:
        assert back[name] == models[name]
