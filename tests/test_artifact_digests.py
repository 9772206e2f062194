"""The CLI digest matrix in tools/ reruns to the same bytes in any directory.

That script is how a refactor shows byte identity with its parent, so its
own output must not depend on the work directory.  The CLI reads no
``DISCFLEX_*`` variable, so setting one changes no byte either.  It takes
one BLAS thread unless a thread variable says otherwise, so the second run,
which sets ``OPENBLAS_NUM_THREADS=1``, matches the first, which sets none.
Rerunning it also covers what check 9 does not reach: the ann optimize, the
generations CSVs and the report files.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _digests(workdir: Path, **env_extra: str) -> list[str]:
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # built without the BLAS thread variables, so that a child sees one only
    # when it is passed; this process holds OPENBLAS_NUM_THREADS once it has
    # imported discflex.cli
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(PYTHONPATH=pythonpath, **env_extra)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py"), "--workdir", str(workdir)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout.splitlines()


def test_digests_repeat_across_directories(tmp_path):
    first = _digests(tmp_path / "one")
    second = _digests(tmp_path / "two", DISCFLEX_SEED="7", OPENBLAS_NUM_THREADS="1")
    assert first == second
    paths = {line.split("  ", 1)[1] for line in first}
    for path in ("out/A/ann/exploration_A_ann.json", "out/B/fitted/generations_B_rsm.csv",
                 "out/A/report/front_overlay.svg", "out/B/report/prediction_scatter.csv",
                 "out/B/study_train_size_B.json", "streams/optimize-A-ann.stdout"):
        assert path in paths

