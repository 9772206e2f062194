"""The CLI digest matrix in tools/ reruns to the same bytes in any directory.

That script is how a refactor shows byte identity with its parent, so its
own output must not depend on the work directory or on ``DISCFLEX_*``
variables.  Rerunning it also covers what check 9 does not reach: the ann
optimize, the generations CSVs and the report files.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digests(workdir: Path, **env_extra: str) -> list[str]:
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, **env_extra)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py"), "--workdir", str(workdir)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout.splitlines()


def test_digests_repeat_across_directories(tmp_path):
    first = _digests(tmp_path / "one")
    second = _digests(tmp_path / "two", DISCFLEX_SEED="7")
    assert first == second
    paths = {line.split("  ", 1)[1] for line in first}
    for path in ("out/A/ann/exploration_A_ann.json", "out/B/fitted/generations_B_rsm.csv",
                 "out/A/report/front_overlay.svg", "out/B/report/prediction_scatter.csv",
                 "out/B/study_train_size_B.json", "streams/optimize-A-ann.stdout"):
        assert path in paths
