"""Print a SHA-256 digest of every artifact and captured output of a small CLI matrix.

Runs, for designs A and B, gen-data, fit-rsm, train-ann, optimize (shipped
rsm, fitted rsm and ann), both studies and report, in-process through
``discflex.cli.main``.  The runs use small sizes from a config file, a
pinned ``SOURCE_DATE_EPOCH`` and relative ``--out`` paths inside one work
directory, so the output depends only on the code under test.  Each line is
``<sha256>  <path>``: artifacts by their path in the work directory,
captured streams as ``streams/<run>.stdout|stderr``.

Two checkouts produce the same bytes exactly when their outputs diff empty.
The package is imported from ``PYTHONPATH``, so this script can check a
checkout that does not have it::

    PYTHONPATH=src python tools/artifact_digests.py > after.txt
    PYTHONPATH=../other/src python tools/artifact_digests.py > before.txt
    diff before.txt after.txt

Pass ``--workdir DIR`` to keep the artifacts, for ``diff -r``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

PINNED_EPOCH = "1700000000"

# small enough to run in seconds, large enough to reach every code path:
# train-ann and the train-size study fit P = 243 parameters to N <= 180
# targets (the low-rank Gauss-Newton branch), the network-size study P < N
MATRIX_CONFIG = {
    "population": 60,
    "generations": 20,
    "hidden_layers": [12, 12],
    "train_count": 60,
    "max_iterations": 10,
    "trials": 2,
    "layer_counts": [1],
    "neuron_counts": [3, 5],
    "train_sizes": [40, 60],
    "workers": 1,
}


def matrix(design: str) -> list[tuple[str, list[str]]]:
    """Named argument lists of one design's runs, in dependency order."""
    out = f"out/{design}"
    data = f"{out}/dataset_{design}.csv"
    common = ["--config", "matrix.json", "--design", design]
    return [
        (f"gen-data-{design}", ["gen-data", *common, "--out", out]),
        (f"fit-rsm-{design}", ["fit-rsm", *common, "--data", data, "--out", out]),
        (f"train-ann-{design}", ["train-ann", *common, "--data", data, "--out", out]),
        (f"optimize-{design}-shipped-rsm",
         ["optimize", *common, "--source", "rsm", "--out", f"{out}/shipped"]),
        (f"optimize-{design}-fitted-rsm",
         ["optimize", *common, "--source", "rsm", "--surrogate", f"{out}/rsm_models_{design}.json",
          "--out", f"{out}/fitted"]),
        (f"optimize-{design}-ann",
         ["optimize", *common, "--source", "ann", "--surrogate", f"{out}/network_{design}.json",
          "--out", f"{out}/ann"]),
        (f"study-{design}-network-size",
         ["study", "network_size", *common, "--data", data, "--out", out]),
        (f"study-{design}-train-size",
         ["study", "train_size", *common, "--data", data, "--out", out]),
        (f"report-{design}",
         ["report", *common, f"{out}/shipped/exploration_{design}_rsm.json",
          f"{out}/fitted/exploration_{design}_rsm.json", f"{out}/ann/exploration_{design}_ann.json",
          f"{out}/network_{design}.json", "--data", data, "--out", f"{out}/report"]),
    ]


def run_matrix(workdir: Path) -> list[str]:
    """Run every design's matrix inside ``workdir``; return the digest lines."""
    from discflex.cli import main

    (workdir / "matrix.json").write_text(json.dumps(MATRIX_CONFIG))
    lines = []
    for name, argv in matrix("A") + matrix("B"):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{name} exited {code}: {stderr.getvalue().strip()}")
        for stream, text in (("stdout", stdout), ("stderr", stderr)):
            digest = hashlib.sha256(text.getvalue().encode()).hexdigest()
            lines.append(f"{digest}  streams/{name}.{stream}")
    for path in sorted(p for p in (workdir / "out").rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(workdir).as_posix()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="keep the artifacts here (default: a temporary directory)")
    args = parser.parse_args(argv)

    os.environ["SOURCE_DATE_EPOCH"] = PINNED_EPOCH
    with contextlib.ExitStack() as stack:
        if args.workdir is None:
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            workdir = Path(args.workdir).resolve()
            workdir.mkdir(parents=True, exist_ok=True)
        previous = os.getcwd()
        os.chdir(workdir)
        stack.callback(os.chdir, previous)
        lines = run_matrix(workdir)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
