"""The benchmark's answer checks, run on every request of its four workloads.

perfbench/checks.py re-derives each subcommand's answer from perfbench/lie.py
and imports nothing from relbgg.  Here every request that perfbench/workloads.py
generates at seed 1 (380 sweep, 922 bgg-chain, 100 audit and 50 cli-cold
requests, up to rank 24) runs through ``relbgg.cli.main`` in process and must
be judged right.  This is stricter than the benchmark, which forgives a
malformed support file that escapes ``main``: here an escaped exception fails
the test.  Both perfbench modules are only imported, never changed.
"""

import contextlib
import io
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import workloads  # noqa: E402

from relbgg.cli import main  # noqa: E402

COUNTS = {"sweep": 380, "bgg-chain": 922, "audit": 100, "cli-cold": 50}


@pytest.mark.parametrize("name", COUNTS)
def test_every_workload_request_is_judged_right(name, tmp_path):
    requests = workloads.generate(name, 1, str(tmp_path))
    assert len(requests) == COUNTS[name]
    wrong = []
    for argv, spec in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(list(argv))
            except SystemExit as exc:
                rc = exc.code or 0
        verdict = checks.judge(spec, rc, out.getvalue(), err.getvalue())
        if verdict is not None:
            wrong.append((argv, verdict))
    assert wrong == [], f"{len(wrong)} of {len(requests)} wrong, first: {wrong[0]}"
