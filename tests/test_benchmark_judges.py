"""The benchmark's answer checks, run on every request of its four workloads.

perfbench/checks.py re-derives each subcommand's answer from perfbench/lie.py
and imports nothing from relbgg.  Here every request that perfbench/workloads.py
generates at seed 1 (380 sweep, 922 bgg-chain, 100 audit and 50 cli-cold
requests, up to rank 24), and requests drawn up to rank 32, run through
``relbgg.cli.run`` in process and must be judged right.  This is stricter
than the benchmark, which forgives a malformed support file that escapes
``run``: here an escaped exception fails the test.  Both perfbench modules
are only imported, never changed.
"""

import functools
import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import workloads  # noqa: E402

from relbgg.cli import run  # noqa: E402

COUNTS = {"sweep": 380, "bgg-chain": 922, "audit": 100, "cli-cold": 50}


@pytest.mark.parametrize("name", COUNTS)
def test_every_workload_request_is_judged_right(name, tmp_path):
    requests = workloads.generate(name, 1, str(tmp_path))
    assert len(requests) == COUNTS[name]
    wrong = [(argv, verdict) for argv, spec in requests if (verdict := checks.judge(spec, *run(list(argv))))]
    assert wrong == [], f"{len(wrong)} of {len(requests)} wrong, first: {wrong[0]}"


_chains = functools.cache(lambda t, n: list(workloads.chain_pairs(t, n)))


@st.composite
def drawn_requests(draw):
    """bgg on any chain pair up to rank 8, built as the bgg-chain workload
    builds it, or bigrade, filtration, ranks (sigma_p nonempty) or type-A
    audit on any nested pair up to rank 32; as text or JSON."""
    cmd = draw(st.sampled_from(["bgg", "bigrade", "filtration", "ranks", "audit"]))
    t = "A" if cmd == "audit" else draw(st.sampled_from("ABCD"))
    json_out = draw(st.booleans())
    if cmd == "bgg":
        n = draw(st.integers(3 if t == "D" else 2, 8))
        sp, choices = draw(st.sampled_from(_chains(t, n)))
        return workloads._bgg_request(draw(st.randoms(use_true_random=False)), t, n, sp, choices, json_out)
    n = draw(st.integers({"A": 1, "B": 2, "C": 2, "D": 3}[t], 32))
    sq = draw(st.sets(st.integers(1, n), min_size=cmd == "ranks"))
    sp = draw(st.sets(st.sampled_from(sorted(sq)), min_size=cmd == "ranks")) if sq else set()
    nodes = [",".join(map(str, sorted(s))) or "none" for s in (sq, sp)]
    argv = [cmd, f"{t}{n}", "--sq", nodes[0], "--sp", nodes[1]] + ["--json"] * json_out
    return argv, {"cmd": cmd, "rc": 0, "t": t, "n": n, "sq": sorted(sq), "sp": sorted(sp), "json": json_out}


@settings(max_examples=200, deadline=None)
@given(drawn_requests())
def test_every_drawn_request_is_judged_right(drawn):
    argv, spec = drawn
    assert checks.judge(spec, *run(argv)) is None, argv
