"""The benchmark's answer checks, run on every request of its four workloads.

perfbench/checks.py re-derives each subcommand's answer from perfbench/lie.py
and imports nothing from relbgg.  Here every request that perfbench/workloads.py
generates at seed 1 (380 sweep, 922 bgg-chain, 100 audit and 50 cli-cold
requests, up to rank 24), and requests drawn up to rank 32 (among them
check-torsion on every catalog size and on custom supports), run through
``relbgg.cli.run`` in process and must be judged right.  This is stricter
than the benchmark, which forgives a malformed support file that escapes
``run``: here an escaped exception fails the test.  Both perfbench modules
are only imported, never changed.
"""

import functools
import json
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
    builds it; bigrade, filtration, ranks (sigma_p nonempty), type-A audit or
    check-torsion with a random support of the sweep workload on any nested
    pair up to rank 32; or check-torsion on any catalog, with the spec the
    cli-cold workload gives one.  As text or JSON.  A custom support travels
    in the spec; the test writes it to a file and appends ``--support``."""
    cmd = draw(st.sampled_from(["bgg", "bigrade", "filtration", "ranks", "audit", "check-torsion"]))
    json_out = draw(st.booleans())
    if cmd == "check-torsion" and draw(st.booleans()):
        kind = draw(st.sampled_from(["legendrean", "path-geometry"]))
        name = f"{kind}({draw(st.integers(1, 31))})"
        assume = kind == "legendrean" and draw(st.booleans())
        argv = ["check-torsion", "--catalog", name] + ["--assume-involutive-F"] * assume + ["--json"] * json_out
        return argv, {"cmd": cmd, "rc": 0, "catalog": name, "assume_f": assume, "json": json_out}
    t = "A" if cmd == "audit" else draw(st.sampled_from("ABCD"))
    if cmd == "bgg":
        n = draw(st.integers(3 if t == "D" else 2, 8))
        sp, choices = draw(st.sampled_from(_chains(t, n)))
        return workloads._bgg_request(draw(st.randoms(use_true_random=False)), t, n, sp, choices, json_out)
    n = draw(st.integers({"A": 1, "B": 2, "C": 2, "D": 3}[t], 32))
    sq = draw(st.sets(st.integers(1, n), min_size=cmd == "ranks"))
    sp = draw(st.sets(st.sampled_from(sorted(sq)), min_size=cmd == "ranks")) if sq else set()
    nodes = [",".join(map(str, sorted(s))) or "none" for s in (sq, sp)]
    spec = {"cmd": cmd, "rc": 0, "t": t, "n": n, "sq": sorted(sq), "sp": sorted(sp), "json": json_out}
    argv = [cmd, f"{t}{n}", "--sq", nodes[0], "--sp", nodes[1]]
    if cmd == "check-torsion":
        spec["support"] = workloads._random_support(draw(st.randoms(use_true_random=False)), draw(st.integers(0, 99)))
        argv = ["check-torsion", "--type", *argv[1:]]
    return argv + ["--json"] * json_out, spec


@pytest.fixture(scope="module")
def support_file(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "support.json"


@settings(max_examples=300, deadline=None)
@given(drawn=drawn_requests())
def test_every_drawn_request_is_judged_right(drawn, support_file):
    argv, spec = drawn
    if "support" in spec:
        support_file.write_text(json.dumps(spec["support"], ensure_ascii=False), encoding="utf-8")
        argv = [*argv, "--support", str(support_file)]
    assert checks.judge(spec, *run(argv)) is None, argv
