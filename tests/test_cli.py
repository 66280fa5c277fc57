"""Command-line behavior: output lines, JSON determinism, exit codes."""

import enum
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from relbgg import DynkinLabel, Weight, build_root_system, parse_label
from relbgg.cli import MAX_SUPPORT_BYTES, _dump, _parse_nodes, main, parse_args, run
from relbgg.grading import RootRows

# A child process finds the engine in src/, installed or not.
SRC_ENV = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")}

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


# -- worked invocations -------------------------------------------------------

def test_bigrade_path_line():
    code, out, _ = run(["bigrade", "A4", "--sq", "1,2", "--sp", "1"])
    assert code == 0
    assert "(-1,-1): dim 3" in out


def test_bigrade_rank_one():
    code, out, _ = run(["bigrade", "A1", "--sq", "1", "--sp", "1"])
    assert code == 0
    for needle in ("(-1,0): dim 1", "(0,0): dim 1", "(1,0): dim 1"):
        assert needle in out


def block_display(*pair_args):
    """Block sizes and matrix cells of a bigrade report; the JSON sizes must agree."""
    code, out, _ = run(["bigrade", *pair_args])
    assert code == 0
    lines = out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("block sizes: "))
    sizes = tuple(int(s) for s in lines[at].removeprefix("block sizes: ").split(","))
    cells = [
        [(int(a), int(b)) for a, b in re.findall(r"\((-?\d+),(-?\d+)\)", line)]
        for line in lines[at + 1 : at + 1 + len(sizes)]
    ]
    assert all(len(row) == len(sizes) for row in cells)
    _, out, _ = run(["bigrade", *pair_args, "--json"])
    assert tuple(json.loads(out)["result"]["block_sizes"]) == sizes
    return sizes, cells


def test_legendrean_block_display():
    sizes, cells = block_display("A4", "--sq", "1,4", "--sp", "1")
    assert sizes == (1, 3, 1)
    assert cells[2][0] == (-1, -1)
    assert cells[1][0] == (-1, 0)
    assert cells[2][1] == (0, -1)
    assert cells[0][1] == (1, 0)
    assert cells[0][2] == (1, 1)


def test_path_block_display():
    sizes, cells = block_display("A4", "--sq", "1,2", "--sp", "1")
    assert sizes == (1, 1, 3)
    # same bidegree pattern, but the (-1,-1) block is now 3-dimensional
    assert cells[2][0] == (-1, -1)
    assert sizes[2] * sizes[0] == 3


def test_smallest_block_display():
    assert block_display("A1", "--sq", "1", "--sp", "1")[0] == (1, 1)


@pytest.mark.parametrize("pair", [("A4", "1,4", "1"), ("A4", "1,2", "1"), ("A5", "2,3,5", "3")])
def test_block_display_transpose_antisymmetry(pair):
    t, sq, sp = pair
    _, cells = block_display(t, "--sq", sq, "--sp", sp)
    for a, row in enumerate(cells):
        for b, (ip, idp) in enumerate(row):
            assert cells[b][a] == (-ip, -idp)


def test_block_display_does_not_call_the_oracle(golden, monkeypatch):
    import relbgg.oracle as oracle

    def refuse(pair):
        raise AssertionError("the block display called the matrix oracle")

    monkeypatch.setattr(oracle, "block_structure_from_pair", refuse)
    with pytest.raises(AssertionError):
        run(["audit", "A4", "--sq", "1,4", "--sp", "1"])
    for name, flags in (("bigrade_a4_legendrean.txt", ()), ("bigrade_a4_legendrean.json", ("--json",))):
        code, out, err = run(["bigrade", "A4", "--sq", "1,4", "--sp", "1", *flags])
        assert (code, err) == (0, "")
        golden(name, out)


DIMS_ONLY_RUNS = [
    ("ranks", "A6", "--sq", "1,2,6", "--sp", "1"),
    ("filtration", "A6", "--sq", "1,2,6", "--sp", "1"),
    ("check-torsion", "--type", "A6", "--sq", "1,6", "--sp", "1", "--support", "support.json"),
    ("check-torsion", "--catalog", "legendrean(5)"),
    ("bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1"),
]
# Text bigrade prints dims and, for type A, the block matrix, but no root.
TEXT_BIGRADE_RUNS = [
    ("bigrade", "A6", "--sq", "1,2,6", "--sp", "1"),
    ("bigrade", "B6", "--sq", "1,3,6", "--sp", "3"),
]


def test_dims_only_reports_negate_no_root(tmp_path, monkeypatch):
    """Only bigrade --json lists roots, and only audit checks each root vector
    against the listing; every other report, text bigrade included, reads
    component dims or packed heights, so none builds the root listing.  And
    no command unpacks the roots into tuples: the listing slices its rows
    out of the packed columns."""
    from relbgg.grading import Bigrading
    from relbgg.roots import RootSystem

    support = {"components": [{"in1": [-1, 0], "in2": [0, -1], "out": [-1, -1], "tag": "t"}]}
    (tmp_path / "support.json").write_text(json.dumps(support))
    monkeypatch.chdir(tmp_path)
    runs = [argv + flag for argv in DIMS_ONLY_RUNS for flag in ((), ("--json",))] + TEXT_BIGRADE_RUNS
    listing = [("bigrade", "A6", "--sq", "1,2,6", "--sp", "1", "--json"),
               ("audit", "A6", "--sq", "1,6", "--sp", "1")]
    unpatched = [run(list(argv)) for argv in runs + listing]
    assert all(code == 0 for code, _, _ in unpatched)

    def refuse(*args):
        raise AssertionError("a refused root read")

    monkeypatch.setattr(RootSystem, "positive_roots", property(refuse))
    for argv, before in zip(runs + listing, unpatched):
        assert run(list(argv)) == before, argv
    monkeypatch.setattr(Bigrading, "root_spaces", refuse)
    for control in listing:
        with pytest.raises(AssertionError):
            run(list(control))
    for argv, before in zip(runs, unpatched):
        assert run(list(argv)) == before, argv


def test_bgg_second_sequence():
    code, out, _ = run(["bgg", "A4[x,o,o,o](-3,0,1,0)", "--sq", "1,2", "--sp", "1"])
    assert code == 0
    assert out.strip().splitlines()[1].startswith("A4[x,x,o,o](-2,-2,2,0)")


def test_bgg_single_bundle():
    code, out, _ = run(["bgg", "A1[x](0)", "--sq", "1", "--sp", "1"])
    assert code == 0
    assert out.strip() == "A1[x](0)"
    assert "order" not in out


def test_check_torsion_catalog():
    code, out, _ = run(["check-torsion", "--catalog", "legendrean(3)", "--assume-involutive-F"])
    assert code == 0
    assert "part1: PASS part2: PASS" in out


def test_check_torsion_custom_support(tmp_path):
    support = {
        "components": [
            {"in1": [-1, 0], "in2": [-1, -1], "out": [0, -1], "tag": "custom"}
        ]
    }
    path = tmp_path / "support.json"
    path.write_text(json.dumps(support))
    code, out, _ = run(["check-torsion", "--type", "A4", "--sq", "1,2", "--sp", "1", "--support", str(path)])
    assert code == 0
    assert "part1: PASS part2: PASS" in out


# The custom support of CI's console-script step: a curvature row, read but never
# flagged, and a torsion row that fails involutivity and both parts.
CI_SUPPORT = {
    "components": [
        {"in1": [0, -1], "in2": [0, -1], "out": [0, 0], "tag": "curv"},
        {"in1": [0, -1], "in2": [0, -1], "out": [-1, 0], "tag": "tors"},
    ],
    "geometry_tag": "ci",
}


def test_check_torsion_grades_no_root(golden, tmp_path, monkeypatch):
    """check-torsion reads the depth of the p-grading off the pair, so with
    bigrade refused, at home and where the CLI reads it, it still prints its
    goldens for a catalog and its verdict and levels for a custom support
    (B4 with sigma_p = {4}: the highest root has coefficient 2 at node 4)."""
    import relbgg.cli as cli
    import relbgg.grading as grading

    def refuse(pair):
        raise AssertionError("check-torsion graded every root")

    for module in (grading, cli):
        monkeypatch.setattr(module, "bigrade", refuse)
    with pytest.raises(AssertionError):  # the control: ranks grades
        run(["ranks", "A4", "--sq", "1,2", "--sp", "1"])
    for name, flags in (("check_torsion_legendrean3.txt", ()), ("check_torsion_legendrean3.json", ("--json",))):
        code, out, err = run(["check-torsion", "--catalog", "legendrean(3)", *flags])
        assert (code, err) == (0, "")
        golden(name, out)
    path = tmp_path / "support.json"
    path.write_text(json.dumps(CI_SUPPORT))
    argv = ["check-torsion", "--type", "B4", "--sq", "2,4", "--sp", "4", "--support", str(path)]
    assert run(argv) == (0, "geometry: ci\ninvolutivity: FAIL (tors)\npart1: FAIL part2: FAIL\n", "")
    code, out, err = run([*argv, "--json"])
    assert (code, err) == (0, "")
    assert [level["i_prime"] for level in json.loads(out)["result"]["per_level"]] == [-2, -1, 0]


# -- exit codes ---------------------------------------------------------------

CAP_MESSAGE = "needs n <= 31: sl(n+2) has rank n+1, above the supported maximum 32"

# Every refused input: (id, argv, a fragment of its one stderr line).
REFUSED = [
    ("invalid-pair", ("bigrade", "A4", "--sq", "1", "--sp", "2"),
     "error: sigma_p [2] is not contained in sigma_q [1]"),
    ("malformed-label", ("bgg", "A4[x,o](1,2)", "--sq", "1,2", "--sp", "1"),
     "error: 2 node markers for rank 4 in 'A4[x,o](1,2)'"),
    ("bad-node-list", ("bigrade", "A4", "--sq", "1,zebra", "--sp", "1"),
     "error: malformed node list '1,zebra'"),
    ("unknown-catalog", ("check-torsion", "--catalog", "nope(3)"), "error: unknown catalog 'nope'"),
    # Digits outside ASCII, or signs and underscores int() would accept.
    ("non-ascii-type-rank", ("ranks", "A\u0661\u0662", "--sq", "1,10", "--sp", "10"),
     "error: malformed type token"),
    ("non-ascii-node-underscore", ("ranks", "A12", "--sq", "1_0", "--sp", "10"), "error: malformed node list"),
    ("non-ascii-node-digits", ("ranks", "A12", "--sq", "10", "--sp", "\u0661\u0660"),
     "error: malformed node list"),
    ("non-ascii-node-sign", ("ranks", "A12", "--sq", "+1,10", "--sp", "10"), "error: malformed node list"),
    ("non-ascii-label-coeff", ("bgg", "A4[x,o,o,o](-\u0662,1,0,0)", "--sq", "1,2", "--sp", "1"),
     "error: malformed label"),
    ("non-ascii-label-rank", ("bgg", "A\uff14[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1"),
     "error: malformed label"),
    ("non-ascii-catalog-n", ("check-torsion", "--catalog", "legendrean(\u0663)"), "error: malformed catalog name"),
    ("rank-above-cap-type", ("ranks", "A100000", "--sq", "1", "--sp", "1"),
     "rank 100000 is above the supported maximum 32"),
    ("rank-above-cap-catalog", ("check-torsion", "--catalog", "legendrean(100000)"),
     f"catalog legendrean(100000) {CAP_MESSAGE}"),
    ("rank-above-cap-label", ("bgg", "A33[x" + ",o" * 32 + "](0" + ",0" * 32 + ")", "--sq", "1", "--sp", "1"),
     "rank 33 is above the supported maximum 32"),
    ("catalog-above-cap-legendrean", ("check-torsion", "--catalog", "legendrean(32)"),
     f"catalog legendrean(32) {CAP_MESSAGE}"),
    ("catalog-above-cap-path-geometry", ("check-torsion", "--catalog", "path-geometry(32)"),
     f"catalog path-geometry(32) {CAP_MESSAGE}"),
    ("catalog-below-floor-legendrean", ("check-torsion", "--catalog", "legendrean(0)"), "error: need n >= 1"),
    ("catalog-below-floor-path-geometry", ("check-torsion", "--catalog", "path-geometry(0)"), "error: need n >= 1"),
]


@pytest.mark.parametrize("argv, fragment", [row[1:] for row in REFUSED], ids=[row[0] for row in REFUSED])
def test_refused_input_exits_two(argv, fragment):
    """A refused input exits 2 with nothing on stdout and one stderr line that
    starts with "error: " and names the fault, in text and in --json."""
    for mode in ((), ("--json",)):
        code, out, err = run([*argv, *mode])
        assert (code, out) == (2, ""), mode
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (mode, err)
        assert fragment in err, (mode, err)


def _nodes_per_token(text):
    """The node-list parser that one whole-text pattern replaced, kept as the reference:
    split at commas, then match each token on its own."""
    if text is None or text.strip() in ("", "none"):
        return frozenset()
    tokens = text.split(",")
    if not all(re.fullmatch(r"\s*\d+\s*", t, re.ASCII) for t in tokens):
        raise ValueError(f"malformed node list {text!r}; expected e.g. 1,4")
    return frozenset(map(int, tokens))


_NODE_PIECES = st.sampled_from([*"0123456789", ",", " ", "\t", "\n", "+", "-", "_", "x", "\u0661", "none"])


@given(st.none() | st.lists(_NODE_PIECES, max_size=12).map("".join))
@example(" 1 , 4 ")
@example("1,,4")
@example("1,")
@example(",1")
@example(" none ")
@example("none,1")
@example("1 4")
@example("1\t,\n4\n")
@example("\u0661")
@example("01,004")
def test_node_list_matches_the_per_token_parser(text):
    """The one-pattern parser accepts the same lists, with the same nodes, and refuses the
    rest with the same message."""
    try:
        expected = _nodes_per_token(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _parse_nodes(text)
        assert str(got.value) == str(exc)
    else:
        assert _parse_nodes(text) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("ranks", "A4", "--sq", "1,2"),
        ("bogus",),
        (),
        ("ranks", "A4", "--sq", "1,2", "--sp", "1", "--bogus"),
        ("ranks", "A4", "--sq", "1,2", "--sp", "1", "x\ny", "a\r\u2028b"),
    ],
    ids=["missing-option", "unknown-subcommand", "no-arguments", "unknown-flag", "line-breaks-in-argv"],
)
def test_usage_error_is_one_stderr_line(argv):
    code, out, err = run(list(argv))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_huge_hasse_diagram_exits_two_up_front():
    label = "B18[x" + ",o" * 17 + "](0" + ",0" * 17 + ")"
    start = time.perf_counter()
    code, out, err = run(["bgg", label, "--sq", "1,18", "--sp", "1"])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == (
        "error: the relative Hasse diagram has 131072 elements, "
        "above the supported maximum 20000\n"
    )


def test_broken_hasse_walk_exits_three(monkeypatch):
    """The Hasse walk is roots._orbit_walk; A4 is built first, so only the
    Hasse walk, and not the cached root walk, reads the mutated reflection."""
    import relbgg.roots as roots

    reflect_coords = roots._reflect_coords

    def skip_node_3(cols, i, v):  # s_3 acts as the identity
        return v if i == 2 else reflect_coords(cols, i, v)

    roots.build_root_system("A", 4)
    monkeypatch.setattr(roots, "_reflect_coords", skip_node_3)
    code, out, err = run(["bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1"])
    assert (code, out) == (3, "")
    assert err == (
        "internal invariant violated: the relative Hasse walk reached 2 points over 2 lengths "
        "up to 1, not |W_L|/|W_(L&q)| = 4 over the lengths 0..3, on A4 sigma_q=[1, 2] sigma_p=[1]\n"
    )


# A child whose reflection at node 2 returns its input, so s_2 fixes every point
# and an orbit walk re-enters each point with a positive coordinate 2.  argv[1]
# says whether A4's root system is built before the mutation.  Its address
# space is capped, so a walk that never stops cannot take the host's memory.
_BROKEN_WALK_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import relbgg.roots as roots
from relbgg.cli import main
reflect_coords = roots._reflect_coords
if sys.argv[1] == "built":
    roots.build_root_system("A", 4)
roots._reflect_coords = lambda cols, i, v: v if i == 1 else reflect_coords(cols, i, v)
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize(
    "built, argv, message",
    [("built", ("bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1"),
      "the relative Hasse walk reached 5 points over 5 lengths up to 4, not |W_L|/|W_(L&q)| = 4 "
      "over the lengths 0..3, on A4 sigma_q=[1, 2] sigma_p=[1]"),
     ("fresh", ("ranks", "A4", "--sq", "1,2", "--sp", "1"), "the root walk of A4 passed 16 roots")],
    ids=["hasse", "roots"],
)
def test_walk_that_reenters_points_exits_three(built, argv, message):
    """Each orbit walk climbs from at most its bound of points, the Hasse
    diagram's size or rank^2 roots, so a walk that re-enters points ends and
    exits 3 in bounded time and memory; an unbounded walk fails here on the
    child's address-space cap or on the timeout."""
    proc = subprocess.run(
        [sys.executable, "-c", _BROKEN_WALK_CHILD, built, *argv],
        env=SRC_ENV, capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"internal invariant violated: {message}\n"


def test_broken_shifted_action_exits_three(monkeypatch):
    """An entry that fails validate_label for role Q is an internal error."""
    import relbgg.bgg as bgg

    shifted = bgg._shifted

    def wrong_order(cols, gens, mu):  # the word's letters applied left to right
        return shifted(cols, gens[::-1], mu)

    monkeypatch.setattr(bgg, "_shifted", wrong_order)
    assert run(["bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1"]) == (
        3, "", "internal invariant violated: entry 2 produced the Q-invalid label A4[x,x,o,o](0,0,-4,3)\n"
    )


def test_catalog_at_cap_runs():
    code, out, _ = run(["check-torsion", "--catalog", "legendrean(31)"])
    assert code == 0
    assert out.startswith("geometry: legendrean(31)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("--catalog", "legendrean(3)", "--type", "A4"),
        ("--catalog", "legendrean(3)", "--sq", "1"),
        ("--catalog", "legendrean(3)", "--sp", ""),
        ("--catalog", "legendrean(3)", "--support", "support.json"),
        ("--catalog", "legendrean(31)", "--type", "A4", "--sq", "1", "--sp", "1",
         "--support", "/nonexistent"),
        ("--type", "A4", "--sq", "1,2", "--sp", "1", "--support", "support.json",
         "--assume-involutive-F"),
        ("--type", "A4", "--support", "support.json"),
        ("--type", "A4", "--sq", "1,2", "--support", "support.json"),
        ("--catalog", "path-geometry(3)", "--assume-involutive-F"),
    ],
)
def test_conflicting_check_torsion_inputs_exit_two(tmp_path, monkeypatch, argv):
    (tmp_path / "support.json").write_text('{"components": []}')
    monkeypatch.chdir(tmp_path)
    for flag in ([], ["--json"]):
        code, out, err = run(["check-torsion", *argv, *flag])
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"components": [',
        "[1, 2, 3]",
        '{"components": 5}',
        '{"components": [5]}',
        '{"components": [{"in1": [-1, 0], "in2": [-1, 0]}]}',
        '{"components": [{"in2": [-1, 0], "out": [0, -1]}]}',
        '{"components": [{"in1": [-1], "in2": [-1, 0], "out": [0, -1]}]}',
        '{"components": [{"in1": "ab", "in2": [-1, 0], "out": [0, -1]}]}',
        '{"components": [{"in1": [-1, 0.5], "in2": [-1, 0], "out": [0, -1]}]}',
        '{"components": [{"in1": [-1, 0], "in2": [-1, 0], "out": [0, -1], "tag": 7}]}',
        '{"components": [], "geometry_tag": ["x"]}',
        pytest.param('{"components": [], "geometry_tag": "\\ud800"}', id="surrogate-geometry-tag"),
        pytest.param(
            '{"components": [{"in1": [-1, 0], "in2": [-1, 0], "out": [0, -1], "tag": "\\ud800"}]}',
            id="surrogate-tag",
        ),
        pytest.param("[" * 20_000 + "]" * 20_000, id="deeply-nested"),
    ],
)
def test_malformed_support_exits_two(tmp_path, text):
    path = tmp_path / "support.json"
    path.write_text(text)
    for flag in ([], ["--json"]):
        code, out, err = run(
            ["check-torsion", "--type", "A4", "--sq", "1,2", "--sp", "1", "--support", str(path), *flag]
        )
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        if text.startswith("[["):  # under the size cap, so refused for its nesting
            assert err.endswith("is nested too deeply\n")


CUSTOM_PAIR = ("check-torsion", "--type", "A4", "--sq", "1,2", "--sp", "1", "--support")


def test_support_over_the_cap_is_refused_unparsed(tmp_path):
    path = tmp_path / "support.json"
    path.write_text('{"components": []}'.ljust(MAX_SUPPORT_BYTES))
    assert run([*CUSTOM_PAIR, str(path)])[0] == 0
    path.write_text('{"components": []}'.ljust(MAX_SUPPORT_BYTES + 1))
    code, out, err = run([*CUSTOM_PAIR, str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: support file {str(path)!r} is over {MAX_SUPPORT_BYTES} bytes\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_support_is_refused():
    code, out, err = run([*CUSTOM_PAIR, "/dev/zero"])
    assert (code, out) == (2, "")
    assert err == f"error: support file '/dev/zero' is over {MAX_SUPPORT_BYTES} bytes\n"


def test_deep_nesting_under_the_cap_is_refused(tmp_path):
    path = tmp_path / "support.json"
    path.write_text("[" * 30_000 + "]" * 30_000)
    code, out, err = run([*CUSTOM_PAIR, str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: support JSON {str(path)!r} is nested too deeply\n"


# -- JSON reports -------------------------------------------------------------

def test_json_reports_are_deterministic():
    _, first, _ = run(["bigrade", "A4", "--sq", "1,4", "--sp", "1", "--json"])
    _, second, _ = run(["bigrade", "A4", "--sq", "1,4", "--sp", "1", "--json"])
    assert first == second
    report = json.loads(first)
    assert report["command"] == "bigrade"
    assert report["version"]
    assert report["inputs"]["sigma_q"] == [1, 4]


# |Phi+| is n(n+1)/2 for A, n^2 for B and C, n(n-1) for D.
@pytest.mark.parametrize("diagram, sq, sp, n_positive", [
    pytest.param("B24", "1,8,24", "8", 576, id="B-576"),
    pytest.param("C24", "1,8,24", "8", 576, id="C-576"),
    pytest.param("D24", "1,8,24", "8", 552, id="D-552"),
    pytest.param("A24", "1,8,24", "none", 300, id="A24-sp-none"),
    pytest.param("A1", "1", "none", 1, id="A1-sp-none"),
    pytest.param("A32", "1,16,32", "16", 528, id="A32"),
    pytest.param("B32", "1,16,32", "16", 1024, id="B32"),
    pytest.param("C32", "1,16,32", "16", 1024, id="C32"),
    pytest.param("D32", "1,16,32", "16", 992, id="D32"),
    pytest.param("D24", ",".join(map(str, range(1, 25))), "8,24", 552, id="D24-sq-every-node"),
])
def test_bigrade_root_listing_round_trips_at_rank_24(diagram, sq, sp, n_positive):
    """The largest root listings, and the smallest, equal indented json.dumps
    and hold every root of either sign once, as many in each component as
    its dimension leaves beside the Cartan; with every node in sigma_q, the
    (0, 0) component lists no root."""
    code, out, _ = run(["bigrade", diagram, "--sq", sq, "--sp", sp, "--json"])
    assert code == 0
    report = json.loads(out)
    want = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if out != want:  # name the line: pytest's diff of two outputs this long runs for minutes
        line = out.count("\n", 0, len(os.path.commonprefix([out, want]))) + 1
        pytest.fail(f"bigrade --json differs from indented json.dumps from line {line}")
    components = report["result"]["components"]
    rank = int(diagram[1:])
    assert all(len(c["roots"]) == c["dim"] - rank * c["includes_cartan"] for c in components)
    listed = [tuple(r) for c in components for r in c["roots"]]
    assert len(listed) == len(set(listed)) == 2 * n_positive


def _doctored_columns(monkeypatch, node, at):
    """Patch the CLI's ``build_root_system`` to serve A4 with coefficient 3 at
    the 1-based ``node`` of the positive root at index ``at`` of its columns."""
    from relbgg.roots import build_root_system

    a4 = build_root_system("A", 4)
    column = bytearray(a4.columns[node - 1])
    column[at] = 3
    columns = (*a4.columns[:node - 1], bytes(column), *a4.columns[node:])
    monkeypatch.setattr("relbgg.cli.build_root_system", lambda *key: a4._replace(columns=columns))


def test_uncovered_root_coefficient_is_an_internal_error(monkeypatch):
    """A root coefficient outside the listing's digit table exits 3 with one
    stderr line and no JSON, never a wrong listing: here the first root in
    root order, (0, 0, 0, 1), as (3, 0, 0, 1)."""
    _doctored_columns(monkeypatch, 1, 0)
    code, out, err = run(["bigrade", "A4", "--sq", "1,4", "--sp", "1", "--json"])
    assert (code, out) == (3, "")
    assert err.startswith("internal invariant violated: ") and err.count("\n") == 1


def test_late_uncovered_root_coefficient_prints_nothing(monkeypatch):
    """The bad coefficient in the root the walk lists last, the highest root,
    as (1, 3, 1, 1): the last component lists it and the first its negative,
    and still the run exits 3 with one stderr line and nothing on stdout."""
    _doctored_columns(monkeypatch, 2, -1)
    code, out, err = run(["bigrade", "A4", "--sq", "1,4", "--sp", "1", "--json"])
    assert (code, out) == (3, "")
    assert err.startswith("internal invariant violated: ") and err.count("\n") == 1


_C32_FILTRATION = ["filtration", "C32", "--sq", ",".join(map(str, range(1, 33))),
                   "--sp", ",".join(map(str, range(1, 32, 2))), "--json"]


@pytest.mark.parametrize(
    ("argv", "size", "bound"),
    [(["bigrade", "B32", "--sq", "1,16,32", "--sp", "16", "--json"], 1_000_000, 2.5),
     (_C32_FILTRATION, 300_000, 8)],
    ids=["bigrade-B32", "filtration-C32"],
)
def test_report_writer_peaks_near_twice_the_output(argv, size, bound):
    """The writer's tracemalloc peak stays a fixed multiple of the output.
    B32's root listing prints in bulk: about 2.02 times its length with one
    fragment list, 3.0 when every container built its own string, bound 2.5.
    C32's filtration with every node in σ_q is mostly small ints, each one
    fragment of its own, so the per-fragment overhead dominates: about 7.0
    times, bound 8.  One more small string per list item (a separator built
    afresh for each) reads 8.04 there and 2.03 on the bulk listing, which
    alone cannot show it."""
    args = parse_args(argv)
    inputs, result, _ = args.func(args)
    report = {"command": args.command, "inputs": inputs, "result": result, "version": "0"}
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        text = _dump(report)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(text) > size
    assert peak <= bound * len(text), f"peak {peak} bytes for {len(text)} bytes of output"


class _Name(str):
    pass


def _root_rows(width: int):
    """``RootRows`` of rows ``width`` long, coefficients 0..2, either half possibly empty."""
    half = st.lists(st.lists(st.integers(0, 2), min_size=width, max_size=width).map(bytes), max_size=4)
    return st.tuples(half.map(tuple), half.map(tuple)).map(RootRows)


def _listed(value):
    """``value`` with each ``RootRows`` as the list it prints: the negated rows negated, then the positive rows."""
    if type(value) is RootRows:
        negated, positive = value
        return [[-c for c in row] for row in negated] + [list(row) for row in positive]
    if isinstance(value, list):
        return [_listed(v) for v in value]
    if isinstance(value, dict):
        return {k: _listed(v) for k, v in value.items()}
    return value


_TEXT = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7f\n\r\t\u2028éλ𝔤 a')
_KEYS = _TEXT | _TEXT.map(_Name)
_SCALARS = st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | _TEXT
_REPORT_VALUES = st.recursive(
    _SCALARS | st.lists(st.integers()) | st.integers(1, 6).flatmap(_root_rows),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=40,
)


@given(_REPORT_VALUES)
@example([])
@example([[]])
@example([[], [0, -1]])
@example([1, [2, 3]])
@example([True, 1])
@example({"k": [[1, 2], [3]]})
@example({"a": [True, 0, False, -1], "b": True, "c": 7})
@example([False])
def test_report_writer_matches_indented_json_dumps(value):
    """At any depth, ``RootRows`` leaves print as their list form, and keys
    of a str subclass as their text, as ``json.dumps`` prints them.  Ints
    inside a list or dict are written by its loop, and a bool there, also
    an int, still prints as true or false."""
    assert _dump(value) == json.dumps(_listed(value), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


@pytest.mark.parametrize(
    "value",
    [1.5, [1, 2.0], {"a": [0.0]}, {1: "x"}, {"a": 1, None: 2}, (1, 2), {"a": {3}},
     enum.IntEnum("Level", "LOW").LOW, ["x", _Name("y")]],
)
def test_report_writer_refuses_other_types(value):
    """Only the exact report types print: a subclass of int or str raises like any other type."""
    with pytest.raises(TypeError):
        _dump(value)


# Each golden file with the argv that prints it: the goldens own the CLI's bytes.
GOLDEN_REPORTS = [
    ("filtration_a4_legendrean.json", ("filtration", "A4", "--sq", "1,4", "--sp", "1", "--json")),
    ("audit_a4_legendrean.json", ("audit", "A4", "--sq", "1,4", "--sp", "1", "--json")),
    ("bigrade_a4_legendrean.txt", ("bigrade", "A4", "--sq", "1,4", "--sp", "1")),
    ("bigrade_b3.txt", ("bigrade", "B3", "--sq", "1,3", "--sp", "1")),
    ("filtration_a4_legendrean.txt", ("filtration", "A4", "--sq", "1,4", "--sp", "1")),
    ("ranks_path_a4.txt", ("ranks", "A4", "--sq", "1,2", "--sp", "1")),
    ("ranks_a5_two_levels.txt", ("ranks", "A5", "--sq", "1,3,5", "--sp", "1,5")),
    ("bgg_dual_standard.txt", ("bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1")),
    ("check_torsion_legendrean3.txt", ("check-torsion", "--catalog", "legendrean(3)")),
    ("audit_a4_legendrean.txt", ("audit", "A4", "--sq", "1,4", "--sp", "1")),
    ("bigrade_a4_legendrean.json", ("bigrade", "A4", "--sq", "1,4", "--sp", "1", "--json")),
    ("bgg_dual_standard.json", ("bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1", "--json")),
    ("ranks_path_a4.json", ("ranks", "A4", "--sq", "1,2", "--sp", "1", "--json")),
    ("check_torsion_legendrean3.json", ("check-torsion", "--catalog", "legendrean(3)", "--json")),
]


@pytest.mark.parametrize("name, argv", GOLDEN_REPORTS)
def test_golden_reports(golden, name, argv):
    code, out, _ = run(list(argv))
    assert code == 0
    golden(name, out)


def test_golden_replay_in_one_process_is_byte_identical(golden):
    assert sorted(name for name, _ in GOLDEN_REPORTS) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    for order, sequence in enumerate((GOLDEN_REPORTS, GOLDEN_REPORTS[::-1])):
        for name, argv in sequence:
            code, out, err = run(list(argv))
            assert (code, err) == (0, ""), name
            golden(name, out)
        if order == 0:
            code, out, err = run(["bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2"])
            assert (code, out) == (2, "")
            assert "--sp" in err


# -- argv grammar --------------------------------------------------------------

BGG_LABEL = "A4[x,o,o,o](-2,1,0,0)"
COMMANDS = ("bigrade", "bgg", "filtration", "ranks", "check-torsion", "audit")


def _golden_text(name):
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def _usage_error(out, err):
    return out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


ARGV_CASES = [
    ("equals-value", ("ranks", "A4", "--sq=1,2", "--sp=1"), 0,
     lambda out, err: (out, err) == (_golden_text("ranks_path_a4.txt"), "")),
    ("options-first", ("ranks", "--sq", "1,2", "--sp", "1", "A4"), 0,
     lambda out, err: (out, err) == (_golden_text("ranks_path_a4.txt"), "")),
    ("last-repeat-wins", ("ranks", "A4", "--sq", "1,4", "--sp", "4", "--sq", "1,2", "--sp=1"), 0,
     lambda out, err: (out, err) == (_golden_text("ranks_path_a4.txt"), "")),
    ("unique-prefix", ("ranks", "A4", "--sq", "1,2", "--sp", "1", "--js"), 0,
     lambda out, err: (out, err) == (_golden_text("ranks_path_a4.json"), "")),
    ("prefix-with-equals", ("check-torsion", "--cat=legendrean(3)"), 0,
     lambda out, err: (out, err) == (_golden_text("check_torsion_legendrean3.txt"), "")),
    ("ambiguous-prefix", ("ranks", "A4", "--s", "1,2", "--sp", "1"), 2, _usage_error),
    ("ambiguous-prefix-of-three", ("check-torsion", "--s", "1"), 2, _usage_error),
    ("double-dash", ("bgg", "--sq", "1,2", "--sp", "1", "--", BGG_LABEL), 0,
     lambda out, err: (out, err) == (_golden_text("bgg_dual_standard.txt"), "")),
    ("double-dash-then-option", ("ranks", "--sq", "1,2", "--sp", "1", "--", "--json"), 2,
     lambda out, err: out == "" and len(err.splitlines()) == 1),
    ("value-starting-with-dashes", ("bgg", BGG_LABEL, "--sq", "1,2", "--sp", "--json"), 2, _usage_error),
    ("value-missing-at-end", ("ranks", "A4", "--sp", "1", "--sq"), 2, _usage_error),
    ("flag-given-a-value", ("ranks", "A4", "--sq", "1,2", "--sp", "1", "--json=yes"), 2, _usage_error),
    ("extra-positional", ("ranks", "A4", "A5", "--sq", "1,2", "--sp", "1"), 2, _usage_error),
    ("option-before-command", ("--json", "ranks", "A4", "--sq", "1,2", "--sp", "1"), 2, _usage_error),
    ("version", ("--version",), 0, lambda out, err: (out, err) == ("relbgg 0.1.0\n", "")),
]
ARGV_CASES += [
    (f"help-{flag}", (flag,), 0, lambda out, err: out.startswith("usage: relbgg") and err == "")
    for flag in ("-h", "--help")
]
ARGV_CASES += [
    (f"help-{cmd}-{flag}", (cmd, flag), 0,
     lambda out, err, cmd=cmd: out.startswith(f"usage: relbgg {cmd}") and err == "")
    for cmd in COMMANDS
    for flag in ("-h", "--help")
]


@pytest.mark.parametrize(
    "argv, code, check", [case[1:] for case in ARGV_CASES], ids=[case[0] for case in ARGV_CASES]
)
def test_argv_grammar(argv, code, check):
    got, out, err = run(list(argv))
    assert got == code, (out, err)
    assert check(out, err), (out, err)


def _label_reference(text):
    """``text``'s label built through ``DynkinLabel()``, which checks every node and the
    coefficient count again, from fields read off the text by hand."""
    head, marks, coeffs = re.fullmatch(r"(\w+)\[(.*)\]\((.*)\)", text).groups()
    crossed = {i for i, mark in enumerate(marks.split(","), 1) if mark == "x"}
    return DynkinLabel(build_root_system(head[0], int(head[1:])), crossed, Weight(tuple(map(int, coeffs.split(",")))))


# Every label a golden or an argv case passes to bgg.
_CASE_LABELS = sorted({a for _, argv, *_ in [*ARGV_CASES, *GOLDEN_REPORTS] if argv[:1] == ("bgg",) for a in argv if "[" in a})


@pytest.mark.parametrize("text", _CASE_LABELS)
def test_case_labels_parse_as_the_checked_constructor_builds_them(text):
    lbl = parse_label(text)
    assert type(lbl) is DynkinLabel and lbl == _label_reference(text)


MAIN_CASES = [(name, argv) for name, argv, *_ in ARGV_CASES] + GOLDEN_REPORTS


@pytest.mark.parametrize("argv", [argv for _, argv in MAIN_CASES], ids=[name for name, _ in MAIN_CASES])
def test_main_writes_what_run_returns(capsys, argv):
    """``main`` returns ``run``'s code and writes exactly its stdout and stderr,
    for help, version and usage errors too: it returns their codes, never raises."""
    code, out, err = run(list(argv))
    assert main(list(argv)) == code
    assert capsys.readouterr() == (out, err)


# -- misc ---------------------------------------------------------------------

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "relbgg", "ranks", "A4", "--sq", "1,2", "--sp", "1"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0
    assert "dim M = 7" in proc.stdout


def test_cli_import_pulls_in_no_numpy():
    check = (
        "for m in ('numpy', 'fractions', 'decimal', 'dataclasses', 'inspect'):"
        " assert m not in sys.modules, m"
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import relbgg.cli, sys\n{check}"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr


# Every subcommand loads BASE_MODULES, and only these others besides.
BASE_MODULES = ["relbgg", "relbgg.cli", "relbgg.grading", "relbgg.roots"]
SUBCOMMAND_MODULES = [
    (("bigrade", "A4", "--sq", "1,4", "--sp", "1"), []),
    (("filtration", "A4", "--sq", "1,4", "--sp", "1"), []),
    (("ranks", "A4", "--sq", "1,2", "--sp", "1"), []),
    (("bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1"), ["relbgg.bgg", "relbgg.dynkin"]),
    (("audit", "A4", "--sq", "1,4", "--sp", "1"), ["relbgg.oracle"]),
    (("check-torsion", "--catalog", "legendrean(3)"), ["relbgg.torsion"]),
]


@pytest.mark.parametrize("argv, extra", SUBCOMMAND_MODULES, ids=[argv[0] for argv, _ in SUBCOMMAND_MODULES])
def test_each_subcommand_loads_only_its_modules(argv, extra):
    script = (
        "import sys\nfrom relbgg.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'relbgg'), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=SRC_ENV)
    assert proc.stderr == f"0 {sorted(BASE_MODULES + extra)}\n"


def test_bare_package_import_loads_no_submodule():
    script = (
        "import sys, relbgg\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'relbgg'), set(relbgg.__all__) <= set(dir(relbgg)))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=SRC_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['relbgg'] True\n", "")


def test_cli_import_pulls_in_no_argparse():
    proc = subprocess.run(
        [sys.executable, "-c", "import relbgg.cli, sys; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("ranks", "A4", "--sq", "1,2", "--sp", "1"),
        ("bigrade", "D32", "--sq", "1,16,32", "--sp", "16", "--json"),
        ("--help",),
        ("ranks", "-h"),
        ("--version",),
    ],
    ids=["short-text", "long-json", "help", "command-help", "version"],
)
def test_closed_stdout_exits_one_without_a_traceback(argv):
    # The read end is closed before the process starts, so every write to
    # stdout meets a broken pipe, whatever the output size.
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "relbgg", *argv],
            stdout=write_fd,
            stderr=subprocess.PIPE,
            text=True,
            env=SRC_ENV,
        )
    finally:
        os.close(write_fd)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_stdout_closed_mid_report_exits_one():
    """The reader takes one byte of a report far larger than a pipe buffer and
    closes the pipe while relbgg is still writing: exit 1, nothing on stderr."""
    argv = [sys.executable, "-m", "relbgg", "bigrade", "D32", "--sq", "1,16,32", "--sp", "16", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SRC_ENV) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        assert (proc.wait(timeout=10), proc.stderr.read()) == (1, b"")


def test_listed_runs_complete_quickly():
    invocations = [
        ("bigrade", "A4", "--sq", "1,4", "--sp", "1"),
        ("bigrade", "A4", "--sq", "1,2", "--sp", "1"),
        ("bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1"),
        ("bgg", "A4[x,o,o,o](-3,0,1,0)", "--sq", "1,2", "--sp", "1"),
        ("check-torsion", "--catalog", "legendrean(3)", "--assume-involutive-F"),
        ("ranks", "A4", "--sq", "1,2", "--sp", "1"),
        ("audit", "A4", "--sq", "1,4", "--sp", "1"),
    ]
    for argv in invocations:
        start = time.perf_counter()
        code, _, _ = run(list(argv))
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0, f"{argv} took {elapsed:.2f}s"
