"""Equivalence digest: one sha256 per (type, rank, subcommand, format) bucket.

Each bucket hashes the argv, exit code, stdout and stderr of every run of
``relbgg.cli.run`` (in process) that falls into it:

- ``bigrade``, ``filtration``, ``ranks`` and ``audit`` on every nested pair
  sigma_p <= sigma_q of A1-A6, B2-B5, C2-C5 and D3-D5, in the order of
  ``weyl_model.nested_pairs``;
- ``bgg`` on every such pair whose relative Hasse diagram is a chain, once
  with the zero source and once with a seeded random P-dominant source;
- ``check-torsion`` on ``legendrean(n)`` (with and without
  ``--assume-involutive-F``) and ``path-geometry(n)`` for n = 1..31, in the
  bucket of sl(n+2) = A(n+1);

each in ``text`` and ``json`` form.  One library bucket per diagram,
``relative_hasse words``, holds the words and chain flag of
``relative_hasse(pair)`` for every nested pair, since the CLI prints no
diagram that is not a chain.

A mismatch names the bucket, so a change of output shows where it happened.
``python tests/digest.py`` checks every bucket against
``tests/digest.json`` and exits 1 on any difference; the tier-1 test
``tests/test_digest.py`` checks the buckets up to rank 4, and
``pytest --regen-golden`` rewrites the file.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

# The engine comes from src/, so the script runs from a plain checkout.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from common import all_pairs, label_text, p_dominant_coeffs  # noqa: E402

from relbgg import relative_hasse  # noqa: E402
from relbgg.cli import run  # noqa: E402

# Beside this module, not in golden/: that directory holds exactly the CLI
# reports that test_cli replays.
DIGEST_PATH = pathlib.Path(__file__).with_suffix(".json")

DIAGRAMS = (
    [("A", n) for n in range(1, 7)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)]
    + [("D", n) for n in range(3, 6)]
)
CATALOG_NS = range(1, 32)
PAIR_COMMANDS = ("bigrade", "filtration", "ranks", "audit")


def _nodes(nodes: frozenset[int]) -> str:
    return ",".join(map(str, sorted(nodes))) or "none"


def _run(argv: list[str]) -> bytes:
    return repr((argv, *run(argv))).encode() + b"\n"


def _argv_lists(type_tag: str, rank: int) -> dict[tuple[str, str], list[list[str]]]:
    """The CLI runs of each (subcommand, format) bucket of one diagram."""
    runs: dict[tuple[str, str], list[list[str]]] = {}
    if (type_tag, rank) in DIAGRAMS:
        diagram = f"{type_tag}{rank}"
        rng = random.Random(diagram)
        pairs = [(pair, ["--sq", _nodes(pair.sigma_q), "--sp", _nodes(pair.sigma_p)])
                 for pair in all_pairs(rank, type_tag)]
        for cmd in PAIR_COMMANDS:
            runs[cmd, "text"] = [[cmd, diagram, *nodes] for _, nodes in pairs]
        bgg = runs["bgg", "text"] = []
        for pair, nodes in pairs:
            if relative_hasse(pair).is_chain:
                seeded = p_dominant_coeffs(rank, pair.sigma_p, rng.randint)
                for coeffs in ([0] * rank, seeded):
                    bgg.append(["bgg", label_text(type_tag, rank, pair.sigma_p, coeffs), *nodes])
    if type_tag == "A" and rank - 1 in CATALOG_NS:
        n = rank - 1
        runs["check-torsion", "text"] = [
            ["check-torsion", "--catalog", f"legendrean({n})"],
            ["check-torsion", "--catalog", f"legendrean({n})", "--assume-involutive-F"],
            ["check-torsion", "--catalog", f"path-geometry({n})"],
        ]
    for (cmd, _), argvs in list(runs.items()):
        runs[cmd, "json"] = [argv + ["--json"] for argv in argvs]
    return runs


def _hasse_lines(type_tag: str, rank: int) -> bytes:
    lines = []
    for pair in all_pairs(rank, type_tag):
        hd = relative_hasse(pair)
        words = [w.gens for w in hd.elements]
        lines.append(repr((sorted(pair.sigma_q), sorted(pair.sigma_p), words, hd.is_chain)))
    return "\n".join(lines).encode()


def buckets(type_tag: str, rank: int) -> dict[str, str]:
    """Every bucket of one diagram, as {'A3 bgg json': sha256 hex digest}."""
    out = {}
    for (cmd, fmt), argvs in _argv_lists(type_tag, rank).items():
        h = hashlib.sha256()
        for argv in argvs:
            h.update(_run(argv))
        out[f"{type_tag}{rank} {cmd} {fmt}"] = h.hexdigest()
    if (type_tag, rank) in DIAGRAMS:
        out[f"{type_tag}{rank} relative_hasse words"] = hashlib.sha256(
            _hasse_lines(type_tag, rank)
        ).hexdigest()
    return out


def all_diagrams() -> list[tuple[str, int]]:
    """Every diagram with at least one bucket."""
    catalogs = [("A", n + 1) for n in CATALOG_NS if ("A", n + 1) not in DIAGRAMS]
    return DIAGRAMS + catalogs


def all_buckets() -> dict[str, str]:
    out = {}
    for type_tag, rank in all_diagrams():
        out.update(buckets(type_tag, rank))
    return out


def load() -> dict[str, str]:
    return json.loads(DIGEST_PATH.read_text(encoding="utf-8"))


def write() -> None:
    """Recompute every bucket and rewrite the digest file."""
    text = json.dumps(all_buckets(), indent=1, sort_keys=True) + "\n"
    DIGEST_PATH.write_text(text, encoding="utf-8")


def _differ(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """Bucket names whose sums differ or that only one side has."""
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def mismatches(type_tag: str, rank: int, stored: dict[str, str]) -> list[str]:
    """The differing buckets of one diagram."""
    want = {k: v for k, v in stored.items() if k.startswith(f"{type_tag}{rank} ")}
    return _differ(buckets(type_tag, rank), want)


def check_all() -> int:
    """Check every bucket; print the differing ones.  Returns an exit code."""
    stored = load()
    bad = _differ(all_buckets(), stored)
    for name in bad:
        print(f"digest mismatch: {name}")
    print(f"{len(bad)} mismatched of {len(stored)} stored buckets")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(check_all())
