"""Seeded request generators, one per workload.

A workload is a list of requests that the timed loop replays in passes.
Each request is ``(argv, spec)``: the program sees only ``argv``; ``spec``
tells the checker what the answer must be (``spec["rc"]`` is the exit code).
Generators stratify the inputs that set a request's cost (type, rank,
Levi subgroup) and randomise the rest, so that two seeds give different
inputs of the same total cost.
"""

from __future__ import annotations

import itertools
import json
import os
import random

import lie

SUBCOMMANDS = ("bigrade", "filtration", "ranks", "check-torsion")


def _nodes(nodes) -> str:
    return ",".join(map(str, sorted(nodes)))


def _random_pair(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    sq = sorted(rng.sample(range(1, n + 1), rng.randint(1, min(n, 4))))
    sp = sorted(rng.sample(sq, rng.randint(1, len(sq))))
    return sq, sp


def _pair_args(t: str, n: int, sq, sp) -> list[str]:
    return [f"{t}{n}", "--sq", _nodes(sq), "--sp", _nodes(sp)]


# Tangent bidegrees (a negative index, no mixed signs); the first two are the
# relative directions.  Supports favour relative directions so that the
# involutivity and filtration verdicts meet their boundary cases often.
TANGENT = ((0, -1), (0, -2), (-1, 0), (-2, 0), (-1, -1), (-1, -2), (-2, -1), (-2, -2))
INPUTS = TANGENT[:2] * 3 + TANGENT
OUTPUTS = TANGENT[:2] * 2 + TANGENT + ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


def _random_support(rng: random.Random, k: int) -> dict:
    comps = [
        {
            "in1": list(rng.choice(INPUTS)),
            "in2": list(rng.choice(INPUTS)),
            "out": list(rng.choice(OUTPUTS)),
            "tag": f"c{k}.{i}",
        }
        for i in range(rng.randint(1, 4))
    ]
    tag = rng.choice(["", f"support-{k}"])
    return {"components": comps, "geometry_tag": tag}


# Malformed custom supports; each must be refused with exit 2.  When this
# benchmark was written only the first was; the other three escaped main()
# as AttributeError, KeyError and TypeError and count as failed requests.
BAD_SUPPORTS = (
    '{"components": [',
    "[1, 2, 3]",
    '{"components": [{"in1": [-1, 0], "in2": [-1, 0]}]}',
    '{"components": [{"in1": [-1], "in2": [-1, 0], "out": [0, -1]}]}',
)


def sweep(rng: random.Random, workdir: str) -> list:
    """bigrade, filtration, ranks, check-torsion over every type A-D and rank 2..24."""
    reqs = []
    for t in "ABCD":
        flip = rng.randrange(2)
        for n in range(3 if t == "D" else 2, 25):
            for k, cmd in enumerate(SUBCOMMANDS):
                sq, sp = _random_pair(rng, n)
                spec = {"cmd": cmd, "rc": 0, "t": t, "n": n, "sq": sq, "sp": sp, "json": (n + k + flip) % 2 == 1}
                if cmd == "check-torsion":
                    spec["support"] = _random_support(rng, len(reqs))
                    path = os.path.join(workdir, f"support-{len(reqs)}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(spec["support"], fh, ensure_ascii=False)
                    argv = ["check-torsion", "--type", *_pair_args(t, n, sq, sp), "--support", path]
                else:
                    argv = [cmd, *_pair_args(t, n, sq, sp)]
                reqs.append((argv + ["--json"] * spec["json"], spec))
    # A fixed share of bad input; each must exit 2 with one stderr line.
    for i in range(16):
        t = rng.choice("ABCD")
        n = rng.randint(5, 24)
        sq, sp = _random_pair(rng, n)
        cmd = rng.choice(SUBCOMMANDS[:3])
        kind = i % 4
        if kind == 0:
            argv = [cmd, f"{t}{n}", "--sq", _nodes(sq) + ",x", "--sp", _nodes(sp)]
        elif kind == 1:
            outside = rng.choice([j for j in range(1, n + 1) if j not in sq])
            argv = [cmd, *_pair_args(t, n, sq, sp + [outside])]
        elif kind == 2:
            argv = [cmd, *_pair_args(t, n, sq + [n + 1], sp)]
        else:
            path = os.path.join(workdir, f"bad-support-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(BAD_SUPPORTS[i // 4])
            argv = ["check-torsion", "--type", *_pair_args(t, n, sq, sp), "--support", path]
        reqs.append((argv, {"cmd": "malformed", "rc": 2, "bad_support": kind == 3}))
    rng.shuffle(reqs)
    return reqs


def chain_pairs(t: str, n: int):
    """Every nonempty sigma_p whose Levi diagram has a type-A component.

    Yields (sigma_p, [(component size, endpoint j), ...]); with
    sigma_q = sigma_p + {j} the relative Hasse diagram is a chain of
    component size + 1 elements.
    """
    for k in range(1, n + 1):
        for sp in itertools.combinations(range(1, n + 1), k):
            levi = set(range(1, n + 1)) - set(sp)
            choices = [
                (len(c), j)
                for c in lie.components(t, n, levi)
                if lie.is_type_a(t, n, c)
                for j in lie.path_endpoints(t, n, c)
            ]
            if choices:
                yield list(sp), choices


def _bgg_request(rng: random.Random, t: str, n: int, sp, choices, json_out: bool):
    size, j = rng.choice(choices)
    sq = sorted(set(sp) | {j})
    source = tuple(rng.randint(-3, 3) if i in sp else rng.randint(0, 3) for i in range(1, n + 1))
    marks = ",".join("x" if i in sp else "o" for i in range(1, n + 1))
    label = f"{t}{n}[{marks}]({','.join(map(str, source))})"
    argv = ["bgg", label, "--sq", _nodes(sq), "--sp", _nodes(sp)] + ["--json"] * json_out
    spec = {"cmd": "bgg", "rc": 0, "t": t, "n": n, "sq": sq, "sp": list(sp), "source": source}
    spec.update(component=size, json=json_out)
    return argv, spec


def bgg_chain(rng: random.Random, workdir: str) -> list:
    """bgg --json once for every admissible sigma_p over A-D, ranks 2..7.

    Cost follows the order of the Levi Weyl group, which spans four decades
    here, so sampling sigma_p at random would make the total cost of a pass
    depend on the seed; the seed picks sigma_q, the source weight and order.
    """
    reqs = [
        _bgg_request(rng, t, n, sp, choices, True)
        for t in "ABCD"
        for n in range(3 if t == "D" else 2, 8)
        for sp, choices in chain_pairs(t, n)
    ]
    rng.shuffle(reqs)
    return reqs


# Requests per rank.  Each percentile sits mid-cluster, not on the step
# between two ranks where it would jump from one to the other: the twelve A7
# audits hold the median (44 requests below them), and the sixteen A12
# audits the 90th percentile, where cycling |sigma_p| as 2, 1, 3 puts it
# among the |sigma_p| = 2 ones.
AUDIT_COUNTS = {3: 12, 4: 12, 5: 12, 6: 8, 7: 12, 8: 16, 9: 4, 10: 4, 11: 4, 12: 16}


def audit(rng: random.Random, workdir: str) -> list:
    """audit --json on type-A pairs A3..A12; |sigma_p| sets the cost at a given rank."""
    reqs = []
    for n, count in AUDIT_COUNTS.items():
        for i in range(count):
            sp = sorted(rng.sample(range(1, n + 1), (2, 1, 3)[i % 3]))
            rest = [j for j in range(1, n + 1) if j not in sp]
            sq = sorted(sp + rng.sample(rest, rng.randint(0, min(2, len(rest)))))
            spec = {"cmd": "audit", "rc": 0, "t": "A", "n": n, "sq": sq, "sp": sp, "json": True}
            reqs.append((["audit", *_pair_args("A", n, sq, sp), "--json"], spec))
    rng.shuffle(reqs)
    return reqs


def cli_cold(rng: random.Random, workdir: str) -> list:
    """All six subcommands on A2..A6 (catalogs of the same size), text and JSON.

    Fifty requests a pass, so two passes meet the 100-request floor: every
    rank gets bigrade, filtration, ranks and bgg, and then audit (odd rank)
    or check-torsion (even rank), each as text and as JSON.
    """
    reqs = []
    for n in range(2, 7):
        chains = list(chain_pairs("A", n))
        for json_out in (False, True):
            flag = ["--json"] * json_out
            for cmd in ("bigrade", "filtration", "ranks", "audit" if n % 2 else "check-torsion"):
                if cmd == "check-torsion":
                    name = f"{rng.choice(['legendrean', 'path-geometry'])}({n - 1})"
                    assume = name.startswith("legendrean") and rng.random() < 0.5
                    argv = ["check-torsion", "--catalog", name] + ["--assume-involutive-F"] * assume
                    spec = {"cmd": cmd, "rc": 0, "catalog": name, "assume_f": assume, "json": json_out}
                else:
                    sq, sp = _random_pair(rng, n)
                    argv = [cmd, *_pair_args("A", n, sq, sp)]
                    spec = {"cmd": cmd, "rc": 0, "t": "A", "n": n, "sq": sq, "sp": sp, "json": json_out}
                reqs.append((argv + flag, spec))
            sp, choices = rng.choice(chains)
            reqs.append(_bgg_request(rng, "A", n, sp, choices, json_out))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"sweep": sweep, "bgg-chain": bgg_chain, "audit": audit, "cli-cold": cli_cold}
COLD = {"cli-cold"}
# Host-speed gauge per workload (see hostspeed.py): audit's time is split between numpy's compiled loops
# and the interpreter.
GAUGE = {"sweep": "interpreter", "bgg-chain": "interpreter", "audit": "mixed", "cli-cold": "interpreter"}


def generate(name: str, seed: int, workdir: str) -> list:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
