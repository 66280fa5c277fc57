"""Independent answer checks: they re-derive each answer from definitions.

Nothing here imports relbgg.  Root data comes from ``lie`` (the epsilon-basis
model), torsion verdicts from the definitions in the README, and type-A
component dimensions a second time from the block sizes of sigma_q.
Each checker takes a request spec and the program's stdout and returns
``None`` when the answer is right, else a one-line reason.
"""

from __future__ import annotations

import json
import re

import lie


def _height(root, sigma) -> int:
    return sum(root[i - 1] for i in sigma)


def bigrading(t: str, n: int, sq, sp) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """Bidegree -> sorted signed roots; (0, 0) is always present."""
    out: dict[tuple[int, int], list] = {(0, 0): []}
    for r in lie.positive_roots(t, n):
        hp, hq = _height(r, sp), _height(r, sq)
        out.setdefault((hp, hq - hp), []).append(r)
        out.setdefault((-hp, hp - hq), []).append(tuple(-c for c in r))
    return {bd: sorted(rs) for bd, rs in out.items()}


def dims(t: str, n: int, sq, sp) -> dict[tuple[int, int], int]:
    bg = bigrading(t, n, sq, sp)
    return {bd: len(rs) + (n if bd == (0, 0) else 0) for bd, rs in bg.items()}


def block_dims(n: int, sq, sp) -> tuple[list[int], dict[tuple[int, int], int]]:
    """Type A: block sizes from the sigma_q cuts, dims from products of block sizes."""
    cuts = sorted(sq)
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n + 1])]
    p_block = [1 + sum(1 for k in sp if k < start + 1) for start in [0] + cuts]
    out: dict[tuple[int, int], int] = {}
    for a, sa in enumerate(sizes):
        for b, sb in enumerate(sizes):
            ip = p_block[b] - p_block[a]
            bd = (ip, (b - a) - ip)
            out[bd] = out.get(bd, 0) + sa * sb
    out[(0, 0)] -= 1
    return sizes, out


SUBALGEBRAS = {
    "p": lambda a, b: a >= 0,
    "p_plus": lambda a, b: a > 0,
    "p_0": lambda a, b: a == 0,
    "q": lambda a, b: a >= 0 and b >= 0,
    "q_plus": lambda a, b: a + b > 0,
    "q_0": lambda a, b: a == 0 and b == 0,
}


def _sub_dim(d, name) -> int:
    return sum(v for (a, b), v in d.items() if SUBALGEBRAS[name](a, b))


def _bd(text: str) -> tuple[int, int]:
    a, b = text.strip("()").split(",")
    return int(a), int(b)


def check_bigrade(spec, out: str):
    t, n, sq, sp = spec["t"], spec["n"], spec["sq"], spec["sp"]
    bg = bigrading(t, n, sq, sp)
    d = {bd: len(rs) + (n if bd == (0, 0) else 0) for bd, rs in bg.items()}
    if sum(len(rs) for rs in bg.values()) != 2 * lie.n_positive(t, n) or sum(d.values()) != lie.dim_g(t, n):
        return "reference root count disagrees with the closed form"
    if t == "A":
        sizes, bdims = block_dims(n, sq, sp)
        if bdims != d:
            return "reference block dims disagree with root dims"
    if spec["json"]:
        res = json.loads(out)["result"]
        if res["dim_g"] != lie.dim_g(t, n):
            return f"dim_g {res['dim_g']} != {lie.dim_g(t, n)}"
        got = {tuple(c["bidegree"]): c for c in res["components"]}
        if set(got) != set(d):
            return "bidegree set differs"
        for bd, c in got.items():
            if c["dim"] != d[bd] or c["includes_cartan"] != (bd == (0, 0)):
                return f"component {bd} dim {c['dim']} != {d[bd]}"
            if sorted(tuple(r) for r in c["roots"]) != bg[bd]:
                return f"component {bd} roots differ"
        for name in SUBALGEBRAS:
            info = res["subalgebras"][name]
            want = sorted(bd for bd in d if SUBALGEBRAS[name](*bd))
            if info["dim"] != _sub_dim(d, name) or [tuple(b) for b in info["bidegrees"]] != want:
                return f"subalgebra {name} differs"
        if t == "A" and res.get("block_sizes") != sizes:
            return f"block sizes {res.get('block_sizes')} != {sizes}"
        return None
    got = {}
    subs = {}
    blocks = None
    total = None
    for line in out.splitlines():
        m = re.match(r"^(\(-?\d+,-?\d+\)): dim (\d+)", line)
        if m:
            got[_bd(m.group(1))] = int(m.group(2))
        elif line.startswith("total dim "):
            total = int(line.split()[-1])
        elif line.startswith("block sizes: "):
            blocks = [int(x) for x in line.split(": ")[1].split(",")]
        else:
            m = re.match(r"^  (\w+): dim (\d+)$", line)
            if m:
                subs[m.group(1)] = int(m.group(2))
    if got != d or total != lie.dim_g(t, n):
        return "component dims or total differ"
    if any(subs.get(name) != _sub_dim(d, name) for name in SUBALGEBRAS):
        return "subalgebra dims differ"
    if t == "A" and blocks != sizes:
        return f"block sizes {blocks} != {sizes}"
    return None


def filtration_expected(d):
    values = sorted({a for a, _ in d})
    comps = {ip: sorted(bd for bd in d if bd[0] >= ip) for ip in values}
    modules = {}
    for ip in values:
        level = sorted(bd for bd in d if bd[0] == ip)
        steps = [(b, sum(d[x] for x in level if x[1] >= b)) for _, b in level]
        modules[ip] = (sum(d[x] for x in level), steps)
    return values, comps, modules


def check_filtration(spec, out: str):
    d = dims(spec["t"], spec["n"], spec["sq"], spec["sp"])
    values, comps, modules = filtration_expected(d)
    if spec["json"]:
        res = json.loads(out)["result"]
        if res["i_prime_range"] != values:
            return "i' range differs"
        if {c["i_prime"]: [tuple(b) for b in c["bidegrees"]] for c in res["components"]} != comps:
            return "filtration pieces differ"
        got = {m["i_prime"]: (m["dim"], [(s["i_dprime"], s["dim"]) for s in m["steps"]]) for m in res["modules"]}
        return None if got == modules else "graded modules differ"
    lines = out.splitlines()
    if lines[0] != f"i' range: {values[0]}..{values[-1]}":
        return "i' range line differs"
    got = {}
    for line in lines[1:]:
        m = re.match(r"^V_(-?\d+): dim (\d+), steps: (.*)$", line)
        if not m:
            return f"unexpected line {line!r}"
        steps = [(int(a), int(b)) for a, b in re.findall(r"\(i''=(-?\d+): (\d+)\)", m.group(3))]
        got[int(m.group(1))] = (int(m.group(2)), steps)
    return None if got == modules else "graded modules differ"


def ranks_expected(d):
    dim_q = _sub_dim(d, "q")
    dim_m = sum(d.values()) - dim_q
    rho = _sub_dim(d, "p") - dim_q
    negatives = sorted({a for a, _ in d if a < 0})
    tp = {ip: sum(v for (a, _), v in d.items() if a >= ip) - dim_q for ip in negatives}
    rv = {ip: tp[ip] - (rho if ip + 1 == 0 else tp[ip + 1]) for ip in negatives}
    return dim_m, rho, tp, rv


def check_ranks(spec, out: str):
    dim_m, rho, tp, rv = ranks_expected(dims(spec["t"], spec["n"], spec["sq"], spec["sp"]))
    if spec["json"]:
        res = json.loads(out)["result"]
        got_v = {x["i_prime"]: x["rank"] for x in res["ranks_V"]}
        got_p = {x["i_prime"]: x["rank"] for x in res["ranks_T_P"]}
        got = (res["dim_M"], res["rank_T_rho"], got_p, got_v)
    else:
        m = re.match(r"^dim M = (\d+), rank T_rho = (\d+)((?:, rank V_-?\d+ = \d+)*)$", out.strip())
        if not m:
            return "unparsable ranks line"
        got_v = {int(a): int(b) for a, b in re.findall(r"rank V_(-?\d+) = (\d+)", m.group(3))}
        got = (int(m.group(1)), int(m.group(2)), tp, got_v)
    if sum(got[3].values()) + got[1] != got[0]:
        return "sum of ranks_V plus rank_T_rho is not dim_M"
    return None if got == (dim_m, rho, tp, rv) else "ranks differ"


# --- torsion, from the README: components consume two tangent directions ---


def _in_q(bd) -> bool:
    return bd[0] >= 0 and bd[1] >= 0


def _relative(bd) -> bool:
    return bd[0] == 0 and bd[1] < 0


def catalog_support(name: str, assume_f: bool) -> dict:
    """The built-in geometries as the README describes them, in the JSON schema."""
    kind, n = re.match(r"^([a-z-]+)\((\d+)\)$", name).groups()
    if kind == "legendrean":
        comps = [
            {"in1": [-1, 0], "in2": [-1, 0], "out": [0, -1], "tag": "Λ²E*⊗F"},
            {"in1": [-1, 0], "in2": [0, -1], "out": [0, 0], "tag": "E*⊗F*⊗L(E,E)"},
        ]
        if not assume_f:
            comps.append({"in1": [0, -1], "in2": [0, -1], "out": [-1, 0], "tag": "Λ²F*⊗E"})
        tag = f"legendrean({n})" + (" involutive-F" if assume_f else "")
        return {"components": comps, "geometry_tag": tag}
    comps = [
        {"in1": [-1, 0], "in2": [-1, -1], "out": [0, -1], "tag": "E*⊗(TM/H)*⊗V"},
        {"in1": [0, -1], "in2": [-1, -1], "out": [0, 0], "tag": "V*⊗(TM/H)*⊗L(V,V)"},
    ]
    return {"components": comps, "geometry_tag": f"path-geometry({n})"}


def catalog_pair(name: str) -> tuple[int, list[int], list[int]]:
    kind, n = re.match(r"^([a-z-]+)\((\d+)\)$", name).groups()
    n = int(n)
    return n + 1, ([1, n + 1] if kind == "legendrean" else [1, 2]), [1]


def torsion_verdicts(support: dict, lowest: int) -> dict:
    comps = sorted(
        {
            (*sorted((tuple(c["in1"]), tuple(c["in2"]))), tuple(c["out"]), c.get("tag", ""))
            for c in support["components"]
        }
    )
    torsion = [c for c in comps if not _in_q(c[2])]
    violators = [c for c in torsion if _relative(c[0]) and _relative(c[1]) and c[2][0] < 0]

    def level_ok(ip: int, bound: int) -> bool:
        for a, b, o, _ in torsion:
            applies = (_relative(a) and b[0] >= ip) or (_relative(b) and a[0] >= ip)
            if applies and o[0] < bound:
                return False
        return True

    per_level = [(ip, level_ok(ip, ip), level_ok(ip, ip + 1) if ip < 0 else True) for ip in range(lowest, 1)]
    return {
        "components": comps,
        "involutivity": not violators,
        "violators": [c[3] or f"({c[2][0]},{c[2][1]})" for c in violators],
        "part1": all(x[1] for x in per_level),
        "part2": not violators and all(x[2] for x in per_level),
        "per_level": per_level,
    }


def check_torsion(spec, out: str):
    if "catalog" in spec:
        n, sq, sp = catalog_pair(spec["catalog"])
        t, support = "A", catalog_support(spec["catalog"], spec["assume_f"])
    else:
        t, n, sq, sp, support = spec["t"], spec["n"], spec["sq"], spec["sp"], spec["support"]
    lowest = -max(_height(r, sp) for r in lie.positive_roots(t, n))
    want = torsion_verdicts(support, lowest)
    name = support.get("geometry_tag") or "custom"
    if spec["json"]:
        data = json.loads(out)
        inp, res = data["inputs"], data["result"]
        if (inp["type"], inp["sigma_q"], inp["sigma_p"]) != (f"{t}{n}", sorted(sq), sorted(sp)):
            return "pair differs"
        echo = sorted(
            (tuple(c["in1"]), tuple(c["in2"]), tuple(c["out"]), c["tag"]) for c in res["support"]["components"]
        )
        if echo != want["components"] or res["geometry"] != name:
            return "support echo differs"
        got = (
            res["involutivity"]["ok"],
            res["involutivity"]["violators"],
            res["part1"],
            res["part2"],
            [(x["i_prime"], x["non_strict"], x["strict"]) for x in res["per_level"]],
        )
        keys = ("involutivity", "violators", "part1", "part2", "per_level")
        return None if got == tuple(want[k] for k in keys) else "verdicts differ"
    inv = "PASS" if want["involutivity"] else f"FAIL ({', '.join(want['violators'])})"
    lines = [
        f"geometry: {name}",
        f"involutivity: {inv}",
        f"part1: {'PASS' if want['part1'] else 'FAIL'} part2: {'PASS' if want['part2'] else 'FAIL'}",
    ]
    return None if out.splitlines() == lines else "verdict lines differ"


# --- relative BGG sequences ---

_LABEL = re.compile(r"^([A-D])(\d+)\[([xo,]+)\]\((-?\d+(?:,-?\d+)*)\)$")


def check_bgg(spec, out: str):
    t, n, sq, src = spec["t"], spec["n"], set(spec["sq"]), tuple(spec["source"])
    if spec["json"]:
        res = json.loads(out)["result"]
        entries = [(e["label"], e["order_to_next"], len(e["word"])) for e in res["entries"]]
        if res["hasse_size"] != len(entries):
            return "hasse_size differs from the entry count"
    else:
        entries = []
        for k, line in enumerate(out.splitlines()):
            m = re.match(r"^(\S+?)(?: --\[order (\d+)\]-->)?$", line)
            if not m:
                return f"unparsable line {line!r}"
            entries.append((m.group(1), int(m.group(2)) if m.group(2) else None, k))
    if len(entries) != spec["component"] + 1:
        return f"{len(entries)} entries, expected {spec['component'] + 1}"
    key = lie.orbit_key(t, n, tuple(c + 1 for c in src))
    for k, (label, order, length) in enumerate(entries):
        m = _LABEL.match(label)
        if not m or (m.group(1), int(m.group(2))) != (t, n):
            return f"bad label {label!r}"
        crossed = {i + 1 for i, mk in enumerate(m.group(3).split(",")) if mk == "x"}
        coeffs = tuple(int(c) for c in m.group(4).split(","))
        if crossed != sq or len(coeffs) != n:
            return f"label {label} not crossed at sigma_q"
        if any(coeffs[i - 1] < 0 for i in range(1, n + 1) if i not in sq):
            return f"label {label} has a negative uncrossed coefficient"
        if k == 0 and coeffs != src:
            return "first label is not the source weight"
        if lie.orbit_key(t, n, tuple(c + 1 for c in coeffs)) != key:
            return f"label {label} plus rho leaves the Weyl orbit of the source"
        if length != k:
            return f"entry {k} has word length {length}"
        last = k == len(entries) - 1
        if (order is None) != last or (order is not None and order <= 0):
            return f"entry {k} has order {order}"
    return None


def check_audit(spec, out: str):
    m = spec["n"] + 1
    pairs = (m * m - 1) ** 2
    if spec["json"]:
        res = json.loads(out)["result"]
        if res["violations"] != 0:
            return f"{res['violations']} violations"
        if res["commutator"]["pairs_checked"] != pairs:
            return f"{res['commutator']['pairs_checked']} commutator pairs, expected {pairs}"
        return None
    lines = out.splitlines()
    if lines[-1] != "0 violations":
        return "audit reports violations"
    first = re.match(r"^commutator audit: (\d+) pairs", lines[0])
    return None if first and int(first.group(1)) == pairs else "commutator pair count differs"


CHECKERS = {
    "bigrade": check_bigrade,
    "filtration": check_filtration,
    "ranks": check_ranks,
    "check-torsion": check_torsion,
    "bgg": check_bgg,
    "audit": check_audit,
}


def judge(spec, rc, out: str, err: str):
    """None if right, else (kind, reason).

    kind is "error" only for a malformed support file that escapes main() as
    an uncaught exception: the known ROADMAP item 4 failures, counted in
    failed_frac but not held against ``correct``.  Every other failure is
    "wrong": a well-formed request that does not exit 0 cleanly, any other
    malformed request that is not refused, or an answer the checker rejects.
    """
    if isinstance(rc, str):
        reason = rc
    elif "Traceback (most recent call last)" in err:
        reason = "traceback on stderr: " + (err.strip().splitlines() or [""])[-1]
    elif rc != spec["rc"]:
        return "wrong", f"exit {rc}, expected {spec['rc']}"
    elif rc == 2:
        if out or len(err.strip().splitlines()) != 1:
            return "wrong", "a refusal must print exactly one stderr line and no stdout"
        return None
    else:
        try:
            reason = CHECKERS[spec["cmd"]](spec, out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        return None if reason is None else ("wrong", reason)
    escaped = reason.startswith(("uncaught ", "traceback on stderr"))
    return ("error" if spec.get("bad_support") and escaped else "wrong"), reason
