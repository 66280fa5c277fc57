"""Command-line front end: human-readable tables or deterministic JSON.

Exit codes: 0 success, 2 bad input, 3 a violated internal invariant
(a failed audit or an inconsistency the library guarantees against).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__
from .bgg import InternalCheckError, relative_bgg_sequence
from .dynkin import parse_label, print_label
from .grading import (
    Bigrading,
    ParabolicPair,
    bigrade,
    filtration,
    subalgebra_profile,
    tangent_ranks,
)
from .oracle import block_structure_from_pair, commutator_audit, p_plus_action_audit
from .roots import build_root_system
from .torsion import (
    catalog,
    corollary_33_check,
    support_from_json,
    support_to_json,
)

_TYPE_RE = re.compile(r"^([A-Z])(\d+)$")


def _parse_type(token: str):
    m = _TYPE_RE.match(token.strip())
    if not m:
        raise ValueError(f"malformed type token {token!r}; expected e.g. A4")
    return build_root_system(m.group(1), int(m.group(2)))


def _parse_nodes(text: str | None) -> frozenset[int]:
    if text is None or text.strip() in ("", "none"):
        return frozenset()
    try:
        return frozenset(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"malformed node list {text!r}; expected e.g. 1,4") from None


def _pair_from_args(args) -> ParabolicPair:
    rs = _parse_type(args.type)
    return ParabolicPair(rs=rs, sigma_q=_parse_nodes(args.sq), sigma_p=_parse_nodes(args.sp))


def _emit_json(command: str, inputs: dict, result: dict) -> None:
    report = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "version": __version__,
    }
    print(json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False))


def _pair_inputs(pair: ParabolicPair) -> dict:
    return {
        "type": f"{pair.rs.type_tag}{pair.rs.rank}",
        "sigma_q": sorted(pair.sigma_q),
        "sigma_p": sorted(pair.sigma_p),
    }


def _fmt_bd(bd) -> str:
    return f"({bd[0]},{bd[1]})"


def _components_json(bg: Bigrading) -> list[dict]:
    return [
        {
            "bidegree": list(bd),
            "dim": comp.dim,
            "includes_cartan": comp.includes_cartan,
            "roots": [list(r.coeffs) for r in comp.roots],
        }
        for bd, comp in sorted(bg.components.items())
    ]


def _block_matrix_lines(pair: ParabolicPair) -> list[str]:
    bs = block_structure_from_pair(pair)
    n = bs.num_blocks
    bidegs = bs.bidegree_of_block
    cells = [[_fmt_bd(bidegs[(a, b)]) for b in range(1, n + 1)] for a in range(1, n + 1)]
    width = max(len(c) for row in cells for c in row)
    lines = [f"block sizes: {','.join(str(s) for s in bs.block_sizes)}"]
    for row in cells:
        lines.append("  [ " + "  ".join(c.ljust(width) for c in row) + " ]")
    return lines


def cmd_bigrade(args) -> int:
    pair = _pair_from_args(args)
    bg = bigrade(pair)
    prof = subalgebra_profile(bg)
    if args.json:
        result = {
            "components": _components_json(bg),
            "dim_g": bg.dim_g,
            "subalgebras": {
                name: {"bidegrees": [list(bd) for bd in info.bidegrees], "dim": info.dim}
                for name, info in sorted(prof.items())
            },
        }
        if pair.rs.type_tag == "A":
            bs = block_structure_from_pair(pair)
            result["block_sizes"] = list(bs.block_sizes)
        _emit_json("bigrade", _pair_inputs(pair), result)
        return 0
    print(
        f"bigrading of {pair.rs.type_tag}{pair.rs.rank} for "
        f"sigma_q={{{','.join(map(str, sorted(pair.sigma_q)))}}}, "
        f"sigma_p={{{','.join(map(str, sorted(pair.sigma_p)))}}}"
    )
    for bd, comp in sorted(bg.components.items()):
        cartan = " (includes Cartan)" if comp.includes_cartan else ""
        print(f"{_fmt_bd(bd)}: dim {comp.dim}{cartan}")
    print(f"total dim {bg.dim_g}")
    if pair.rs.type_tag == "A":
        for line in _block_matrix_lines(pair):
            print(line)
    print("subalgebras:")
    for name in ("p", "p_plus", "p_0", "q", "q_plus", "q_0"):
        print(f"  {name}: dim {prof[name].dim}")
    return 0


def cmd_bgg(args) -> int:
    src = parse_label(args.label)
    pair = ParabolicPair(
        rs=src.rs, sigma_q=_parse_nodes(args.sq), sigma_p=_parse_nodes(args.sp)
    )
    seq = relative_bgg_sequence(src, pair)
    if args.json:
        result = {
            "source": print_label(src),
            "entries": [
                {
                    "word": list(e.word.gens),
                    "label": print_label(e.label),
                    "coeffs": list(e.label.coeffs.coeffs),
                    "order_to_next": e.order_to_next,
                }
                for e in seq.entries
            ],
            "hasse_size": len(seq.entries),
        }
        _emit_json("bgg", {**_pair_inputs(pair), "label": print_label(src)}, result)
        return 0
    for e in seq.entries:
        arrow = f" --[order {e.order_to_next}]-->" if e.order_to_next is not None else ""
        print(f"{print_label(e.label)}{arrow}")
    return 0


def cmd_filtration(args) -> int:
    pair = _pair_from_args(args)
    rep = filtration(bigrade(pair))
    if args.json:
        result = {
            "i_prime_range": list(rep.i_prime_range),
            "components": [
                {"i_prime": ip, "bidegrees": [list(bd) for bd in rep.components[ip]]}
                for ip in rep.i_prime_range
            ],
            "modules": [
                {
                    "i_prime": m.i_prime,
                    "dim": m.dim,
                    "steps": [{"i_dprime": idp, "dim": d} for idp, d in m.filtration_steps],
                }
                for m in (rep.modules[ip] for ip in rep.i_prime_range)
            ],
        }
        _emit_json("filtration", _pair_inputs(pair), result)
        return 0
    lo, hi = rep.i_prime_range[0], rep.i_prime_range[-1]
    print(f"i' range: {lo}..{hi}")
    for ip in rep.i_prime_range:
        m = rep.modules[ip]
        steps = " ".join(f"(i''={idp}: {d})" for idp, d in m.filtration_steps)
        print(f"V_{ip}: dim {m.dim}, steps: {steps}")
    return 0


def cmd_ranks(args) -> int:
    pair = _pair_from_args(args)
    rep = tangent_ranks(bigrade(pair))
    if args.json:
        result = {
            "dim_M": rep.dim_M,
            "rank_T_rho": rep.rank_T_rho,
            "ranks_T_P": [{"i_prime": ip, "rank": r} for ip, r in sorted(rep.ranks_T_P.items())],
            "ranks_V": [{"i_prime": ip, "rank": r} for ip, r in sorted(rep.ranks_V.items())],
        }
        _emit_json("ranks", _pair_inputs(pair), result)
        return 0
    parts = [f"dim M = {rep.dim_M}", f"rank T_rho = {rep.rank_T_rho}"]
    for ip in sorted(rep.ranks_V, reverse=True):
        parts.append(f"rank V_{ip} = {rep.ranks_V[ip]}")
    print(", ".join(parts))
    return 0


def cmd_check_torsion(args) -> int:
    if args.catalog:
        geom = catalog(args.catalog, assume_involutive_f=args.assume_involutive_f)
        pair, support = geom.pair, geom.support
        name = support.geometry_tag or geom.name
    else:
        if not (args.type and args.support):
            raise ValueError("need either --catalog or --type/--sq/--sp with --support")
        pair = _pair_from_args(args)
        with open(args.support, encoding="utf-8") as fh:
            support = support_from_json(json.load(fh))
        name = support.geometry_tag or "custom"
    cor = corollary_33_check(support, bigrade(pair))
    inv = cor.involutivity
    if args.json:
        result = {
            "geometry": name,
            "support": support_to_json(support),
            "involutivity": {
                "ok": inv.ok,
                "violators": [c.tag or _fmt_bd(c.out) for c in inv.violators],
            },
            "part1": cor.part1,
            "part2": cor.part2,
            "per_level": [
                {"i_prime": ip, "non_strict": a, "strict": b}
                for ip, (a, b) in sorted(cor.per_level.items())
            ],
        }
        _emit_json("check-torsion", _pair_inputs(pair), result)
        return 0
    print(f"geometry: {name}")
    if inv.ok:
        print("involutivity: PASS")
    else:
        tags = ", ".join(c.tag or _fmt_bd(c.out) for c in inv.violators)
        print(f"involutivity: FAIL ({tags})")
    print(f"part1: {'PASS' if cor.part1 else 'FAIL'} part2: {'PASS' if cor.part2 else 'FAIL'}")
    return 0


def cmd_audit(args) -> int:
    pair = _pair_from_args(args)
    bg = bigrade(pair)
    bs = block_structure_from_pair(pair)
    comm = commutator_audit(bs, bg)
    levels = sorted(bg.first_index_values())
    p_plus_reports = {ip: p_plus_action_audit(bs, ip) for ip in levels}
    total = (
        len(comm.violations)
        + len(comm.dim_mismatches)
        + sum(len(r.violations) for r in p_plus_reports.values())
    )
    if args.json:
        result = {
            "violations": total,
            "commutator": {
                "pairs_checked": comm.pairs_checked,
                "violations": list(comm.violations),
                "dim_mismatches": list(comm.dim_mismatches),
            },
            "p_plus_raising": [
                {
                    "i_prime": ip,
                    "pairs_checked": rep.pairs_checked,
                    "violations": list(rep.violations),
                }
                for ip, rep in sorted(p_plus_reports.items())
            ],
        }
        _emit_json("audit", _pair_inputs(pair), result)
        return 3 if total else 0
    print(
        f"commutator audit: {comm.pairs_checked} pairs, "
        f"{len(comm.violations)} violations, {len(comm.dim_mismatches)} dim mismatches"
    )
    for ip, rep in sorted(p_plus_reports.items()):
        print(f"p_plus raising at i'={ip}: {rep.pairs_checked} pairs, {len(rep.violations)} violations")
    print(f"{total} violations")
    return 3 if total else 0


def _add_pair_options(sub, with_type: bool = True) -> None:
    if with_type:
        sub.add_argument("type", help="diagram type and rank, e.g. A4")
    sub.add_argument("--sq", required=with_type, help="sigma_q nodes, e.g. 1,4")
    sub.add_argument("--sp", required=with_type, help="sigma_p nodes, e.g. 1")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relbgg",
        description="Exact bigrading, filtration, torsion and relative BGG computations "
        "for nested parabolic pairs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("bigrade", help="bidegree components, dims, block matrix")
    _add_pair_options(s)
    s.set_defaults(func=cmd_bigrade)

    s = subs.add_parser("bgg", help="relative BGG sequence shape from a source label")
    s.add_argument("label", help="source label, e.g. 'A4[x,o,o,o](-2,1,0,0)'")
    s.add_argument("--sq", required=True, help="sigma_q nodes, e.g. 1,2")
    s.add_argument("--sp", required=True, help="sigma_p nodes, e.g. 1")
    s.add_argument("--json", action="store_true", help="emit a JSON report")
    s.set_defaults(func=cmd_bgg)

    s = subs.add_parser("filtration", help="filtration pieces and graded modules")
    _add_pair_options(s)
    s.set_defaults(func=cmd_filtration)

    s = subs.add_parser("ranks", help="tangent-bundle subquotient ranks")
    _add_pair_options(s)
    s.set_defaults(func=cmd_ranks)

    s = subs.add_parser("check-torsion", help="torsion admissibility verdicts")
    s.add_argument("--catalog", help="built-in geometry, e.g. 'legendrean(3)'")
    s.add_argument(
        "--assume-involutive-F",
        dest="assume_involutive_f",
        action="store_true",
        help="drop the obstruction to involutivity of the relative directions",
    )
    s.add_argument("--type", help="diagram type for a custom support, e.g. A4")
    s.add_argument("--sq", help="sigma_q nodes for a custom support")
    s.add_argument("--sp", help="sigma_p nodes for a custom support")
    s.add_argument("--support", help="JSON file with a custom torsion support")
    s.add_argument("--json", action="store_true", help="emit a JSON report")
    s.set_defaults(func=cmd_check_torsion)

    s = subs.add_parser("audit", help="exhaustive matrix commutator audit")
    _add_pair_options(s)
    s.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
