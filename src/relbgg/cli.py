"""Command-line front end: human-readable tables or deterministic JSON.

Each ``cmd_*`` builds one result dict and returns ``(inputs, result, text
lines)``, the lines read from that result; ``main`` prints the JSON report
under ``--json`` and the lines otherwise.  The argument parser is built
once per process and reused by every ``main`` call; parsing keeps no state
between calls.

Exit codes: 0 success, 2 bad input, 3 a violated internal invariant
(a failed audit or an inconsistency the library guarantees against).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

# Every module is imported eagerly: perfbench/tracer.py wraps only the relbgg
# modules already loaded after `import relbgg.cli`, so lazy imports would hide layers.
from . import __version__
from .bgg import InternalCheckError, relative_bgg_sequence
from .dynkin import parse_label, print_label
from .grading import ParabolicPair, bidegree_of_root, bigrade, filtration, subalgebra_profile, tangent_ranks
from .oracle import block_structure_from_pair, commutator_audit
from .roots import Root, build_root_system
from .torsion import catalog, corollary_33_check, support_from_json, support_to_json

_TYPE_RE = re.compile(r"^([A-Z])(\d+)$")
MAX_SUPPORT_BYTES = 64 * 1024  # longer --support files are refused unparsed


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


def _pair_inputs(pair: ParabolicPair) -> dict:
    return {
        "type": f"{pair.rs.type_tag}{pair.rs.rank}",
        "sigma_q": sorted(pair.sigma_q),
        "sigma_p": sorted(pair.sigma_p),
    }


def _fmt_bd(bd) -> str:
    return f"({bd[0]},{bd[1]})"


def _block_display(pair: ParabolicPair) -> tuple[list[int], list[str]]:
    """Type-A block sizes and block matrix, read off the grading: cell (u, w) of
    two block starts is the bidegree of the root on the nodes between them,
    negated below the diagonal."""
    m = pair.rs.rank + 1
    starts = [0, *sorted(pair.sigma_q)]

    def between(u: int, w: int):  # the root on nodes u+1..w; (0,0) when u == w
        return bidegree_of_root(pair, Root(tuple(int(u < k <= w) for k in range(1, m))))

    cells = [[_fmt_bd(between(u, w) if u <= w else -between(w, u)) for w in starts] for u in starts]
    width = max(len(c) for row in cells for c in row)
    sizes = [b - a for a, b in zip(starts, [*starts[1:], m])]
    lines = [f"block sizes: {','.join(map(str, sizes))}"]
    lines += ["  [ " + "  ".join(c.ljust(width) for c in row) + " ]" for row in cells]
    return sizes, lines


def cmd_bigrade(args) -> tuple[dict, dict, list[str]]:
    pair = _pair_from_args(args)
    bg = bigrade(pair)
    prof = subalgebra_profile(bg)
    result = {
        "components": [
            {
                "bidegree": list(bd),
                "dim": comp.dim,
                "includes_cartan": comp.includes_cartan,
                "roots": [list(r.coeffs) for r in comp.roots],
            }
            for bd, comp in sorted(bg.components.items())
        ],
        "dim_g": bg.dim_g,
        "subalgebras": {
            name: {"bidegrees": [list(bd) for bd in info.bidegrees], "dim": info.dim}
            for name, info in sorted(prof.items())
        },
    }
    inputs = _pair_inputs(pair)
    lines = [
        f"bigrading of {inputs['type']} for "
        f"sigma_q={{{','.join(map(str, inputs['sigma_q']))}}}, "
        f"sigma_p={{{','.join(map(str, inputs['sigma_p']))}}}"
    ]
    for c in result["components"]:
        cartan = " (includes Cartan)" if c["includes_cartan"] else ""
        lines.append(f"{_fmt_bd(c['bidegree'])}: dim {c['dim']}{cartan}")
    lines.append(f"total dim {result['dim_g']}")
    if pair.rs.type_tag == "A":
        result["block_sizes"], block_lines = _block_display(pair)
        lines += block_lines
    lines.append("subalgebras:")
    for name in ("p", "p_plus", "p_0", "q", "q_plus", "q_0"):
        lines.append(f"  {name}: dim {result['subalgebras'][name]['dim']}")
    return inputs, result, lines


def cmd_bgg(args) -> tuple[dict, dict, list[str]]:
    src = parse_label(args.label)
    pair = ParabolicPair(
        rs=src.rs, sigma_q=_parse_nodes(args.sq), sigma_p=_parse_nodes(args.sp)
    )
    seq = relative_bgg_sequence(src, pair)
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
    lines = [
        e["label"] + ("" if e["order_to_next"] is None else f" --[order {e['order_to_next']}]-->")
        for e in result["entries"]
    ]
    return {**_pair_inputs(pair), "label": result["source"]}, result, lines


def cmd_filtration(args) -> tuple[dict, dict, list[str]]:
    pair = _pair_from_args(args)
    rep = filtration(bigrade(pair))
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
    ips = result["i_prime_range"]
    lines = [f"i' range: {ips[0]}..{ips[-1]}"]
    for m in result["modules"]:
        steps = " ".join(f"(i''={s['i_dprime']}: {s['dim']})" for s in m["steps"])
        lines.append(f"V_{m['i_prime']}: dim {m['dim']}, steps: {steps}")
    return _pair_inputs(pair), result, lines


def cmd_ranks(args) -> tuple[dict, dict, list[str]]:
    pair = _pair_from_args(args)
    rep = tangent_ranks(bigrade(pair))
    result = {
        "dim_M": rep.dim_M,
        "rank_T_rho": rep.rank_T_rho,
        "ranks_T_P": [{"i_prime": ip, "rank": r} for ip, r in sorted(rep.ranks_T_P.items())],
        "ranks_V": [{"i_prime": ip, "rank": r} for ip, r in sorted(rep.ranks_V.items())],
    }
    parts = [f"dim M = {result['dim_M']}", f"rank T_rho = {result['rank_T_rho']}"]
    parts += [f"rank V_{v['i_prime']} = {v['rank']}" for v in reversed(result["ranks_V"])]
    return _pair_inputs(pair), result, [", ".join(parts)]


def cmd_check_torsion(args) -> tuple[dict, dict, list[str]]:
    if args.catalog:
        if any(v is not None for v in (args.type, args.sq, args.sp, args.support)):
            raise ValueError("--catalog does not combine with --type, --sq, --sp or --support")
        geom = catalog(args.catalog, assume_involutive_f=args.assume_involutive_f)
        pair, support = geom.pair, geom.support
        name = support.geometry_tag or geom.name
    else:
        if args.assume_involutive_f:
            raise ValueError("--assume-involutive-F applies only to --catalog")
        if any(v is None for v in (args.type, args.sq, args.sp, args.support)):
            raise ValueError("need either --catalog or --type, --sq, --sp and --support")
        pair = _pair_from_args(args)
        with open(args.support, "rb") as fh:
            raw = fh.read(MAX_SUPPORT_BYTES + 1)
        if len(raw) > MAX_SUPPORT_BYTES:
            raise ValueError(f"support file {args.support!r} is over {MAX_SUPPORT_BYTES} bytes")
        try:
            data = json.loads(raw.decode("utf-8"))
        except RecursionError:
            raise ValueError(f"support JSON {args.support!r} is nested too deeply") from None
        support = support_from_json(data)
        name = support.geometry_tag or "custom"
    cor = corollary_33_check(support, bigrade(pair))
    inv = cor.involutivity
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
    verdict = result["involutivity"]
    lines = [
        f"geometry: {result['geometry']}",
        "involutivity: PASS" if verdict["ok"]
        else f"involutivity: FAIL ({', '.join(verdict['violators'])})",
        f"part1: {'PASS' if result['part1'] else 'FAIL'} "
        f"part2: {'PASS' if result['part2'] else 'FAIL'}",
    ]
    return _pair_inputs(pair), result, lines


def cmd_audit(args) -> tuple[dict, dict, list[str]]:
    pair = _pair_from_args(args)
    comm = commutator_audit(block_structure_from_pair(pair), bigrade(pair))
    result = {
        "violations": len(comm.violations) + len(comm.dim_mismatches),
        "commutator": {
            "pairs_checked": comm.pairs_checked,
            "violations": list(comm.violations),
            "dim_mismatches": list(comm.dim_mismatches),
        },
    }
    c = result["commutator"]
    lines = [
        f"commutator audit: {c['pairs_checked']} pairs, "
        f"{len(c['violations'])} violations, {len(c['dim_mismatches'])} dim mismatches",
        f"{result['violations']} violations",
    ]
    return _pair_inputs(pair), result, lines


def _add_pair_options(sub) -> None:
    sub.add_argument("type", help="diagram type and rank, e.g. A4")
    sub.add_argument("--sq", required=True, help="sigma_q nodes, e.g. 1,4")
    sub.add_argument("--sp", required=True, help="sigma_p nodes, e.g. 1")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit 2; subparsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    args = build_parser().parse_args(argv)
    try:
        inputs, result, lines = args.func(args)
    except InternalCheckError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        report = {"command": args.command, "inputs": inputs, "result": result, "version": __version__}
        print(json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False))
    else:
        print("\n".join(lines))
    return 3 if result.get("violations") else 0


if __name__ == "__main__":
    sys.exit(main())
