"""Command-line front end: human-readable tables or deterministic JSON.

Each ``cmd_*`` returns ``(inputs, result, text lines)``, the lines read from
its one result dict.  ``run`` answers one request as ``(code, stdout, stderr)``
and writes nothing; a failure while rendering the JSON report (one fragment
list, joined once) or the lines leaves stdout empty.  ``main`` only writes.
``parse_args`` reads argv in one pass against the ``COMMANDS`` table: options
in any order, as ``--opt value`` or ``--opt=value``, unique prefixes, and
``--`` to end them.  It returns help and ``--version`` as text (exit 0); a
usage error is a ``ValueError`` like any other bad input (exit 2).

Exit codes: 0 success, 1 stdout closed by its reader, 2 bad input, 3 a
violated internal invariant (a failed audit or an inconsistency the library
guarantees against).
"""

from __future__ import annotations

import json
import os
import re
import sys
from json.encoder import encode_basestring as _quote
from types import SimpleNamespace

# Only what every subcommand runs is imported here; cmd_bgg, cmd_check_torsion
# and cmd_audit import their own modules, so a process loads only its command's.
from . import __version__
from .grading import ParabolicPair, RootRows, bigrade, filtration, subalgebra_profile, tangent_ranks
from .roots import InternalCheckError, build_root_system

_TYPE_RE = re.compile(r"^([A-Z])(\d+)$", re.ASCII)
_NODES_RE = re.compile(r"\s*\d+\s*(?:,\s*\d+\s*)*", re.ASCII)
MAX_SUPPORT_BYTES = 64 * 1024  # longer --support files are refused unparsed


def _parse_type(token: str):
    m = _TYPE_RE.match(token.strip())
    if not m:
        raise ValueError(f"malformed type token {token!r}; expected e.g. A4")
    return build_root_system(m.group(1), int(m.group(2)))


def _parse_nodes(text: str | None) -> frozenset[int]:
    """Comma-separated ASCII numbers, ASCII whitespace allowed around each; blank or ``none`` is empty."""
    if text is None or text.strip() in ("", "none"):
        return frozenset()
    if not _NODES_RE.fullmatch(text):
        raise ValueError(f"malformed node list {text!r}; expected e.g. 1,4")
    return frozenset(map(int, text.split(",")))


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

    def between(u: int, w: int) -> str:  # sigma nodes in (u, w], counted negatively when w < u
        hp, hq = (sum(k <= w for k in s) - sum(k <= u for k in s) for s in (pair.sigma_p, pair.sigma_q))
        return _fmt_bd((hp, hq - hp))

    cells = [[between(u, w) for w in starts] for u in starts]
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
            {"bidegree": list(bd), "dim": dim, "includes_cartan": bd == (0, 0)}
            for bd, dim in sorted(bg.dims.items())
        ],
        "dim_g": bg.dim_g,
        "subalgebras": {
            name: {"bidegrees": [list(bd) for bd in info.bidegrees], "dim": info.dim}
            for name, info in sorted(prof.items())
        },
    }
    if args.json:  # the text lines list no roots, so only JSON builds them
        spaces = bg.root_spaces()
        for c in result["components"]:
            c["roots"] = spaces[tuple(c["bidegree"])]
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
    from .bgg import relative_bgg_sequence
    from .dynkin import parse_label, print_label

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
        "i_prime_range": list(rep.components),
        "components": [
            {"i_prime": ip, "bidegrees": [list(bd) for bd in bds]} for ip, bds in rep.components.items()
        ],
        "modules": [
            {
                "i_prime": ip,
                "dim": m.dim,
                "steps": [{"i_dprime": idp, "dim": d} for idp, d in m.filtration_steps],
            }
            for ip, m in rep.modules.items()
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
    from .torsion import catalog, corollary_33_check, support_from_json, support_to_json

    if args.catalog:
        if any(v is not None for v in (args.type, args.sq, args.sp, args.support)):
            raise ValueError("--catalog does not combine with --type, --sq, --sp or --support")
        geom = catalog(args.catalog, assume_involutive_f=args.assume_involutive_f)
        pair, support = geom.pair, geom.support
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
    cor = corollary_33_check(support, pair)
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
    from .oracle import block_structure_from_pair, commutator_audit

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


_TYPE = ("type", "diagram type and rank, e.g. A4")
_PAIR = {"--sq": (True, "sigma_q nodes, e.g. 1,4"), "--sp": (True, "sigma_p nodes, e.g. 1")}
_JSON = {"--json": "emit a JSON report"}

# Subcommand -> (function, help, positional (name, help) or None,
# value options {option: (required, help)}, boolean flags {option: help}).
COMMANDS = {
    "bigrade": (cmd_bigrade, "bidegree components, dims, block matrix", _TYPE, _PAIR, _JSON),
    "bgg": (cmd_bgg, "relative BGG sequence shape from a source label",
            ("label", "source label, e.g. 'A4[x,o,o,o](-2,1,0,0)'"),
            {"--sq": (True, "sigma_q nodes, e.g. 1,2"), "--sp": (True, "sigma_p nodes, e.g. 1")}, _JSON),
    "filtration": (cmd_filtration, "filtration pieces and graded modules", _TYPE, _PAIR, _JSON),
    "ranks": (cmd_ranks, "tangent-bundle subquotient ranks", _TYPE, _PAIR, _JSON),
    "check-torsion": (cmd_check_torsion, "torsion admissibility verdicts", None, {
        "--catalog": (False, "built-in geometry, e.g. 'legendrean(3)'"),
        "--type": (False, "diagram type for a custom support, e.g. A4"),
        "--sq": (False, "sigma_q nodes for a custom support"),
        "--sp": (False, "sigma_p nodes for a custom support"),
        "--support": (False, "JSON file with a custom torsion support"),
    }, {"--assume-involutive-F": "drop the obstruction to involutivity of the relative directions", **_JSON}),
    "audit": (cmd_audit, "exhaustive matrix commutator audit", _TYPE, _PAIR, _JSON),
}
# Each option's attribute name: --assume-involutive-F -> assume_involutive_f.
_DEST = {o: o[2:].replace("-", "_").lower() for *_, options, flags in COMMANDS.values() for o in (*options, *flags)}
_HELP = ("-h, --help", "show this help message and exit")
# Per command, built once: the names _resolve matches and the namespace before any option is read.
_NAMES = {c: [*options, *flags, "-h", "--help"] for c, (*_, options, flags) in COMMANDS.items()}
_DEFAULTS = {c: {**dict.fromkeys(map(_DEST.get, options)), **dict.fromkeys(map(_DEST.get, flags), False)}
             for c, (*_, options, flags) in COMMANDS.items()}


def _resolve(arg: str, names: list[str]) -> str:
    """The option that ``arg`` names in full or, for ``--``, by a unique prefix."""
    if arg in names:
        return arg
    found = [n for n in names if n.startswith(arg)] if arg.startswith("--") else []
    if len(found) != 1:
        raise ValueError(f"option {arg!r} is " + (f"ambiguous: {', '.join(found)}" if found else "unknown"))
    return found[0]


def _help(command: str | None) -> str:
    if command is None:
        usage = f"[-h] [--version] {{{','.join(COMMANDS)}}} ..."
        about = "Exact bigrading, filtration, torsion and relative BGG computations for nested parabolic pairs."
        rows = [_HELP, ("--version", "show program's version number and exit"), *((c, r[1]) for c, r in COMMANDS.items())]
    else:
        _, about, positional, options, flags = COMMANDS[command]
        pos = [positional] if positional else []
        shown = {o: f"{o} {_DEST[o].upper()}" for o in options}
        words = [shown[o] if required else f"[{shown[o]}]" for o, (required, _) in options.items()]
        usage = " ".join([command, "[-h]", *words, *(f"[{f}]" for f in flags), *(name for name, _ in pos)])
        rows = [*pos, _HELP, *((shown[o], h) for o, (_, h) in options.items()), *flags.items()]
    width = max(len(name) for name, _ in rows) + 2
    return "\n".join([f"usage: relbgg {usage}", "", about, "", *(f"  {name.ljust(width)}{h}" for name, h in rows)])


def parse_args(argv: list[str]) -> SimpleNamespace | str:
    """One pass over ``argv`` against ``COMMANDS``: the request's namespace, or the help or version text."""
    command, *rest = argv or [""]
    if command not in COMMANDS:
        if not command.startswith("-"):
            raise ValueError(f"expected a command, one of {', '.join(COMMANDS)}; got {command!r}")
        top = _resolve(command, ["-h", "--help", "--version"])
        return f"relbgg {__version__}" if top == "--version" else _help(None)
    func, _, positional, options, flags = COMMANDS[command]
    args, names = _DEFAULTS[command].copy(), _NAMES[command]
    free, it = [], iter(rest)
    for arg in it:
        if arg == "--":
            free += it  # everything after it is positional
        elif not arg.startswith("-"):
            free.append(arg)
        else:
            option, eq, value = arg.partition("=")
            option = _resolve(option, names)
            if option in options:
                if not eq and (value := next(it, "-")).startswith("-"):
                    raise ValueError(f"option {option} expects a value")
                args[_DEST[option]] = value
            elif eq:
                raise ValueError(f"option {option} takes no value")
            elif option in flags:
                args[_DEST[option]] = True
            else:
                return _help(command)
    if positional and free:
        args[positional[0]] = free.pop(0)
    if free:
        raise ValueError(f"unrecognized arguments: {' '.join(map(repr, free))}")
    missing = [positional[0]] if positional and positional[0] not in args else []
    missing += [o for o, (required, _) in options.items() if required and args[_DEST[o]] is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, func=func, **args)


# bytes.translate tables for root rows: coefficients 0..2 to their digits, any other byte (the marker "|" too) to "|".
_DIGITS = b"012" + b"|" * 253
_NEGATED = b"0ab" + b"|" * 253  # the negated half: 1 and 2 as placeholders the writer turns into -1 and -2
_KINDS = frozenset((str, int, bool, type(None), list, dict, RootRows))  # the exact types a report holds


def _root_digits(rows: tuple[bytes, ...], table: bytes) -> bytes:
    """The coefficients of ``rows`` translated by ``table``, one byte each,
    with a "|" between two rows, in a fixed number of C-level calls.  A
    coefficient the table does not cover shows as an extra "|" and raises."""
    text = b"|".join(rows).translate(table)
    if text.count(b"|") != max(len(rows) - 1, 0):
        raise InternalCheckError("a root coefficient outside 0..2 reached the root listing")
    return text


def _dump(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)`` and a
    newline, for the values a report holds: dicts with str keys, lists, str,
    int, bool, None, and ``RootRows``, which print as a list of int lists.  The
    fragments and the newline go to one list, joined once: no byte is copied per container.

    An indent sends ``json.dumps`` to its pure-Python encoder; here strings go
    through the C quoting function, every other list and dict is one loop over
    its items, each int item written in place, and a ``RootRows`` (``bigrade``'s
    root listing) a fixed number of bulk ``bytes`` operations, however many rows
    it holds: its halves, translated by ``_root_digits`` and joined by "|", are
    expanded by ``replace(b"", sep)``, a separator around every character; one
    replace turns each "|" and its separators into a row break, two more turn
    the negated half's placeholders into -1 and -2 (no indent or separator holds
    a letter), and one slice drops the separator left at each end."""
    return "".join([*_write(obj, "\n", []), "\n"])


def _write(obj, pad: str, out: list[str]) -> list[str]:
    """Append the fragments of ``obj``, its lines indented from ``pad``, to ``out``; return ``out``."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is bool or obj is None:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind not in _KINDS:
        raise TypeError(f"{kind.__name__} is not a report value")
    else:
        sep = "," + (inner := pad + "  ")
        if kind is RootRows:  # either half may be empty, and so may both
            text = b"|".join(filter(None, map(_root_digits, obj, (_NEGATED, _DIGITS))))
            item = (sep + "  ").encode()  # before each coefficient: a comma, a newline and the row's indent
            row_break = (inner + "]" + sep + "[" + inner + "  ").encode()
            rows = text.replace(b"", item).replace(item + b"|" + item, row_break)
            rows = rows.replace(b"a", b"-1").replace(b"b", b"-2")[1:-len(item)].decode()
            out += ("[" + inner + "[", rows, inner + "]" + pad + "]") if text else ("[]",)
        elif kind is dict:  # a key that is no str makes _quote raise TypeError
            opener = "{" + inner
            for k in sorted(obj):
                if type(v := obj[k]) is int:  # an exact int, never a bool: its f-string is its repr
                    out.append(f"{opener}{_quote(k)}: {v}")
                else:
                    out.append(f"{opener}{_quote(k)}: ")
                    _write(v, inner, out)
                opener = sep
            out.append(pad + "}" if obj else "{}")
        else:
            opener = "[" + inner
            for v in obj:
                if type(v) is int:
                    out.append(f"{opener}{v}")
                else:
                    out.append(opener)
                    _write(v, inner, out)
                opener = sep
            out.append(pad + "]" if obj else "[]")
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """One request's exit code, stdout and stderr; nothing is written."""
    try:
        args = parse_args(argv)
        if type(args) is str:  # help or --version
            return 0, args + "\n", ""
        inputs, result, lines = args.func(args)
        report = {"command": args.command, "inputs": inputs, "result": result, "version": __version__}
        out = _dump(report) if args.json else "\n".join([*lines, ""])
    except InternalCheckError as exc:
        return 3, "", f"internal invariant violated: {exc}\n"
    except (ValueError, OSError) as exc:
        return 2, "", f"error: {exc}\n"
    return 3 if result.get("violations") else 0, out, ""


def main(argv: list[str] | None = None) -> int:
    code, out, err = run(sys.argv[1:] if argv is None else argv)
    try:  # TextIOWrapper drops a short write to a pipe its reader closed unreported;
        # the newline, buffered apart as print writes it, meets the closed pipe at the flush
        sys.stdout.write(out[:-1])
        sys.stdout.write(out[-1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; at devnull, the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
