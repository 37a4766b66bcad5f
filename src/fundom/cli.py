"""Command-line front end.

Subcommands: list, verify, mtable, cusps, render, graph.  Every emit
command verifies its list first (disable with --no-verify, which
watermarks the output).  Exit codes: 0 ok; 1 failed verification or
unreadable/malformed input; 2 usage error, including an empty sweep and
a --N that disagrees with the loaded file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cayley, cosets, domain, projline
from .cosets import CosetList, Group, VerificationFailed
from .residues import Level


def _level(n: int) -> Level:
    try:
        return Level(n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _groups(name: str) -> list[Group]:
    if name == "all":
        return [Group.GAMMA0, Group.GAMMA1, Group.GAMMA_FULL]
    return [Group(name)]


def _parse_sweep(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        levels = range(int(lo), int(hi) + 1)
    except ValueError:
        print(f"error: bad sweep range {text!r}", file=sys.stderr)
        raise SystemExit(2)
    if not levels:
        print(f"error: empty sweep range {text!r}", file=sys.stderr)
        raise SystemExit(2)
    return levels


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    base = os.environ.get("FUNDOM_OUT_DIR")
    if base and not os.path.isabs(out):
        out = os.path.join(base, out)
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _verified_list(args) -> CosetList:
    lst = cosets.build(_level(args.N), Group(args.group))
    if getattr(args, "no_verify", False):
        return lst
    try:
        cosets.verify(lst)
    except VerificationFailed as exc:
        print(exc.report, file=sys.stderr)
        raise SystemExit(1)
    return lst


def cmd_list(args):
    lst = _verified_list(args)
    if args.format == "json":
        _write(lst.to_json() + "\n", args.out)
    else:
        _write("".join(f"{w}\n" for w in lst.reps), args.out)


def _check_one(lst: CosetList) -> bool:
    """Verify cosets and connectivity of one list; print one line."""
    n, group = lst.level.n, lst.group
    try:
        report = cosets.verify(lst)
        connected = cayley.is_connected(cayley.build_graph(lst))
    except (VerificationFailed, cayley.DuplicateVertex) as exc:
        print(f"{group.value} N={n}: FAIL\n  {exc}")
        return False
    conn = "connected" if connected else "NOT CONNECTED"
    print(f"{report}  [{conn}]")
    return connected


def _load(args) -> CosetList:
    """The list saved in the --load file, whose N must match any --N."""
    try:
        with open(args.load) as fh:
            lst = CosetList.from_json(fh.read())
        if type(lst.level.n) is not int:
            raise ValueError(f"N must be an integer, got {lst.level.n!r}")
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: cannot load {args.load}: {detail}", file=sys.stderr)
        raise SystemExit(1)
    if args.N is not None and args.N != lst.level.n:
        print(
            f"error: --N {args.N} but {args.load} holds N={lst.level.n}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return lst


def cmd_verify(args):
    if args.load:
        raise SystemExit(0 if _check_one(_load(args)) else 1)
    levels = _parse_sweep(args.sweep) if args.sweep else [args.N]
    failed = False
    for n in levels:
        level = _level(n)
        for group in _groups(args.group):
            lst = cosets.build(level, group)
            if not _check_one(lst):
                failed = True
    raise SystemExit(1 if failed else 0)


def cmd_mtable(args):
    level = _level(args.N)
    mt = projline.m_table(level)
    dist = projline.m_distribution(level)
    if args.format == "json":
        _write(
            json.dumps(
                {
                    "N": level.n,
                    "M_j": {str(j): m for j, m in mt.entries.items()},
                    "distribution": {str(m): c for m, c in dist.items()},
                },
                indent=1,
            )
            + "\n",
            args.out,
        )
        return
    sep = "," if args.format == "csv" else "\t"
    lines = [f"j{sep}M_j"]
    lines += [f"{j}{sep}{m}" for j, m in mt.entries.items()]
    lines.append(f"M{sep}classes")
    lines += [f"{m}{sep}{c}" for m, c in dist.items()]
    _write("\n".join(lines) + "\n", args.out)


def cmd_cusps(args):
    level = _level(args.N)
    if args.format == "csv":
        _write(domain.cusp_tables_csv(level), args.out)
    else:
        _write(domain.cusp_tables_text(level), args.out)


def cmd_render(args):
    lst = _verified_list(args)
    if args.format == "json":
        _write(domain.render_json(lst) + "\n", args.out)
        return
    opts = domain.RenderOptions(y_max=args.y_max, labels=args.labels)
    svg = domain.render_svg(lst, opts)
    if args.no_verify:
        svg = svg.replace(
            "<svg ", "<!-- UNVERIFIED LIST -->\n<svg ", 1
        )
    _write(svg, args.out)


def cmd_graph(args):
    lst = _verified_list(args)
    graph = cayley.build_graph(lst)
    tree = cayley.spanning_tree(graph)
    _write(cayley.to_dot(graph, tree, tree_only=args.tree_only), args.out)


def _add_common(p, group=True, fmt=None, default_fmt=None):
    p.add_argument("--N", type=int, required=True)
    if group:
        p.add_argument(
            "--group",
            choices=["gamma0", "gamma1", "gammaN"],
            default="gamma0",
        )
    p.add_argument("--out", "-o", default=None)
    if fmt:
        p.add_argument("--format", choices=fmt, default=default_fmt)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fundom",
        description="Coset representatives and connected fundamental "
        "domains for congruence subgroups of SL2(Z).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="emit a verified representative list")
    _add_common(p, fmt=["json", "text"], default_fmt="json")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("verify", help="verify lists and connectivity")
    p.add_argument("--N", type=int)
    p.add_argument("--sweep", help="inclusive range a..b of levels")
    p.add_argument(
        "--group",
        choices=["gamma0", "gamma1", "gammaN", "all"],
        default="gamma0",
    )
    p.add_argument("--load", help="verify a list loaded from a JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mtable", help="print j -> M_j and the M histogram")
    _add_common(p, group=False, fmt=["text", "csv", "json"], default_fmt="text")
    p.set_defaults(func=cmd_mtable)

    p = sub.add_parser("cusps", help="print cusp and width tables")
    _add_common(p, group=False, fmt=["text", "csv"], default_fmt="text")
    p.set_defaults(func=cmd_cusps)

    p = sub.add_parser("render", help="draw the fundamental domain")
    _add_common(p, fmt=["svg", "json"], default_fmt="svg")
    p.add_argument("--y-max", type=float, default=2.2)
    p.add_argument("--labels", action="store_true")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("graph", help="emit the generator graph in DOT")
    _add_common(p)
    p.add_argument("--tree-only", action="store_true")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) == "verify":
        if args.N is None and not args.sweep and not args.load:
            print(
                "error: verify needs --N, --sweep or --load", file=sys.stderr
            )
            return 2
    try:
        args.func(args)
    except SystemExit as exc:
        return exc.code or 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
