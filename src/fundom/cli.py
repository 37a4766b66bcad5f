"""Command-line front end.

Subcommands: list, verify, mtable, cusps, render, graph.  Every emit
command verifies its list first.  --no-verify skips that; then an SVG
render starts with an `UNVERIFIED LIST` comment and list JSON carries
"verified": false, while the other outputs carry no mark.  Exit codes:
0 ok; 1 failed verification, unreadable/malformed input, or output that
cannot be written (such as a pipe whose reader closed early); 2 usage
error, including an empty sweep, --sweep together with --N or --load, a
--N that disagrees with the loaded file, and a render --y-max that is
not a finite number > 0 or whose canvas height is not finite.  Commands return their exit code
or raise CliError; main prints every `error:` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cayley, cosets, domain, projline
from .cosets import CosetList, Group, VerificationFailed
from .residues import Level


class CliError(Exception):
    """A failure that main reports as one `error:` line and exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _level(n: int) -> Level:
    try:
        return Level(n)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc


def _parse_sweep(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        levels = range(int(lo), int(hi) + 1)
    except ValueError:
        raise CliError(2, f"bad sweep range {text!r}") from None
    if not levels:
        raise CliError(2, f"empty sweep range {text!r}")
    return levels


def _write(text: str, out: str | None):
    if out is None:
        _write_stdout(text)
        return
    base = os.environ.get("FUNDOM_OUT_DIR")
    if base and not os.path.isabs(out):
        out = os.path.join(base, out)
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(1, str(exc)) from exc


def _write_stdout(text: str):
    """Write all of text, or raise BrokenPipeError.

    An unbuffered stdout (PYTHONUNBUFFERED=1) hands the text to one
    write() call and drops what a closing reader did not take, so the
    encoded bytes go to the binary layer until every byte is written.
    """
    stdout = sys.stdout
    buffer = getattr(stdout, "buffer", None)
    if buffer is None:
        stdout.write(text)
        return
    stdout.flush()
    data = memoryview(text.encode(stdout.encoding, stdout.errors))
    while data:
        data = data[buffer.write(data):]


def _verified_list(args) -> CosetList:
    lst = cosets.build(_level(args.N), Group(args.group))
    if not args.no_verify:
        cosets.verify(lst)
    return lst


def cmd_list(args) -> int:
    lst = _verified_list(args)
    if args.format == "json":
        _write(lst.to_json() + "\n", args.out)
    else:
        _write("".join(f"{w}\n" for w in lst.reps), args.out)
    return 0


def _check_one(lst: CosetList) -> bool:
    """Verify cosets and connectivity of one list and print the status
    line, or the whole report when verification fails."""
    try:
        report = cosets.verify(lst)
        connected = cayley.is_connected(cayley.build_graph(lst))
    except VerificationFailed as exc:
        print(exc.report)
        return False
    except cayley.DuplicateVertex as exc:
        print(f"{lst.group.value} N={lst.level.n}: FAIL\n  {exc}")
        return False
    conn = "connected" if connected else "NOT CONNECTED"
    print(f"{report}  [{conn}]")
    return connected


def _load(args) -> CosetList:
    """The list saved in the --load file, whose N must match any --N."""
    try:
        with open(args.load) as fh:
            lst = CosetList.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise CliError(1, f"cannot load {args.load}: {detail}") from exc
    if args.N is not None and args.N != lst.level.n:
        raise CliError(
            2, f"--N {args.N} but {args.load} holds N={lst.level.n}"
        )
    return lst


def cmd_verify(args) -> int:
    if args.sweep is not None:
        if args.N is not None or args.load is not None:
            raise CliError(2, "--sweep cannot be combined with --N or --load")
        levels = _parse_sweep(args.sweep)
    elif args.load is not None:
        return 0 if _check_one(_load(args)) else 1
    elif args.N is not None:
        levels = [args.N]
    else:
        raise CliError(2, "verify needs --N, --sweep or --load")
    groups = list(Group) if args.group == "all" else [Group(args.group)]
    failed = False
    for n in levels:
        level = _level(n)
        for group in groups:
            if not _check_one(cosets.build(level, group)):
                failed = True
    return 1 if failed else 0


def cmd_mtable(args) -> int:
    level = _level(args.N)
    mt = projline.m_table(level)
    dist = projline.m_distribution(level)
    if args.format == "json":
        doc = {
            "N": level.n,
            "M_j": {str(j): m for j, m in mt.entries.items()},
            "distribution": {str(m): c for m, c in dist.items()},
        }
        _write(json.dumps(doc, indent=1) + "\n", args.out)
        return 0
    sep = "," if args.format == "csv" else "\t"
    lines = [f"j{sep}M_j"]
    lines += [f"{j}{sep}{m}" for j, m in mt.entries.items()]
    lines.append(f"M{sep}classes")
    lines += [f"{m}{sep}{c}" for m, c in dist.items()]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_cusps(args) -> int:
    level = _level(args.N)
    if args.format == "csv":
        _write(domain.cusp_tables_csv(level), args.out)
    else:
        _write(domain.cusp_tables_text(level), args.out)
    return 0


def cmd_render(args) -> int:
    try:
        opts = domain.RenderOptions(y_max=args.y_max, labels=args.labels)
    except ValueError as exc:
        raise CliError(2, f"--y-max: {exc}") from exc
    lst = _verified_list(args)
    if args.format == "json":
        _write(domain.render_json(lst) + "\n", args.out)
        return 0
    svg = domain.render_svg(lst, opts)
    if args.no_verify:
        svg = svg.replace("<svg ", "<!-- UNVERIFIED LIST -->\n<svg ", 1)
    _write(svg, args.out)
    return 0


def cmd_graph(args) -> int:
    lst = _verified_list(args)
    graph = cayley.build_graph(lst)
    tree = cayley.spanning_tree(graph)
    _write(cayley.to_dot(graph, tree, tree_only=args.tree_only), args.out)
    return 0


GROUP_NAMES = [g.value for g in Group]


def _add_common(p, group=True, fmt=None, default_fmt=None):
    p.add_argument("--N", type=int, required=True)
    if group:
        p.add_argument("--group", choices=GROUP_NAMES, default="gamma0")
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
    p.add_argument("--group", choices=GROUP_NAMES + ["all"], default="gamma0")
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
    try:
        code = args.func(args)
        sys.stdout.flush()
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except VerificationFailed as exc:
        print(exc.report, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed early; point stdout at devnull so the
        # flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before it was written", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
