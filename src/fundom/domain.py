"""Translated ideal triangles, cusp classes and widths, SVG/JSON output.

The base triangle has vertices rho = exp(i pi/3), rho^2 and infinity.
Each representative contributes the image triangle under the Mobius
map of its matrix.  The renderers read the list's matrices as plain
(a, b, c, d) tuples: the JSON output gives the vertices exactly (a
matrix acting on rho or rho^2, and a reduced rational cusp), and the
SVG output turns them into floats once per triangle.
"""

from __future__ import annotations

import math
from itertools import cycle, repeat
from json.encoder import encode_basestring_ascii as json_quote
from math import gcd

from . import cosets
from .cosets import CosetList, dumps_with_records
from .projline import m_table
from .residues import Level
from .words import Cusp, cusp, cusp_fields

RHO = complex(0.5, math.sqrt(3) / 2)  # exp(i pi / 3)
RHO2 = RHO * RHO


def triangle_vertices(m) -> tuple:
    """The images of rho, rho^2 and infinity under the matrix
    (a, b, c, d): two complex numbers, then the cusp a/c as a float,
    or None when it is infinity."""
    a, b, c, d = m
    return (
        (a * RHO + b) / (c * RHO + d),
        (a * RHO2 + b) / (c * RHO2 + d),
        a / c if c else None,
    )


# ---------------------------------------------------------------------------
# cusp equivalence and widths for Gamma_0(N)


def cusp_equivalent(c1: Cusp, c2: Cusp, level: Level) -> bool:
    """Whether some element of Gamma_0(N) maps c1 to c2.

    Criterion: p1/q1 ~ p2/q2 iff s1*q2 = s2*q1 mod gcd(q1*q2, N),
    where s_i inverts p_i mod q_i.  For infinity (1/0) the modulus
    degenerates to N and the test becomes N | q2, as it should.
    """
    n = level.n
    s1 = _num_inverse(c1)
    s2 = _num_inverse(c2)
    g = gcd(c1.q * c2.q, n)
    return (s1 * c2.q - s2 * c1.q) % (g if g else n) == 0


def _num_inverse(c: Cusp) -> int:
    if c.q in (0, 1):
        return 1 if c.p >= 0 else -1
    return pow(c.p, -1, c.q)


def cusp_width(c: Cusp, level: Level) -> int:
    """Width of the cusp p/q for Gamma_0(N): N / gcd(q^2, N)."""
    n = level.n
    g = gcd(c.q * c.q, n)
    return n // (g if g else n)


def cusp_class_rep(c: Cusp, level: Level) -> Cusp:
    """Canonical representative of the class of c: the equivalent cusp
    x/d with d | N dividing the denominator data and x minimal."""
    n = level.n
    d = gcd(c.q, n) if c.q else n
    if d == n:
        return Cusp(1, 0)
    if d == 1:
        return Cusp(0, 1)
    for x in range(1, d + 1):
        if gcd(x, d) != 1:
            continue
        cand = cusp(x, d)
        if cusp_equivalent(c, cand, level):
            return cand
    raise AssertionError(f"no canonical representative found for {c}")


class CuspClass:
    __slots__ = ("rep", "width", "members")

    def __init__(self, rep: Cusp, width: int, members: list[Cusp]):
        self.rep, self.width, self.members = rep, width, members


class CuspClassTable:
    __slots__ = ("level", "classes")

    def __init__(self, level: Level, classes: list[CuspClass]):
        self.level, self.classes = level, classes

    def total_width(self) -> int:
        return sum(c.width for c in self.classes)


def cusp_table(level: Level) -> CuspClassTable:
    """Cusp classes occurring for Theta_0(N), with widths.

    The table summarises the list `cosets.theta0(level)` builds: its
    cusps are 0 (from the S T^i) and -1/j for each nonunit j, including
    infinity for j = 0 (from the S T^j S T^m: T fixes infinity, so each
    has the cusp of S T^j S).  Every class of Gamma_0(N) shows up.
    Classes are ordered by descending width, infinity and 0 placed per
    the natural d | N order of their representatives.
    """
    # few distinct (a, c): every S T^j S T^m has a = -1 and c = j
    pairs = dict.fromkeys((a, c) for a, _, c, _ in cosets.theta0(level).mats)
    groups: dict[Cusp, list[Cusp]] = {}
    for c in dict.fromkeys(cusp(*pair) for pair in pairs):
        groups.setdefault(cusp_class_rep(c, level), []).append(c)
    classes = [
        CuspClass(rep, cusp_width(rep, level), sorted(members))
        for rep, members in groups.items()
    ]
    classes.sort(key=_class_order)
    return CuspClassTable(level, classes)


def _class_order(cl: CuspClass):
    # proper-denominator reps by denominator, then infinity, then 0
    if cl.rep.q == 0:
        return (1, 0, 0)
    if cl.rep == Cusp(0, 1):
        return (2, 0, 0)
    return (0, cl.rep.q, cl.rep.p)


# ---------------------------------------------------------------------------
# rendering


PALETTE = ("#c0392b", "#2980b9", "#27ae60")
SCALE = 240.0  # pixels per unit length
MARGIN = 12.0


class RenderOptions:
    __slots__ = ("y_max", "labels")

    def __init__(self, y_max: float = 2.2, labels: bool = False):
        # not (0 < y) also holds for nan; a finite y_max can still
        # overflow the canvas height
        if not (0 < y_max and math.isfinite(y_max * SCALE)):
            raise ValueError(
                f"y_max must be a finite number > 0 whose canvas height "
                f"is finite, got {y_max}"
            )
        self.y_max, self.labels = y_max, labels


def render_svg(coset_list: CosetList, options: RenderOptions | None = None) -> str:
    """SVG picture of the union of translated triangles.

    One <path> per triangle (three geodesic edges), colors cycling a
    fixed three-color palette, optional word labels.  Output is
    deterministic for a fixed list and options.

    A point x + iy goes to the pixel ((x - x_min) s + margin,
    height - (y s + margin)) for the scale s.  Each vertex is formatted
    once per triangle, as its pixel pair and as that pair clipped at
    y_max, where the edges up to infinity end.
    """
    opts = options or RenderOptions()
    y_max, scale, margin = opts.y_max, SCALE, MARGIN
    points = list(map(triangle_vertices, coset_list.mats))
    xs = [0.0] + [z.real for zs in points for z in zs if z is not None]
    x_min, x_max = min(xs) - 0.1, max(xs) + 0.1
    width = (x_max - x_min) * scale + 2 * margin
    height = y_max * scale + 2 * margin
    top = f"{height - (y_max * scale + margin):.4f}"
    real_axis = f"{height - margin:.4f}"

    def pixels(z):
        """The pixel x, the pixel pair and the pair clipped at y_max."""
        y = z.imag
        px = f"{(z.real - x_min) * scale + margin:.4f}"
        pair = f"{px} {height - (y * scale + margin):.4f}"
        return px, pair, pair if y <= y_max else f"{px} {top}"

    def edge(z1, pair1, clip1, z2, pair2, clip2):
        """The geodesic from z1 to z2: a vertical segment, clipped at
        y_max, or the arc of a semicircle orthogonal to the real axis."""
        if abs(z1.real - z2.real) < 1e-12:
            return f"M {clip1} L {clip2}"
        c = (abs(z1) ** 2 - abs(z2) ** 2) / (2 * (z1.real - z2.real))
        r = f"{abs(z1 - c) * scale:.4f}"
        # sweep so that the arc bulges upward (screen y is flipped)
        sweep = 1 if z1.real > z2.real else 0
        return f"M {pair1} A {r} {r} 0 0 {sweep} {pair2}"

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width:.4f}" height="{height:.4f}" '
        f'viewBox="0 0 {width:.4f} {height:.4f}">'
    ]
    # the words are read only to label the triangles
    words = coset_list.reps if opts.labels else repeat(None)
    for (v1, v2, vc), color, word in zip(points, cycle(PALETTE), words):
        x1, pair1, clip1 = pixels(v1)
        x2, pair2, clip2 = pixels(v2)
        if vc is None:
            to_cusp = f"M {clip2} L {x2} {top} M {clip1} L {x1} {top}"
        else:
            # RenderOptions keeps y_max > 0, so a real cusp is never clipped
            pc = f"{(vc - x_min) * scale + margin:.4f} {real_axis}"
            to_cusp = (
                f"{edge(v2, pair2, clip2, vc, pc, pc)} "
                f"{edge(vc, pc, pc, v1, pair1, clip1)}"
            )
        parts.append(
            f'<path d="{edge(v1, pair1, clip1, v2, pair2, clip2)} {to_cusp}" '
            f'fill="none" stroke="{color}" stroke-width="1"/>'
        )
        if opts.labels:
            finite = [z for z in (v1, v2, vc) if z is not None]
            cx = sum(z.real for z in finite) / len(finite)
            cy = min(sum(z.imag for z in finite) / len(finite), y_max * 0.9)
            parts.append(
                f'<text x="{(cx - x_min) * scale + margin:.4f}" '
                f'y="{height - (cy * scale + margin):.4f}" font-size="8" '
                f'text-anchor="middle">{word}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_json(coset_list: CosetList) -> str:
    """Machine-readable triangles with exact vertex descriptions."""

    def row(m, w):
        text, p, q = cusp_fields(m[0], m[2])
        return (json_quote(str(w)), json_quote(text), *m, *m, p, q)

    doc = {
        "N": coset_list.level.n,
        "group": coset_list.group.value,
        "triangles": [],
    }
    matrix = [["%d", "%d"], ["%d", "%d"]]
    record = {
        "word": "%s",
        "cusp": "%s",
        "vertices": [
            {"type": "interior", "matrix": matrix, "base": "rho"},
            {"type": "interior", "matrix": matrix, "base": "rho2"},
            {"type": "cusp", "p": "%d", "q": "%d"},
        ],
    }
    # mats first: a Theta(N) list still derives them from Theta_1's
    rows = map(row, coset_list.mats, coset_list.reps)
    return dumps_with_records(doc, "triangles", record, rows)


# ---------------------------------------------------------------------------
# text / CSV cusp tables


def _cusp_rows(level: Level):
    """Rows (j, -1/j, M_j + 1, class rep) over the nonunits j, and the
    class table that classified each cusp -1/j (oo for j = 0)."""
    table = cusp_table(level)
    rep_of = {c: cl.rep for cl in table.classes for c in cl.members}
    rows = []
    for j, mj in m_table(level).entries.items():
        c = cusp(-1, j)
        rows.append((j, c, mj + 1, rep_of[c]))
    return rows, table


def cusp_tables_text(level: Level) -> str:
    """The per-j cusp table and the per-class width table."""
    rows, table = _cusp_rows(level)
    lines = ["j\tcusp\tmult\tcusp rep"]
    lines += ["\t".join(map(str, row)) for row in rows]
    lines += ["", "cusp rep\twidth"]
    lines += [f"{cl.rep}\t{cl.width}" for cl in table.classes]
    lines.append(f"total\t{table.total_width()}")
    return "\n".join(lines) + "\n"


def cusp_tables_csv(level: Level) -> str:
    rows, table = _cusp_rows(level)
    lines = ["j,cusp,mult,cusp_rep"]
    lines += [",".join(map(str, row)) for row in rows]
    lines.append("cusp_rep,width,,")
    lines += [f"{cl.rep},{cl.width},," for cl in table.classes]
    return "\n".join(lines) + "\n"
