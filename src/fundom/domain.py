"""Translated ideal triangles, cusp classes and widths, SVG/JSON output.

The base triangle has vertices rho = exp(i pi/3), rho^2 and infinity.
Each representative word contributes the image triangle under its
Mobius map.  Vertices are kept in exact form (a matrix acting on rho or
rho^2, or a reduced rational cusp) and only turned into floats when a
picture is written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cosets import CosetList
from .projline import m_table
from .residues import Level
from .words import Cusp, GroupWord, Mat2, cusp, evaluate, mobius_cusp

RHO = complex(0.5, math.sqrt(3) / 2)  # exp(i pi / 3)


@dataclass(frozen=True)
class InteriorVertex:
    """Image of rho or rho^2 under an integer Mobius map."""

    mat: Mat2
    base: str  # "rho" or "rho2"

    def value(self) -> complex:
        z = RHO if self.base == "rho" else RHO * RHO
        m = self.mat
        return (m.a * z + m.b) / (m.c * z + m.d)


@dataclass(frozen=True)
class CuspVertex:
    cusp: Cusp

    def value(self) -> complex | None:
        """Float position, or None for infinity."""
        if self.cusp.is_infinity:
            return None
        return complex(Fraction(self.cusp.p, self.cusp.q))


@dataclass(frozen=True)
class IdealTriangle:
    word: GroupWord
    vertices: tuple  # (rho image, rho^2 image, cusp vertex)

    @property
    def cusp(self) -> Cusp:
        return self.vertices[2].cusp


def triangle_of(word: GroupWord) -> IdealTriangle:
    return _triangle(word, evaluate(word))


def _triangle(word: GroupWord, m: Mat2) -> IdealTriangle:
    """The triangle of a word whose matrix m is already known."""
    return IdealTriangle(
        word,
        (
            InteriorVertex(m, "rho"),
            InteriorVertex(m, "rho2"),
            CuspVertex(mobius_cusp(m)),
        ),
    )


def cusps_of(coset_list: CosetList) -> list[Cusp]:
    return [mobius_cusp(m) for m in coset_list.mats]


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


@dataclass
class CuspClass:
    rep: Cusp
    width: int
    members: list[Cusp]


@dataclass
class CuspClassTable:
    level: Level
    classes: list[CuspClass]

    def total_width(self) -> int:
        return sum(c.width for c in self.classes)


def cusp_table(level: Level) -> CuspClassTable:
    """Cusp classes occurring for Theta_0(N), with widths.

    The cusps of the list are 0 (from the S T^i) and -1/j for each
    nonunit j, including infinity for j = 0; every class of Gamma_0(N)
    shows up.  Classes are ordered by descending width, infinity and 0
    placed per the natural d | N order of their representatives.
    """
    from .cosets import theta0

    groups: dict[Cusp, list[Cusp]] = {}
    for c in dict.fromkeys(cusps_of(theta0(level))):
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


@dataclass
class RenderOptions:
    y_max: float = 2.2
    labels: bool = False
    palette: tuple = ("#c0392b", "#2980b9", "#27ae60")
    scale: float = 240.0  # pixels per unit length
    margin: float = 12.0


def _fmt(x: float) -> str:
    return f"{x:.4f}"


class _Canvas:
    """Maps upper-half-plane coordinates to SVG pixel coordinates."""

    def __init__(self, x_min, x_max, opts: RenderOptions):
        self.x_min = x_min
        self.opts = opts
        self.width = (x_max - x_min) * opts.scale + 2 * opts.margin
        self.height = opts.y_max * opts.scale + 2 * opts.margin

    def pt(self, x: float, y: float) -> tuple[float, float]:
        px = (x - self.x_min) * self.opts.scale + self.opts.margin
        py = self.height - (y * self.opts.scale + self.opts.margin)
        return px, py


def _edge_path(z1, z2, canvas: _Canvas) -> str:
    """Path fragment for the geodesic between two points, each a
    complex number or None for infinity."""
    opts = canvas.opts
    if z1 is None and z2 is None:
        return ""
    if z1 is None or z2 is None:
        z = z1 if z2 is None else z2
        x0, y0 = canvas.pt(z.real, min(z.imag, opts.y_max))
        x1, y1 = canvas.pt(z.real, opts.y_max)
        return f"M {_fmt(x0)} {_fmt(y0)} L {_fmt(x1)} {_fmt(y1)}"
    if abs(z1.real - z2.real) < 1e-12:
        x0, y0 = canvas.pt(z1.real, min(z1.imag, opts.y_max))
        x1, y1 = canvas.pt(z2.real, min(z2.imag, opts.y_max))
        return f"M {_fmt(x0)} {_fmt(y0)} L {_fmt(x1)} {_fmt(y1)}"
    # semicircle orthogonal to the real axis through z1, z2
    c = (abs(z1) ** 2 - abs(z2) ** 2) / (2 * (z1.real - z2.real))
    r = abs(z1 - c)
    x0, y0 = canvas.pt(z1.real, z1.imag)
    x1, y1 = canvas.pt(z2.real, z2.imag)
    rr = r * opts.scale
    # sweep so that the arc bulges upward (screen y is flipped)
    sweep = 1 if z1.real > z2.real else 0
    return (
        f"M {_fmt(x0)} {_fmt(y0)} "
        f"A {_fmt(rr)} {_fmt(rr)} 0 0 {sweep} {_fmt(x1)} {_fmt(y1)}"
    )


def render_svg(coset_list: CosetList, options: RenderOptions | None = None) -> str:
    """SVG picture of the union of translated triangles.

    One <path> per triangle (three geodesic edges), colors cycling a
    fixed three-color palette, optional word labels.  Output is
    deterministic for a fixed list and options.
    """
    opts = options or RenderOptions()
    triangles = list(map(_triangle, coset_list.reps, coset_list.mats))
    points = [[v.value() for v in t.vertices] for t in triangles]
    xs = [0.0] + [z.real for zs in points for z in zs if z is not None]
    canvas = _Canvas(min(xs) - 0.1, max(xs) + 0.1, opts)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(canvas.width)}" height="{_fmt(canvas.height)}" '
        f'viewBox="0 0 {_fmt(canvas.width)} {_fmt(canvas.height)}">'
    ]
    for idx, (t, (v1, v2, vc)) in enumerate(zip(triangles, points)):
        d = " ".join(
            p
            for p in (
                _edge_path(v1, v2, canvas),
                _edge_path(v2, vc, canvas),
                _edge_path(vc, v1, canvas),
            )
            if p
        )
        color = opts.palette[idx % len(opts.palette)]
        parts.append(
            f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1"/>'
        )
        if opts.labels:
            finite = [z for z in (v1, v2, vc) if z is not None]
            cx = sum(z.real for z in finite) / len(finite)
            cy = min(
                sum(z.imag for z in finite) / len(finite), opts.y_max * 0.9
            )
            px, py = canvas.pt(cx, cy)
            parts.append(
                f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-size="8" '
                f'text-anchor="middle">{t.word}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_json(coset_list: CosetList) -> str:
    """Machine-readable triangles with exact vertex descriptions."""
    records = []
    for t in map(_triangle, coset_list.reps, coset_list.mats):
        verts = []
        for v in t.vertices:
            if isinstance(v, CuspVertex):
                verts.append(
                    {"type": "cusp", "p": v.cusp.p, "q": v.cusp.q}
                )
            else:
                m = v.mat
                verts.append(
                    {
                        "type": "interior",
                        "matrix": [[m.a, m.b], [m.c, m.d]],
                        "base": v.base,
                    }
                )
        records.append(
            {"word": str(t.word), "cusp": str(t.cusp), "vertices": verts}
        )
    doc = {
        "N": coset_list.level.n,
        "group": coset_list.group.value,
        "triangles": records,
    }
    return json.dumps(doc, indent=1)


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
