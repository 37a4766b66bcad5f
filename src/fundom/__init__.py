"""Coset representatives and connected fundamental domains for the
congruence subgroups of SL2(Z)."""

from .residues import Level, inv_mod, NotAUnit
from .projline import (
    big_m,
    enumerate_p1,
    m_distribution,
    m_table,
    normalize,
    psi,
    NotInH,
    NotOnProjLine,
)
from .words import (
    Cusp,
    GroupWord,
    Mat2,
    cusp,
    evaluate,
    make_word,
    mobius_cusp,
    parse_word,
    st,
)
from .cosets import (
    CosetList,
    Group,
    VerificationFailed,
    theta0,
    theta1,
    theta_full,
    verify,
)
from .cayley import build_graph, is_connected, spanning_tree, to_dot
from .domain import (
    CuspClassTable,
    RenderOptions,
    cusp_equivalent,
    cusp_table,
    cusp_width,
    render_json,
    render_svg,
    triangle_vertices,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
