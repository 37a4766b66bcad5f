import pytest

from fundom.residues import (
    Level,
    NotAUnit,
    Residue,
    gcd_with_level,
    inv_mod,
    sym_rep,
)


def test_level_window():
    lvl = Level(6)
    assert (lvl.n1, lvl.n2) == (2, 3)
    lvl = Level(7)
    assert (lvl.n1, lvl.n2) == (3, 3)
    for n in range(2, 50):
        lvl = Level(n)
        assert lvl.n1 + lvl.n2 + 1 == n


def test_level_rejects_small_n():
    for n in (1, 0, -3):
        with pytest.raises(ValueError):
            Level(n)


def test_sym_rep_examples():
    assert sym_rep(0, Level(6)).value == 0
    assert sym_rep(4, Level(6)).value == -2
    # the Gamma_1(8) tilde values (k^-1 + j) with k^-1 = -3
    lvl = Level(8)
    assert [sym_rep(-3 + j, lvl).value for j in (-2, 0, 2, 4)] == [3, -3, -1, 1]


def test_sym_rep_periodic_and_idempotent():
    for n in (2, 3, 8, 30):
        lvl = Level(n)
        for x in range(-2 * n, 2 * n):
            assert sym_rep(x + n, lvl) == sym_rep(x, lvl)
        for v in range(-lvl.n1, lvl.n2 + 1):
            assert sym_rep(v, lvl).value == v


def test_gcd_with_level():
    assert gcd_with_level(sym_rep(0, Level(6))) == 6
    assert gcd_with_level(sym_rep(-2, Level(6))) == 2
    assert gcd_with_level(sym_rep(5, Level(30))) == 5


def test_gcd_constant_on_classes():
    lvl = Level(12)
    for x in range(-30, 30):
        assert gcd_with_level(sym_rep(x, lvl)) == gcd_with_level(
            sym_rep(x + 12, lvl)
        )


def test_inv_mod_examples():
    assert inv_mod(sym_rep(-3, Level(8))).value == -3
    assert inv_mod(sym_rep(1, Level(30))).value == 1
    assert inv_mod(sym_rep(7, Level(30))).value == 13


def test_inv_mod_roundtrip():
    for n in (2, 5, 8, 30):
        lvl = Level(n)
        for a in range(-lvl.n1, lvl.n2 + 1):
            r = sym_rep(a, lvl)
            if gcd_with_level(r) == 1:
                product = r.value * inv_mod(r).value
                assert sym_rep(product, lvl).value == sym_rep(1, lvl).value
            else:
                with pytest.raises(NotAUnit):
                    inv_mod(r)


def test_residue_rejects_out_of_window():
    with pytest.raises(ValueError):
        Residue(Level(6), 4)
