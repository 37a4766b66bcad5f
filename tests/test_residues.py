import pytest

from fundom.residues import Level, NotAUnit, inv_mod

from oracles import gcd_with_level


def test_level_window():
    lvl = Level(6)
    assert (lvl.n1, lvl.n2) == (2, 3)
    lvl = Level(7)
    assert (lvl.n1, lvl.n2) == (3, 3)
    for n in range(2, 50):
        lvl = Level(n)
        assert lvl.n1 + lvl.n2 + 1 == n
        assert list(lvl.residues()) == list(range(-lvl.n1, lvl.n2 + 1))


def test_level_rejects_small_n():
    for n in (1, 0, -3):
        with pytest.raises(ValueError):
            Level(n)


@pytest.mark.parametrize("n", [6.0, True, "6"])
def test_level_rejects_a_non_int(n):
    with pytest.raises(ValueError, match="must be an int"):
        Level(n)


def test_sym_rep_examples():
    assert Level(6).reduce(0) == 0
    assert Level(6).reduce(4) == -2
    # the Gamma_1(8) tilde values (k^-1 + j) with k^-1 = -3
    lvl = Level(8)
    assert [lvl.reduce(-3 + j) for j in (-2, 0, 2, 4)] == [3, -3, -1, 1]


def test_sym_rep_periodic_and_idempotent():
    for n in (2, 3, 8, 30):
        lvl = Level(n)
        for x in range(-2 * n, 2 * n):
            assert lvl.reduce(x + n) == lvl.reduce(x)
        for v in range(-lvl.n1, lvl.n2 + 1):
            assert lvl.reduce(v) == v


def test_gcd_with_level():
    assert gcd_with_level(0, Level(6)) == 6
    assert gcd_with_level(-2, Level(6)) == 2
    assert gcd_with_level(5, Level(30)) == 5


def test_gcd_constant_on_classes():
    lvl = Level(12)
    for x in range(-30, 30):
        assert gcd_with_level(x, lvl) == gcd_with_level(x + 12, lvl)


def test_inv_mod_examples():
    assert inv_mod(-3, Level(8)) == -3
    assert inv_mod(1, Level(30)) == 1
    assert inv_mod(7, Level(30)) == 13
    # any int of the class will do, and the inverse is in the window
    assert inv_mod(7 + 30, Level(30)) == 13
    assert inv_mod(-23, Level(30)) == 13


def test_inv_mod_roundtrip():
    for n in (2, 5, 8, 30):
        lvl = Level(n)
        for a in range(-lvl.n1, lvl.n2 + 1):
            if gcd_with_level(a, lvl) == 1:
                product = a * inv_mod(a, lvl)
                assert lvl.reduce(product) == lvl.reduce(1)
            else:
                with pytest.raises(NotAUnit):
                    inv_mod(a, lvl)
