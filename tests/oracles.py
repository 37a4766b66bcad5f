"""Independent brute-force oracles and helpers used by the tests.

These deliberately avoid the library's fast paths: cusp equivalence is
decided through the double-coset structure (translate by T^k and
compare projective keys) and by bounded matrix search, widths through
the unipotent stabilizer, and projective data through raw enumeration.
Group membership is read off the entries mod N directly.  Words are
checked against `GroupWord`, a token-tuple word algebra that merges
T powers as it multiplies.
"""

import re
from math import gcd

from fundom.cosets import Group, _coset_keys
from fundom.residues import Frozen, Level, inv_mod
from fundom.words import INFINITY, Cusp, Mat2, cusp, mobius_cusp


# ---------------------------------------------------------------------------
# the reference word algebra; tokens are ("S",) or ("T", e) with e != 0


def _merge(tokens):
    out = []
    for tok in tokens:
        if tok[0] == "T":
            if tok[1] == 0:
                continue
            if out and out[-1][0] == "T":
                e = out[-1][1] + tok[1]
                out.pop()
                if e != 0:
                    out.append(("T", e))
                continue
        out.append(tok)
    return tuple(out)


class GroupWord(Frozen):
    """A signed word in S and T^e; its tokens are merged when built,
    and its str() is the library's canonical word string."""

    __slots__ = ("tokens", "sign")

    def __init__(self, tokens, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        object.__setattr__(self, "tokens", _merge(tokens))
        object.__setattr__(self, "sign", sign)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        # Both factors are merged, so only the seam can hold a T^e T^f
        # pair; the tokens around it are S, so nothing merges further.
        left, right = self.tokens, other.tokens
        if left and right and left[-1][0] == "T" == right[0][0]:
            e = left[-1][1] + right[0][1]
            seam = (("T", e),) if e else ()
            tokens = left[:-1] + seam + right[1:]
        else:
            tokens = left + right
        word = object.__new__(GroupWord)
        object.__setattr__(word, "tokens", tokens)
        object.__setattr__(word, "sign", self.sign * other.sign)
        return word

    def __str__(self):
        body = "".join(
            "S" if t[0] == "S" else ("T" if t[1] == 1 else f"T^{t[1]}")
            for t in self.tokens
        )
        if not body:
            body = "I"
        return ("-" if self.sign < 0 else "") + body


def make_word(*tokens, sign: int = 1) -> GroupWord:
    return GroupWord(tokens, sign)


def word_identity() -> GroupWord:
    return make_word()


def st(i: int) -> GroupWord:
    """The word S T^i."""
    return make_word(("S",), ("T", i))


_TOKEN_RE = re.compile(r"(S)|T(?:\^(-?[0-9]+))?")


def word_of(s: str) -> GroupWord:
    """The reference word of a well-formed word string."""
    text = s.strip()
    sign = -1 if text.startswith("-") else 1
    tokens = [
        ("S",) if is_s else ("T", int(e) if e else 1)
        for is_s, e in _TOKEN_RE.findall(text)
    ]
    return GroupWord(tokens, sign)


def tokens_of(s: str) -> tuple:
    """The merged tokens of a word string."""
    return word_of(s).tokens


def cusps_of(coset_list) -> list[Cusp]:
    """The cusp a/c of every matrix of a list."""
    return [mobius_cusp(m) for m in coset_list.mats]


def gcd_with_level(a: int, level: Level) -> int:
    """gcd(a, N) as a positive integer in [1, N]; gcd(0, N) = N."""
    return gcd(a, level.n)


def gamma1_quotient_reps(level: Level) -> list[str]:
    """Words I and S T^k S T^{k^-1} S representing the quotient of
    Gamma_0(N) by (+-I) Gamma_1(N), for the unit classes k in [-N1, -2]
    mod +-1 other than the class of 1."""
    reps = [word_identity()]
    for k in range(-level.n1, -1):
        if gcd(k, level.n) == 1:
            reps.append(st(k) * st(inv_mod(k, level)) * make_word(("S",)))
    return list(map(str, reps))


def row_map(m: Mat2, level: Level) -> tuple[int, int]:
    """Bottom row (c, d) reduced mod N, in symmetric form."""
    return (level.reduce(m.c), level.reduce(m.d))


def psl_normalize(m: Mat2) -> Mat2:
    """m or -m, whichever has the first nonzero of (c, d, a, b) positive:
    the sign rule the generator graph's keys are checked against."""
    return m if (m.c or m.d or m.a or m.b) > 0 else m.neg()


def coset_key(m, level: Level, group):
    """The verification key of one matrix (a, b, c, d)."""
    return _coset_keys([m], level, group)[0]


def parse_cusp(s: str) -> Cusp:
    if s in ("oo", "inf", "infinity"):
        return INFINITY
    p, _, q = s.partition("/")
    return cusp(int(p), int(q) if q else 1)


def in_gamma0(m: Mat2, level: Level) -> bool:
    return m.c % level.n == 0


def in_pm_gamma1(m: Mat2, level: Level) -> bool:
    """Membership in (+-I) Gamma_1(N)."""
    n = level.n
    if m.c % n != 0:
        return False
    return (m.a % n == 1 and m.d % n == 1) or (
        m.a % n == n - 1 and m.d % n == n - 1
    )


def in_gammaN(m: Mat2, level: Level) -> bool:
    n = level.n
    return (
        m.a % n == 1 and m.d % n == 1 and m.b % n == 0 and m.c % n == 0
    )


def bezout_to_cusp(c: Cusp) -> Mat2:
    """Some matrix in SL2(Z) sending infinity to the cusp."""
    if c.q == 0:
        return Mat2(1, 0, 0, 1)
    # p*y - q*x = 1
    y = pow(c.p, -1, c.q) if c.q > 1 else 1
    x = (c.p * y - 1) // c.q
    return Mat2(c.p, x, c.q, y)


def _p1_key(m: Mat2, n: int):
    """The class of the bottom row in P^1(Z/NZ), by raw orbit scan."""
    best = None
    for u in range(1, n):
        if gcd(u, n) != 1:
            continue
        cand = ((u * m.c) % n, (u * m.d) % n)
        if best is None or cand < best:
            best = cand
    return best


def oracle_cusp_equivalent(c1: Cusp, c2: Cusp, level: Level) -> bool:
    """Exact equivalence test via the double cosets of the stabilizer
    of infinity: c1 ~ c2 iff some T-translate of a matrix sending
    infinity to c1 lands in the Gamma_0(N) coset of one sending
    infinity to c2."""
    n = level.n
    g1, g2 = bezout_to_cusp(c1), bezout_to_cusp(c2)
    target = _p1_key(g2, n)
    m = g1
    t = Mat2(1, 1, 0, 1)
    for _ in range(n):
        if _p1_key(m, n) == target:
            return True
        m = m * t
    return False


def matrix_search_witness(c1: Cusp, c2: Cusp, level: Level, bound: int):
    """Search Gamma_0(N) matrices with |entries| <= bound mapping c1
    to c2; returns a witness matrix or None."""
    n = level.n
    for c in range(-bound, bound + 1):
        if c % n != 0:
            continue
        for d in range(-bound, bound + 1):
            for a in range(-bound, bound + 1):
                if c == 0:
                    if a * d != 1:
                        continue
                    b_candidates = range(-bound, bound + 1)
                else:
                    if (a * d - 1) % c != 0:
                        continue
                    b_candidates = [(a * d - 1) // c]
                for b in b_candidates:
                    if a * d - b * c != 1:
                        continue
                    p = a * c1.p + b * c1.q
                    q = c * c1.p + d * c1.q
                    if (p, q) == (0, 0):
                        continue
                    if q == 0:
                        if c2.q == 0:
                            return Mat2(a, b, c, d)
                        continue
                    if cusp(p, q) == c2:
                        return Mat2(a, b, c, d)
    return None


def oracle_width(c: Cusp, level: Level) -> int:
    """Least h > 0 with sigma T^h sigma^-1 in Gamma_0(N), sigma a
    matrix sending infinity to the cusp."""
    sigma = bezout_to_cusp(c)
    sigma_inv = sigma.inverse()
    for h in range(1, level.n + 1):
        m = sigma * Mat2(1, h, 0, 1) * sigma_inv
        if m.c % level.n == 0:
            return h
    raise AssertionError(f"no width <= N for {c}")


def brute_p1_classes(n: int):
    """All classes of P^1(Z/NZ) by raw double enumeration, each as a
    frozenset of member pairs."""
    classes = {}
    for a in range(n):
        for b in range(n):
            if gcd(gcd(a, b), n) != 1:
                continue
            orbit = frozenset(
                ((u * a) % n, (u * b) % n)
                for u in range(1, n)
                if gcd(u, n) == 1
            )
            classes[min(orbit)] = orbit
    return list(classes.values())


def list_cusp_classes(level: Level) -> dict:
    """Class rep -> (width, sorted members) over the cusps of the
    evaluated list Theta_0(N): builds the list and classifies the cusp
    of every one of its matrices."""
    from fundom.cosets import theta0
    from fundom.domain import cusp_class_rep, cusp_width

    groups = {}
    for c in set(cusps_of(theta0(level))):
        groups.setdefault(cusp_class_rep(c, level), []).append(c)
    return {
        rep: (cusp_width(rep, level), sorted(members))
        for rep, members in groups.items()
    }


def unit_rows(level: Level):
    """The rows (c, d) mod N with gcd(c, d, N) = 1, as a stream."""
    n = level.n
    return (
        (c, d)
        for c in range(n)
        for d in range(n)
        if gcd(gcd(c, d), n) == 1
    )


def some_lift(c: int, d: int, n: int) -> Mat2:
    """Some integer matrix of determinant 1 whose bottom row is
    congruent to (c, d) mod N; requires gcd(c, d, N) = 1."""
    cc = c if c != 0 else n
    dd = d
    while gcd(cc, dd) != 1:
        dd += n
    a = pow(dd, -1, abs(cc))
    b = (a * dd - 1) // cc
    return Mat2(a, b, cc, dd)


def streamed_keys(level: Level, group):
    """The key of every Gamma_1 or Gamma(N) coset, each once, in the
    order of the unit rows: one row of each pair (c, d), (-c, -d), and
    for Gamma(N) its N completions to a matrix."""
    n = level.n
    for c, d in unit_rows(level):
        if (c, d) > (-c % n, -d % n):
            continue  # the row (-c, -d) gives the same cosets
        if group is Group.GAMMA1:
            yield coset_key((0, 0, c, d), level, group)
        else:
            a, b, _, _ = some_lift(c, d, n)
            for t in range(n):
                yield coset_key((a + t * c, b + t * d, c, d), level, group)


def list_json_doc(coset_list) -> dict:
    """The document CosetList.to_json writes, as a dict."""
    return {
        "N": coset_list.level.n,
        "group": coset_list.group.value,
        "reps": [
            {
                "word": str(w),
                "matrix": [[a, b], [c, d]],
                "cusp": str(cusp(a, c)),
            }
            for w, (a, b, c, d) in zip(coset_list.reps, coset_list.mats)
        ],
        "verified": coset_list.verified,
    }


def render_json_doc(coset_list) -> dict:
    """The document domain.render_json writes, as a dict."""
    records = []
    for w, m in zip(coset_list.reps, coset_list.mats):
        a, b, c, d = m
        matrix = [[a, b], [c, d]]
        cz = mobius_cusp(m)
        records.append(
            {
                "word": str(w),
                "cusp": str(cz),
                "vertices": [
                    {"type": "interior", "matrix": matrix, "base": "rho"},
                    {"type": "interior", "matrix": matrix, "base": "rho2"},
                    {"type": "cusp", "p": cz.p, "q": cz.q},
                ],
            }
        )
    return {
        "N": coset_list.level.n,
        "group": coset_list.group.value,
        "triangles": records,
    }
