"""Exact p-adic joint spectral radius machinery.

Every expected value in here is either computed by hand, derived from an
independent oracle (plain-loop Fraction word products, cofactor-expansion
characteristic polynomials, monotone-chain Newton polygons, brute force
root valuations), or pinned by an exact identity; there are no tolerances anywhere in this file.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from jsrkit import ultrametric
from jsrkit.core import BudgetExceededError, count_words, product_levels, word_from_index
from jsrkit.documents import InputDocument
from jsrkit.ultrametric import (
    BOTTOM,
    PAdicMagnitude,
    PAdicMatrixSet,
    as_rational,
    char_poly_exact,
    check_ultra_boca,
    ell_bound,
    is_prime,
    max_root_magnitude,
    padic_jsr_exact,
    padic_nilpotency_exact,
    padic_valuation,
    ultrametric_set_norm,
)


def intset(mats, p):
    return PAdicMatrixSet(mats, p)


def rand_int_set(rng, d, p, m=2, lo=-9, hi=9):
    mats = [[[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)] for _ in range(m)]
    return intset(mats, p)


def fraction_matmul(a, b):
    d = len(a)
    return tuple(
        tuple(sum((a[r][t] * b[t][c] for t in range(d)), Fraction(0)) for c in range(d))
        for r in range(d)
    )


def word_product(s, word):
    """The exact product of ``word`` (``word[0]`` acts first) as row tuples,
    by a plain Fraction loop: the oracle for the product engine."""
    d = s.dim
    out = tuple(tuple(Fraction(int(r == c)) for c in range(d)) for r in range(d))
    for letter in word:
        out = fraction_matmul(s.stack[letter], out)
    return out


def entry_norm(prod, p):
    """||prod||_0, the largest entry magnitude, from the entries' valuations."""
    vals = [padic_valuation(x, p) for row in prod for x in row if x != 0]
    return PAdicMagnitude(min(vals)) if vals else BOTTOM


def brute_force(s):
    """(rho, witness) over every word up to ell(d), each product by the
    plain loop from its prefix's: the witness is the min by (length, word)
    among the words attaining rho."""
    best, attained = BOTTOM, []
    prods = {(): word_product(s, ())}
    for k in range(1, ell_bound(s.dim) + 1):
        for w in itertools.product(range(s.size), repeat=k):
            prods[w] = fraction_matmul(s.stack[w[-1]], prods[w[:-1]])
            lam = max_root_magnitude(char_poly_exact(prods[w]), s.prime).root(k)
            if best < lam:
                best, attained = lam, []
            if lam == best and not lam.is_bottom:
                attained.append(w)
    return best, min(attained, key=lambda w: (len(w), w), default=(0,))


def fraction_levels(s, depth):
    """``core.product_levels`` run on the members as a Fraction stack."""
    return product_levels(s.stack, depth)


def power_set(s, k):
    """S^k, the products of every length-k word, as a PAdicMatrixSet."""
    *_, level = fraction_levels(s, k)
    return PAdicMatrixSet(level, s.prime)


# --- rationals and valuations ---------------------------------------------------


def test_as_rational_parses_strings():
    assert as_rational("9/2") == Fraction(9, 2)
    assert as_rational("-3") == Fraction(-3)
    assert as_rational(7) == Fraction(7)
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_is_prime_basics():
    primes = {2, 3, 5, 7, 11, 13, 97, 2**31 - 1, 2**61 - 1}
    for n in primes:
        assert is_prime(n)
    for n in (0, 1, 4, 9, 561, 1105, 2**32, 999999999999999):
        assert not is_prime(n), n


def test_padic_valuation_examples():
    assert padic_valuation(Fraction(9, 2), 3) == 2
    assert padic_valuation("9/2", 3) == 2
    assert padic_valuation(5, 5) == 1
    assert padic_valuation(1, 7) == 0
    assert padic_valuation(0, 2) is None
    assert padic_valuation(Fraction(1, 8), 2) == -3


def test_padic_valuation_rejects_composite_modulus():
    with pytest.raises(ValueError):
        padic_valuation(3, 6)


def test_valuation_is_additive():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        a = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        b = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


# --- magnitudes -----------------------------------------------------------------


def test_magnitude_ordering_inverts_exponents():
    # p^-1 < p^0 < p^2, and bottom sits under everything
    small, one, big = PAdicMagnitude(1), PAdicMagnitude(0), PAdicMagnitude(-2)
    assert small < one < big
    assert BOTTOM < small
    assert not BOTTOM < BOTTOM
    assert sorted([big, BOTTOM, one, small]) == [BOTTOM, small, one, big]


def test_magnitude_arithmetic():
    a = PAdicMagnitude(Fraction(1, 2))
    b = PAdicMagnitude(Fraction(3))
    assert (a * b).exponent == Fraction(7, 2)
    assert (a**4).exponent == Fraction(2)
    assert a.root(2).exponent == Fraction(1, 4)
    assert (BOTTOM * a).is_bottom
    assert (BOTTOM**3).is_bottom
    assert (BOTTOM**0).exponent == 0  # empty product convention
    assert BOTTOM.root(5).is_bottom
    with pytest.raises(ValueError):
        a ** (-1)
    with pytest.raises(ValueError):
        a.root(0)


# --- characteristic polynomials -------------------------------------------------


def test_char_poly_diagonal():
    a, b = Fraction(2), Fraction(-7, 3)
    coeffs = char_poly_exact([[a, 0], [0, b]])
    assert coeffs == (a * b, -(a + b), 1)


def test_char_poly_antidiagonal():
    assert char_poly_exact([[0, 1], [5, 0]]) == (-5, 0, 1)


def test_char_poly_rejects_nonsquare():
    with pytest.raises(ValueError):
        char_poly_exact([[1, 2, 3], [4, 5, 6]])


def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _char_poly_cofactor(rows):
    """Independent oracle: determinant of tI - A by cofactor expansion over
    polynomial entries (coefficient lists)."""
    d = len(rows)
    entries = [
        [
            [Fraction(-rows[r][c]), Fraction(1)] if r == c else [Fraction(-rows[r][c])]
            for c in range(d)
        ]
        for r in range(d)
    ]

    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        total = [Fraction(0)]
        for c in range(n):
            minor = [row[:c] + row[c + 1 :] for row in mat[1:]]
            term = _poly_mul(mat[0][c], det(minor))
            if c % 2:
                term = [-x for x in term]
            width = max(len(total), len(term))
            total = [
                (total[i] if i < len(total) else 0) + (term[i] if i < len(term) else 0)
                for i in range(width)
            ]
        return total

    return tuple(det(entries))


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(40):
        d = rng.choice([2, 3])
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
            for _ in range(d)
        ]
        assert char_poly_exact(rows) == _char_poly_cofactor(rows)


def test_char_poly_cayley_hamilton_residue():
    # plugging the matrix into its own characteristic polynomial gives zero,
    # exactly; exercises both the direct formulas and the d >= 4 recursion
    rng = random.Random(5)
    for d in (2, 3, 4, 5):
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
            for _ in range(d)
        ]
        coeffs = char_poly_exact(rows)
        acc = [[Fraction(0)] * d for _ in range(d)]
        power = [[Fraction(1) if r == c else Fraction(0) for c in range(d)] for r in range(d)]
        for c in coeffs:
            for r in range(d):
                for j in range(d):
                    acc[r][j] += c * power[r][j]
            power = [
                [sum(rows[r][t] * power[t][j] for t in range(d)) for j in range(d)]
                for r in range(d)
            ]
        assert all(x == 0 for row in acc for x in row)


def test_char_poly_block_diagonal_convolves():
    # glue a 3x3 block and a scalar into a 4x4; the characteristic
    # polynomial must be the product, checking FL against the direct path
    rng = random.Random(9)
    block = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
    c = Fraction(5, 2)
    glued = [row + [Fraction(0)] for row in block] + [[0, 0, 0, c]]
    expected = _poly_mul(list(char_poly_exact(block)), [-c, Fraction(1)])
    assert list(char_poly_exact(glued)) == expected


# --- Newton polygons ------------------------------------------------------------


def lower_hull(coeffs, p):
    """The Newton polygon of ``coeffs`` (ascending): the lower convex hull of
    the points (i, v_p(c_i)) of the nonzero coefficients, by Andrew's
    monotone chain.  It is the oracle for the library's min-slope rule."""
    hull = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        pt = (i, padic_valuation(c, p))
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) > 0:
                break
            hull.pop()
        hull.append(pt)
    return hull


def hull_slopes(hull):
    """Segment slopes in the valuation-drop convention, left to right: the
    segment from (i, v_i) to (j, v_j) has slope (v_i - v_j) / (j - i), so a
    root of valuation m contributes a segment of slope m."""
    return [Fraction(y1 - y2, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


def test_newton_polygon_two_split_roots():
    p = 5
    coeffs = [p**3, -(p + p**2), 1]  # (t - p)(t - p^2)
    assert lower_hull(coeffs, p) == [(0, 3), (1, 1), (2, 0)]
    assert hull_slopes(lower_hull(coeffs, p)) == [2, 1]
    assert max_root_magnitude(coeffs, p) == PAdicMagnitude(1)


def test_newton_polygon_drops_interior_point():
    # (t - 1)(t - p): the middle coefficient valuation 0 sits on the hull,
    # while a lifted variant t^2 + p t + p must skip the middle point
    p = 3
    lifted = [p, p, 1]
    assert lower_hull(lifted, p) == [(0, 1), (2, 0)]
    assert max_root_magnitude(lifted, p) == PAdicMagnitude(Fraction(1, 2))


def test_newton_polygon_single_point_has_no_slope():
    assert lower_hull([0, 0, 1], 2) == [(2, 0)]
    assert hull_slopes([(2, 0)]) == []
    assert max_root_magnitude([0, 0, 1], 2).is_bottom


def test_max_root_magnitude_examples():
    assert max_root_magnitude([5, 0, 1], 5) == PAdicMagnitude(Fraction(1, 2))
    assert max_root_magnitude([0, 0, 0, 1], 7).is_bottom
    assert max_root_magnitude([0, -1, 1], 3) == PAdicMagnitude(0)  # roots 0, 1
    # t^2 - t/p has the root 1/p of magnitude p
    assert max_root_magnitude([0, Fraction(-1, 5), 1], 5) == PAdicMagnitude(-1)


def test_max_root_magnitude_requires_monic():
    with pytest.raises(ValueError):
        max_root_magnitude([1, 2], 3)
    with pytest.raises(ValueError):
        max_root_magnitude([1], 3)


def test_max_root_magnitude_requires_a_prime():
    for p in (1, 4):
        for coeffs in ([1, 1], [0, 0, 1]):
            with pytest.raises(ValueError, match="not prime"):
                max_root_magnitude(coeffs, p)


def test_newton_slopes_are_root_valuations():
    # diag(p, p^2, p^3): hull slopes, in drop convention, read 3, 2, 1
    p = 2
    rows = [[p, 0, 0], [0, p**2, 0], [0, 0, p**3]]
    coeffs = char_poly_exact(rows)
    assert hull_slopes(lower_hull(coeffs, p)) == [3, 2, 1]
    assert max_root_magnitude(coeffs, p) == PAdicMagnitude(1)


def test_newton_slope_sum_is_det_valuation():
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        rows = [[Fraction(rng.randint(-8, 8)) for _ in range(3)] for _ in range(3)]
        coeffs = char_poly_exact(rows)
        if coeffs[0] == 0:
            continue  # singular: a zero root, no finite total
        hull = lower_hull(coeffs, p)
        total = sum(y1 - y2 for (_, y1), (_, y2) in zip(hull, hull[1:]))
        assert total == padic_valuation(coeffs[0], p)
        checked += 1
    assert checked > 30


def test_max_root_magnitude_is_the_last_hull_slope():
    # the exact sweep and max_root_magnitude share one min-slope rule, so
    # brute_force agrees with the sweep by construction; this compares the
    # rule with the hull itself on random monic polynomials
    rng = random.Random(29)
    seen = {"bottom": 0, "negative": 0, "fractional": 0, "dropped": 0}
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        d = rng.randint(1, 6)
        coeffs = []
        for _ in range(d):
            kind = rng.random()
            if kind < 0.3:
                coeffs.append(0)
            elif kind < 0.6:
                den = rng.choice([1, 7, p, p**2, 3 * p**3])
                coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), den))
            else:
                unit = rng.choice([-1, 1]) * rng.randint(1, 9)
                coeffs.append(unit * p ** rng.randint(0, 6))
        coeffs.append(1)
        hull = lower_hull(coeffs, p)
        got = max_root_magnitude(coeffs, p)
        if len(hull) == 1:
            assert got.is_bottom
            seen["bottom"] += 1
            continue
        slope = hull_slopes(hull)[-1]
        assert got == PAdicMagnitude(slope)
        seen["negative"] += slope < 0
        seen["fractional"] += slope.denominator > 1
        seen["dropped"] += len(hull) < sum(c != 0 for c in coeffs)
    assert min(seen.values()) >= 10, seen


# --- matrix sets and norms ------------------------------------------------------


def test_matrix_set_parsing_and_validation():
    s = PAdicMatrixSet([[["1/2",0], [0, 1]]], 2)
    assert s.dim == 2 and s.size == 1
    assert s.stack[0][0][0] == Fraction(1, 2)
    with pytest.raises(ValueError, match="not prime"):
        PAdicMatrixSet([[[1]]], 4)  # composite prime
    with pytest.raises(ValueError, match="at least one"):
        PAdicMatrixSet([], 2)
    with pytest.raises(ValueError, match="share a dimension"):
        PAdicMatrixSet([[[1, 0], [0, 1]], [[1]]], 2)
    with pytest.raises(ValueError, match="square"):
        PAdicMatrixSet([[[1, 2, 3], [4, 5, 6]]], 2)
    with pytest.raises(TypeError, match="float"):
        PAdicMatrixSet([[[0.5, 0], [0, 1]]], 2)
    assert s.stack.shape == (1, 2, 2) and s.stack.dtype == object
    with pytest.raises(ValueError):
        s.stack[0, 0, 0] = Fraction(3)  # read-only
    # a set built from another's stack holds equal entries under a new prime
    t = PAdicMatrixSet(s.stack, 3)
    assert t.prime == 3 and np.array_equal(t.stack, s.stack)
    # a document holding the set checks one label per member
    assert InputDocument(s, labels=["a"]).labels == ("a",)
    for labels in ([], ["a", "b"]):
        with pytest.raises(ValueError, match="expected 1 labels"):
            InputDocument(s, labels=labels)


def test_set_norm_examples():
    p = 5
    s = intset([[[p, 0], [0, p]], [["1/5", 0], [0, 0]]], p)
    assert ultrametric_set_norm(s) == PAdicMagnitude(-1)
    zero = intset([[[0, 0], [0, 0]]], p)
    assert ultrametric_set_norm(zero).is_bottom


def test_ell_bound_values():
    assert ell_bound(1) == 1
    assert ell_bound(2) == 4
    assert ell_bound(3) == 9
    assert ell_bound(4) == 16
    assert ell_bound(16) == 188
    with pytest.raises(ValueError):
        ell_bound(0)


# --- eval and product sets ------------------------------------------------------


def test_eval_word_conventions():
    s = intset([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], 3)
    assert word_product(s, ()) == ((1, 0), (0, 1))
    # later letters multiply on the left: (0, 1) is E21 @ E12 = diag(0, 1)
    assert word_product(s, (0, 1)) == ((0, 0), (0, 1))
    assert word_product(s, (1, 0)) == ((1, 0), (0, 0))
    _, level = fraction_levels(s, 2)
    assert level[0 * 2 + 1].tolist() == [[0, 0], [0, 1]]
    assert level[1 * 2 + 0].tolist() == [[1, 0], [0, 0]]


def test_product_set_rows_follow_the_word_index():
    # core.product_levels on an object stack of Fractions, row by row
    # against the plain loop, on sets with denominators
    rng = random.Random(19)
    for m in (1, 2, 3):
        for d in (1, 2, 3):
            entries = [
                Fraction(rng.randint(-9, 9), rng.choice([1, 2, 9])) for _ in range(m * d * d)
            ]
            s = intset(np.reshape(entries, (m, d, d)).tolist(), 3)
            for k, level in enumerate(fraction_levels(s, 3), 1):
                assert level.shape == (m**k, d, d) and level.dtype == object
                for i, prod in enumerate(level):
                    word = word_from_index(i, k, m)
                    assert tuple(map(tuple, prod)) == word_product(s, word)


# --- the exact joint spectral radius --------------------------------------------


def test_jsr_scalar_set():
    r = padic_jsr_exact(intset([[[5]]], 5))
    assert r.rho == PAdicMagnitude(1)
    assert r.witness == (0,)


def test_jsr_antidiagonal_needs_fractional_exponent():
    r = padic_jsr_exact(intset([[[0, 1], [5, 0]]], 5))
    assert r.rho == PAdicMagnitude(Fraction(1, 2))


def test_jsr_swap_pair_peaks_at_length_two():
    r = padic_jsr_exact(intset([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], 3))
    assert r.rho == PAdicMagnitude(0)
    assert sorted(r.witness) == [0, 1]


def test_jsr_nilpotent_set_is_bottom():
    zero = intset([[[0, 0], [0, 0]]] * 2, 7)
    assert ultrametric_set_norm(zero).is_bottom
    assert check_ultra_boca(zero).holds
    for s in (intset([[[0, 1], [0, 0]]], 7), zero):
        assert padic_jsr_exact(s).rho.is_bottom
        assert padic_nilpotency_exact(s)


def test_jsr_witness_attains_value():
    rng = random.Random(23)
    for _ in range(30):
        s = rand_int_set(rng, rng.choice([2, 3]), rng.choice([2, 3, 5]))
        r = padic_jsr_exact(s)
        prod = word_product(s, r.witness)
        lam = max_root_magnitude(char_poly_exact(prod), s.prime)
        assert lam.root(len(r.witness)) == r.rho


def _acceptance_set(index):
    # set ``index`` of the exact suite in test_acceptance (seed 701)
    rng = np.random.default_rng(701)
    for i in range(index + 1):
        d = 2 if i % 2 == 0 else 3
        rows = [
            [[int(rng.integers(-9, 10)) for _ in range(d)] for _ in range(d)]
            for _ in range(2)
        ]
    return intset(rows, (2, 3, 5)[index % 3])


def test_jsr_witness_is_shortest_then_lexicographically_first():
    # p R + N with N strictly upper (member 0) or lower (member 1) often
    # peaks first at length 2
    rng = random.Random(61)
    sets = [_acceptance_set(9)]
    for _ in range(10):
        d, p = rng.choice([2, 3]), rng.choice([2, 3, 5])
        mats = [[[p * rng.randint(-3, 3) for _ in range(d)] for _ in range(d)] for _ in range(2)]
        for r, c in itertools.combinations(range(d), 2):
            mats[0][r][c] += rng.randint(-2, 2)
            mats[1][c][r] += rng.randint(-2, 2)
        sets.append(intset(mats, p))
    for s in sets:
        assert tuple(padic_jsr_exact(s)) == brute_force(s)


def test_exact_engine_does_not_overflow():
    # entries near 2^40, so products of length 2 already pass 2^63, well
    # within ell(3) = 9.  p = 3, since wrapping mod 2^64 would keep 2-adic
    # valuations.  Three sets: p R + N as in the witness test (it peaks at a
    # fractional exponent), a triangular one that never reaches its norm and
    # sweeps all nine levels, and a nilpotent one
    rng = random.Random(71)
    p, d, m = 3, 3, 2

    def big():
        return rng.choice([-1, 1]) * rng.randint(2**40, 2**41)

    mixed = [[[p * big() for _ in range(d)] for _ in range(d)] for _ in range(m)]
    for r, c in itertools.combinations(range(d), 2):
        mixed[0][r][c] += big()
        mixed[1][c][r] += big()
    no_floor = [
        [[p * big() if r == c else big() if r < c else 0 for c in range(d)] for r in range(d)]
        for _ in range(m)
    ]
    nilpotent = [
        [[big() if r < c else 0 for c in range(d)] for r in range(d)] for _ in range(m)
    ]
    for mats, nil in ((mixed, False), (no_floor, False), (nilpotent, True)):
        s = intset(mats, p)
        assert max(abs(x) for row in word_product(s, (0, 1)) for x in row) > 2**63
        rho = brute_force(s)
        assert tuple(padic_jsr_exact(s)) == rho
        rep = check_ultra_boca(s)
        words = list(itertools.product(range(m), repeat=d))
        extremal = max(words, key=lambda w: entry_norm(word_product(s, w), p))
        assert (rep.lhs, rep.extremal_word) == (entry_norm(word_product(s, extremal), p), extremal)
        assert (rep.rho, rep.rho_witness) == rho
        zero = all(entry_norm(word_product(s, w), p).is_bottom for w in words)
        assert padic_nilpotency_exact(s) == zero == nil


def test_jsr_stops_at_the_set_norm(monkeypatch):
    # the first member of S has a unit trace, so rho(p S) = ||p S||_0 = p^-1
    # is reached at level 1 and no product is ever built
    pulled = []
    levels = ultrametric.product_levels

    def spy(stack, depth):
        for level in levels(stack, depth):
            pulled.append(level.shape[0])
            yield level

    monkeypatch.setattr(ultrametric, "product_levels", spy)
    rng = random.Random(67)
    checked = 0
    while checked < 6:
        p, d = rng.choice([2, 3, 5]), rng.choice([2, 3])
        s = rand_int_set(rng, d, p, m=3)
        if sum(s.stack[0][i][i] for i in range(d)) % p == 0:
            continue
        ps = intset([[[p * x for x in row] for row in m] for m in s.stack], p)
        assert padic_jsr_exact(ps) == (PAdicMagnitude(1), (0,))
        assert ultrametric_set_norm(ps) == PAdicMagnitude(1)
        checked += 1
    # one level per sweep: the three members themselves
    assert pulled == [3] * 6


def test_jsr_respects_word_cap():
    s = intset([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], 2)
    with pytest.raises(BudgetExceededError):
        padic_jsr_exact(s, word_cap=5)


def test_jsr_scaling_by_p_shifts_exponent():
    # scaling by c moves rho and the set norm by v_p(c), both sides of the
    # power inequality by d v_p(c), and neither the witness nor nilpotency;
    # c = 1/(q p^j) with q prime to p makes the set rational
    def shifted(mag, e):
        return BOTTOM if mag.is_bottom else PAdicMagnitude(mag.exponent + e)

    rng = random.Random(29)
    for _ in range(10):
        p = rng.choice([2, 3])
        d = rng.choice([2, 2, 3])
        s = rand_int_set(rng, d, p)
        r, rep = padic_jsr_exact(s), check_ultra_boca(s)
        norm, nil = ultrametric_set_norm(s), padic_nilpotency_exact(s)
        q = rng.choice([1, 5, 7, 35])
        for c in (
            Fraction(p), Fraction(p**2), Fraction(1, q), Fraction(1, q * p), Fraction(1, q * p**2)
        ):
            scaled = PAdicMatrixSet(
                [[[x * c for x in row] for row in m] for m in s.stack], p
            )
            j = padic_valuation(c, p)
            rs, reps = padic_jsr_exact(scaled), check_ultra_boca(scaled)
            assert rs.rho == shifted(r.rho, j)
            assert rs.witness == r.witness
            assert reps.lhs == shifted(rep.lhs, d * j)
            assert reps.rhs == shifted(rep.rhs, d * j)
            assert ultrametric_set_norm(scaled) == shifted(norm, j)
            assert padic_nilpotency_exact(scaled) == nil


def test_jsr_stable_past_the_length_bound():
    """max over words up to ell(d) already equals the value at 2 ell(d)."""
    rng = random.Random(31)
    for _ in range(12):
        d = rng.choice([2, 2, 3])
        s = rand_int_set(rng, d, rng.choice([2, 3, 5]))
        r1 = padic_jsr_exact(s)
        r2 = padic_jsr_exact(s, ell=2 * ell_bound(d))
        assert r1.rho == r2.rho


def test_jsr_power_set_identity():
    # rho(S^k) = rho(S)^k, both sides exact
    rng = random.Random(37)
    for _ in range(10):
        s = rand_int_set(rng, 2, rng.choice([2, 3, 5]))
        k = rng.choice([2, 3])
        rho = padic_jsr_exact(s).rho
        rho_k = padic_jsr_exact(power_set(s, k)).rho
        assert rho_k == rho**k


def test_jsr_bounded_by_set_norm():
    rng = random.Random(41)
    for _ in range(30):
        s = rand_int_set(rng, rng.choice([2, 3]), rng.choice([2, 3, 5]))
        assert not ultrametric_set_norm(s) < padic_jsr_exact(s).rho


def test_jsr_rational_entries():
    # a single Jordan-like block with eigenvalue 1/3 has magnitude p
    s = PAdicMatrixSet([[["1/3", 1], [0, "1/3"]]], 3)
    assert padic_jsr_exact(s).rho == PAdicMagnitude(-1)


# --- the exact power inequality --------------------------------------------------


def test_ultra_boca_swap_pair():
    rep = check_ultra_boca(intset([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], 3))
    assert rep.holds
    assert rep.lhs == PAdicMagnitude(0)
    assert rep.rhs == PAdicMagnitude(0)
    assert rep.extremal_word in ((0, 1), (1, 0))


def test_ultra_boca_scalar_matrix():
    rep = check_ultra_boca(intset([[[5, 0], [0, 5]]], 5))
    assert rep.holds
    assert rep.lhs == PAdicMagnitude(2)  # || (pI)^2 ||
    assert rep.rhs == PAdicMagnitude(2)  # p^-1 * p^-1


def test_ultra_boca_extremal_word_attains_lhs():
    rng = random.Random(43)
    for _ in range(20):
        s = rand_int_set(rng, rng.choice([2, 3]), rng.choice([2, 3, 5]))
        rep = check_ultra_boca(s)
        assert rep.holds
        assert len(rep.extremal_word) == s.dim
        assert entry_norm(word_product(s, rep.extremal_word), s.prime) == rep.lhs


def test_ultra_boca_rho_witness_attains_rho():
    rng = random.Random(47)
    for _ in range(20):
        s = rand_int_set(rng, rng.choice([2, 3]), rng.choice([2, 3, 5]))
        rep = check_ultra_boca(s)
        assert (rep.rho, rep.rho_witness) == padic_jsr_exact(s)
        if rep.rho.is_bottom:
            continue
        prod = word_product(s, rep.rho_witness)
        lam = max_root_magnitude(char_poly_exact(prod), s.prime)
        assert lam.root(len(rep.rho_witness)) == rep.rho


def test_ultra_boca_submultiplicative_powers():
    # || S^(k+m) || <= || S^k || * || S^m ||, all exact
    rng = random.Random(47)
    for _ in range(10):
        s = rand_int_set(rng, 2, rng.choice([2, 3]))
        norms = {
            k: ultrametric_set_norm(power_set(s, k)) for k in (1, 2, 3, 4)
        }
        for k, m in ((1, 1), (1, 2), (2, 2), (1, 3)):
            if norms[1].is_bottom:
                assert norms[k + m].is_bottom
            assert not (norms[k] * norms[m]) < norms[k + m]


# --- exact nilpotency ------------------------------------------------------------


def test_nilpotency_strictly_triangular():
    s = intset([[[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 5], [0, 0, 0], [0, 0, 0]]], 5)
    assert padic_nilpotency_exact(s)


def test_nilpotency_swap_pair_is_not():
    assert not padic_nilpotency_exact(intset([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], 2))


def test_nilpotency_zero_set():
    assert padic_nilpotency_exact(intset([[[0, 0], [0, 0]]], 3))


def test_nilpotency_is_exact_at_tiny_entries():
    # a 1e-8-ish rational perturbation flips the answer, with no tolerance
    eps = Fraction(3, 10**8)
    clean = PAdicMatrixSet([[[0, 1], [0, 0]]], 2)
    bent = PAdicMatrixSet([[[0, 1], [eps, 0]]], 2)
    assert padic_nilpotency_exact(clean)
    assert not padic_nilpotency_exact(bent)


def test_nilpotency_agrees_with_bottom_radius():
    rng = random.Random(53)
    hits = 0
    for _ in range(40):
        d = rng.choice([2, 3])
        # sparse upper-ish sets so that nilpotent instances actually occur
        mats = []
        for _ in range(2):
            m = [[0] * d for _ in range(d)]
            for r in range(d):
                for c in range(d):
                    if rng.random() < 0.4:
                        m[r][c] = rng.randint(-3, 3)
            mats.append(m)
        s = intset(mats, rng.choice([2, 3]))
        nil = padic_nilpotency_exact(s)
        bottom = padic_jsr_exact(s).rho.is_bottom
        assert nil == bottom
        hits += nil
    assert hits > 0  # the sampler did produce nilpotent instances


def words_vanish(s, k):
    """Whether every length-k product is zero, by the plain Fraction loop."""
    return all(
        x == 0
        for w in itertools.product(range(s.size), repeat=k)
        for row in word_product(s, w)
        for x in row
    )


def elementary_conjugator(rng, d):
    """(g, g^-1) for g a product of 2d rational elementary matrices
    I + c e_ij, whose inverses I - c e_ij multiply in reverse order."""
    eye = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
    g = ginv = eye
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 5, 7]))
        e, einv = [row[:] for row in eye], [row[:] for row in eye]
        e[i][j], einv[i][j] = c, -c
        g, ginv = fraction_matmul(e, g), fraction_matmul(ginv, einv)
    assert fraction_matmul(g, ginv) == tuple(map(tuple, eye))
    return g, ginv


def rand_strict_upper(rng, d, m):
    """m strictly upper-triangular rational matrices; the first has a
    nonzero superdiagonal, so its (d-1)-th power is nonzero."""
    mats = []
    for n in range(m):
        a = [[Fraction(0)] * d for _ in range(d)]
        for r in range(d):
            for c in range(r + 1, d):
                a[r][c] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 5]))
            if n == 0 and r + 1 < d:
                a[r][r + 1] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 3]))
        mats.append(a)
    return mats


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nilpotency_is_the_length_d_words_vanishing(p):
    # rational conjugates g N g^-1 of strictly upper and of strictly lower
    # triangular sets have index exactly d; one entry under the diagonal of
    # the first upper member usually breaks nilpotency, and the Fraction
    # oracle decides whether it did
    rng = random.Random(100 + p)
    for d in (2, 3, 4):
        for m in (1, 2, 3):
            for _ in range(2):
                strict = rand_strict_upper(rng, d, m)
                g, ginv = elementary_conjugator(rng, d)
                lower = [[list(col) for col in zip(*a)] for a in strict]
                for tri in (strict, lower):
                    conj = [fraction_matmul(fraction_matmul(g, a), ginv) for a in tri]
                    s = PAdicMatrixSet(conj, p)
                    assert not words_vanish(s, d - 1)  # the index is exactly d
                    assert words_vanish(s, d)
                    assert padic_nilpotency_exact(s)

                strict[0][d - 1][rng.randrange(d - 1)] = Fraction(1, p)
                conj = [fraction_matmul(fraction_matmul(g, a), ginv) for a in strict]
                bent = PAdicMatrixSet(conj, p)
                assert padic_nilpotency_exact(bent) == words_vanish(bent, d)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nilpotency_matches_the_oracle_on_sparse_sets(p):
    rng = random.Random(200 + p)
    hits = [0, 0]
    for _ in range(60):
        d, m = rng.randint(1, 4), rng.randint(1, 3)
        mats = [
            [
                [
                    Fraction(rng.choice([-1, 2]), rng.choice([1, p, 7, 3 * p]))
                    if rng.random() < 0.3
                    else 0
                    for _ in range(d)
                ]
                for _ in range(d)
            ]
            for _ in range(m)
        ]
        s = PAdicMatrixSet(mats, p)
        nil = words_vanish(s, d)
        assert padic_nilpotency_exact(s) == nil
        hits[nil] += 1
    assert all(hits)  # the sampler gave nilpotent and non-nilpotent sets


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nilpotency_of_each_member_is_not_joint(p):
    e12 = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    e21 = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    for mats in ([e12], [e21]):
        assert padic_nilpotency_exact(PAdicMatrixSet(mats, p))
    pair = PAdicMatrixSet([e12, e21], p)
    assert not words_vanish(pair, 3)
    assert not padic_nilpotency_exact(pair)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nilpotency_of_zero_sets_and_dimension_one(p):
    cases = [
        ([[[0, 0, 0]] * 3] * 2, True),
        ([[[0]]], True),
        ([[[0]], [[0]]], True),
        ([[[0]], [[f"1/{p}"]]], False),
        ([[[p**3]]], False),
    ]
    for mats, nil in cases:
        s = PAdicMatrixSet(mats, p)
        assert words_vanish(s, s.dim) == nil
        assert padic_nilpotency_exact(s) == nil


def test_nilpotency_word_cap():
    # the m = 2, d = 3 words up to length 3 number 2 + 4 + 8 = 14
    e12 = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    e21 = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    s = PAdicMatrixSet([e12, e21], 3)
    need = count_words(2, 3)
    with pytest.raises(BudgetExceededError, match=f"{need} words .* cap of {need - 1};"):
        padic_nilpotency_exact(s, word_cap=need - 1)
    assert not padic_nilpotency_exact(s, word_cap=need)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nilpotency_is_a_bottom_power_side(p):
    # jsrkit padic reads nilpotency from check_ultra_boca: ||S^d||_0 is
    # BOTTOM exactly when every length-d product vanishes.  The sets are
    # those of the tests above, conjugated triangular ones at d <= 3 so that
    # the exact sweep stays short
    rng = random.Random(300 + p)
    sets = [
        intset([[[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 5], [0, 0, 0], [0, 0, 0]]], p),
        intset([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], p),
        intset([[[0, 0], [0, 0]]], p),
        PAdicMatrixSet([[[0, 1], [0, 0]]], p),
        PAdicMatrixSet([[[0, 1], [Fraction(3, 10**8), 0]]], p),
    ]
    for d in (2, 3):
        for m in (1, 2):
            strict = rand_strict_upper(rng, d, m)
            g, ginv = elementary_conjugator(rng, d)
            lower = [[list(col) for col in zip(*a)] for a in strict]
            bent = [[row[:] for row in strict[0]]] + strict[1:]
            bent[0][d - 1][rng.randrange(d - 1)] = Fraction(1, p)
            for tri in (strict, lower, bent):
                conj = [fraction_matmul(fraction_matmul(g, a), ginv) for a in tri]
                sets.append(PAdicMatrixSet(conj, p))
    for _ in range(30):
        d, m = rng.randint(1, 3), rng.randint(1, 3)
        sets.append(
            PAdicMatrixSet(
                [
                    [
                        [
                            Fraction(rng.choice([-1, 2]), rng.choice([1, p, 7, 3 * p]))
                            if rng.random() < 0.3
                            else 0
                            for _ in range(d)
                        ]
                        for _ in range(d)
                    ]
                    for _ in range(m)
                ],
                p,
            )
        )
    hits = [0, 0]
    for s in sets:
        nil = padic_nilpotency_exact(s)
        assert check_ultra_boca(s).lhs.is_bottom == nil
        hits[nil] += 1
    assert all(hits)
