"""Exact joint spectral radius over the rationals with a p-adic absolute value.

Everything here is a decision procedure: eigenvalue magnitudes come from
the smallest Newton-polygon slope of exact characteristic polynomials,
the joint spectral radius equals the peak of Lambda(S^k)^(1/k) over k up
to an explicit length bound ell(d), and the algebra the set generates is
nilpotent exactly when every length-d product vanishes.  Each set is
scaled once, by the lcm D of its denominators and by p^-vmin, vmin the
least entry valuation of the integer set, into an object array of
arbitrary-precision ints; the word products come from
``core.product_levels``, the engine the floating-point side uses, run on
that array.  The scaled set has norm exponent 0, and a length-k product
of it has every exponent k (v_p(D) - vmin) above the original, so
results shift back by that much per letter.  No floating point, no
tolerances.

Magnitudes are carried in exponent form: PAdicMagnitude(e) denotes the
value p^(-e) with e rational (roots in the algebraic closure can have
fractional valuation), and BOTTOM denotes the magnitude of zero, below
every finite magnitude.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .core import WORD_CAP, Word, check_budget, product_levels, word_from_index

__all__ = [
    "BOTTOM",
    "PAdicJsrResult",
    "PAdicMagnitude",
    "PAdicMatrixSet",
    "UltraBocaReport",
    "as_rational",
    "char_poly_exact",
    "check_ultra_boca",
    "ell_bound",
    "is_prime",
    "max_root_magnitude",
    "padic_jsr_exact",
    "padic_nilpotency_exact",
    "padic_valuation",
    "ultrametric_set_norm",
]


# --- rational plumbing --------------------------------------------------------


def as_rational(x) -> Fraction:
    """Parse an exact rational: int, Fraction, or a string like "-3" or "9/2".

    Floats are refused on purpose; a binary float is almost never the
    rational the caller meant.
    """
    if isinstance(x, float):
        raise TypeError("refusing a float; pass an int, Fraction, or 'a/b' string")
    return Fraction(x)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases.

    Deterministic for n < 3.3e24, which covers any prime a word sweep could
    plausibly use; beyond that it is a strong probable-prime test.
    """
    n = int(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _valuation(q, p: int) -> int:
    # v_p of a nonzero int or Fraction; p is prime
    n, den, v = q.numerator, q.denominator, 0
    while n % p == 0:
        n //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_valuation(q, p: int):
    """v_p(q): multiplicity of p in the numerator minus the denominator.

    Returns None (the bottom element) for q = 0.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = as_rational(q)
    return None if q == 0 else _valuation(q, p)


# --- magnitudes ---------------------------------------------------------------


@functools.total_ordering
@dataclass(frozen=True)
class PAdicMagnitude:
    """The absolute value p^(-exponent), or the bottom element for zero.

    Ordering follows the magnitude, so a *larger* exponent is a *smaller*
    magnitude and BOTTOM is below everything.  Multiplication adds
    exponents; powers and roots scale them.  The exponent is a Fraction
    because root magnitudes of non-split polynomials live in the divisible
    closure of the value group.
    """

    exponent: Fraction | None = None

    def __post_init__(self):
        if self.exponent is not None:
            object.__setattr__(self, "exponent", Fraction(self.exponent))

    @property
    def is_bottom(self) -> bool:
        return self.exponent is None

    def __lt__(self, other: "PAdicMagnitude") -> bool:
        if self.exponent is None:
            return other.exponent is not None
        if other.exponent is None:
            return False
        return self.exponent > other.exponent

    def __mul__(self, other: "PAdicMagnitude") -> "PAdicMagnitude":
        if self.exponent is None or other.exponent is None:
            return BOTTOM
        return PAdicMagnitude(self.exponent + other.exponent)

    def __pow__(self, k: int) -> "PAdicMagnitude":
        if k < 0:
            raise ValueError("negative powers are not defined for magnitudes")
        if k == 0:
            return PAdicMagnitude(Fraction(0))  # empty product, even of zero
        if self.exponent is None:
            return BOTTOM
        return PAdicMagnitude(self.exponent * k)

    def root(self, k: int) -> "PAdicMagnitude":
        if k < 1:
            raise ValueError("root order must be >= 1")
        if self.exponent is None:
            return BOTTOM
        return PAdicMagnitude(self.exponent / k)

    def __repr__(self):
        if self.exponent is None:
            return "PAdicMagnitude(bottom)"
        return f"PAdicMagnitude(p**{-self.exponent})"


BOTTOM = PAdicMagnitude(None)


# --- the largest root ---------------------------------------------------------


def _root_exponent(coeffs: Sequence, p: int) -> Fraction | None:
    # the smallest Newton-polygon slope of the monic polynomial with these
    # ascending int or Fraction coefficients: min over nonzero c_i, i < d,
    # of v_p(c_i) / (d - i); None for t^d
    d = len(coeffs) - 1
    return min(
        (Fraction(_valuation(c, p), d - i) for i, c in enumerate(coeffs[:d]) if c),
        default=None,
    )


def max_root_magnitude(coeffs: Sequence, p: int) -> PAdicMagnitude:
    """Largest p-adic magnitude among the roots of a monic polynomial.

    Coefficients are ascending, ``coeffs[i]`` multiplying t^i, and d is the
    degree.  The answer is p^(-m) for m the smallest Newton-polygon slope,
    min over nonzero c_i (i < d) of v_p(c_i) / (d - i): the line of slope
    -m through (d, 0) is the steepest that stays below every point
    (i, v_p(c_i)), so it carries the hull's last segment (N. Koblitz,
    p-adic Numbers, p-adic Analysis, and Zeta-Functions, IV.3).  BOTTOM
    exactly when the polynomial is t^d.
    """
    cs = [as_rational(c) for c in coeffs]
    if len(cs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    if cs[-1] != 1:
        raise ValueError("polynomial must be monic")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return PAdicMagnitude(_root_exponent(cs, p))


# --- exact characteristic polynomials ------------------------------------------


def _char_coeffs_flat(flat: Sequence[int], d: int) -> tuple:
    # ascending coefficients of det(tI - A) for an integer matrix
    if d == 1:
        return (-flat[0], 1)
    if d == 2:
        a, b, c, e = flat
        return (a * e - b * c, -(a + e), 1)
    if d == 3:
        a, b, c, e, f, g, h, i, j = flat
        det = a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h)
        e2 = (a * f - b * e) + (a * j - c * h) + (f * j - g * i)
        return (-det, e2, -(a + f + j), 1)
    # Faddeev-LeVerrier; over the integers the division by k is exact
    rows = [flat[r * d : (r + 1) * d] for r in range(d)]
    m = [[0] * d for _ in range(d)]
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    c_prev = 1
    for k in range(1, d + 1):
        for r in range(d):
            m[r][r] += c_prev
        m = [
            [sum(rows[r][t] * m[t][c] for t in range(d)) for c in range(d)]
            for r in range(d)
        ]
        c_prev = -sum(m[r][r] for r in range(d)) // k
        coeffs[d - k] = c_prev
    return tuple(coeffs)


def char_poly_exact(matrix) -> tuple:
    """Ascending monic characteristic polynomial coefficients, exactly.

    ``matrix`` is a square array of rationals (ints, Fractions, or "a/b"
    strings).  coeffs[i] multiplies t^i and coeffs[-1] == 1.
    """
    a = _as_rational_stack([matrix])[0]
    d, flat = a.shape[0], a.ravel().tolist()
    # det(tI - DA) has coefficients D^(d-i) c_i, where c_i are A's
    den = _lcm_denominator(flat)
    coeffs = _char_coeffs_flat(_times(flat, den), d)
    return tuple(Fraction(c, den ** (d - i)) for i, c in enumerate(coeffs))


# --- matrix sets over Q -------------------------------------------------------


def _as_rational_stack(members) -> np.ndarray:
    """``members`` as a read-only (m, d, d) object array of Fractions, with
    m, d >= 1; every entry goes through ``as_rational``."""
    mats = [[[as_rational(x) for x in row] for row in m] for m in members]
    if not mats:
        raise ValueError("need at least one member")
    if any(not m or any(len(r) != len(m) for r in m) for m in mats):
        raise ValueError("members must be square and nonempty")
    if any(len(m) != len(mats[0]) for m in mats):
        raise ValueError("members must share a dimension")
    stack = np.array(mats, dtype=object)
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True, eq=False)
class PAdicMatrixSet:
    """A finite set of d x d rational matrices together with a prime.

    ``stack`` holds the members, in their given order, as one read-only
    (size, d, d) object array of Fractions; words index into it as they do
    into ``MatrixSet.stack``.  Entries may be given as ints, Fractions or
    "a/b" strings, never floats.
    """

    stack: np.ndarray
    prime: int

    def __post_init__(self):
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        object.__setattr__(self, "stack", _as_rational_stack(self.stack))
        object.__setattr__(self, "prime", int(self.prime))

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    @property
    def size(self) -> int:
        return self.stack.shape[0]

    @functools.cached_property
    def _scaled(self) -> tuple[int | None, np.ndarray]:
        """(shift, the members times D / p^vmin), D the lcm of all
        denominators and vmin the least entry valuation of the members times
        D, so the scaled set has norm exponent 0 and shift = v_p(D) - vmin;
        the kernels run on the scaled members and shift back.  They come as
        one read-only (size, dim, dim) object array of Python ints.  shift
        is None for the zero set."""
        entries = self.stack.ravel().tolist()
        den = _lcm_denominator(entries)
        ints = np.array(_times(entries, den), dtype=object).reshape(self.stack.shape)
        vmin = int(_valuations(ints.reshape(1, -1), self.prime)[0])
        shift = None
        if vmin >= 0:
            ints //= self.prime**vmin
            shift = _valuation(den, self.prime) - vmin
        ints.flags.writeable = False
        return shift, ints


def _lcm_denominator(entries) -> int:
    return math.lcm(*(x.denominator for x in entries))


def _times(flat, den: int) -> tuple:
    # den * flat as ints; den is a multiple of every denominator
    return tuple(x.numerator * (den // x.denominator) for x in flat)


def _valuations(level: np.ndarray, p: int) -> np.ndarray:
    """Per row of an integer ``level``, the least valuation of its entries,
    which is the exponent of its entrywise max magnitude; -1 for a zero row.
    """
    g = np.gcd.reduce(level.reshape(level.shape[0], -1), axis=1)
    zero = g == 0
    v = np.where(zero, -1, 0)
    rows = np.flatnonzero(~zero)
    while rows.size:
        rows = rows[g[rows] % p == 0]
        g[rows] //= p
        v[rows] += 1
    return v


def _word_valuations(s: PAdicMatrixSet, k: int) -> np.ndarray:
    """``_valuations`` of the length-k products of the scaled set, one per
    word in ``word_from_index`` order."""
    for level in product_levels(s._scaled[1], k):
        pass
    return _valuations(level, s.prime)


def ultrametric_set_norm(s: PAdicMatrixSet) -> PAdicMagnitude:
    """||S||_0 = max entry magnitude over all members (exact operator norm
    for the coordinatewise ultrametric vector norm)."""
    shift = s._scaled[0]
    return BOTTOM if shift is None else PAdicMagnitude(-shift)


def ell_bound(d: int) -> int:
    """Word-length bound sufficient for the exact peak to reach the joint
    spectral radius: min(d^2, ceil(2 d log2 d) + 4d - 4), and 1 for d = 1.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return 1
    n = d ** (2 * d)  # exact ceil(2 d log2 d) via bit length
    ceil_log = n.bit_length() - 1 if n & (n - 1) == 0 else n.bit_length()
    return min(d * d, ceil_log + 4 * d - 4)


class PAdicJsrResult(NamedTuple):
    rho: PAdicMagnitude
    witness: Word


def padic_jsr_exact(
    s: PAdicMatrixSet,
    *,
    ell: int | None = None,
    word_cap: int = WORD_CAP,
) -> PAdicJsrResult:
    """The exact joint spectral radius max_{k <= ell} Lambda(S^k)^(1/k).

    Sweeps every word of length up to ``ell`` (default ``ell_bound(d)``,
    which provably suffices; pass a smaller or larger value to trade
    completeness for time, e.g. in stability experiments) breadth-first,
    one level of ``core.product_levels`` over the scaled set at a time.
    Each word's eigenvalue magnitude comes from the smallest Newton-polygon
    slope of its exact characteristic polynomial; the return value is EXACT, with a
    witness word attaining it.  Ties go to the shortest word and then to
    the lexicographically first one.

    Words whose entrywise norm already caps their eigenvalue magnitude
    below the running best are not analyzed further (the norm bound
    Lambda <= ||.||_0 makes this lossless for the value).  Since
    Lambda(A) <= ||A||_0 <= ||S||_0^k for every length-k product A, the
    sweep stops after the level where the running best reaches the set
    norm, or where every product is zero.
    """
    d, m, p = s.dim, s.size, s.prime
    if ell is None:
        ell = ell_bound(d)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    check_budget(m, ell, word_cap, f"exact sweep to depth {ell}")

    # the scaled set has norm exponent 0, so best_val == 0 is the set norm
    shift, stack = s._scaled
    best_val: Fraction | None = None  # exponent of the running best rho
    best_k = best_i = 0
    for k, level in enumerate(product_levels(stack, ell), 1):
        vmin = _valuations(level, p)
        # Lambda <= ||.||_0, so vmin/k >= best_val means a word cannot
        # improve the peak; compare cross-multiplied to stay exact
        live = vmin >= 0
        keep = live
        if best_val is not None:
            keep = live & (vmin * best_val.denominator < best_val.numerator * k)
        rows = np.flatnonzero(keep)
        for i in rows.tolist():
            lam = _root_exponent(_char_coeffs_flat(level[i].ravel().tolist(), d), p)
            if lam is not None and (best_val is None or lam / k < best_val):
                best_val, best_k, best_i = lam / k, k, i
        if best_val == 0 or not live.any():
            break

    if best_val is None:
        return PAdicJsrResult(BOTTOM, (0,))
    return PAdicJsrResult(
        PAdicMagnitude(best_val - shift), word_from_index(best_i, best_k, m)
    )


class UltraBocaReport(NamedTuple):
    holds: bool
    lhs: PAdicMagnitude
    rhs: PAdicMagnitude
    extremal_word: Word
    rho: PAdicMagnitude
    set_norm: PAdicMagnitude
    rho_witness: Word  # the padic_jsr_exact witness attaining rho


def check_ultra_boca(
    s: PAdicMatrixSet, *, word_cap: int = WORD_CAP
) -> UltraBocaReport:
    """Exact check of ||S^d||_0 <= rho(S) ||S||_0^(d-1).

    Both sides are computed as exact magnitudes; ``extremal_word`` attains
    the left side and ``rho_witness`` the radius.  A violated report would
    contradict a proven bound, so the suite treats it as a failure.
    """
    d, m = s.dim, s.size
    # its budget covers S^d too: count_words(m, ell_bound(d)) >= m**d
    rho, rho_witness = padic_jsr_exact(s, word_cap=word_cap)
    shift = s._scaled[0]
    vmin = _word_valuations(s, d)
    live = np.flatnonzero(vmin >= 0)
    if live.size:
        ibest = int(live[np.argmin(vmin[live])])
        lhs = PAdicMagnitude(int(vmin[ibest]) - d * shift)
    else:
        ibest, lhs = 0, BOTTOM
    norm = ultrametric_set_norm(s)
    rhs = rho * norm ** (d - 1)
    return UltraBocaReport(
        not rhs < lhs, lhs, rhs, word_from_index(ibest, d, m), rho, norm, rho_witness
    )


# --- exact nilpotency ----------------------------------------------------------


def padic_nilpotency_exact(s: PAdicMatrixSet, *, word_cap: int = WORD_CAP) -> bool:
    """Whether the algebra generated by the members is nilpotent, exactly.

    A nilpotent algebra of d x d matrices is simultaneously strictly
    triangularizable, so it has index at most d: any d of its elements
    multiply to zero.  It is spanned by the products of nonempty words, and
    a word of length at least d has a length-d factor, so the algebra is
    nilpotent exactly when every length-d product vanishes.  Scaling does
    not change nilpotency, so the products run on the integer scaling of
    the set.  Raises BudgetExceededError when the count_words(m, d) words up
    to that length exceed ``word_cap``.
    """
    check_budget(s.size, s.dim, word_cap, f"nilpotency words of length {s.dim}")
    return bool((_word_valuations(s, s.dim) < 0).all())
