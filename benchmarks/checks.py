"""Output checks made apart from jsrkit.

Nothing here imports jsrkit.  Float results are recomputed with numpy from
the benchmark's own copy of each input; exact results with a few lines of
``Fraction`` code (products, characteristic polynomials from principal
minors, Newton polygons).  Each check returns a list of messages, empty
when the report passes.  Words are read as documented: ``word[0]`` acts
first, so the product of ``(a, b, c)`` is ``C @ B @ A``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

REL = 1e-9  # float agreement between two computations of one number
RANDOM_WORDS = 64  # random words per float report
EXACT_RANDOM_WORDS = 12  # random words per exact report
BRUTE_MAX_K = 3


# --- float side ----------------------------------------------------------------


def eval_word(members: np.ndarray, word) -> np.ndarray:
    prod = members[word[0]]
    for letter in word[1:]:
        prod = members[letter] @ prod
    return prod


def _rho(a: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(a)).max())


def _norm2(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def _valid_word(word, size: int, max_len: int) -> bool:
    return 0 < len(word) <= max_len and all(
        isinstance(x, int) and 0 <= x < size for x in word
    )


def check_interval(iv: dict, members: np.ndarray, depth: int, rng) -> list:
    """The sandwich interval of an estimate or certify report."""
    errs = []
    m = len(members)
    lower, upper = iv["lower"], iv["upper"]
    if not lower <= upper * (1 + REL):
        errs.append(f"lower {lower!r} exceeds upper {upper!r}")
    word = list(iv["lower_witness"])
    if not _valid_word(word, m, depth):
        errs.append(f"lower witness {word} is not a word of length <= {depth}")
    else:
        got = _rho(eval_word(members, word)) ** (1.0 / len(word))
        if not math.isclose(got, lower, rel_tol=REL):
            errs.append(f"witness {word} gives {got!r}, report says lower {lower!r}")
    for _ in range(RANDOM_WORDS):
        k = int(rng.integers(1, depth + 1))
        w = [int(x) for x in rng.integers(0, m, size=k)]
        got = _rho(eval_word(members, w)) ** (1.0 / k)
        if got > lower * (1 + REL):
            errs.append(f"word {w} has rho^(1/k) {got!r} above lower {lower!r}")
            break
    for k in range(1, min(BRUTE_MAX_K, depth) + 1):
        brute = max(
            _norm2(eval_word(members, w)) for w in itertools.product(range(m), repeat=k)
        ) ** (1.0 / k)
        if upper > brute * (1 + REL):
            errs.append(f"upper {upper!r} exceeds max ||S^{k}||^(1/{k}) = {brute!r}")
    return errs


def check_conjugation(conj: dict, members: np.ndarray) -> list:
    g = np.array([[complex(re, im) for re, im in row] for row in conj["g"]])
    g_inv = np.linalg.inv(g)
    got = max(_norm2(g @ a @ g_inv) for a in members)
    errs = []
    if not math.isclose(got, conj["value"], rel_tol=REL):
        errs.append(f"conjugation value {conj['value']!r}, recomputed {got!r}")
    plain = max(_norm2(a) for a in members)
    if conj["value"] > plain * (1 + REL):
        errs.append(f"conjugation value {conj['value']!r} exceeds ||S|| = {plain!r}")
    return errs


def check_estimate(results: dict, members: np.ndarray, depth: int, refine: bool, rng) -> list:
    errs = check_interval(results["interval"], members, depth, rng)
    if refine:
        if "conjugation" not in results or "barabanov" not in results:
            errs.append("refinements requested but missing from the report")
        else:
            errs += check_conjugation(results["conjugation"], members)
    return errs


def check_boca_unitary(results: dict, members: np.ndarray, depth: int, rng) -> list:
    """A BOCA_NEW report on a unitary-mix set, whose radius is 1."""
    d = members.shape[1]
    unitary = [
        i for i, a in enumerate(members)
        if np.allclose(a.conj().T @ a, np.eye(d), rtol=0, atol=1e-12)
    ]
    others = [i for i in range(len(members)) if i not in unitary]
    # the reason lhs must be 1: pure-unitary words have norm exactly 1 and
    # any word containing a contraction of norm <= 1/2 has norm <= 1/2
    if not unitary or any(_norm2(members[i]) > 0.5 + REL for i in others):
        return ["input is not unitaries plus contractions of norm <= 1/2"]
    errs = check_interval(results["interval"], members, depth, rng)
    iv = results["interval"]
    if not (iv["lower"] <= 1 + REL and iv["upper"] >= 1 - REL):
        errs.append(f"interval [{iv['lower']!r}, {iv['upper']!r}] misses the radius 1")
    rep = results["report"]
    n1 = 2 * d * d
    if rep["verdict"] != "CONFIRMED":
        errs.append(f"verdict {rep['verdict']}, expected CONFIRMED")
    budget = rep["budget"]
    if budget.get("n1") != n1 or budget.get("n1_full") != n1 or budget.get("clamped"):
        errs.append(f"budget {budget}, expected n1 = {n1} unclamped")
    if abs(rep["lhs"] - 1.0) > REL:
        errs.append(f"lhs {rep['lhs']!r} is not 1")
    word = list(rep["witnesses"].get("word", []))
    if len(word) != n1 or any(x not in unitary for x in word):
        errs.append(f"lhs witness {word} is not a pure-unitary word of length {n1}")
    elif not math.isclose(_norm2(eval_word(members, word)), rep["lhs"], rel_tol=REL):
        errs.append(f"lhs witness {word} does not reproduce lhs {rep['lhs']!r}")
    return errs


# --- exact side ----------------------------------------------------------------


def valuation(x: Fraction, p: int):
    """v_p(x); None for zero."""
    if x == 0:
        return None
    v, num, den = 0, abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def matmul(a: list, b: list) -> list:
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def eval_exact(members: list, word) -> list:
    prod = members[word[0]]
    for letter in word[1:]:
        prod = matmul(members[letter], prod)
    return prod


def det(a: list) -> Fraction:
    a = [list(row) for row in a]
    n, out = len(a), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for j in range(c, n):
                    a[r][j] -= f * a[c][j]
    return out


def char_poly(a: list) -> list:
    """Ascending coefficients of det(tI - A): c[d-k] = (-1)^k e_k, where e_k
    sums the principal k x k minors."""
    d = len(a)
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[d] = Fraction(1)
    for k in range(1, d + 1):
        e_k = sum(
            det([[a[i][j] for j in idx] for i in idx])
            for idx in itertools.combinations(range(d), k)
        )
        coeffs[d - k] = (-1) ** k * e_k
    return coeffs


def lambda_exponent(a: list, p: int):
    """Exponent of the largest root magnitude: the smallest Newton-polygon
    slope of the monic char poly, min_i v(c_i) / (d - i); None if t^d."""
    c = char_poly(a)
    d = len(a)
    slopes = [Fraction(valuation(c[i], p), d - i) for i in range(d) if c[i] != 0]
    return min(slopes) if slopes else None


def min_valuation(a: list, p: int):
    """Exponent of the largest entry magnitude; None for the zero matrix."""
    vals = [valuation(x, p) for row in a for x in row if x != 0]
    return min(vals) if vals else None


def ell_bound(d: int) -> int:
    """min(d^2, ceil(2 d log2 d) + 4d - 4), and 1 for d = 1."""
    if d == 1:
        return 1
    ceil_log = (d ** (2 * d) - 1).bit_length()  # ceil(log2(d^(2d))), exactly
    return min(d * d, ceil_log + 4 * d - 4)


def _exponent(obj):
    return None if obj is None else Fraction(obj["numerator"], obj["denominator"])


def _beats(e, best) -> bool:
    """Whether magnitude p^-e is larger than p^-best (None is zero)."""
    if e is None:
        return False
    return best is None or e < best


def check_padic(results: dict, members: list, p: int, rng) -> list:
    errs = []
    d, m = len(members[0]), len(members)
    if results["prime"] != p:
        errs.append(f"prime {results['prime']}, document says {p}")
    rho = _exponent(results["rho_exponent"])
    if results["rho_is_zero"] != (rho is None):
        errs.append("rho_is_zero disagrees with rho_exponent")
    if results["nilpotent"] != (rho is None):
        errs.append(f"nilpotent is {results['nilpotent']} but the radius is {rho}")
    ell = ell_bound(d)
    word = list(results["witness"])
    if not _valid_word(word, m, ell):
        errs.append(f"witness {word} is not a word of length <= {ell}")
    else:
        lam = lambda_exponent(eval_exact(members, word), p)
        got = None if lam is None else lam / len(word)
        if got != rho:
            errs.append(f"witness {word} gives exponent {got}, report says {rho}")
    for _ in range(EXACT_RANDOM_WORDS):
        k = int(rng.integers(1, ell + 1))
        w = [int(x) for x in rng.integers(0, m, size=k)]
        lam = lambda_exponent(eval_exact(members, w), p)
        if _beats(None if lam is None else lam / k, rho):
            errs.append(f"word {w} beats the reported radius exponent {rho}")
            break
    errs += _check_power_inequality(results["power_inequality"], members, p, rho)
    return errs


def _check_power_inequality(pw: dict, members: list, p: int, rho) -> list:
    """||S^d||_0 <= rho ||S||_0^(d-1), both sides recomputed."""
    errs = []
    d, m = len(members[0]), len(members)
    if not pw["holds"]:
        errs.append("power inequality reported as failing")
    lhs = None
    for w in itertools.product(range(m), repeat=d):
        v = min_valuation(eval_exact(members, w), p)
        if _beats(v, lhs):
            lhs = v
    if _exponent(pw["lhs_exponent"]) != lhs:
        errs.append(f"lhs exponent {_exponent(pw['lhs_exponent'])}, recomputed {lhs}")
    word = list(pw["extremal_word"])
    if len(word) != d or min_valuation(eval_exact(members, word), p) != lhs:
        errs.append(f"extremal word {word} does not attain ||S^{d}||_0")
    norm = min(
        (v for mat in members if (v := min_valuation(mat, p)) is not None), default=None
    )
    rhs = None if rho is None or norm is None else rho + (d - 1) * norm
    if _exponent(pw["rhs_exponent"]) != rhs:
        errs.append(f"rhs exponent {_exponent(pw['rhs_exponent'])}, recomputed {rhs}")
    if _beats(lhs, rhs):
        errs.append(f"||S^{d}||_0 exponent {lhs} beats the right side {rhs}")
    return errs


def check_padic_multiple(base: dict, pmul: dict) -> list:
    """The radius exponent of p*S is that of S plus exactly 1."""
    e_base, e_pmul = _exponent(base["rho_exponent"]), _exponent(pmul["rho_exponent"])
    want = None if e_base is None else e_base + 1
    if e_pmul != want:
        return [f"p*S has exponent {e_pmul}, S has {e_base}: expected {want}"]
    return []
