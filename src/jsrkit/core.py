"""Core matrix types and operations for joint-spectral-radius computations.

Everything downstream works with finite sets of square complex matrices.
A product of set members is addressed by a *word*: a tuple of member
indices ``(i1, ..., ik)`` evaluated right-to-left, so the letter ``i1``
acts first:

    eval((i1, ..., ik)) = stack[ik] @ ... @ stack[i1]

where ``stack`` is the set's members as one (m, d, d) array.  All
operations here are pure; matrices are stored read-only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "TOL_REL",
    "DIM_CAP",
    "WORD_CAP",
    "COND_CAP",
    "JsrError",
    "BudgetExceededError",
    "EigensolverError",
    "MatrixSet",
    "Word",
    "NormKind",
    "NormSpec",
    "eval_word",
    "spectral_radius",
    "operator_norm",
    "LevelNorms",
    "max_operator_norm",
    "vector_norm",
    "set_norm",
    "count_words",
    "budget_depth",
    "word_from_index",
    "product_levels",
]

# Default tolerances and budgets. Every consumer can override these per call.
TOL_REL = 1e-9          # relative comparison slack for floating-point results
DIM_CAP = 32            # dense enumeration is pointless far beyond this
WORD_CAP = 2_000_000    # default cap on enumerated words
COND_CAP = 1e12         # conditioning limit for ellipsoidal norm factors


class JsrError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(JsrError):
    """An enumeration would exceed its word budget.

    The message always names the offending bound so callers can adjust it.
    """

    def __init__(self, needed: int, cap: int, what: str = "word enumeration"):
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"{what} requires {needed} words which exceeds the cap of {cap}; "
            f"raise word_cap or reduce depth"
        )


class EigensolverError(JsrError):
    """The dense eigensolver failed to converge (never silently zero)."""


Word = tuple[int, ...]


def _as_complex_stack(arrays) -> np.ndarray:
    """``arrays`` as a read-only, C-contiguous ``complex128`` copy of shape
    (m, d, d) with m, d >= 1 and finite entries."""
    try:
        a = np.array(arrays, dtype=np.complex128, order="C")
    except ValueError as exc:  # ragged or non-numeric input
        raise ValueError(f"expected numeric matrices of one shape: {exc}") from None
    if a.ndim == 0 or a.shape[0] == 0:
        raise ValueError("a MatrixSet needs at least one member")
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] == 0:
        raise ValueError(f"expected nonempty square matrices, got shape {a.shape[1:]}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class MatrixSet:
    """A finite, non-empty set of same-dimension complex matrices.

    ``stack`` holds the members, in their given order, as one read-only,
    C-contiguous ``complex128`` array of shape (size, d, d), copied from the
    input; words index into it.  Exact duplicate members are legal but
    flagged in ``warnings``, since they only waste enumeration budget.
    """

    stack: np.ndarray
    warnings: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        stack = _as_complex_stack(self.stack)
        if stack.shape[1] > DIM_CAP:
            raise ValueError(
                f"dimension {stack.shape[1]} exceeds the cap of {DIM_CAP}; "
                f"dense enumeration does not scale there"
            )
        # each member against all later ones: O(m) numpy calls, (m, d^2) memory
        flat = stack.reshape(stack.shape[0], -1)
        warnings = [
            f"members {i} and {i + 1 + j} are exact duplicates"
            for i in range(flat.shape[0] - 1)
            for j in np.flatnonzero((flat[i + 1 :] == flat[i]).all(axis=1))
        ]
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "warnings", tuple(warnings))

    @classmethod
    def from_arrays(cls, arrays: Iterable) -> "MatrixSet":
        """The set of the given d x d array-likes, in order."""
        return cls(list(arrays))

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    @property
    def size(self) -> int:
        return self.stack.shape[0]

    def __len__(self) -> int:
        return self.stack.shape[0]

    def scaled(self, c: complex) -> "MatrixSet":
        """The set {c*m for m in members}, preserving order."""
        return MatrixSet(c * self.stack)

    def __repr__(self):
        return f"MatrixSet(size={self.size}, dim={self.dim})"


def validate_word(word: Sequence[int], set_size: int) -> Word:
    for letter in word:
        if int(letter) != letter or not 0 <= letter < set_size:
            raise ValueError(f"word letter {letter!r} is not an integer in [0, {set_size})")
    return tuple(int(i) for i in word)


def eval_word(s: MatrixSet, word: Sequence[int]) -> np.ndarray:
    """Evaluate a word to its matrix product (``word[0]`` acts first).

    The empty word evaluates to the identity.
    """
    w = validate_word(word, s.size)
    out = np.eye(s.dim, dtype=np.complex128)
    for i in w:
        out = s.stack[i] @ out
    return out


# --- norms -----------------------------------------------------------------


class NormKind(enum.Enum):
    SPECTRAL = "spectral"
    MAX_ROW_SUM = "max_row_sum"
    MAX_COL_SUM = "max_col_sum"
    ELLIPSOIDAL = "ellipsoidal"


@dataclass(frozen=True, eq=False)
class NormSpec:
    """Specification of a submultiplicative matrix norm.

    SPECTRAL is the largest singular value, MAX_ROW_SUM / MAX_COL_SUM are
    the exact operator norms induced by the sup / sum vector norms, and
    ELLIPSOIDAL(g) is ``A -> ||g A g^-1||_2`` for an invertible g.
    """

    kind: NormKind
    g: np.ndarray | None = None

    def __post_init__(self):
        if self.kind is NormKind.ELLIPSOIDAL:
            if self.g is None:
                raise ValueError("ellipsoidal norm needs a factor g")
            g = np.array(self.g, dtype=np.complex128, copy=True)
            if g.ndim != 2 or g.shape[0] != g.shape[1]:
                raise ValueError("ellipsoidal factor must be square")
            if not np.isfinite(g).all():
                raise ValueError("ellipsoidal factor entries must be finite")
            sv = np.linalg.svd(g, compute_uv=False)
            if sv[-1] <= 0 or sv[0] / sv[-1] > COND_CAP:
                raise ValueError(
                    f"ellipsoidal factor is singular or has condition number "
                    f"beyond {COND_CAP:g}"
                )
            g.flags.writeable = False
            object.__setattr__(self, "g", g)
        elif self.g is not None:
            raise ValueError("only the ellipsoidal kind takes a factor g")

    @cached_property
    def g_inv(self) -> np.ndarray:
        assert self.g is not None
        inv = np.linalg.inv(self.g)
        inv.flags.writeable = False
        return inv

    # Convenience constructors; these read better at call sites.
    @staticmethod
    def spectral() -> "NormSpec":
        return NormSpec(NormKind.SPECTRAL)

    @staticmethod
    def max_row_sum() -> "NormSpec":
        return NormSpec(NormKind.MAX_ROW_SUM)

    @staticmethod
    def max_col_sum() -> "NormSpec":
        return NormSpec(NormKind.MAX_COL_SUM)

    @staticmethod
    def ellipsoidal(g) -> "NormSpec":
        return NormSpec(NormKind.ELLIPSOIDAL, g=np.asarray(g, dtype=np.complex128))

    def __repr__(self):
        return f"NormSpec({self.kind.value})"


SPECTRAL = NormSpec.spectral()


def spectral_radius(a) -> float:
    """Largest eigenvalue magnitude, via the dense (Schur-based) eigensolver.

    Raises EigensolverError if the QR iteration fails; the failure is never
    masked as a zero.
    """
    return float(batch_spectral_radii(_as_complex_stack([a]))[0])


def batch_spectral_radii(stack: np.ndarray) -> np.ndarray:
    """Spectral radii of a (n, d, d) stack; same error contract as above."""
    if stack.shape[0] == 0:
        return np.zeros(0)
    try:
        ev = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"batched eigensolver failure: {exc}") from exc
    return np.abs(ev).max(axis=1)


def operator_norm(a, n: NormSpec = SPECTRAL) -> float:
    """Operator norm of a single matrix under the given specification."""
    return float(batch_operator_norms(_as_complex_stack([a]), n)[0])


def batch_operator_norms(stack: np.ndarray, n: NormSpec = SPECTRAL) -> np.ndarray:
    """Operator norms of a (count, d, d) stack under ``n``.

    Row/column sums are exact; the spectral and ellipsoidal kinds go through
    singular values.
    """
    if stack.shape[0] == 0:
        return np.zeros(0)
    if n.kind is NormKind.MAX_ROW_SUM:
        return np.abs(stack).sum(axis=2).max(axis=1)
    if n.kind is NormKind.MAX_COL_SUM:
        return np.abs(stack).sum(axis=1).max(axis=1)
    if n.kind is NormKind.SPECTRAL:
        return np.linalg.svd(stack, compute_uv=False)[..., 0]
    if n.kind is NormKind.ELLIPSOIDAL:
        conj = np.einsum("ij,njk,kl->nil", n.g, stack, n.g_inv)
        return np.linalg.svd(conj, compute_uv=False)[..., 0]
    raise ValueError(f"unknown norm kind {n.kind!r}")


class LevelNorms(NamedTuple):
    """The largest norm of a stack, and what the same pass saw per row."""

    value: float  # max of batch_operator_norms(stack, n)
    index: int  # its first argmax
    svd_run: int
    svd_skipped: int
    # per row: (||A||_1, ||A||_inf, ||A||_F), inf where the max |entry| is subnormal
    norms: np.ndarray
    scale: np.ndarray  # per row: the max |entry|

    @property
    def radius_bounds(self) -> np.ndarray:
        """Per row: min(||A||_1, ||A||_inf, ||A||_F) >= rho(A)."""
        n = self.norms
        return np.minimum(np.minimum(n[:, 0], n[:, 1]), n[:, 2])


# |entries| is taken this many entries at a time, so the pass never holds a
# whole-level temporary
_BLOCK_ENTRIES = 1 << 16

# A row skips its SVD when upper * (1 + g) < L * (1 - g), with g =
# _SKIP_GUARD * d * eps and L the largest lower bracket.  Why no rounding can
# drop the argmax or a tie (u = eps / 2):
# * Each computed bracket is within a relative (d + 3) u <= 2 d eps of the
#   exact bracket of the same matrix: one ulp for |z|, its square doubles
#   that and adds one, each of the nested sums of d nonnegative terms adds
#   (d - 1) u, sqrt halves the total and adds one ulp.  Scaling by 2^-e is
#   exact, bar entries it pushes below 2^-1022, 2^1021 under the row's
#   largest.  A subnormal |entry| in a row whose largest is normal is off by
#   at most u times that largest, which 2 d eps still covers.  An
#   ellipsoidal row is bracketed and SVD'd as the same computed conjugate,
#   because einsum builds each row alone.
# * LAPACK's largest singular value is that of some A + E with
#   ||E||_2 <= p(d) u ||A||_2, p a modest function of d.
# * For rows w, w_L with computed sigma(w) >= sigma(w_L), the chain
#   upper(w) ~ ||w||_2 ~ sigma(w) >= sigma(w_L) ~ ||w_L||_2 ~ lower(w_L) = L,
#   each ~ a relative error a (brackets) or b (LAPACK), gives
#   upper(w) (1 + a)(1 + b) >= L (1 - a)(1 - b), and that ratio is at most
#   (1 + a + b) / (1 - a - b).  So g covers a + b whenever p(d) <= 120 d,
#   the three roundings of the test itself included.
# Every row whose computed norm ties or beats the maximum is kept, so the
# max and its first argmax equal those of the full computation bit for bit.
#
# bounds.jsr_estimate eigensolves a word of length k only when
# radius_bounds^(1/k) >= L (1 - 1e-12), L the running lower end.  Up to
# DIM_CAP = 32, 1e-12 (about 4500 eps) covers both errors between a computed
# radius r and bound b: b is within 2 d eps of min(||A||_1, ||A||_inf,
# ||A||_F), as counted above, and LAPACK's eigenvalues are exact for some
# A + E with ||E||_2 <= p(d) u ||A||_2, so r <= N(A) (1 + d p(d) u + u) for
# each of the three norms N (N(E) <= sqrt(d) ||E||_2, ||A||_2 <= sqrt(d) N(A)).
# Every word whose radius can reach L is kept whenever p(d) <= 8 d; on exact
# ties (u u^H, phased permutations) r tops b by at most 13 eps at d = 32.  A
# skipped word could be a missed witness only if its radius fell within that
# error of L (1 - 1e-12) itself.
_SKIP_GUARD = 64.0

# _kept_parents leaves child C = A W of level k (A a member, W a row of level
# k - 1) unbuilt only when bounds from the rows of A and W show that
# max_operator_norm on the whole level would skip its SVD (or find its sum
# below the maximum) and bounds.jsr_estimate its eigensolve.  Each bound is
# a product of computed norms N = ||.||_1, ||.||_inf, ||.||_F, grown by
# 1 + 2 g with g = _SKIP_GUARD * d * eps as above.  Why that is enough:
# * N(|A| |W|) <= N(A) N(W), and a complex dot product errs by at most
#   sqrt2 gamma_(d+2) |a|^T |w|, so N(C) <= N(A) N(W) (1 + 3 d eps).  With
#   the 2 d eps of each of the three brackets, every computed norm, bracket,
#   sum or radius bound of C stays within 12 d eps of its product bound.
# * The floor F the norm-side bounds must stay under is the lower bracket
#   (or sum) of one child C', computed from the same entries by the same
#   operations as on the whole level, so at most the level's largest, L,
#   bar the ldexp of rows far below it.  So upper(C) (1 + g) < L (1 - g)
#   whenever bound (1 + 2 g) < F (1 - 2 g), with about 100 d eps to spare,
#   and likewise sum(C) < F whenever a sum bound passes.
# * The eigenvalue side compares (bound (1 + 2 g))^(1/k) with the sweep's
#   cut times 1 - 2 g, both sides rooted as the sweep roots its own radius
#   bounds, so that the margin does not shrink with k.
# The ellipsoidal kind brackets the conjugates g A g^-1, whose computed
# products do not err relatively, so its last level is built whole.  So is
# a level whose members' and parents' largest |entries| allow an inf in a
# child, or whose floor is not finite.  No product of two norms leaves the
# float range unless the child's own norms do: sqrt(||.||_1 ||.||_inf) is
# taken as a product of square roots.  A child whose computed entries are
# all subnormal gets (0, inf) brackets and an infinite radius bound above,
# so the whole level SVDs and eigensolves it.  Every child whose product
# bound is subnormal is built, but one whose product bound is normal can
# still come out subnormal, by cancellation or because its factors' entries
# spread widely in size (A = diag(1e-160, 1), W = diag(1e-160, 0) give AW =
# diag(1e-320, 0) under a bound of 1e-160).  Dropping it can change only
# svd_run, svd_skipped and eig_skipped, never a norm, radius, index or
# witness, since such a child stays far below the floor and the cut.


def _max_last(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` (NaN included), one ``np.maximum`` per column.

    numpy's reductions over a short last axis cost tens of nanoseconds per
    row, far more than the arithmetic.
    """
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j], out=out)
    return out


def _bracket(a: np.ndarray, top: np.ndarray):
    """Per row of |entries| ``a`` (largest ``top``): the exponent e of the
    exact rescaling by 2^-e, then on the rescaled row the spectral bracket
    (low, up), and (||A||_1, ||A||_inf, ||A||_F) scaled back; (0, inf) and
    inf where ``top`` is subnormal, so that |z| is off by more than an ulp."""
    e = np.frexp(top)[1]
    a = np.ldexp(a, -e[:, np.newaxis, np.newaxis])
    sq = a * a
    row2, col2 = np.einsum("nij->ni", sq), np.einsum("nij->nj", sq)
    low = np.sqrt(_max_last(np.maximum(row2, col2)))
    fro = np.sqrt(np.einsum("ni->n", row2))
    col1, row1 = _max_last(np.einsum("nij->nj", a)), _max_last(np.einsum("nij->ni", a))
    up = np.minimum(fro, np.sqrt(col1 * row1))
    norms = np.stack((col1, row1, fro), axis=1)
    sub = (top < np.finfo(float).tiny) & (top != 0)
    low[sub], up[sub], norms[sub] = 0.0, np.inf, np.inf
    return e, low, up, np.ldexp(norms, e[:, np.newaxis])


def max_operator_norm(stack: np.ndarray, n: NormSpec = SPECTRAL) -> LevelNorms:
    """``batch_operator_norms(stack, n)``'s max and first argmax, in one pass.

    Row- and column-sum norms are exact sums.  For the spectral and
    ellipsoidal kinds (the latter conjugated first) every row gets the cheap
    bracket  max(max column 2-norm, max row 2-norm) <= ||A||_2 <=
    min(Frobenius, sqrt(||A||_1 ||A||_inf)),  computed after an exact
    power-of-two rescaling so that no square overflows or underflows, and
    only rows whose upper bracket can reach the largest lower one go through
    ``batch_operator_norms``, as does every row whose largest |entry| is
    subnormal.  ``norms`` comes from A itself under every kind.
    """
    count, d = stack.shape[0], stack.shape[1]
    svd = n.kind in (NormKind.SPECTRAL, NormKind.ELLIPSOIDAL)
    # these outlive the call
    scale, norms = np.empty(count), np.empty((count, 3))
    lower, upper, sums = np.empty((3, count))
    exps = np.empty(count, dtype=np.int32)
    rows = max(1, _BLOCK_ENTRIES // (d * d))
    for lo in range(0, count, rows):
        part = slice(lo, lo + rows)
        a = np.abs(stack[part])
        scale[part] = top = _max_last(_max_last(a))
        if not svd:
            # reads exactly as a whole-level numpy reduction would
            sums[part] = _max_last(a.sum(axis=2 if n.kind is NormKind.MAX_ROW_SUM else 1))
        exps[part], lower[part], upper[part], norms[part] = _bracket(a, top)
        if n.kind is NormKind.ELLIPSOIDAL:
            a = np.abs(np.einsum("ij,njk,kl->nil", n.g, stack[part], n.g_inv))
            exps[part], lower[part], upper[part], _ = _bracket(a, _max_last(_max_last(a)))

    if not svd:
        i = int(np.argmax(sums))
        return LevelNorms(float(sums[i]), i, 0, 0, norms, scale)
    # compare on the scale of the largest row, where the brackets that
    # matter stay normal numbers; exactly the zero rows have upper = 0
    nonzero = upper != 0
    if not nonzero.any():
        return LevelNorms(0.0, 0, 0, count, norms, scale)
    exps -= exps[nonzero].max()
    np.ldexp(lower, exps, out=lower)
    np.ldexp(upper, exps, out=upper)
    best = lower.max()  # a NaN here keeps every row
    guard = _SKIP_GUARD * d * np.finfo(float).eps
    keep = np.flatnonzero(~(upper * (1 + guard) < best * (1 - guard)))
    values = batch_operator_norms(stack[keep], n)
    j = int(np.argmax(values))
    return LevelNorms(float(values[j]), int(keep[j]), keep.size, count - keep.size, norms, scale)


def _kept_parents(
    stack: np.ndarray,
    parents: np.ndarray,
    members: LevelNorms,
    prev: LevelNorms,
    n: NormSpec,
    k: int,
    cut: float,
) -> np.ndarray:
    """Which rows of level k - 1 have a child that can matter, as a mask.

    ``parents`` is level k - 1 of ``product_levels(stack, k)``, and
    ``members`` and ``prev`` are ``max_operator_norm(., n)`` of level 1 and
    of level k - 1.  Child ``p * m + i`` is ``stack[i] @ parents[p]``; by
    submultiplicativity its norms are at most the products of ``members``'
    and ``prev``'s.  It cannot matter when those products show that the
    whole level's ``max_operator_norm`` would skip its SVD, or find its sum
    below the maximum, against a floor taken from the children of the parent
    with the largest norm, and that min(||.||_1, ||.||_inf, ||.||_F)^(1/k)
    stays below ``cut``.  Under the ellipsoidal kind every row is kept.
    The comments at ``_SKIP_GUARD`` say why no rounding can drop a child
    that matters.
    """
    m, d = stack.shape[0], stack.shape[1]
    count = parents.shape[0]
    g = 2 * _SKIP_GUARD * d * np.finfo(float).eps
    keep = np.ones(count, dtype=bool)
    if n.kind is NormKind.ELLIPSOIDAL:
        return keep
    # no child can hold an inf or a NaN
    if not 8 * d**3 * members.scale.max() * prev.scale.max() < np.finfo(float).max:
        return keep
    # the floor: the largest lower bracket (or sum) among the children of
    # the parent with the largest norm, computed as max_operator_norm would
    a = np.abs(_children(stack, parents[prev.index : prev.index + 1]))
    if n.kind in (NormKind.MAX_ROW_SUM, NormKind.MAX_COL_SUM):
        floor = float(_max_last(a.sum(axis=2 if n.kind is NormKind.MAX_ROW_SUM else 1)).max())
    else:
        e, low, _, _ = _bracket(a, _max_last(_max_last(a)))
        floor = float(np.ldexp(low, e).max())
    # up to eight (rows, m) arrays live at once, about one block of entries
    rows = max(1, _BLOCK_ENTRIES // (8 * m))
    for lo in range(0, count if np.isfinite(floor) else 0, rows):
        part = slice(lo, lo + rows)
        col, row, fro = (
            np.multiply.outer(prev.norms[part, j], members.norms[:, j]) for j in range(3)
        )
        radius = np.minimum(np.minimum(col, row), fro)
        drop = (radius * (1 + g)) ** (1.0 / k) < cut * (1 - g)
        # the whole level SVDs and eigensolves a child whose entries all
        # come out subnormal, as it gets no bracket
        drop &= ~((0 < radius) & (radius < np.finfo(float).tiny))
        if n.kind is NormKind.MAX_ROW_SUM:
            bound = row
        elif n.kind is NormKind.MAX_COL_SUM:
            bound = col
        else:
            bound = np.minimum(fro, np.sqrt(col) * np.sqrt(row))  # col * row can underflow
        drop &= bound * (1 + g) < floor * (1 - g)
        keep[part] = ~drop.all(axis=1)
    return keep


def vector_norm(x, n: NormSpec = SPECTRAL) -> float:
    """The vector norm that induces ``n`` as an operator norm.

    SPECTRAL -> Euclidean, MAX_ROW_SUM -> sup, MAX_COL_SUM -> sum,
    ELLIPSOIDAL(g) -> ||g x||_2.
    """
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if n.kind is NormKind.SPECTRAL:
        return float(np.linalg.norm(v))
    if n.kind is NormKind.MAX_ROW_SUM:
        return float(np.abs(v).max())
    if n.kind is NormKind.MAX_COL_SUM:
        return float(np.abs(v).sum())
    if n.kind is NormKind.ELLIPSOIDAL:
        return float(np.linalg.norm(n.g @ v))
    raise ValueError(f"unknown norm kind {n.kind!r}")


def set_norm(s: MatrixSet, n: NormSpec = SPECTRAL) -> float:
    """max over members of the operator norm, i.e. ||S||_n."""
    return float(batch_operator_norms(s.stack, n).max())


# --- word enumeration ------------------------------------------------------


def count_words(set_size: int, depth: int) -> int:
    """Number of nonempty words of length <= depth over ``set_size`` letters."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if set_size == 1:
        return depth
    return (set_size ** (depth + 1) - set_size) // (set_size - 1)


def budget_depth(set_size: int, depth: int, word_cap: int) -> int:
    """The deepest k <= depth with ``count_words(set_size, k) <= word_cap``,
    0 if none: the one rule by which a word budget clamps a sweep."""
    if set_size == 1:
        return max(0, min(depth, word_cap))
    k = 0
    while k < depth and count_words(set_size, k + 1) <= word_cap:
        k += 1
    return k


def check_budget(set_size: int, depth: int, word_cap: int, what: str) -> int:
    needed = count_words(set_size, depth)
    if needed > word_cap:
        raise BudgetExceededError(needed, word_cap, what)
    return needed


def word_from_index(idx: int, length: int, size: int) -> Word:
    """The word at row ``idx`` of the length-``length`` level.

    Rows follow the child index convention ``parent * size + letter``, so
    the index spells the word in base ``size`` with ``word[0]`` as its most
    significant digit: the rows are in ``itertools.product`` order.
    """
    digits = []
    for _ in range(length):
        digits.append(idx % size)
        idx //= size
    return tuple(reversed(digits))


def product_levels(stack: np.ndarray, depth: int) -> Iterator[np.ndarray]:
    """Yield the (m**k, d, d) stack of all length-k products, k = 1..depth.

    ``stack`` holds the m members as one (m, d, d) array of any dtype, and
    every level is built in that dtype: complex floats for a ``MatrixSet``'s
    ``stack``, Python ints or Fractions under ``object`` for exact products.
    Row i of level k is the product of the word ``word_from_index(i, k, m)``,
    evaluated as ``eval_word`` does.  Each level is built from the previous
    one only when it is asked for, so a caller can check a budget before
    pulling the next level.

    Row ``parent * m + i`` of level k + 1 is ``stack[i] @ level[parent]``.
    A ``complex128`` level is built by ``_complex_children``: the parents go
    in blocks of ``_BLOCK_ENTRIES // (m * d * d)`` rows, each block's real
    and imaginary parts are copied into planar (j, k, parent) arrays, and
    every entry is summed over j with one float64 operation per step, in
    the order ``einsum("ij,njk->nik", ...)`` uses.  So its levels equal
    einsum's bit for bit, signed zeros, infs and NaNs included, while its
    temporaries stay a few blocks whatever the level size.  Every other
    dtype, ``object`` included, goes through that einsum per letter.
    """
    level = stack
    for k in range(1, depth + 1):
        if k > 1:
            level = _children(stack, level)
        yield level


def _children(stack: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Row ``p * m + i`` is ``stack[i] @ parents[p]``, built as
    ``product_levels`` builds a level."""
    m = stack.shape[0]
    out = np.empty((parents.shape[0] * m, *stack.shape[1:]), dtype=stack.dtype)
    if stack.dtype == np.complex128:
        _complex_children(stack, parents, out)
    else:
        for i in range(m):
            out[i::m] = np.einsum("ij,njk->nik", stack[i], parents)
    return out


@np.errstate(over="ignore", invalid="ignore")  # einsum warns of neither
def _complex_children(stack: np.ndarray, level: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out[parent * m + i]`` with ``stack[i] @ level[parent]``.

    Entry (i, r, k) of a parent's children is
    ``((0 + p_0) + p_1) + ... + p_(d-1)`` with p_j = stack[i, r, j] *
    level[parent, j, k], real part ``ar*br - ai*bi`` and imaginary part
    ``ar*bi + ai*br``: einsum's complex sum of products, one IEEE rounding
    per operation and no fused multiply-add.  numpy's complex ``multiply``
    is not used: where the CPU has fused multiply-add, its products differ
    from einsum's in the last bit.
    """
    m, d = stack.shape[0], stack.shape[1]
    count = level.shape[0]
    rows = max(1, min(count, _BLOCK_ENTRIES // (m * d * d)))
    # [i, r, j] of the members, broadcast over the planar (k, parent) axes
    ar = stack.real[..., np.newaxis, np.newaxis]
    ai = stack.imag[..., np.newaxis, np.newaxis]
    planar_r, planar_i = np.empty((2, d, d, rows))
    sum_r, sum_i, t1, t2 = np.empty((4, m, d, d, rows))
    for lo in range(0, count, rows):
        n = min(rows, count - lo)
        br, bi = planar_r[..., :n], planar_i[..., :n]
        block = level[lo : lo + n].transpose(1, 2, 0)
        np.copyto(br, block.real)
        np.copyto(bi, block.imag)
        cr, ci, u, v = sum_r[..., :n], sum_i[..., :n], t1[..., :n], t2[..., :n]
        cr.fill(0.0)
        ci.fill(0.0)
        for j in range(d):
            np.multiply(ar[:, :, j], br[j], out=u)
            np.multiply(ai[:, :, j], bi[j], out=v)
            np.subtract(u, v, out=u)
            np.add(cr, u, out=cr)
            np.multiply(ar[:, :, j], bi[j], out=u)
            np.multiply(ai[:, :, j], br[j], out=v)
            np.add(u, v, out=u)
            np.add(ci, u, out=ci)
        children = out[lo * m : (lo + n) * m].reshape(n, m, d, d)
        np.copyto(children.real, cr.transpose(3, 0, 1, 2))
        np.copyto(children.imag, ci.transpose(3, 0, 1, 2))
