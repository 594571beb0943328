"""Constructive spectral-radius certificates and inequality checkers.

The central object is the residual certificate: for a norm-bounded matrix
an approximate eigenpair (x, lambda) with a small residual forces the
spectral radius up to nearly |lambda|.  The other searches in this module
(integer combinations by pigeonhole, trajectory returns, near-idempotent
words) exist to *produce* such eigenpairs, and the ``check_*`` functions
wrap the package's bounds into three-valued verdicts for explicit
inequalities relating peak spectral radii, power norms, and the joint
spectral radius of a finite matrix set.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import JsrConfig, JsrInterval, jsr_estimate, lower_bound
from .core import (
    _as_complex_stack,
    SPECTRAL,
    TOL_REL,
    WORD_CAP,
    BudgetExceededError,
    JsrError,
    MatrixSet,
    NormKind,
    NormSpec,
    Word,
    batch_operator_norms,
    batch_spectral_radii,
    budget_depth,
    check_budget,
    eval_word,
    operator_norm,
    product_levels,
    set_norm,
    spectral_radius,
    vector_norm,
    word_from_index,
)


class HypothesisUnmetError(JsrError):
    """The pigeonhole hypothesis of the combination search does not hold."""


class CombinationNotFoundError(JsrError):
    """Exhaustive search found no small integer combination.

    Over the complex field the pigeonhole count needs
    (1+T)^n > (1 + 2nT/eps)^(2d) because each complex coordinate
    contributes two real grid axes; instances that only satisfy the
    exponent-d count can genuinely have no solution.
    """


class Verdict(enum.Enum):
    CONFIRMED = "CONFIRMED"
    REFUTED = "REFUTED"
    INCONCLUSIVE = "INCONCLUSIVE"


# --- residual certificates ---------------------------------------------------


@dataclass(frozen=True)
class ResidualCertificate:
    """A certified spectral-radius lower bound from an approximate eigenpair.

    For ``||a|| <= 1`` (in the norm ``norm``), a unit vector x and
    |lam| <= 2 with residual ``||a x - lam x|| = (eps |lam|)^d``, the
    spectral radius of ``a`` is at least ``|lam| (1 - 4 eps)``.  ``bound``
    stores that value clamped at zero; a certificate with bound 0 is
    vacuous but still valid.
    """

    a: np.ndarray  # read-only
    x: np.ndarray
    lam: complex
    residual: float
    eps: float
    bound: float
    norm: NormSpec = SPECTRAL


def residual_certificate(a, x, lam, n: NormSpec = SPECTRAL) -> ResidualCertificate:
    """Build a ResidualCertificate, rejecting inputs outside the hypothesis.

    Preconditions (each reported by name on violation): the operator norm
    of ``a`` under ``n`` is at most 1, ``x`` is a unit vector in the
    corresponding vector norm, and |lam| <= 2.
    """
    mat = _as_complex_stack([a])[0]
    d = mat.shape[0]
    vec = np.array(x, dtype=np.complex128, copy=True).reshape(-1)
    if vec.shape[0] != d:
        raise ValueError(f"vector length {vec.shape[0]} != matrix dimension {d}")
    lam = complex(lam)

    a_norm = operator_norm(mat, n)
    if a_norm > 1.0 + TOL_REL:
        raise ValueError(f"norm bound violated: ||a|| = {a_norm} > 1")
    # written as "not <=" so that a NaN x or lam is rejected too
    x_norm = vector_norm(vec, n)
    if not abs(x_norm - 1.0) <= TOL_REL:
        raise ValueError(f"unit vector violated: ||x|| = {x_norm}")
    if not abs(lam) <= 2.0 * (1.0 + TOL_REL):
        raise ValueError(f"lambda bound violated: |lam| = {abs(lam)} > 2")

    residual = vector_norm(mat @ vec - lam * vec, n)
    abs_lam = abs(lam)
    if abs_lam == 0.0:
        eps = 0.0 if residual == 0.0 else math.inf
    else:
        eps = residual ** (1.0 / d) / abs_lam
    bound = max(0.0, abs_lam * (1.0 - 4.0 * eps))
    vec.flags.writeable = False
    return ResidualCertificate(mat, vec, lam, residual, eps, bound, n)


# --- small integer combinations ----------------------------------------------


def _coordinate_bound(n: NormSpec) -> float:
    # Largest modulus a single coordinate can have on the unit ball of the
    # vector norm; used to size grid cells so that any pair of sums at norm
    # distance <= eps lands in the same or an adjacent cell.
    if n.kind in (NormKind.SPECTRAL, NormKind.MAX_ROW_SUM, NormKind.MAX_COL_SUM):
        return 1.0
    if n.kind is NormKind.ELLIPSOIDAL:
        return float(np.linalg.svd(n.g_inv, compute_uv=False)[0])
    raise ValueError(f"unknown norm kind {n.kind!r}")


def _grid_neighbours(points: np.ndarray, cell: float):
    # For each row j of the complex (n, d) points, yield j with the earlier
    # rows whose real and imaginary coordinates, floored to the grid of side
    # cell, lie in the same or an adjacent cell (3^(2d) cells per point)
    coords = np.concatenate([points.real, points.imag], axis=1)
    keys = np.floor(coords / cell).astype(np.int64)
    offsets = list(itertools.product((-1, 0, 1), repeat=coords.shape[1]))
    buckets: dict[tuple, list[int]] = {}
    for j in range(len(points)):
        key = tuple(keys[j])
        near: list[int] = []
        for off in offsets:
            near.extend(buckets.get(tuple(k + o for k, o in zip(key, off)), ()))
        yield j, near
        buckets.setdefault(key, []).append(j)


def siegel_combination(
    xs: Sequence,
    t: int,
    eps: float,
    n: NormSpec = SPECTRAL,
    *,
    enforce_hypothesis: bool = True,
    word_cap: int = WORD_CAP,
) -> tuple[int, ...]:
    """Integer coefficients c, not all zero, with |c_i| <= t and ||sum c_i x_i|| <= eps.

    Searches the (t+1)^n nonnegative-coefficient sums for two whose
    difference has norm at most eps, bucketing the sums into a grid and
    comparing same-cell and adjacent-cell pairs; the difference of the two
    coefficient vectors is the answer.  The grid cell is sized so this is a
    complete search: a qualifying pair is found whenever one exists (the
    neighbor scan costs a factor 3^(2d), so this is for low dimensions).
    Raises BudgetExceededError before building anything when (t+1)^n sums
    or 3^(2d) neighbour cells exceed ``word_cap``.

    The pigeonhole hypothesis (1+t)^n > (1 + 2nt/eps)^d guarantees a
    collision for real data; pass ``enforce_hypothesis=False`` to search
    anyway when it fails.  Raises CombinationNotFoundError if no
    combination exists within the bounds, which can happen for complex
    data as close as a factor 2 in the exponent above.
    """
    if t < 1:
        raise ValueError("coefficient bound t must be >= 1")
    if not eps > 0:  # a NaN eps fails too
        raise ValueError("eps must be positive")
    xmat = np.array([np.asarray(v, dtype=np.complex128).reshape(-1) for v in xs])
    if xmat.ndim != 2 or xmat.shape[0] == 0:
        raise ValueError("xs must be a nonempty list of equal-length vectors")
    nv, d = xmat.shape
    for i in range(nv):
        # written as "not <=" so that a NaN vector is rejected too
        if not vector_norm(xmat[i], n) <= 1.0 + TOL_REL:
            raise ValueError(f"vector bound violated: ||xs[{i}]|| is not <= 1")

    if enforce_hypothesis and (1 + t) ** nv <= (1.0 + 2.0 * nv * t / eps) ** d:
        raise HypothesisUnmetError(
            f"(1+t)^n = {(1 + t) ** nv} does not exceed "
            f"(1 + 2nt/eps)^d = {(1.0 + 2.0 * nv * t / eps) ** d:.6g}"
        )
    total = max((1 + t) ** nv, 3 ** (2 * d))
    if total > word_cap:
        raise BudgetExceededError(total, word_cap, "combination search sums or neighbour cells")

    # All sums sum_i b_i x_i with b_i in {0..t}; flat index sum_i b_i (t+1)^i.
    sums = np.zeros((1, d), dtype=np.complex128)
    for i in range(nv):
        block = np.arange(t + 1)[:, None, None] * xmat[i][None, None, :]
        sums = (block + sums[None, :, :]).reshape(-1, d)

    cell = eps * _coordinate_bound(n)
    for idx, near in _grid_neighbours(sums, cell):
        for j in near:
            if vector_norm(sums[idx] - sums[j], n) <= eps:
                b_idx, b_j = (word_from_index(k, nv, t + 1)[::-1] for k in (idx, j))
                return tuple(x - y for x, y in zip(b_idx, b_j))

    raise CombinationNotFoundError(
        f"no combination with |c_i| <= {t} reaches norm <= {eps}"
    )


# --- trace and convex-hull bounds --------------------------------------------


def trace_bound(a) -> float:
    """2 * max_k |trace(a^k)|^(1/k) over 1 <= k <= d, an upper bound on the
    spectral radius.

    Small power traces pin down all elementary symmetric functions of the
    eigenvalues through the Newton identities, hence all eigenvalues.
    """
    m = _as_complex_stack([a])[0]
    d = m.shape[0]
    p = np.eye(d, dtype=np.complex128)
    eps = 0.0
    for k in range(1, d + 1):
        p = p @ m
        eps = max(eps, abs(np.trace(p)) ** (1.0 / k))
    return 2.0 * eps


class HullCheckReport(NamedTuple):
    ok: bool
    eps: float
    bound: float
    max_radius: float
    max_ratio: float
    samples: int
    seed: int


def convex_hull_bound_check(
    s: MatrixSet,
    n: int,
    samples: int = 200,
    seed: int = 0,
    *,
    word_cap: int = WORD_CAP,
) -> HullCheckReport:
    """Sample the complex convex hull of S u S^2 u ... u S^n against 2*d*eps.

    With eps = max_{k <= n d} rho(eval(w))^(1/|w|) at most 1, every point of
    the hull (complex coefficients with |.|-sum 1) has spectral radius at
    most 2 d eps.  This draws random combinations, also checks every vertex,
    and reports the worst ratio seen.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    d = s.dim
    eps = lower_bound(s, n * d, word_cap=word_cap).value
    if eps > 1.0:
        raise ValueError(
            f"hypothesis not met: peak radius {eps} over depth {n * d} exceeds 1"
        )
    # lower_bound has already checked the budget of these n <= n * d levels
    pool = np.concatenate(list(product_levels(s.stack, n)))
    bound = 2.0 * d * eps
    max_radius = float(batch_spectral_radii(pool).max())
    rng = np.random.default_rng(seed)
    p = pool.shape[0]
    for _ in range(samples):
        z = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        z /= np.abs(z).sum()
        max_radius = max(max_radius, spectral_radius(np.tensordot(z, pool, axes=1)))
    if bound > 0:
        max_ratio = max_radius / bound
    else:
        max_ratio = 0.0 if max_radius == 0.0 else math.inf
    ok = max_radius <= bound * (1.0 + TOL_REL)
    return HullCheckReport(ok, eps, bound, max_radius, max_ratio, samples, seed)


# --- trajectory return search -------------------------------------------------

_MAX_RESTARTS = 8  # fresh directions trajectory_return_search may try
_K_BEST = 64  # most aligned return pairs trajectory_return_search certifies


class ReturnSearchResult(NamedTuple):
    word: Word
    certificate: ResidualCertificate
    diagnostics: dict


def _closest_pairs(points: np.ndarray, k_best: int) -> list[tuple[float, int, int]]:
    """The k_best most aligned index pairs (i < j), scored by 1 - |<xi,xj>|^2.

    The score is phase invariant: a return to e^(i theta) x is as good as a
    return to x, since the phase can be absorbed into the eigenvalue
    estimate.  All-pairs scan, one vectorized pass per endpoint j:
    O(n^2 d) time for n points in dimension d, O(n) memory.
    """
    out: list[tuple[float, int, int]] = []
    for j in range(1, len(points)):
        ip = np.minimum(np.abs(points[:j] @ points[j].conj()), 1.0)
        scores = 1.0 - ip * ip
        i = int(np.argmin(scores))
        out.append((float(scores[i]), i, j))
    return heapq.nsmallest(k_best, out)


def trajectory_return_search(
    s: MatrixSet,
    norm: NormSpec = SPECTRAL,
    maxlen: int = 256,
    x0=None,
    seed: int = 0,
) -> ReturnSearchResult:
    """Hunt for a word whose product nearly fixes a direction.

    Starting from x0 (random if omitted) the trajectory greedily applies
    the member that maximizes the working norm of the image, keeping all
    visited directions.  A close return x_j ~ e^(i theta) x_i makes the
    subword i..j an approximate eigenpair: the product (normalized to
    spectral norm 1) fixes x_i up to a small residual, and the resulting
    ResidualCertificate lower-bounds its spectral radius.  The best
    certificate over the ``_K_BEST`` most aligned return pairs is returned,
    ties going to the shorter word.  Each segment between restarts is
    scanned for those pairs once, all pairs against all, in O(n^2 d) for n
    points.

    ``norm`` is the NormSpec whose vector norm steers the greedy choice
    (the working norm); the caller should rescale ``s`` so its joint
    spectral radius is near 1, since a trajectory whose working norm decays
    below 1/2 is abandoned and restarted from a fresh random direction (at
    most ``_MAX_RESTARTS`` times).  Certificates themselves are always in
    the spectral norm.  Raises ValueError if every trajectory dies
    immediately (all member images vanish), as for the zero set.
    """
    if maxlen < 2:
        raise ValueError("maxlen must be >= 2")
    d = s.dim
    rng = np.random.default_rng(seed)

    def fresh() -> np.ndarray:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return v / np.linalg.norm(v)

    if x0 is not None:
        x = np.asarray(x0, dtype=np.complex128).reshape(-1)
        if x.shape[0] != d:
            raise ValueError(f"x0 length {x.shape[0]} != matrix dimension {d}")
        if not np.isfinite(x).all():
            raise ValueError("x0 must be finite")
        nrm = np.linalg.norm(x)
        if nrm == 0:
            raise ValueError("x0 must be nonzero")
        x = x / nrm
    else:
        x = fresh()

    segments: list[tuple[list[np.ndarray], list[int]]] = []
    points, letters = [x], []
    wscale = 1.0
    steps = 0
    restarts = 0
    while steps < maxlen:
        images = s.stack @ x
        wvals = np.array([vector_norm(images[i], norm) for i in range(s.size)])
        best = int(np.argmax(wvals))
        wx = vector_norm(x, norm)
        if wvals[best] <= 0.0 or wx <= 0.0:
            wscale = 0.0  # dead end; force a restart
        else:
            wscale *= wvals[best] / wx
        if wscale < 0.5:
            segments.append((points, letters))
            if restarts >= _MAX_RESTARTS:
                break
            restarts += 1
            x = fresh()
            points, letters = [x], []
            wscale = 1.0
            continue
        raw = images[best]
        x = raw / np.linalg.norm(raw)
        letters.append(best)
        points.append(x)
        steps += 1
    segments.append((points, letters))

    best_result: tuple[float, int, Word, ResidualCertificate] | None = None
    best_distance = math.inf
    pairs_checked = 0
    for points, letters in segments:
        if len(points) < 2:
            continue
        pts = np.array(points)
        for _, i, j in _closest_pairs(pts, _K_BEST):
            pairs_checked += 1
            word = tuple(letters[i:j])
            prod = eval_word(s, word)
            norm_a = operator_norm(prod, SPECTRAL)
            if norm_a == 0.0 or not math.isfinite(norm_a):
                continue
            # Least-squares eigenvalue estimate for the normalized product.
            lam = complex(pts[i].conj() @ (prod @ pts[i])) / norm_a
            cert = residual_certificate(prod / norm_a, pts[i], lam, SPECTRAL)
            best_distance = min(best_distance, float(np.linalg.norm(pts[j] - pts[i])))
            if (
                best_result is None
                or cert.bound > best_result[0] * (1.0 + 1e-12)
                or (
                    cert.bound >= best_result[0] * (1.0 - 1e-12)
                    and len(word) < best_result[1]
                )
            ):
                best_result = (cert.bound, len(word), word, cert)
    if best_result is None:
        raise ValueError(
            "no trajectory pair to certify: every start direction was annihilated"
        )
    diagnostics = {
        "restarts": restarts,
        "steps": steps,
        "segments": [len(p) - 1 for p, _ in segments],
        "pairs_checked": pairs_checked,
        "best_distance": best_distance,
        "found_return": best_distance <= 1.0,
    }
    return ReturnSearchResult(best_result[2], best_result[3], diagnostics)


def near_idempotent_search(
    s: MatrixSet,
    maxlen: int,
    tol: float,
    *,
    word_cap: int = WORD_CAP,
) -> tuple[Word, float] | None:
    """Word minimizing ||P^2 - P|| / ||P|| among products with ||P|| >= 1/2.

    P ranges over eval(w) for nonempty words up to ``maxlen``; norms are
    spectral.  Returns (word, defect) when the smallest defect is at most
    ``tol``, None otherwise.  Sensible only after rescaling the set so its
    joint spectral radius is near 1, since products otherwise decay below
    the 1/2 norm floor or blow up.
    """
    if maxlen < 1:
        raise ValueError("maxlen must be >= 1")
    check_budget(s.size, maxlen, word_cap, f"near_idempotent_search to {maxlen}")
    best: tuple[float, Word] | None = None
    for k, level in enumerate(product_levels(s.stack, maxlen), start=1):
        norms = batch_operator_norms(level, SPECTRAL)
        ok = np.flatnonzero(norms >= 0.5)
        if ok.size:
            sub = level[ok]
            defects = batch_operator_norms(
                np.matmul(sub, sub) - sub, SPECTRAL
            ) / norms[ok]
            i = int(np.argmin(defects))
            if best is None or defects[i] < best[0]:
                best = (float(defects[i]), word_from_index(int(ok[i]), k, s.size))
    if best is None or not best[0] <= tol:  # no defect is <= a NaN tol
        return None
    return best[1], best[0]


# --- theorem checkers ---------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking one explicit inequality on a matrix set.

    ``lhs`` is the computed left-hand side; ``rhs_at_lower`` and
    ``rhs_at_upper`` evaluate the right-hand side, which grows with the
    joint spectral radius, at each end of the supplied enclosure.  The
    verdict is CONFIRMED when the inequality (lhs <= rhs if ``at_most``,
    else lhs >= rhs) holds at the end that makes the claim strongest,
    REFUTED when it fails by more than ``TOL_REL`` at the weakest end and
    is ``refutable`` (false for a clamped run, and for BG_EL, whose miss
    proves nothing), INCONCLUSIVE otherwise.  So BG_EL is CONFIRMED only
    when rho(w) >= (1 - eps) upper^|w|.
    """

    theorem_id: str
    lhs: float
    rhs_at_lower: float
    rhs_at_upper: float
    at_most: bool
    refutable: bool
    witnesses: dict = field(default_factory=dict)
    budget: dict = field(default_factory=dict)

    @property
    def verdict(self) -> Verdict:
        lhs, lo, up = self.lhs, self.rhs_at_lower, self.rhs_at_upper
        holds = lhs <= lo if self.at_most else lhs >= up
        fails = lhs > up * (1.0 + TOL_REL) if self.at_most else lhs < lo * (1.0 - TOL_REL)
        if holds:
            return Verdict.CONFIRMED
        return Verdict.REFUTED if self.refutable and fails else Verdict.INCONCLUSIVE


def check_polbd(
    s: MatrixSet,
    interval: JsrInterval,
    *,
    word_cap: int = WORD_CAP,
) -> TheoremReport:
    """Check max_{k <= 2d^3} rho(eval(w))^(1/|w|) >= jsr(S) / (2^8 d^5).

    The peak is taken over all words up to depth 2d^3, clamped by
    ``budget_depth`` to the deepest k with ``count_words(m, k) <=
    word_cap`` (flagged); a clamped run can only confirm or abstain, never
    refute, since deeper words could still raise the left-hand side.
    """
    d = s.dim
    depth_full = 2 * d**3
    depth = budget_depth(s.size, depth_full, word_cap)
    if depth < 1:
        raise BudgetExceededError(s.size, word_cap, "peak radius at depth 1")
    peak = lower_bound(s, depth, word_cap=word_cap)
    clamped = depth < depth_full
    c = 1.0 / (2**8 * d**5)
    return TheoremReport(
        "POLBD",
        peak.value,
        c * interval.lower,
        c * interval.upper,
        at_most=False,
        refutable=not clamped,
        witnesses={"word": peak.witness},
        budget={"depth": depth, "depth_full": depth_full, "clamped": clamped},
    )


def check_boca_new(
    s: MatrixSet,
    n: NormSpec,
    interval: JsrInterval,
    *,
    word_cap: int = WORD_CAP,
) -> TheoremReport:
    """Check ||S^n1|| <= 2^7 d^4 jsr(S) ||S||^(n1 - 1) at n1 = 2d^2.

    ||S^k|| is the max norm over all k-letter products.  If the words up to
    length 2d^2 exceed the budget, n1 is clamped by ``budget_depth``
    (flagged); clamped runs can only confirm or abstain.  ||S^n1|| comes from
    ``interval.levels`` if they reach n1 under n's kind and factor object,
    else from a ``jsr_estimate`` sweep to n1 under the same word budget; rhs
    overflow is inf.
    """
    d = s.dim
    n1_full = 2 * d * d
    n1 = budget_depth(s.size, n1_full, word_cap)
    if n1 < 1:
        raise BudgetExceededError(s.size, word_cap, "power norm at exponent 1")
    clamped = n1 < n1_full
    levels, swept = interval.levels, interval.norm
    if not (swept and len(levels) >= n1 and swept.kind is n.kind and swept.g is n.g):
        levels = jsr_estimate(s, JsrConfig(n1, n, word_cap)).levels
    lhs, idx = levels[n1 - 1]
    with np.errstate(over="ignore"):  # the same libm pow as float **, but saturating
        base = float(2**7 * d**4 * np.float64(set_norm(s, n)) ** (n1 - 1))
    rhs_lo, rhs_up = (base * x if x else 0.0 for x in (interval.lower, interval.upper))
    ratio = lhs / rhs_lo if 0 < rhs_lo < math.inf else math.inf if lhs > rhs_lo else 0.0
    return TheoremReport(
        "BOCA_NEW",
        lhs,
        rhs_lo,
        rhs_up,
        at_most=True,
        refutable=not clamped,
        witnesses={"word": word_from_index(idx, n1, s.size), "ratio": ratio},
        budget={"n1": n1, "n1_full": n1_full, "clamped": clamped},
    )


def check_bg_el(
    s: MatrixSet,
    eps: float,
    maxlen: int,
    *,
    interval: JsrInterval,
    seed: int = 0,
    word_cap: int = WORD_CAP,
) -> TheoremReport:
    """Look for a word with rho(eval(w)) >= (1 - eps) jsr(S)^|w|.

    Expects ``s`` rescaled so ``interval`` contains 1; CONFIRMED only when
    rho(w) >= (1 - eps) upper^|w|.  Dimension 1 asks for the full guaranteed
    search length 12/eps; higher dimensions treat ``maxlen`` as the practical
    budget (the guaranteed length grows like 3^d 4^(d^2) eps^(-d^2)), so a
    miss is INCONCLUSIVE, never REFUTED.  The trajectory is one word whose
    prefixes are the words it visits, so ``budget_depth(1, length,
    word_cap)`` clamps its length; ``required_length_honored`` is false when
    that cuts 12/eps, and BudgetExceededError is raised when fewer than 2
    steps fit.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if interval.lower > 1.0 + TOL_REL or interval.upper < 1.0 - TOL_REL:
        raise ValueError(
            "rescale the set so the joint spectral radius enclosure contains 1"
        )
    required = math.ceil(12.0 / eps) if s.dim == 1 else 0
    length = max(maxlen, required)
    budget_len = budget_depth(1, length, word_cap)
    if budget_len < 2 <= length:
        raise BudgetExceededError(2, word_cap, "a trajectory of at least 2 steps")
    honored = 0 < required <= budget_len
    word, cert, diag = trajectory_return_search(s, SPECTRAL, budget_len, seed=seed)
    lhs = spectral_radius(eval_word(s, word))
    k = len(word)
    return TheoremReport(
        "BG_EL",
        lhs,
        (1.0 - eps) * interval.lower**k,
        (1.0 - eps) * interval.upper**k,
        at_most=False,
        refutable=False,
        witnesses={"word": word, "residual": cert.residual},
        budget={
            "maxlen": budget_len,
            "required_length_honored": honored,
            "restarts": diag["restarts"],
        },
    )
