"""Two-sided joint-spectral-radius bounds and norm constructions.

The basic sandwich for a finite matrix set S is

    max_{|w| <= depth} rho(eval(w))^(1/|w|)   <=   jsr(S)   <=
    min_{k <= depth}   max_{|w| = k} ||eval(w)||^(1/k)

where rho is the spectral radius of a single matrix.  Both sides converge
to the joint spectral radius as the depth grows.  ``jsr_estimate`` computes
both in one breadth-first sweep over the word tree.

A note on pruning: discarding whole subtrees whose prefix norm falls below
``(running lower bound)^k`` is sound for the eigenvalue side (any word that
could still improve the maximum has a cyclic rotation whose prefixes all
stay above the bound) but it can silently corrupt the norm side, because
the word attaining ``max ||eval(w)||`` may well have a small prefix.  The
sweep therefore builds every word of every level but the last.
``core.max_operator_norm`` gives each word cheap norm brackets, which skip
the SVDs that cannot change a level's maximum, and the free bound rho(A)
<= min(||A||_1, ||A||_inf, ||A||_F), which skips the eigensolves that
cannot reach the running lower bound; both tests carry a guard against
roundoff.  The last level (the depth, or the last one the word budget
admits) has no descendants to lose, so there ``core._kept_parents`` drops
every child A W whose bounds from the norms of A and W, by
submultiplicativity and widened against roundoff, show both skips would
hold; the dropped words count as enumerated and as skipped.  Under an
ellipsoidal norm the last level is built whole.  Results are bit-identical
to evaluating every word in full, with one exception in the counts: a
child whose computed entries would all be subnormal gets no bracket and no
radius bound in the full computation, which then runs its SVD and its
eigensolve.  Children whose product bound is subnormal are built, but one
whose product bound is normal can still come out subnormal, by
cancellation or because the entries of its factors spread widely in size
(diag(1e-160, 1) times diag(1e-160, 0)), and can be dropped.  So
``svd_run``, ``svd_skipped`` and ``eig_skipped`` could differ there, never
a bound or a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from jsrkit.core import (
    SPECTRAL,
    TOL_REL,
    WORD_CAP,
    JsrError,
    MatrixSet,
    NormKind,
    NormSpec,
    Word,
    batch_operator_norms,
    batch_spectral_radii,
    budget_depth,
    check_budget,
    count_words,
    max_operator_norm,
    product_levels,
    word_from_index,
    _children,
    _kept_parents,
)

__all__ = [
    "JsrInterval",
    "JsrConfig",
    "LowerBound",
    "PolytopeNorm",
    "ConjugationResult",
    "SeriesNormValue",
    "NilpotencyResult",
    "DivergentSeriesError",
    "IndeterminateRankError",
    "lower_bound",
    "upper_bound",
    "jsr_estimate",
    "conjugation_search",
    "rota_strang_norm",
    "barabanov_approx",
    "nilpotency_test",
]

# Computed eigenvalue magnitudes at or below roundoff scale are treated as
# exact zeros before taking k-th roots.  A k-th root would otherwise blow
# pure noise (~eps * ||A||) up to noise^(1/k), which is large.  Zeroing only
# ever shrinks the reported lower bound, which is the safe direction.
_EIG_NOISE_FACTOR = 64.0


class DivergentSeriesError(JsrError):
    """The floating-point test finds r * upper >= 1, so the weighted series
    has no geometric tail bound."""


class IndeterminateRankError(JsrError):
    """A rank decision fell inside the tolerance band; rescale and retry."""


class LowerBound(NamedTuple):
    value: float
    witness: Word


class ConjugationResult(NamedTuple):
    g: np.ndarray  # read-only
    value: float


class SeriesNormValue(NamedTuple):
    value: float
    tail_bound: float


class NilpotencyResult(NamedTuple):
    nilpotent: bool
    algebra_dim: int


@dataclass(frozen=True)
class JsrInterval:
    """A floating-point enclosure lower <= jsr(S) <= upper (roundoff unbounded).

    ``lower_witness`` is a word whose normalized spectral radius reproduces
    ``lower``; ``upper_depth`` is the power at which the norm side attained
    its minimum.  ``diagnostics`` holds float counters: ``depth_reached``,
    ``words_enumerated``, ``eig_skipped`` (words the radius bound spared an
    eigensolve, under any norm), ``svd_run`` and ``svd_skipped`` (SVDs; both
    0 under the row- and column-sum norms), and the flags
    ``budget_exhausted`` and ``early_stop_width``.  The last level's words
    that the sweep never built count as enumerated, and as skipped in
    ``eig_skipped`` and ``svd_skipped``.  ``levels[k - 1]`` is
    ``max_operator_norm``'s (value, index) under ``norm`` on each level k the
    sweep completed; hand-built and scaled intervals have no levels.
    """

    lower: float
    upper: float
    lower_witness: Word
    upper_depth: int
    diagnostics: dict = field(default_factory=dict)
    levels: tuple[tuple[float, int], ...] = ()
    norm: NormSpec | None = None

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError("lower bound cannot be negative")
        if self.lower > self.upper * (1 + TOL_REL) + 1e-300:
            raise ValueError(
                f"inconsistent interval: lower {self.lower} exceeds upper {self.upper}"
            )

    @property
    def width(self) -> float:
        # rounding can push the two sides past each other by an ulp when
        # both have converged; an empty overlap is width zero, not negative
        return max(0.0, self.upper - self.lower)

    def scaled(self, c: complex) -> "JsrInterval":
        c = abs(c)  # jsr(cS) = |c| jsr(S)
        return JsrInterval(
            self.lower * c, self.upper * c, self.lower_witness, self.upper_depth,
            dict(self.diagnostics),
        )


@dataclass(frozen=True)
class JsrConfig:
    """Parameters for ``jsr_estimate``.

    ``target_width`` stops the sweep early once
    ``upper - lower <= target_width * upper``.  The word budget is a total
    across levels; when it runs out the partial interval is returned with
    ``diagnostics["budget_exhausted"] = 1.0`` instead of raising.
    """

    depth: int = 8
    norm: NormSpec = SPECTRAL
    word_cap: int = WORD_CAP
    target_width: float | None = None

    def __post_init__(self):
        if self.target_width is not None and not self.target_width >= 0:
            raise ValueError(f"target_width must be >= 0, got {self.target_width}")


def jsr_estimate(s: MatrixSet, config: JsrConfig = JsrConfig()) -> JsrInterval:
    """Both sandwich bounds in one breadth-first sweep over every word.

    A word gets an eigensolve only when min(||A||_1, ||A||_inf, ||A||_F)^(1/|w|)
    reaches the running lower bound less a 1e-12 guard; ``eig_skipped``
    counts the rest.  Norm brackets skip the SVDs that cannot change a
    level's maximum.  The last level builds only the words whose bounds
    from their parents' norms allow either; the others count as enumerated
    and skipped, as the module docstring says.  The witness is the shortest
    word, then the lexicographically first, whose value is within one part
    in 1e12 of the lower end, however many words tie.  The lower end, its
    witness and ``eig_skipped`` do not depend on ``config.norm``;
    ``lower_bound`` and ``upper_bound`` are the two ends of this interval
    under a strict budget.  The sweep goes to the deepest level
    ``budget_depth`` admits; short of the depth, that level determines a
    (wider) valid interval, flagged in the diagnostics rather than raised.
    """
    depth = config.depth
    if depth < 1:
        raise ValueError("depth must be >= 1")
    m, d = s.size, s.dim
    reach = budget_depth(m, depth, config.word_cap)
    eps = np.finfo(float).eps
    best_low = cut = 0.0
    records: list[tuple[int, int, float]] = []  # (length, index, value)
    best_up = math.inf
    up_depth = 0
    eig_skipped = 0
    svd_run = 0
    svd_skipped = 0
    rows: list[tuple[float, int]] = []
    early_stop = False

    level = s.stack
    for k in range(1, reach + 1):
        level_count = m**k
        built = None  # where set, row i of level is row built[i] of level k
        if k > 1:
            if k == reach:
                # the last level: build only the children that can matter,
                # from a copy of their parents, once level k - 1 is freed
                wanted = np.flatnonzero(
                    _kept_parents(s.stack, level, first, norms, config.norm, k, cut)
                )
                level = level[wanted]
                built = (wanted[:, np.newaxis] * m + np.arange(m)).reshape(-1)
            level = _children(s.stack, level)
        norms = max_operator_norm(level, config.norm)
        if k == 1:
            first = norms
        if built is not None:
            norms = norms._replace(index=int(built[norms.index]))
            if config.norm.kind in (NormKind.SPECTRAL, NormKind.ELLIPSOIDAL):
                svd_skipped += level_count - built.size  # the unbuilt words
        svd_run += norms.svd_run
        svd_skipped += norms.svd_skipped
        rows.append((norms.value, norms.index))
        lev_up = norms.value ** (1.0 / k)
        if lev_up < best_up:
            best_up = lev_up
            up_depth = k

        # rho(A) <= min(||A||_1, ||A||_inf, ||A||_F), so words whose bound
        # cannot reach the running maximum skip all eigenvalue-side work.
        # The guard keeps ties eligible so the reported witness is identical
        # to the exhaustive computation (see core._SKIP_GUARD).
        keep = np.flatnonzero(norms.radius_bounds ** (1.0 / k) >= cut)
        eig_skipped += level_count - keep.size
        radii = batch_spectral_radii(level[keep])
        radii[radii <= _EIG_NOISE_FACTOR * d * eps * norms.scale[keep]] = 0.0
        vals = radii ** (1.0 / k)
        best_low = max(best_low, float(vals.max(initial=0.0)))
        cut = best_low * (1 - 1e-12)
        # a record reaches the cut and tops every earlier word of its level;
        # the first word, in (length, index) order, to reach the final cut is
        # one.  Skipped words tie too at best_low == 0, but level 1 skips none
        record = vals >= cut
        record[1:] &= vals[1:] > np.maximum.accumulate(vals)[:-1]
        if built is not None:
            keep = built[keep]
        records += [(k, int(keep[i]), float(vals[i])) for i in np.flatnonzero(record)]

        if (
            config.target_width is not None
            and math.isfinite(best_up)
            and best_up - best_low <= config.target_width * best_up
        ):
            early_stop = True
            break

    witness: Word = next((word_from_index(i, k, m) for k, i, v in records if v >= cut), ())

    diagnostics = {
        "depth_reached": float(len(rows)),
        "words_enumerated": float(count_words(m, len(rows))),
        "eig_skipped": float(eig_skipped),
        "svd_run": float(svd_run),
        "svd_skipped": float(svd_skipped),
        "budget_exhausted": 1.0 if reach < depth and not early_stop else 0.0,
        "early_stop_width": 1.0 if early_stop else 0.0,
    }
    return JsrInterval(
        best_low, best_up, witness, up_depth, diagnostics, tuple(rows), config.norm
    )


def lower_bound(
    s: MatrixSet,
    depth: int,
    *,
    word_cap: int = WORD_CAP,
) -> LowerBound:
    """max over words of length <= depth of rho(eval(w))^(1/|w|).

    Returns the value together with an argmax witness word.  Ties (within
    one part in 1e12, to absorb eigensolver roundoff) go to the shortest
    word and then to the lexicographically first one, however many tie.
    This is the lower end of ``jsr_estimate`` under a strict budget: a depth
    the word cap cannot reach raises instead of returning a partial result.
    """
    check_budget(s.size, depth, word_cap, f"lower_bound to depth {depth}")
    # the lower end does not depend on the norm; the row-sum one is the cheapest
    iv = jsr_estimate(s, JsrConfig(depth, NormSpec.max_row_sum(), word_cap))
    return LowerBound(iv.lower, iv.lower_witness)


def upper_bound(
    s: MatrixSet,
    depth: int,
    n: NormSpec = SPECTRAL,
    *,
    word_cap: int = WORD_CAP,
) -> float:
    """min over 1 <= k <= depth of ||S^k||_n^(1/k); a floating-point upper bound.

    This is the upper end of ``jsr_estimate`` under a strict budget: a
    depth the word cap cannot reach raises instead of returning a partial
    result.
    """
    check_budget(s.size, depth, word_cap, f"upper_bound to depth {depth}")
    return jsr_estimate(s, JsrConfig(depth, n, word_cap)).upper


# --- conjugation search ------------------------------------------------------


_BALANCE_BASE = 2.0  # diagonal balancing scales by powers of this
_FORM_DAMPING = 0.1  # step of the damped quadratic-form iteration


def _balance_step(stack: np.ndarray) -> np.ndarray | None:
    """One pass of diagonal balancing, snapped to powers of ``_BALANCE_BASE``.

    Returns the diagonal scale vector, or None when already balanced.
    """
    abssum = np.abs(stack)
    rows = abssum.sum(axis=2).max(axis=0)  # worst row sums per coordinate
    cols = abssum.sum(axis=1).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(cols / rows)
    ratio[~np.isfinite(ratio)] = 1.0
    ratio[ratio <= 0] = 1.0
    powers = np.round(np.log(ratio) / math.log(_BALANCE_BASE))
    if not powers.any():
        return None
    return _BALANCE_BASE**powers


def conjugation_search(
    s: MatrixSet,
    iterations: int = 200,
    *,
    norm: NormSpec = SPECTRAL,
) -> ConjugationResult:
    """Search for g making ||g S g^-1|| small; never worse than the identity.

    Alternates two deterministic strategies, keeping the best candidate:

    * diagonal rescaling by powers of 2 that balances worst-case row
      against column sums of the conjugated set, and
    * a damped quadratic-form iteration
      ``P <- (1 - eta) P + eta * mean_s(s^H P s)`` with eta = 0.1
      (trace-normalized), whose Cholesky factor supplies the conjugation.

    The quadratic-form iteration converges toward an invariant form when one
    exists (e.g. conjugated unitary families), while the diagonal strategy
    fixes badly scaled triangular sets.
    """
    d = s.dim
    identity_value = float(batch_operator_norms(s.stack, norm).max())
    best = ConjugationResult(np.eye(d), identity_value)

    def consider(g: np.ndarray) -> None:
        nonlocal best
        try:
            conj = np.einsum("ij,njk,kl->nil", g, s.stack, np.linalg.inv(g))
        except np.linalg.LinAlgError:
            return
        value = float(batch_operator_norms(conj, norm).max())
        if value < best.value:
            best = ConjugationResult(g, value)

    # strategy (a): accumulated diagonal balancing
    g_diag = np.ones(d)
    stack = s.stack
    for _ in range(iterations):
        scale = _balance_step(np.einsum("i,nij,j->nij", g_diag, stack, 1.0 / g_diag))
        if scale is None:
            break
        g_diag = scale * g_diag
        consider(np.diag(g_diag))

    # strategy (b): damped invariant-quadratic-form iteration
    p = np.eye(d, dtype=np.complex128)
    for _ in range(iterations):
        avg = np.einsum("nij,jk,nkl->il", stack.conj().transpose(0, 2, 1), p, stack)
        avg /= s.size
        p = (1 - _FORM_DAMPING) * p + _FORM_DAMPING * avg
        p = (p + p.conj().T) / 2
        tr = np.trace(p).real
        if not math.isfinite(tr) or tr <= 0:
            break
        p *= d / tr
        try:
            chol = np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            break
        consider(chol.conj().T)

    g = np.array(best.g, dtype=np.complex128, order="C")
    g.flags.writeable = False
    return best._replace(g=g)


# --- weighted series norm ----------------------------------------------------


def rota_strang_norm(
    s: MatrixSet,
    r: float,
    x,
    trunc: int,
    *,
    word_cap: int = WORD_CAP,
) -> SeriesNormValue:
    """Truncation of the weighted series norm  v_r(x) = sum_n ||S^n x|| r^n.

    ``||S^n x||`` is the worst Euclidean image norm over words of length n
    (the n = 0 term is ``||x||``).  Returns the partial sum through
    ``trunc`` together with a floating-point geometric bound on the dropped
    tail, derived from submultiplicativity of the computed level norms.
    Requires r * (best computed upper bound on the jsr) < 1, otherwise the
    series has no such tail bound and DivergentSeriesError is raised.
    """
    if not 0 < r < math.inf:  # a NaN r fails too
        raise ValueError("r must be positive and finite")
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    check_budget(s.size, trunc, word_cap, f"rota_strang_norm to depth {trunc}")
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if v.shape[0] != s.dim:
        raise ValueError("vector dimension mismatch")
    x_norm = float(np.linalg.norm(v))

    value = x_norm
    level_norms = []  # ||S^k||_2 for k = 1..trunc
    for k, level in enumerate(product_levels(s.stack, trunc), start=1):
        level_norms.append(max_operator_norm(level).value)
        value += float(np.linalg.norm(level @ v, axis=1).max()) * r**k

    roots = [ln ** (1.0 / k) for k, ln in enumerate(level_norms, start=1)]
    u = min(roots)
    if r * u >= 1.0:
        raise DivergentSeriesError(
            f"r*upper >= 1: r = {r} against the norm-side bound {u}; "
            f"the series has no floating-point geometric tail bound"
        )
    k_star = roots.index(u) + 1
    q = level_norms[k_star - 1] * r**k_star
    tail = (
        level_norms[trunc - 1]
        * r**trunc
        * sum(level_norms[i - 1] * r**i for i in range(1, k_star + 1))
        / (1 - q)
        * x_norm
    )
    return SeriesNormValue(value, tail)


# --- adapted polytope norm ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolytopeNorm:
    """An adapted vector norm built from scaled products of the set.

    v(x) = max over stored words w (including the empty word) of
    ``||eval(w) x||_2 / rho_hat^|w|``.  With rho_hat close to the jsr this
    approximates an extremal norm: applying any member inflates v by at
    most ``rho_hat * (1 + slack)``, where ``slack`` is measured on the
    stored sample of directions.  The identity is always stored, which
    makes v a genuine norm.
    """

    rho_hat: float
    depth: int
    matrices: np.ndarray  # (count, d, d), scaled by rho_hat^-|w|
    slack: float
    sample_size: int
    seed: int

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def evaluate(self, x) -> float:
        v = np.asarray(x, dtype=np.complex128).reshape(-1)
        return float(np.linalg.norm(self.matrices @ v, axis=1).max())


def barabanov_approx(
    s: MatrixSet,
    rho_hat: float,
    depth: int,
    *,
    sample_size: int = 256,
    seed: int = 0,
    word_cap: int = WORD_CAP,
) -> PolytopeNorm:
    """Finite-depth approximation of an extremal (Barabanov-type) norm.

    Stores every product of length <= depth scaled by rho_hat^-length and
    reports the worst relative growth ``v(s x) / (rho_hat * v(x)) - 1``
    over a seeded sample of directions.  A small slack certifies, on the
    sample, that rho_hat nearly dominates one-step growth of v.
    """
    if rho_hat <= 0:
        raise ValueError("rho_hat must be positive")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    check_budget(s.size, depth, word_cap, f"barabanov_approx to depth {depth}")
    if not math.isfinite(rho_hat):
        raise ValueError(f"rho_hat must be finite, got {rho_hat}")
    d = s.dim
    matrices = np.concatenate(
        [np.eye(d, dtype=np.complex128)[np.newaxis]]
        + [
            level * rho_hat**-k
            for k, level in enumerate(product_levels(s.stack, depth), start=1)
        ]
    )
    matrices.flags.writeable = False

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((d, sample_size)) + 1j * rng.standard_normal(
        (d, sample_size)
    )
    dirs /= np.linalg.norm(dirs, axis=0)

    base = np.linalg.norm(matrices @ dirs, axis=1).max(axis=0)
    worst = -math.inf
    for m in s.stack:
        imgs = np.linalg.norm(matrices @ (m @ dirs), axis=1).max(axis=0)
        worst = max(worst, float((imgs / (rho_hat * base)).max()))
    slack = worst - 1.0

    return PolytopeNorm(
        rho_hat=rho_hat,
        depth=depth,
        matrices=matrices,
        slack=slack,
        sample_size=sample_size,
        seed=seed,
    )


# --- nilpotency of the generated algebra -------------------------------------

_TOL_RANK = 1e-8  # relative rank threshold of nilpotency_test
_BAND = 10.0  # pivots within this factor of the threshold are indeterminate


def _accept_directions(
    cand: np.ndarray, q: np.ndarray | None, ref_scale: float
) -> np.ndarray | None:
    """Orthonormal new directions from candidate columns, or None if none.

    Rank decisions use a pivoted QR with threshold
    ``_TOL_RANK * max(ref_scale, max column norm)``; pivots falling inside
    the band ``(threshold / _BAND, threshold * _BAND)`` raise
    IndeterminateRankError because the rank is not numerically well
    determined there.  ``ref_scale`` anchors the threshold to the scale of
    the generating set, so that a candidate which is tiny relative to the
    set (and tiny relative to nothing else, e.g. the only product around)
    is still treated as a borderline rank decision rather than judged
    against its own magnitude.
    """
    # imported here so that no CLI command pays scipy's start-up cost
    import scipy.linalg

    if cand.size == 0:
        return None
    cand_scale = float(np.linalg.norm(cand, axis=0).max())
    if cand_scale == 0.0:
        return None
    if q is not None:
        cand = cand - q @ (q.conj().T @ cand)
        cand = cand - q @ (q.conj().T @ cand)  # re-orthogonalize once
    threshold = _TOL_RANK * max(ref_scale, cand_scale)
    qf, rf, _ = scipy.linalg.qr(cand, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rf))
    inside_band = (diag > threshold / _BAND) & (diag < threshold * _BAND)
    if inside_band.any():
        raise IndeterminateRankError(
            f"rank decision indeterminate: pivot magnitude within a factor "
            f"{_BAND:g} of the threshold {threshold:.3e}; rescale the input"
        )
    rank = int((diag >= threshold * _BAND).sum())
    if rank == 0:
        return None
    return qf[:, :rank]


def nilpotency_test(s: MatrixSet) -> NilpotencyResult:
    """Decide whether the algebra generated by the set is nilpotent.

    Builds a basis of span(S, S^2, ...) by saturating left-multiplication,
    then checks whether d-fold products of the algebra vanish (for a
    nilpotent subalgebra of d x d matrices the nilpotency index is at most
    d).  Rank decisions too close to the tolerance raise
    IndeterminateRankError instead of guessing.
    """
    d = s.dim
    mats = s.stack
    ref = max(float(np.linalg.norm(m)) for m in mats)

    q = _accept_directions(mats.reshape(s.size, -1).T, None, ref)
    if q is None:
        # every member is (numerically) zero
        return NilpotencyResult(True, 0)
    while True:
        basis = [q[:, j].reshape(d, d) for j in range(q.shape[1])]
        cand = np.stack(
            [(m @ b).reshape(-1) for m in mats for b in basis], axis=1
        )
        new = _accept_directions(cand, q, ref)
        if new is None:
            break
        q = np.concatenate([q, new], axis=1)

    algebra = [q[:, j].reshape(d, d) for j in range(q.shape[1])]
    algebra_dim = len(algebra)

    layer = q
    for _ in range(d - 1):
        mats_layer = [layer[:, j].reshape(d, d) for j in range(layer.shape[1])]
        cand = np.stack(
            [(a @ w).reshape(-1) for a in algebra for w in mats_layer], axis=1
        )
        layer = _accept_directions(cand, None, ref)
        if layer is None:
            return NilpotencyResult(True, algebra_dim)
    return NilpotencyResult(False, algebra_dim)
