"""Randomized invariant suite for the sandwich machinery.

Every check walks a seeded stream of random matrix sets and asserts an
algebraic identity the estimators must satisfy: the sandwich ordering,
depth monotonicity, scaling and conjugation equivariance, the power
identity, nilpotent collapse, nilpotency answers that do not depend on
scale and agree with the exact test, and agreement between the pruned
combined sweep and the plain exhaustive bounds.  The checks are plain
functions parameterized by instance count so the acceptance suite can
re-run them at its mandated scale.
"""

import numpy as np

from jsrkit.bounds import (
    JsrConfig,
    conjugation_search,
    jsr_estimate,
    lower_bound,
    nilpotency_test,
    upper_bound,
)
from jsrkit.core import SPECTRAL, MatrixSet, NormSpec, product_levels
from jsrkit.families import elementary, eps_identity, shift, unipotent_pair, unitary_mix
from jsrkit.ultrametric import PAdicMatrixSet, padic_nilpotency_exact

RTOL = 1e-9
NORMS = (SPECTRAL, NormSpec.max_row_sum(), NormSpec.max_col_sum())


def random_set(rng: np.random.Generator, nilpotent: bool = False) -> MatrixSet:
    d = int(rng.integers(2, 4))
    m = int(rng.integers(1, 4))
    mats = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    if nilpotent:
        keep = np.triu(np.ones((d, d)), k=1)
        mats = mats * keep
    mats *= 10.0 ** rng.integers(-2, 3)  # exercise very small and large scales
    return MatrixSet.from_arrays(list(mats))


def conjugated(s: MatrixSet, g) -> MatrixSet:
    """The set {g m g^-1 for m in s}, in member order."""
    g = np.asarray(g, dtype=np.complex128)
    g_inv = np.linalg.inv(g)
    return MatrixSet.from_arrays([g @ m @ g_inv for m in s.stack])


def signed_permutation(rng: np.random.Generator, d: int) -> np.ndarray:
    perm = np.zeros((d, d))
    perm[np.arange(d), rng.permutation(d)] = rng.choice([-1.0, 1.0], size=d)
    return perm


def squared(s: MatrixSet) -> MatrixSet:
    """S^2, the products of every length-2 word, in the engine's row order."""
    _, level = product_levels(s.stack, 2)
    return MatrixSet.from_arrays(level)


def check_sandwich(n: int = 500, seed: int = 101):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = random_set(rng)
        lo = lower_bound(s, 4).value
        for norm in NORMS:
            up = upper_bound(s, 4, norm)
            assert lo <= up * (1 + RTOL), (lo, up, norm.kind)


def check_monotonicity(n: int = 500, seed: int = 103):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = random_set(rng)
        lo2, lo4 = lower_bound(s, 2).value, lower_bound(s, 4).value
        assert lo2 <= lo4 * (1 + 1e-12)
        up2, up4 = upper_bound(s, 2), upper_bound(s, 4)
        assert up4 <= up2 * (1 + 1e-12)


def check_scaling_equivariance(n: int = 500, seed: int = 107):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = random_set(rng)
        c = float(rng.choice([0.25, 0.5, 2.0, 8.0]))
        base = jsr_estimate(s, JsrConfig(depth=3))
        scaled = jsr_estimate(s.scaled(c), JsrConfig(depth=3))
        assert np.isclose(scaled.lower, c * base.lower, rtol=RTOL, atol=0)
        assert np.isclose(scaled.upper, c * base.upper, rtol=RTOL, atol=0)
        assert scaled.lower_witness == base.lower_witness


def check_conjugation_invariance(n: int = 500, seed: int = 109):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = random_set(rng)
        d = s.dim
        g = np.eye(d) + 0.3 * (
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        )
        base = lower_bound(s, 3).value
        conj = lower_bound(conjugated(s, g), 3).value
        assert np.isclose(base, conj, rtol=1e-7, atol=1e-12 * max(base, 1.0))


def check_power_identity(n: int = 500, seed: int = 113):
    # jsr_estimate(S^2) within the square of jsr_estimate(S): the squared
    # set's words are the even-length words of S
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = random_set(rng)
        base = jsr_estimate(s, JsrConfig(depth=4))
        sq = jsr_estimate(squared(s), JsrConfig(depth=2))
        assert sq.lower <= base.lower**2 * (1 + RTOL)
        assert sq.upper >= base.upper**2 * (1 - RTOL)


def check_nilpotent_collapse(n: int = 200, seed: int = 127):
    # strictly triangular sets hidden behind signed permutations (exact in
    # floating point, so the d-fold products stay exactly zero) must test
    # nilpotent and have upper bound exactly 0 at depth d
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = random_set(rng, nilpotent=True)
        d = s.dim
        sc = conjugated(s, signed_permutation(rng, d))
        result = nilpotency_test(sc)
        assert result.nilpotent
        assert result.algebra_dim <= d * (d - 1) // 2
        assert upper_bound(sc, d) == 0.0


NILPOTENCY_SCALES = (2.0**300, 2.0**-300, 1e9, 1e-9, 2.0**-1070)


def check_nilpotency_scale_invariance(n: int = 100, seed: int = 139):
    # nilpotency does not depend on scale; each set is first scaled so its
    # largest |entry| is 1, so that even 2^-1070 times it keeps a few bits
    rng = np.random.default_rng(seed)
    sets = [unipotent_pair()]
    for d in (2, 3):
        sets += [elementary(d), shift(d), unitary_mix(d, count=4), eps_identity(d, count=4)]
    sets += [random_set(rng, nilpotent=bool(i % 2)) for i in range(n)]
    for s in sets:
        base = s.scaled(1 / np.abs(s.stack).max())
        expected = nilpotency_test(base)
        for c in NILPOTENCY_SCALES:
            assert nilpotency_test(base.scaled(c)) == expected, (base.stack, c)


def check_nilpotency_matches_exact(n: int = 300, seed: int = 149):
    # small-integer sets, whose nilpotency padic_nilpotency_exact decides
    # exactly: random, strictly upper triangular behind a signed permutation,
    # and upper triangular
    rng = np.random.default_rng(seed)
    for i in range(n):
        d, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        a = rng.integers(-2, 3, size=(m, d, d))
        kind = i % 3  # random, upper triangular, strictly upper triangular
        if kind:
            a = np.triu(a, k=kind - 1)
        if kind == 2:
            g = signed_permutation(rng, d).astype(int)
            a = g @ a @ g.T
        exact = padic_nilpotency_exact(PAdicMatrixSet(a.tolist(), 2))
        for c in (2.0**-300, 1e-9, 1.0, 1e9, 2.0**300):
            assert nilpotency_test(MatrixSet(c * a)).nilpotent == exact, (a, c)


def check_conjugation_search_dominates_lower(n: int = 500, seed: int = 131):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = random_set(rng)
        value = conjugation_search(s, iterations=20).value
        assert value >= lower_bound(s, 3).value * (1 - RTOL)


def check_pruned_matches_exhaustive(n: int = 50, seed: int = 137):
    # the combined sweep prunes eigenvalue work with the running lower
    # bound; the contract is that its interval is identical to the plain
    # exhaustive bounds at equal depth
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = random_set(rng)
        iv = jsr_estimate(s, JsrConfig(depth=5))
        lo = lower_bound(s, 5)
        up = upper_bound(s, 5)
        assert iv.lower == lo.value
        assert iv.lower_witness == lo.witness
        assert iv.upper == up


ALL_CHECKS = (
    check_sandwich,
    check_monotonicity,
    check_scaling_equivariance,
    check_conjugation_invariance,
    check_power_identity,
    check_nilpotent_collapse,
    check_conjugation_search_dominates_lower,
    check_pruned_matches_exhaustive,
)


def test_sandwich():
    check_sandwich()


def test_monotonicity():
    check_monotonicity()


def test_scaling_equivariance():
    check_scaling_equivariance()


def test_conjugation_invariance():
    check_conjugation_invariance()


def test_power_identity():
    check_power_identity()


def test_nilpotent_collapse():
    check_nilpotent_collapse()


def test_nilpotency_scale_invariance():
    check_nilpotency_scale_invariance()


def test_nilpotency_matches_exact():
    check_nilpotency_matches_exact()


def test_conjugation_search_dominates_lower():
    check_conjugation_search_dominates_lower()


def test_pruned_matches_exhaustive():
    check_pruned_matches_exhaustive()
