import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from jsrkit import JsrConfig, jsr_estimate
from jsrkit.core import (
    _BLOCK_ENTRIES,
    DIM_CAP,
    WORD_CAP,
    BudgetExceededError,
    EigensolverError,
    MatrixSet,
    NormSpec,
    batch_operator_norms,
    batch_spectral_radii,
    budget_depth,
    check_budget,
    count_words,
    eval_word,
    max_operator_norm,
    operator_norm,
    product_levels,
    set_norm,
    spectral_radius,
    vector_norm,
    word_from_index,
)
from jsrkit.families import haar_unitary, unipotent_pair

PHI = (1 + np.sqrt(5)) / 2


def elem(i, j, d):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1
    return m


def test_matrix_validation():
    for build in (lambda a: MatrixSet.from_arrays([a]), spectral_radius):
        with pytest.raises(ValueError):
            build(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            build(np.array([[np.inf, 0], [0, 0]]))
        with pytest.raises(ValueError):
            build(np.array([[np.nan, 0], [0, 0]]))
    s = MatrixSet.from_arrays([[[1, 2], [3, 4]]])
    assert s.dim == 2
    with pytest.raises(ValueError):
        s.stack[0, 0, 0] = 5.0  # read-only


def test_matrix_set_validation():
    with pytest.raises(ValueError):
        MatrixSet.from_arrays([])
    with pytest.raises(ValueError):
        MatrixSet.from_arrays([np.eye(2), np.eye(3)])
    for build in (MatrixSet.from_arrays, MatrixSet):
        with pytest.raises(ValueError):
            build([np.eye(40)])  # beyond the dimension cap
    eye = np.eye(2)
    s = MatrixSet.from_arrays([eye, 2 * eye, eye, 2 * eye, -0.0 * eye, 0 * eye])
    # duplicates flagged, not rejected; -0.0 equals 0.0
    assert s.warnings == (
        "members 0 and 2 are exact duplicates",
        "members 1 and 3 are exact duplicates",
        "members 4 and 5 are exact duplicates",
    )
    assert s.size == 6
    assert s.scaled(2.0).warnings == s.warnings


def test_matrix_set_copies_its_input():
    source = np.stack([np.eye(2), 2 * np.eye(2)]).astype(complex)
    s = MatrixSet.from_arrays(source)
    source[0, 0, 0] = 7.0
    assert np.array_equal(s.stack, np.stack([np.eye(2), 2 * np.eye(2)]))
    assert s.stack.flags.c_contiguous and s.stack.dtype == np.complex128


def test_eval_word_order():
    # rightmost letter acts first: eval((0,1)) = m1 @ m0
    s = MatrixSet.from_arrays([elem(0, 1, 2), elem(1, 0, 2)])
    out = eval_word(s, (0, 1))
    assert np.array_equal(out, elem(1, 1, 2))  # E21 E12 = E22
    assert np.array_equal(eval_word(s, ()), np.eye(2))
    with pytest.raises(ValueError):
        eval_word(s, (0, 2))
    with pytest.raises(ValueError):
        eval_word(s, (1.7, 0))  # never truncated to (1, 0)


def test_spectral_radius_fibonacci():
    a = [[1, 1], [1, 0]]
    assert spectral_radius(a) == pytest.approx(PHI, rel=1e-12)
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    # nilpotent with zero diagonal comes out exactly zero
    assert spectral_radius(elem(0, 1, 2)) == 0.0


def test_operator_norms():
    a = np.array([[1, -2], [3j, 4]])
    assert operator_norm(a, NormSpec.max_row_sum()) == pytest.approx(7.0)
    assert operator_norm(a, NormSpec.max_col_sum()) == pytest.approx(6.0)
    # spectral norm of a diagonal
    assert operator_norm(np.diag([3, -4]), NormSpec.spectral()) == pytest.approx(4.0)
    # ellipsoidal: g = diag(2, 1) on E12 gives 2 * 1 * 1/1... ||g A g^-1||
    g = np.diag([2.0, 1.0])
    val = operator_norm(elem(0, 1, 2), NormSpec.ellipsoidal(g))
    assert val == pytest.approx(2.0)


def test_ellipsoidal_validation():
    with pytest.raises(ValueError):
        NormSpec.ellipsoidal(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        NormSpec.ellipsoidal(np.diag([1e9, 1e-9]))  # condition number too large


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1, np.nan)])
def test_ellipsoidal_factor_must_be_finite(bad):
    # numpy's LinAlgError is a ValueError too, so the message is what tells
    # a named rejection from an SVD that failed to converge
    with pytest.raises(ValueError, match="ellipsoidal factor entries must be finite"):
        NormSpec.ellipsoidal(np.diag([bad, 1.0]))


def test_vector_norms():
    x = np.array([3, -4j])
    assert vector_norm(x, NormSpec.spectral()) == pytest.approx(5.0)
    assert vector_norm(x, NormSpec.max_row_sum()) == pytest.approx(4.0)
    assert vector_norm(x, NormSpec.max_col_sum()) == pytest.approx(7.0)
    g = np.diag([1.0, 2.0])
    assert vector_norm(x, NormSpec.ellipsoidal(g)) == pytest.approx(np.hypot(3, 8))


def test_set_norm():
    s = MatrixSet.from_arrays([np.eye(2), 2 * np.eye(2)])
    assert set_norm(s, NormSpec.spectral()) == pytest.approx(2.0)
    t = MatrixSet.from_arrays([elem(0, 1, 2), elem(1, 0, 2)])
    assert set_norm(t, NormSpec.spectral()) == pytest.approx(1.0)


def norms_reference(stack):
    """(||A||_1, ||A||_inf, ||A||_F) per row, computed on A / max|entry|;
    inf where that largest |entry| is subnormal."""
    a = np.abs(stack)
    top = a.max(axis=(1, 2))
    b = a / np.where(top > 0, top, 1.0)[:, np.newaxis, np.newaxis]
    cols, rows = b.sum(axis=1).max(axis=1), b.sum(axis=2).max(axis=1)
    norms = np.stack([cols, rows, np.sqrt((b * b).sum(axis=(1, 2)))], axis=1) * top[:, None]
    return np.where(((top < np.finfo(float).tiny) & (top > 0))[:, None], np.inf, norms)


def radius_bound_reference(stack):
    """min(||A||_1, ||A||_inf, ||A||_F) per row, as ``norms_reference``."""
    return norms_reference(stack).min(axis=1)


def assert_max_norm_matches_full_svd(stack, n=NormSpec.spectral()):
    full = batch_operator_norms(stack, n)
    top = max_operator_norm(stack, n)
    assert top.value == full.max()
    assert top.index == np.argmax(full)
    np.testing.assert_allclose(top.radius_bounds, radius_bound_reference(stack), rtol=1e-13)
    np.testing.assert_allclose(top.norms, norms_reference(stack), rtol=1e-13)
    # the bound comes from A itself, whatever the norm
    row_sum = max_operator_norm(stack, NormSpec.max_row_sum())
    assert np.array_equal(top.radius_bounds, row_sum.radius_bounds)
    assert np.array_equal(top.scale, np.abs(stack).max(axis=(1, 2)))
    return top


def test_max_operator_norm_is_scale_safe():
    rng = np.random.default_rng(17)
    g = NormSpec.ellipsoidal(np.diag([1.0, 4.0, 0.5]) + np.triu(np.ones((3, 3)), 1))
    base = rng.standard_normal((400, 3, 3)) + 1j * rng.standard_normal((400, 3, 3))
    # unscaled, squares of 2^+-600 overflow to inf or underflow to zero
    for e in (500, -500, 600, -600):
        for n in (NormSpec.spectral(), g):
            top = assert_max_norm_matches_full_svd(base * 2.0**e, n)
            assert top.svd_run + top.svd_skipped == 400
            assert top.svd_run < 100
    mixed = base * 2.0 ** rng.choice([500, -500], size=(400, 1, 1))
    mixed[7] *= 2.0 ** rng.choice([0, -1000], size=(3, 3))  # both scales in one row
    for n in (NormSpec.spectral(), g):
        top = assert_max_norm_matches_full_svd(mixed, n)
        assert top.svd_run < 100


def test_max_operator_norm_edge_rows():
    rng = np.random.default_rng(19)
    base = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
    zero = np.zeros((6, 2, 2), dtype=complex)
    assert max_operator_norm(zero)[2:4] == (0, 6)
    assert_max_norm_matches_full_svd(zero)
    # rows whose largest entry is subnormal get no bracket
    assert_max_norm_matches_full_svd(base * 2.0**-1060)
    assert_max_norm_matches_full_svd(np.concatenate([zero, base * 2.0**-1060, zero]))
    # |z| of a subnormal z rounds to whole units t: bracketed from rounded
    # |z|, row 0 (norm 6 t) would read 4 sqrt2 t, below row 1's 6 t (norm
    # 4 sqrt2 t), and drop the first argmax
    t = 2.0**-1074
    z, w = (3 + 3j) * t, (4 + 4j) * t
    pair = np.array([[[z, z], [0, 0]], [[w, 0], [0, 0]]])
    assert assert_max_norm_matches_full_svd(pair).index == 0
    # ties: every row has norm 1, so every row is kept
    unit = np.tile(np.eye(2, dtype=complex), (9, 1, 1))
    assert assert_max_norm_matches_full_svd(unit).svd_run == 9
    for n in (NormSpec.max_row_sum(), NormSpec.max_col_sum()):
        top = assert_max_norm_matches_full_svd(base, n)
        assert top.svd_run == top.svd_skipped == 0


def test_radius_bound_covers_spectral_radius():
    # rank-one u u^H, phased permutations and diagonal unitaries tie
    # rho = min(||A||_1, ||A||_inf, ||A||_F); the computed radius may then
    # exceed the bound by a few ulps, which the sweep's 1 - 1e-12 guard covers
    rng = np.random.default_rng(41)
    t = 2.0**-1074
    for d in (1, 2, 3, 8, DIM_CAP):
        rows = []
        for lam in (0, 0.5j, 1, -3):  # Jordan blocks, plain and unitarily conjugated
            j = lam * np.eye(d) + np.eye(d, k=1)
            q = haar_unitary(d, rng)
            rows += [j, q @ j @ q.conj().T]
        u, v = rng.standard_normal((2, d, 1)) + 1j * rng.standard_normal((2, d, 1))
        rows += [u @ u.conj().T, u @ v.conj().T, u @ u.T]
        phases = np.exp(2j * np.pi * rng.random(d))
        rows += [haar_unitary(d, rng), np.eye(d)[rng.permutation(d)] * phases, np.diag(phases)]
        stack = np.array(rows + [np.zeros((d, d))], dtype=complex)
        for k in (-300, -100, -10, 0, 10, 100, 300):
            scaled = stack * 10.0**k
            bounds = max_operator_norm(scaled).radius_bounds
            assert (batch_spectral_radii(scaled) <= bounds * (1 + 1e-12)).all()
        sub = np.array([stack[2] * 2.0**-1060, (3 + 3j) * t * np.eye(d), (3 + 5j) * t * stack[-3]])
        assert (max_operator_norm(sub).radius_bounds == np.inf).all()
    # a row whose largest |entry| is subnormal gets no bound: here |z| rounds
    # to 7 t for both entries, so every sum reads 7 t, but the radius 8 t
    odd = np.array([[[0, (-7 + 1j) * t], [(-6 + 4j) * t, 0]]])
    assert batch_spectral_radii(odd)[0] == 8 * t
    assert np.abs(odd).sum(axis=2).max() == 7 * t
    assert max_operator_norm(odd).radius_bounds[0] == np.inf


def enumerate_levels(s, depth):
    """(word, product) pairs of every level, in the engine's row order."""
    return [
        (word_from_index(i, k, s.size), level[i])
        for k, level in enumerate(product_levels(s.stack, depth), start=1)
        for i in range(level.shape[0])
    ]


def test_enumeration_exhaustive():
    s = MatrixSet.from_arrays([elem(0, 1, 2), elem(1, 0, 2)])
    out = enumerate_levels(s, 2)
    assert len(out) == 6 == count_words(2, 2)
    words = [w for w, _ in out]
    assert words == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    got = dict(out)
    assert np.array_equal(got[(0, 1)], elem(1, 1, 2))
    assert np.array_equal(got[(1, 0)], elem(0, 0, 2))
    assert np.array_equal(got[(0, 0)], np.zeros((2, 2)))


def test_enumeration_singleton_and_zero():
    s = MatrixSet.from_arrays([np.eye(2)])
    words = [w for w, _ in enumerate_levels(s, 3)]
    assert words == [(0,), (0, 0), (0, 0, 0)]

    # zero products are streamed like any other
    z = MatrixSet.from_arrays([np.zeros((2, 2))])
    out = enumerate_levels(z, 2)
    assert len(out) == 2
    assert all(not p.any() for _, p in out)


def test_product_levels_match_eval_word():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        # small integer entries keep every product exact in any summation order
        s = MatrixSet.from_arrays([rng.integers(-3, 4, (3, 3)) for _ in range(m)])
        levels = list(product_levels(s.stack, 4))
        assert [lv.shape for lv in levels] == [(m**k, 3, 3) for k in range(1, 5)]
        for k, level in enumerate(levels, start=1):
            for i in range(m**k):
                word = word_from_index(i, k, m)
                assert len(word) == k
                assert np.array_equal(level[i], eval_word(s, word))


def einsum_levels(stack, depth):
    """The reference: one einsum per letter, as every level was once built."""
    m = stack.shape[0]
    level = stack
    for k in range(1, depth + 1):
        if k > 1:
            nxt = np.empty((level.shape[0] * m, *stack.shape[1:]), dtype=stack.dtype)
            for i in range(m):
                nxt[i::m] = np.einsum("ij,njk->nik", stack[i], level)
            level = nxt
        yield level


def assert_levels_match_einsum(stack, depth):
    """Every level equals the reference's bit for bit; returns the levels."""
    got = list(product_levels(stack, depth))
    ref = list(einsum_levels(stack, depth))
    assert len(got) == len(ref) == depth
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype == np.complex128
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    return got


def deepest(m, d, entries):
    """The largest depth, up to 20, whose last level has at most ``entries``."""
    depth = 2
    while depth < 20 and m ** (depth + 1) * d * d <= entries:
        depth += 1
    return depth


def test_complex_levels_match_einsum_bit_for_bit():
    rng = np.random.default_rng(5)
    seen = dict.fromkeys(["several blocks", "short block", "inf", "nan", "subnormal"], False)
    for m in range(1, 6):
        for d in range(1, 9):
            stack = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
            stack.real[rng.random(stack.shape) < 0.2] = -0.0
            stack.imag[rng.random(stack.shape) < 0.2] = -0.0
            stack.flags.writeable = False  # as a MatrixSet's stack is
            # the last parent level spans up to 4 blocks
            depth = deepest(m, d, 4 * _BLOCK_ENTRIES)
            rows = _BLOCK_ENTRIES // (m * d * d)
            parents = m ** (depth - 2)
            seen["several blocks"] |= parents > rows
            seen["short block"] |= parents > rows and parents % rows != 0
            assert_levels_match_einsum(stack, depth)
            # 2^-358: length-3 products land among the subnormals
            for scale in (2.0**300, 2.0**-400, 2.0**-358):
                levels = assert_levels_match_einsum(stack * scale, deepest(m, d, 4096))
                parts = np.concatenate([lv.ravel() for lv in levels]).view(np.float64)
                seen["inf"] |= bool(np.isinf(parts).any())
                seen["nan"] |= bool(np.isnan(parts).any())
                tiny = np.abs(parts) < np.finfo(float).tiny
                seen["subnormal"] |= bool((tiny & (parts != 0)).any())
    assert all(seen.values()), seen


def test_object_levels_match_einsum():
    rng = np.random.default_rng(6)
    num, den = rng.integers(-9, 10, 27), rng.integers(1, 10, 27)
    stack = np.array([Fraction(int(a), int(b)) for a, b in zip(num, den)]).reshape(3, 3, 3)
    stack.flags.writeable = False
    got = list(product_levels(stack, 4))
    for a, b in zip(got, einsum_levels(stack, 4), strict=True):
        assert a.dtype == object and a.shape == b.shape
        assert (a == b).all()


def test_overflowing_levels_stay_silent():
    s = unipotent_pair(2.0**300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        levels = list(product_levels(s.stack, 10))
        assert not np.isfinite(levels[-1]).any()
        # the sweep does not rescale yet, so the overflow reaches the eigensolver
        with pytest.raises(EigensolverError, match="infs or NaNs"):
            jsr_estimate(s, JsrConfig(depth=10))


def test_level_temporaries_stay_a_few_blocks():
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    levels = product_levels(stack, 16)
    for _ in range(15):
        parent = next(levels)
    tracemalloc.start()
    try:
        level = next(levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert level.nbytes == 16 * 2**20 and parent.shape[0] == 2**15
    assert peak - level.nbytes < 4 * 2**20


def test_enumeration_budget():
    # the guard every caller runs before pulling levels of product_levels
    with pytest.raises(BudgetExceededError) as err:
        check_budget(2, 40, WORD_CAP, "product levels to depth 40")
    assert "cap" in str(err.value)
    assert check_budget(2, 3, WORD_CAP, "product levels to depth 3") == 14


def test_budget_depth_is_the_deepest_level_the_cap_admits():
    for m in (1, 2, 3, 4):
        caps = {0, 1, WORD_CAP}
        caps |= {count_words(m, k) + e for k in range(1, 12) for e in (-1, 0, 1)}
        for cap in caps:
            for depth in range(14):
                brute = max(k for k in range(depth + 1) if count_words(m, k) <= cap)
                assert budget_depth(m, depth, cap) == brute, (m, depth, cap)
    # one letter has a closed form: no loop over the depth
    assert budget_depth(1, 10**12, 7) == 7
    assert budget_depth(1, 7, 10**12) == 7
