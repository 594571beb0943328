import numpy as np
import pytest

from jsrkit.core import (
    BudgetExceededError,
    ComplexMatrix,
    MatrixSet,
    NormSpec,
    count_words,
    eval_word,
    operator_norm,
    product_levels,
    product_set,
    set_norm,
    spectral_radius,
    vector_norm,
    word_from_index,
)

PHI = (1 + np.sqrt(5)) / 2


def elem(i, j, d):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1
    return m


def test_matrix_validation():
    with pytest.raises(ValueError):
        ComplexMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ComplexMatrix(np.array([[np.inf, 0], [0, 0]]))
    with pytest.raises(ValueError):
        ComplexMatrix(np.array([[np.nan, 0], [0, 0]]))
    m = ComplexMatrix([[1, 2], [3, 4]])
    assert m.dim == 2
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0  # read-only


def test_matrix_set_validation():
    with pytest.raises(ValueError):
        MatrixSet.from_arrays([])
    with pytest.raises(ValueError):
        MatrixSet.from_arrays([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        MatrixSet.from_arrays([np.eye(40)])  # beyond the dimension cap
    s = MatrixSet.from_arrays([np.eye(2), np.eye(2)])
    assert s.warnings  # duplicates flagged, not rejected
    assert s.size == 2


def test_eval_word_order():
    # rightmost letter acts first: eval((0,1)) = m1 @ m0
    s = MatrixSet.from_arrays([elem(0, 1, 2), elem(1, 0, 2)])
    out = eval_word(s, (0, 1))
    assert np.array_equal(out, elem(1, 1, 2))  # E21 E12 = E22
    assert np.array_equal(eval_word(s, ()), np.eye(2))
    with pytest.raises(ValueError):
        eval_word(s, (0, 2))


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


def enumerate_levels(s, depth):
    """(word, product) pairs of every level, in the engine's row order."""
    return [
        (word_from_index(i, k, s.size), level[i])
        for k, level in enumerate(product_levels(s, depth), start=1)
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
        s = MatrixSet.from_arrays(
            [rng.integers(-3, 4, (3, 3)) for _ in range(m)], check_duplicates=False
        )
        levels = list(product_levels(s, 4))
        assert [lv.shape for lv in levels] == [(m**k, 3, 3) for k in range(1, 5)]
        for k, level in enumerate(levels, start=1):
            for i in range(m**k):
                word = word_from_index(i, k, m)
                assert len(word) == k
                assert np.array_equal(level[i], eval_word(s, word))


def test_enumeration_budget():
    s = MatrixSet.from_arrays([np.eye(2), 2 * np.eye(2)])
    with pytest.raises(BudgetExceededError) as err:
        product_set(s, 40)
    assert "cap" in str(err.value)


def test_product_set():
    s = MatrixSet.from_arrays([elem(0, 1, 2), elem(1, 0, 2)])
    sq = product_set(s, 2)
    assert sq.size == 4
    # index = i1 * size + i2 in word order (i1 first-applied)
    assert np.array_equal(sq.members[0 * 2 + 1].entries, eval_word(s, (0, 1)))
    assert np.array_equal(sq.members[1 * 2 + 0].entries, eval_word(s, (1, 0)))
