import itertools
import math
import tracemalloc

import numpy as np
import pytest

from jsrkit import bounds
from jsrkit.bounds import (
    DivergentSeriesError,
    IndeterminateRankError,
    JsrConfig,
    JsrInterval,
    barabanov_approx,
    conjugation_search,
    jsr_estimate,
    lower_bound,
    nilpotency_test,
    rota_strang_norm,
    upper_bound,
)
from jsrkit.certificates import check_boca_new
from jsrkit.core import (
    SPECTRAL,
    BudgetExceededError,
    LevelNorms,
    MatrixSet,
    NormSpec,
    batch_operator_norms,
    count_words,
    eval_word,
    max_operator_norm,
    product_levels,
    set_norm,
    spectral_radius,
)
from jsrkit.families import unitary_mix
from test_core import norms_reference
from test_properties import conjugated

PHI = (1 + math.sqrt(5)) / 2


def elem(i, j, d):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1
    return m


def unipotent_pair():
    return MatrixSet.from_arrays([[[1, 1], [0, 1]], [[1, 0], [1, 1]]])


def swap_pair():
    return MatrixSet.from_arrays([elem(0, 1, 2), elem(1, 0, 2)])


# --- upper_bound -------------------------------------------------------------


def test_upper_bound_scalar():
    s = MatrixSet.from_arrays([np.array([[2.0]])])
    assert upper_bound(s, 1) == pytest.approx(2.0)


def test_upper_bound_swap_pair():
    # norms of all products are exactly one, so every depth gives 1
    assert upper_bound(swap_pair(), 2) == pytest.approx(1.0)
    assert upper_bound(swap_pair(), 5) == pytest.approx(1.0)


def test_upper_bound_monotone_in_depth():
    s = unipotent_pair()
    vals = [upper_bound(s, k) for k in range(1, 9)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_upper_bound_norm_kinds():
    s = unipotent_pair()
    for n in (NormSpec.spectral(), NormSpec.max_row_sum(), NormSpec.max_col_sum()):
        u = upper_bound(s, 6, n)
        assert u >= PHI - 1e-9  # never below the jsr


# --- lower_bound -------------------------------------------------------------


def test_lower_bound_unipotent_pair():
    val, witness = lower_bound(unipotent_pair(), 2)
    assert val == pytest.approx(PHI, abs=1e-9)
    assert witness == (0, 1)
    # the witness reproduces the value
    ev = spectral_radius(eval_word(unipotent_pair(), witness))
    assert ev ** (1 / 2) == pytest.approx(val, rel=1e-12)


def test_lower_bound_nilpotent_singleton():
    s = MatrixSet.from_arrays([elem(0, 1, 2)])
    val, witness = lower_bound(s, 3)
    assert val == 0.0
    assert witness == (0,)  # ties resolve to the shortest word


def test_witness_is_the_shortest_word_past_a_thousand_ties():
    # 1,024 level-1 words reach the first cut, and the only one that still
    # reaches the final cut is the 1,025th: the witness keeps every record
    a, b = np.diag([1 - 5e-13, 0]), np.diag([1 - 3e-13, 0])
    s = MatrixSet.from_arrays([a] * 1024 + [b, elem(0, 1, 2) * (1 + 1.2e-12), elem(1, 0, 2)])
    iv = jsr_estimate(s, JsrConfig(2, NormSpec.max_row_sum()))
    assert iv.lower == pytest.approx(1 + 6e-13, rel=1e-15)
    assert iv.lower_witness == (1024,)
    assert spectral_radius(eval_word(s, (1024,))) >= iv.lower * (1 - 1e-12)


def test_lower_bound_monotone_in_depth():
    s = unipotent_pair()
    vals = [lower_bound(s, k).value for k in range(1, 7)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


def test_lower_bound_budget():
    with pytest.raises(BudgetExceededError):
        lower_bound(swap_pair(), 25, word_cap=1000)


# --- jsr_estimate ------------------------------------------------------------


def test_estimate_collapses_for_nilpotent_set():
    s = MatrixSet.from_arrays([elem(0, 1, 2), np.zeros((2, 2))])
    iv = jsr_estimate(s, JsrConfig(depth=2))
    assert iv.lower == 0.0
    assert iv.upper == 0.0
    assert iv.upper_depth == 2


def gaussian_set(m, d, seed):
    rng = np.random.default_rng(seed)
    return MatrixSet.from_arrays(
        list(rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d)))
    )


def test_estimate_matches_separate_bounds():
    sets = [
        unipotent_pair(),
        swap_pair(),
        MatrixSet.from_arrays([np.eye(2)]),
        MatrixSet.from_arrays([elem(0, 1, 2)]),
        unitary_mix(2, count=3),
        gaussian_set(2, 3, seed=11),
        gaussian_set(3, 2, seed=12),
    ]
    depth = 6
    for s in sets:
        g = np.triu(np.ones((s.dim, s.dim))) + np.eye(s.dim)
        norms = [
            SPECTRAL,
            NormSpec.max_row_sum(),
            NormSpec.max_col_sum(),
            NormSpec.ellipsoidal(g),
        ]
        low = lower_bound(s, depth)
        ivs = [jsr_estimate(s, JsrConfig(depth=depth, norm=n)) for n in norms]
        # the lower end is the norm-independent half of the one sweep
        for n, iv in zip(norms, ivs):
            assert iv.lower == low.value
            assert iv.lower_witness == low.witness
            assert iv.diagnostics["eig_skipped"] == ivs[0].diagnostics["eig_skipped"]
            assert iv.upper == upper_bound(s, depth, n)
            assert iv.lower <= iv.upper * (1 + 1e-9)


def test_estimate_scaling_equivariance():
    s = unipotent_pair()
    c = 3.5
    iv1 = jsr_estimate(s, JsrConfig(depth=5))
    iv2 = jsr_estimate(s.scaled(c), JsrConfig(depth=5))
    assert iv2.lower == pytest.approx(c * iv1.lower, rel=1e-12)
    assert iv2.upper == pytest.approx(c * iv1.upper, rel=1e-12)
    assert iv2.lower_witness == iv1.lower_witness


def test_interval_scaled_by_modulus():
    s = unipotent_pair()
    iv = jsr_estimate(s, JsrConfig(depth=5))
    for c in (-2.0, 1j, 0.5):
        got = iv.scaled(c)
        assert (got.lower, got.upper) == (abs(c) * iv.lower, abs(c) * iv.upper)
        assert got.lower_witness == iv.lower_witness
        ref = jsr_estimate(s.scaled(c), JsrConfig(depth=5))
        assert got.lower == pytest.approx(ref.lower, rel=1e-12)
        assert got.upper == pytest.approx(ref.upper, rel=1e-12)


def test_estimate_budget_partial():
    s = swap_pair()
    iv = jsr_estimate(s, JsrConfig(depth=30, word_cap=100))
    assert iv.diagnostics["budget_exhausted"] == 1.0
    assert iv.diagnostics["depth_reached"] < 30
    assert iv.lower <= 1.0 <= iv.upper


def test_estimate_keeps_each_level_norm_under_its_norm():
    s = unipotent_pair()
    for n in (SPECTRAL, NormSpec.max_col_sum()):
        iv = jsr_estimate(s, JsrConfig(depth=30, norm=n, word_cap=100))
        assert iv.norm is n
        assert len(iv.levels) == iv.diagnostics["depth_reached"] == 5
        for row, level in zip(iv.levels, product_levels(s.stack, 5)):
            assert row == max_operator_norm(level, n)[:2]
    # norms of cS are not bit-equal to |c|^k times those of S, so a scaled
    # interval carries no record, nor does a hand-built one
    for plain in (iv.scaled(3.0), JsrInterval(0.0, 0.0, (0,), 1)):
        assert (plain.levels, plain.norm) == ((), None)


def test_estimate_early_stop():
    s = MatrixSet.from_arrays([np.eye(2)])
    iv = jsr_estimate(s, JsrConfig(depth=50, target_width=1e-12))
    assert iv.diagnostics["early_stop_width"] == 1.0
    assert iv.diagnostics["depth_reached"] < 50
    for bad in (-1e-3, math.nan):
        with pytest.raises(ValueError, match="target_width must be >= 0"):
            JsrConfig(target_width=bad)


def test_every_sweep_rejects_depth_below_one():
    s = unipotent_pair()
    for depth in (0, -2):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            jsr_estimate(s, JsrConfig(depth=depth))
    with pytest.raises(ValueError, match="depth must be >= 1"):
        lower_bound(s, 0)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        upper_bound(s, 0)


def test_estimate_counts_svds():
    rng = np.random.default_rng(23)
    s = MatrixSet.from_arrays(list(rng.standard_normal((2, 3, 3))))
    iv = jsr_estimate(s, JsrConfig(depth=8))
    diag = iv.diagnostics
    assert diag["svd_run"] + diag["svd_skipped"] == diag["words_enumerated"] == 510.0
    assert 0 < diag["svd_run"] < 100
    for n in (NormSpec.max_row_sum(), NormSpec.max_col_sum()):
        diag = jsr_estimate(s, JsrConfig(depth=8, norm=n)).diagnostics
        assert diag["svd_run"] == diag["svd_skipped"] == 0.0


def full_max_operator_norm(stack, n=SPECTRAL):
    """The reference: every row's norm through batch_operator_norms."""
    norms = batch_operator_norms(stack, n)
    i = int(np.argmax(norms))
    return LevelNorms(
        float(norms[i]), i, len(norms), 0,
        norms_reference(stack), np.abs(stack).max(axis=(1, 2)),
    )


def every_eigensolve(stack, n=SPECTRAL):
    """``max_operator_norm`` with a radius bound that skips no eigensolve."""
    return max_operator_norm(stack, n)._replace(norms=np.full((len(stack), 3), np.inf))


def differential_sets():
    rng = np.random.default_rng(29)
    u = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    sets = [
        unitary_mix(2, count=3, seed=2),  # words of unitaries tie at norm 1
        MatrixSet.from_arrays([np.zeros((2, 2)), np.zeros((2, 2))]),
        MatrixSet.from_arrays([[[0.5]], [[-1.5j]], [[1.5]]]),
        MatrixSet.from_arrays([u @ u.conj().T, 2 * u @ u.T]),  # rank one
    ]
    for m, d in ((1, 3), (2, 2), (2, 4), (3, 3)):
        mats = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
        sets.append(MatrixSet.from_arrays(list(mats * 10.0 ** rng.integers(-3, 4))))
    return sets


def test_norm_skip_matches_full_svds(monkeypatch):
    rng = np.random.default_rng(31)
    for s in differential_sets():
        d, depth = s.dim, {1: 10, 2: 7, 3: 5, 4: 4}[s.size]
        g = np.eye(d) + 0.4 * rng.standard_normal((d, d))
        for n in (SPECTRAL, NormSpec.ellipsoidal(g)):
            for level in product_levels(s.stack, depth):
                got, ref = max_operator_norm(level, n), full_max_operator_norm(level, n)
                assert (got.value, got.index) == (ref.value, ref.index)
                np.testing.assert_allclose(got.radius_bounds, ref.radius_bounds, rtol=1e-13)
                assert np.array_equal(got.scale, ref.scale)

            def run():
                iv = jsr_estimate(s, JsrConfig(depth=depth, norm=n))
                boca = check_boca_new(s, n, iv, word_cap=400)
                out = [iv.lower, iv.upper, iv.lower_witness, iv.upper_depth]
                out += [boca.lhs, boca.witnesses["word"]]
                if n is SPECTRAL:
                    r = 0.9 / iv.upper if iv.upper > 0 else 1.0
                    out.append(rota_strang_norm(s, r, np.ones(d), depth))
                return out

            fast = run()
            with monkeypatch.context() as mp:
                # check_boca_new rebuilds through jsr_estimate, so bounds' name covers it
                mp.setattr(bounds, "max_operator_norm", full_max_operator_norm)
                assert run() == fast


def test_eig_skip_matches_full_eigensolves(monkeypatch):
    rng = np.random.default_rng(37)
    skipped = 0
    for s in differential_sets():
        d, depth = s.dim, {1: 10, 2: 7, 3: 5, 4: 4}[s.size]
        g = np.eye(d) + 0.4 * rng.standard_normal((d, d))
        for n in (SPECTRAL, NormSpec.max_row_sum(), NormSpec.max_col_sum(), NormSpec.ellipsoidal(g)):
            fast = jsr_estimate(s, JsrConfig(depth=depth, norm=n))
            with monkeypatch.context() as mp:
                mp.setattr(bounds, "max_operator_norm", every_eigensolve)
                full = jsr_estimate(s, JsrConfig(depth=depth, norm=n))
            assert full.diagnostics["eig_skipped"] == 0
            skipped += fast.diagnostics["eig_skipped"]
            ends = [(iv.lower, iv.lower_witness, iv.upper, iv.upper_depth) for iv in (fast, full)]
            assert ends[0] == ends[1]
    assert skipped > 0


def answers(iv):
    return (iv.lower, iv.upper, iv.lower_witness, iv.upper_depth, iv.levels, iv.diagnostics)


def test_last_level_pruning_matches_the_whole_level(monkeypatch):
    """Every answer and count equals the sweep that builds its whole last
    level, across depth, budget and width stops; where a child's entries
    underflow only the counts may differ."""
    rng = np.random.default_rng(43)
    pruned = []
    kept_parents = bounds._kept_parents

    def spy(*args):
        keep = kept_parents(*args)
        pruned.append(keep.size - int(keep.sum()))
        return keep

    def every_parent(stack, parents, *rest):
        return np.ones(len(parents), dtype=bool)

    monkeypatch.setattr(bounds, "_kept_parents", spy)
    # on the unipotent pair many upper brackets fall between the largest
    # lower bracket and the largest norm; scaled by 2^-150, its level-6
    # norms multiply to squares below the float range
    tiny = unipotent_pair().scaled(2.0**-150)
    for s in differential_sets() + [unipotent_pair(), tiny]:
        m, d = s.size, s.dim
        depth = {1: 10, 2: 7, 3: 5, 4: 4}[m]
        g = NormSpec.ellipsoidal(np.eye(d) + 0.4 * rng.standard_normal((d, d)))
        for n in (SPECTRAL, NormSpec.max_row_sum(), NormSpec.max_col_sum(), g):
            ends = jsr_estimate(s, JsrConfig(depth=depth, norm=n))
            width = ends.width / ends.upper if ends.upper > 0 else 0.0
            configs = [JsrConfig(depth, n), JsrConfig(depth, n, target_width=width * (1 + 1e-9))]
            configs += [
                JsrConfig(depth + 2, n, count_words(m, depth) + dc) for dc in (-1, 0, 1)
            ]
            for config in configs:
                got = jsr_estimate(s, config)
                with monkeypatch.context() as mp:
                    mp.setattr(bounds, "_kept_parents", every_parent)
                    full = jsr_estimate(s, config)
                assert answers(got) == answers(full)
    assert sum(pruned) > 0

    # A = diag(1e-160, 1) times W = A Z = diag(1e-160, 0) comes out as
    # diag(1e-320, 0) under a normal product bound of 1e-160: the whole
    # level SVDs and eigensolves it, the pruned sweep drops it, and only
    # those counts differ
    spread = MatrixSet.from_arrays([np.diag([1e-160, 1.0]), np.diag([1.0, 0.0])])
    for n in (SPECTRAL, NormSpec.max_row_sum(), NormSpec.max_col_sum()):
        got = jsr_estimate(spread, JsrConfig(3, n))
        with monkeypatch.context() as mp:
            mp.setattr(bounds, "_kept_parents", every_parent)
            full = jsr_estimate(spread, JsrConfig(3, n))
        assert got.diagnostics["eig_skipped"] > full.diagnostics["eig_skipped"]
        for iv in (got, full):
            for count in ("svd_run", "svd_skipped", "eig_skipped"):
                del iv.diagnostics[count]
        assert answers(got) == answers(full)


def test_last_level_is_not_allocated_whole():
    # half the bytes of the (4, 4, 8) sweep's last level; the whole level is
    # 16 MiB, and only its parents (a quarter of it) live at the end
    s = gaussian_set(4, 4, seed=47)
    tracemalloc.start()
    try:
        jsr_estimate(s, JsrConfig(depth=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4**8 * 16 * 16 // 2


# --- conjugation_search ------------------------------------------------------


def test_conjugation_search_triangular():
    s = MatrixSet.from_arrays([[[1, 100], [0, 0.5]]])
    g, value = conjugation_search(s, iterations=60)
    assert value <= 1.5
    assert g.dtype == np.complex128 and not g.flags.writeable
    # reproducibility: conjugating by the returned g gives the same norm
    conj = conjugated(s, g)
    assert set_norm(conj) == pytest.approx(value, rel=1e-9)


def test_conjugation_search_hidden_unitaries():
    rng = np.random.default_rng(5)
    g0 = np.diag([1.0, 60.0]) @ (np.eye(2) + 0.3 * rng.standard_normal((2, 2)))
    us = []
    for _ in range(2):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        us.append(q * (np.diag(r) / np.abs(np.diag(r))))
    g0_inv = np.linalg.inv(g0)
    s = MatrixSet.from_arrays([g0_inv @ u @ g0 for u in us])
    assert set_norm(s) > 2.0  # badly conditioned as given
    _, value = conjugation_search(s, iterations=800)
    assert value <= 1 + 1e-3


def test_conjugation_search_never_worse_than_identity():
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = MatrixSet.from_arrays([rng.standard_normal((3, 3)) for _ in range(2)])
        _, value = conjugation_search(s, iterations=40)
        assert value <= set_norm(s) * (1 + 1e-12)


def test_conjugation_search_john_style_bound():
    # for irreducible sets a good conjugation gets within a dimension factor
    # of the jsr; check value <= d * upper * (1 + tol) on seeded instances
    rng = np.random.default_rng(123)
    for trial in range(20):
        d = int(rng.integers(2, 4))
        count = int(rng.integers(2, min(d * d, 4) + 1))
        s = MatrixSet.from_arrays(
            [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(count)]
        )
        iv = jsr_estimate(s, JsrConfig(depth=6))
        _, value = conjugation_search(s, iterations=250)
        assert value <= d * iv.upper * (1 + 1e-9)
        assert value >= iv.lower * (1 - 1e-9)  # a norm never undercuts the jsr


# --- rota_strang_norm --------------------------------------------------------


def test_rota_strang_half_identity():
    s = MatrixSet.from_arrays([np.eye(2) / 2])
    x = np.array([1.0, 0.0])
    value, tail = rota_strang_norm(s, 1.0, x, 10)
    assert value == pytest.approx(2 - 2.0**-10, rel=1e-12)
    assert tail <= 2.0**-10 + 1e-15
    assert value + tail >= 2.0  # encloses the true series value


def test_rota_strang_swap_pair():
    value, tail = rota_strang_norm(swap_pair(), 0.5, np.array([1.0, 0.0]), 12)
    assert value == pytest.approx(2 - 2.0**-12, rel=1e-12)
    assert tail <= 2.0**-11


def test_rota_strang_zero_set():
    s = MatrixSet.from_arrays([np.zeros((2, 2))])
    value, tail = rota_strang_norm(s, 123.0, np.array([1.0, 0.0]), 2)
    assert value == 1.0  # only the n = 0 term survives
    assert tail == 0.0


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_rota_strang_rejects_non_positive_r(r):
    # on the zero set an infinite r once gave 0 * inf = NaN terms
    for s in (swap_pair(), MatrixSet.from_arrays([np.zeros((2, 2))])):
        with pytest.raises(ValueError, match="r must be positive"):
            rota_strang_norm(s, r, np.array([1.0, 0.0]), 3)


def test_rota_strang_divergent():
    s = MatrixSet.from_arrays([2 * np.eye(2)])
    with pytest.raises(DivergentSeriesError) as err:
        rota_strang_norm(s, 0.5, np.array([1.0, 0.0]), 5)
    assert "r*upper" in str(err.value)


# --- barabanov_approx --------------------------------------------------------


def test_barabanov_identity_set():
    s = MatrixSet.from_arrays([np.eye(2)])
    pn = barabanov_approx(s, 1.0, 3)
    assert pn.slack == pytest.approx(0.0, abs=1e-12)
    x = np.array([3.0, 4.0j])
    assert pn.evaluate(x) == pytest.approx(5.0)


def test_barabanov_contractions_under_identity():
    # {I} plus strict contractions: the scaled products never beat the
    # identity, so v is the euclidean norm and the slack is <= 0
    rng = np.random.default_rng(3)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    s = MatrixSet.from_arrays([np.eye(2), 0.5 * u])
    pn = barabanov_approx(s, 1.0, 4)
    assert pn.slack <= 1e-12
    assert pn.evaluate([1.0, 0.0]) == pytest.approx(1.0)


def test_barabanov_words_match_matrices():
    rng = np.random.default_rng(4)
    s = MatrixSet.from_arrays([rng.integers(-2, 3, (2, 2)) for _ in range(3)])
    rho_hat = 2.0  # a power of two scales exactly
    pn = barabanov_approx(s, rho_hat, 3)
    # rows run over the empty word, then each length in itertools.product order
    words = [()] + [w for k in (1, 2, 3) for w in itertools.product(range(3), repeat=k)]
    assert pn.matrices.shape[0] == len(words) == 1 + 3 + 9 + 27
    for word, mat in zip(words, pn.matrices):
        assert np.array_equal(mat, eval_word(s, word) * rho_hat ** -len(word))


def test_barabanov_unipotent_slack_shrinks():
    s = unipotent_pair()
    shallow = barabanov_approx(s, PHI, 2)
    deep = barabanov_approx(s, PHI, 8)
    assert deep.slack <= 0.05
    assert deep.slack <= shallow.slack + 1e-12
    # one-step growth respects the stored slack on fresh directions
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vx = deep.evaluate(x)
        for m in s.stack:
            assert deep.evaluate(m @ x) <= PHI * vx * (1 + deep.slack + 1e-9)


def test_barabanov_rejects_bad_rho():
    with pytest.raises(ValueError):
        barabanov_approx(unipotent_pair(), 0.0, 2)
    # an unbounded or undefined rho_hat would give a meaningless slack
    for rho_hat in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            barabanov_approx(unipotent_pair(), rho_hat, 2)
        # the budget is checked first, as on a run whose cap admits no level
        with pytest.raises(BudgetExceededError):
            barabanov_approx(unipotent_pair(), rho_hat, 2, word_cap=1)


@pytest.mark.parametrize("sample_size", [0, -2])
def test_barabanov_rejects_empty_sample(sample_size):
    with pytest.raises(ValueError, match="sample_size must be >= 1"):
        barabanov_approx(unipotent_pair(), 1.0, 2, sample_size=sample_size)


# --- nilpotency_test ---------------------------------------------------------


def test_nilpotency_single_nilpotent():
    assert nilpotency_test(MatrixSet.from_arrays([elem(0, 1, 2)])) == (True, 1)


def test_nilpotency_swap_pair_full_algebra():
    res = nilpotency_test(swap_pair())
    assert res == (False, 4)


def test_nilpotency_identity():
    assert nilpotency_test(MatrixSet.from_arrays([np.eye(2)])) == (False, 1)


def test_nilpotency_strictly_triangular_pair():
    s = MatrixSet.from_arrays([elem(0, 1, 3), elem(1, 2, 3)])
    nil, dim = nilpotency_test(s)
    assert nil
    assert dim == 3  # E12, E23, and their product E13


def test_nilpotency_indeterminate_band():
    s = MatrixSet.from_arrays([elem(0, 1, 2) + 3e-8 * elem(1, 0, 2)])
    with pytest.raises(IndeterminateRankError):
        nilpotency_test(s)


def test_nilpotent_implies_zero_upper_bound():
    s = MatrixSet.from_arrays([elem(0, 1, 3), elem(1, 2, 3)])
    assert nilpotency_test(s).nilpotent
    assert upper_bound(s, 3) <= 1e-12
