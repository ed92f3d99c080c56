"""Monotone Fock truncation: relations, normally ordered words, and the
segment of spreading-invariant states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab.monotone import (
    VACUUM,
    LambdaForm,
    MonotoneBasis,
    diagonal_number_words,
    lambda_forms,
)
from spreadlab.operators import (
    Kind,
    Letter,
    Word,
    annihilator,
    creator,
    evaluate_word,
    label_state,
    mixture,
    word,
)
from spreadlab.suites import SUITES, RunConfig, smallest_singular_value
from spreadlab.symmetry import check_symmetry, spreading_family


@pytest.fixture(scope="module")
def basis():
    return MonotoneBasis((0, 4), 3)


def hand_matrices(b, i):
    """Creator and annihilator at i by the tuple rule, written out here so the
    matrix route does not go through the model's label action."""
    c = np.zeros((b.dim, b.dim))
    a = np.zeros((b.dim, b.dim))
    for col, t in enumerate(b.labels):
        if len(t) < b.depth and (not t or i < t[0]):
            c[b.labels.index((i,) + t), col] = 1.0
        if t and t[0] == i:
            a[b.labels.index(t[1:]), col] = 1.0
    return c, a


def hand_word_matrix(b, letters):
    m = np.eye(b.dim)
    for kind, i in letters:
        c, a = hand_matrices(b, i)
        m = m @ {Kind.CREATOR: c, Kind.ANNIHILATOR: a, Kind.POSITION: c + a}[kind]
    return m


# ---------------------------------------------------------------------------
# Creation and annihilation


def test_creator_prepends_when_below_head(basis):
    assert basis.act(Kind.CREATOR, 0, (1, 2)) == [((0, 1, 2), 1)]


def test_creator_kills_when_not_below_head(basis):
    assert basis.act(Kind.CREATOR, 2, (1, 3)) == []
    assert basis.act(Kind.CREATOR, 1, (1, 3)) == []


def test_creator_respects_depth_cap(basis):
    assert basis.act(Kind.CREATOR, 0, (1, 2, 3)) == []


def test_annihilator_strips_matching_head(basis):
    assert basis.act(Kind.ANNIHILATOR, 1, (1, 2)) == [((2,), 1)]
    assert basis.act(Kind.ANNIHILATOR, 2, (1, 2)) == []
    assert basis.act(Kind.ANNIHILATOR, 0, VACUUM) == []


def test_index_outside_window_rejected(basis):
    with pytest.raises(IndexError):
        basis.creator(7)
    with pytest.raises(IndexError):
        basis.apply_word(word(annihilator(-3)), {(0,): 1.0})


def test_creator_annihilator_mutually_adjoint(basis):
    for i in range(0, 5):
        c = basis.creator(i).matrix
        a = basis.annihilator(i).matrix
        assert np.array_equal(c.conj().T, a)


def test_label_count(basis):
    from math import comb

    assert basis.dim == sum(comb(5, k) for k in range(4))
    assert basis.labels[0] == VACUUM
    # graded lexicographic order
    lengths = [len(t) for t in basis.labels]
    assert lengths == sorted(lengths)


def test_depth_beyond_the_window_costs_bounded_work(monkeypatch):
    from spreadlab import monotone

    calls = []

    def counted(real):
        def call(*args):
            calls.append(args)
            if len(calls) > 20:  # one per label length: at most 9 each
                raise AssertionError("the loop runs to the depth, not the window")
            return real(*args)

        return call

    monkeypatch.setattr(monotone, "comb", counted(math.comb))
    monkeypatch.setattr(monotone, "combinations", counted(monotone.combinations))
    # No strictly increasing tuple over 8 indices is longer than 8.
    basis = MonotoneBasis((0, 7), 10**6)
    assert basis.dim == 256
    assert len(basis.labels) == 256


# ---------------------------------------------------------------------------
# Algebra relations


@pytest.mark.parametrize("depth,window", [(3, (0, 4)), (4, (0, 7))])
def test_zero_relations(depth, window):
    b = MonotoneBasis(window, depth)
    lo, hi = window
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            if i >= j:
                assert (b.creator(i) @ b.creator(j)).is_zero()
                assert (b.annihilator(j) @ b.annihilator(i)).is_zero()
            if i != j:
                assert (b.annihilator(i) @ b.creator(j)).is_zero()


def test_commutation_identity_off_truncated_columns():
    b = MonotoneBasis((0, 4), 3)
    eye = np.eye(b.dim)
    for i in range(0, 5):
        lhs = (b.annihilator(i) @ b.creator(i)).matrix
        rhs = eye - sum(
            (b.creator(k) @ b.annihilator(k)).matrix for k in range(0, i + 1)
        )
        excluded = {b.space.index(t) for t in b.truncation_columns(i)}
        keep = [c for c in range(b.dim) if c not in excluded]
        assert np.array_equal(lhs[:, keep], rhs[:, keep])
        # and the identity genuinely fails on the computed exclusion columns
        if excluded:
            cols = sorted(excluded)
            assert not np.array_equal(lhs[:, cols], rhs[:, cols])


def test_truncation_columns_are_top_level(basis):
    for i in range(0, 5):
        cols = basis.truncation_columns(i)
        assert all(len(t) == basis.depth for t in cols)
        assert all(i < t[0] for t in cols)


# ---------------------------------------------------------------------------
# Normally ordered words


def test_lambda_form_validation():
    with pytest.raises(ValueError):
        LambdaForm((1, 0), ())
    with pytest.raises(ValueError):
        LambdaForm((), (0, 1))


def test_identity_form(basis):
    form = LambdaForm()
    assert form.length == 0
    assert np.array_equal(evaluate_word(basis, form.word()).matrix, np.eye(basis.dim))


def test_number_form_is_diagonal_on_head(basis):
    m = evaluate_word(basis, LambdaForm((0,), (0,)).word()).matrix
    expected = np.zeros_like(m)
    for t in basis.labels:
        if t and t[0] == 0:
            k = basis.space.index(t)
            expected[k, k] = 1.0
    assert np.array_equal(m, expected)


def test_two_creator_form_on_vacuum():
    b = MonotoneBasis((0, 3), 2)
    out = evaluate_word(b, LambdaForm((0, 1), ()).word()).matrix @ b.space.basis_vector(VACUUM)
    assert np.array_equal(out, b.space.basis_vector((0, 1)))


def test_lambda_text_roundtrip():
    form = LambdaForm((0, 2), (3, 1))
    assert form.to_text() == "D[0,2]A[3,1]"
    assert LambdaForm.from_text(form.to_text()) == form
    assert LambdaForm.from_text("D[]A[]") == LambdaForm()
    with pytest.raises(ValueError):
        LambdaForm.from_text("D[0")


# ---------------------------------------------------------------------------
# Vacuum and the state at infinity


def test_vacuum_values(basis):
    om = basis.vacuum_state()
    assert om(word(annihilator(0), creator(0))) == 1
    assert om(word(creator(0), annihilator(0))) == 0


def test_infinity_values(basis):
    oo = basis.state_at_infinity()
    assert oo(word(annihilator(0), creator(0))) == 1
    assert oo(word(creator(0), annihilator(0))) == 0


def test_infinity_probe_independent_of_probe_choice(basis):
    # Every label state at a probe above the word's indices reads the same
    # value, and the state at infinity is that value.
    oo = basis.state_at_infinity()
    words = [f.word() for f in lambda_forms(range(0, 2), 2, 2)]
    words += list(diagonal_number_words(range(0, 2)))
    for w in words:
        top = max(w.indices())
        values = {label_state(basis, (j,))(w) for j in range(top + 1, 5)}
        assert values == {oo(w)}


def test_infinity_window_reserves_probe(basis):
    oo = basis.state_at_infinity()
    assert oo.window == (0, 3)
    touching = word(annihilator(4), creator(4))
    assert not oo.admits(touching)
    with pytest.raises(IndexError):
        oo(word(creator(4)))
    with pytest.raises(IndexError):
        oo(touching)
    # At the probe itself the label state is no longer the limit value.
    assert label_state(basis, (4,))(touching) == 0
    assert oo(word(annihilator(3), creator(3))) == 1


def test_states_match_matrix_route(basis):
    # The walker states against hand-built matrix products at the same entries.
    om = basis.vacuum_state()
    oo = basis.state_at_infinity()
    words = [f.word() for f in lambda_forms(range(0, 3), 2, 2)]
    words += list(diagonal_number_words(range(0, 3)))
    vac, probe = basis.labels.index(VACUUM), basis.labels.index((4,))
    for w in words:
        m = hand_word_matrix(basis, [(l.kind, l.index) for l in w.letters])
        assert om(w) == m[vac, vac]
        assert oo(w) == m[probe, probe]


def test_matrices_match_hand_built(basis):
    for i in range(0, 5):
        c, a = hand_matrices(basis, i)
        assert np.array_equal(basis.creator(i).matrix, c)
        assert np.array_equal(basis.annihilator(i).matrix, a)
        assert np.array_equal(basis.position(i).matrix, c + a)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_walker_matches_hand_built_product(basis, data):
    label = data.draw(st.sampled_from(basis.labels))
    letters = data.draw(
        st.lists(
            st.tuples(st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION]),
                      st.integers(0, 4)),
            max_size=4,
        )
    )
    w = Word(tuple(Letter(kind, i) for kind, i in letters))
    got = np.zeros(basis.dim)
    for image, coeff in basis.apply_word(w, {label: 1.0}).items():
        got[basis.labels.index(image)] += coeff
    expected = hand_word_matrix(basis, letters)[:, basis.labels.index(label)]
    assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# Linear independence of the normally-ordered family


def test_hamel_family_independent_at_desk_scale():
    b = MonotoneBasis((0, 4), 4)
    rows = []
    for form in lambda_forms(range(0, 5), 2, 2):
        if form.creators == form.annihilators and form.length == 2:
            continue  # the diagonal pairs enter through the reversed product
        rows.append(evaluate_word(b, form.word()).matrix.ravel())
    for w in diagonal_number_words(range(0, 5)):
        rows.append(evaluate_word(b, w).matrix.ravel())
    rows.append(np.eye(b.dim, dtype=complex).ravel())
    sigma = np.linalg.svd(np.array(rows), compute_uv=False)
    assert len(rows) == 256
    assert sigma[-1] > 1e-8
    # the suite finds the same value blockwise, from walked rows
    report = SUITES["monotone"]["hamel"](RunConfig())
    assert report.details["sigma_min"] == pytest.approx(sigma[-1], rel=1e-12)


_ENTRY = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 9), _ENTRY, max_size=3), min_size=1, max_size=8))
def test_smallest_singular_value_matches_dense_svd(rows):
    # Up to 8 rows over 10 columns: empty rows, rows sharing columns and
    # blocks with more rows than columns all occur.
    dense = np.zeros((len(rows), 10), dtype=complex)
    for r, row in enumerate(rows):
        for c, value in row.items():
            dense[r, c] = value
    expected = np.linalg.svd(dense, compute_uv=False)[-1]
    assert smallest_singular_value(rows) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_hamel_family_size_closed_form(width):
    report = SUITES["monotone"]["hamel"](RunConfig(window=(0, width - 1), depth=2))
    assert report.details["family_size"] == (1 + width + math.comb(width, 2)) ** 2


# ---------------------------------------------------------------------------
# The invariant-state segment


def simplex_words():
    return [f.word() for f in lambda_forms(range(-3, 4), 4, 4, max_length=4)]


def test_mixtures_pass_spreading_check():
    b = MonotoneBasis((-6, 9), 4)
    om = b.vacuum_state()
    oo = b.state_at_infinity()
    words = simplex_words()
    family = spreading_family(-2, 2, n_random=20, seed=11)
    for x in (0.0, 0.25, 0.5, 1.0):
        report = check_symmetry(mixture(oo, om, x), words, family, tol=1e-12)
        assert report.passed, f"x={x}: {report.witnesses}"
        assert report.max_deviation == 0.0


def test_vector_state_fails_spreading_with_witness():
    b = MonotoneBasis((-6, 9), 4)
    phi = b.vector_state((0,))
    family = spreading_family(-2, 2, n_random=0, seed=0)
    report = check_symmetry(phi, simplex_words(), family, tol=1e-12)
    assert not report.passed
    assert report.witnesses
    # the number word at 0 moves to index 1 under theta(0) and drops to 0
    assert phi(word(creator(0), annihilator(0))) == 1
    assert phi(word(creator(1), annihilator(1))) == 0
