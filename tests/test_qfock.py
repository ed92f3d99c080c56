"""Deformed Fock truncation: inner product, relations, vacuum invariance."""

import ast
import math
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab import qfock, suites
from spreadlab.operators import (
    Kind,
    Letter,
    Word,
    annihilator,
    creator,
    metric_adjoint,
    position,
    word,
)
from spreadlab.qfock import (
    QBasis,
    inversions,
    q_inner,
    q_pairings,
    q_inner_recursive,
    words_over,
)
from spreadlab.suites import RELATIONS_Q, RunConfig, run_suites
from spreadlab.symmetry import (
    check_symmetry,
    permutation_family,
    shift_family,
    spreading_family,
)

Q_GRID = (-0.9, -0.5, 0.0, 0.5, 0.9)


def hand_matrices(b, j):
    """Creator and annihilator at j by the tuple rules, written out here so
    the matrix route does not go through the model's label action."""
    c = np.zeros((b.dim, b.dim))
    a = np.zeros((b.dim, b.dim))
    for col, t in enumerate(b.labels):
        if len(t) < b.depth:
            c[b.labels.index((j,) + t), col] = 1.0
        for k, entry in enumerate(t):
            if entry == j:
                a[b.labels.index(t[:k] + t[k + 1 :]), col] += b.q**k
    return c, a


def hand_word_matrix(b, letters):
    m = np.eye(b.dim)
    for kind, j in letters:
        c, a = hand_matrices(b, j)
        m = m @ {Kind.CREATOR: c, Kind.ANNIHILATOR: a, Kind.POSITION: c + a}[kind]
    return m


def recursive_inner(u, v, q):
    """Independent oracle: peel the first entry of u through the annihilator
    rule instead of enumerating permutations."""
    if len(u) != len(v):
        return 0 * q**0
    if not u:
        return q**0
    total = 0 * q**0
    for k, entry in enumerate(v):
        if entry == u[0]:
            total += q**k * recursive_inner(u[1:], v[:k] + v[k + 1 :], q)
    return total


# ---------------------------------------------------------------------------
# Inner product


def test_inner_product_examples():
    assert q_inner((1, 2), (1, 2), 0.5) == 1
    assert q_inner((1, 1), (1, 1), 0.5) == 1.5
    assert q_inner((1, 2), (2, 1), 0.5) == 0.5
    assert q_inner((1,), (1, 1), 0.5) == 0


def test_inner_product_zero_q_is_free():
    # 0**0 = 1 keeps exactly the identity permutation at q = 0.
    assert q_inner((1, 1, 2), (1, 1, 2), 0.0) == 1
    assert q_inner((1, 2), (2, 1), 0.0) == 0


def test_inner_product_matches_recursion_exactly():
    q = Fraction(1, 2)
    alphabet = range(3)
    for n in range(5):
        for u in product(alphabet, repeat=n):
            for v in product(alphabet, repeat=n):
                assert q_inner(u, v, q) == recursive_inner(u, v, q)


@given(
    u=st.lists(st.integers(0, 2), max_size=4),
    v=st.lists(st.integers(0, 2), max_size=4),
    num=st.integers(-9, 9),
)
@settings(max_examples=150)
def test_inner_product_symmetric_and_matches_oracle(u, v, num):
    q = Fraction(num, 10)
    u, v = tuple(u), tuple(v)
    assert q_inner(u, v, q) == q_inner(v, u, q)
    assert q_inner(u, v, q) == recursive_inner(u, v, q)
    assert q_inner_recursive(u, v, q) == recursive_inner(u, v, q)


def enumerated_inner(u, v, q):
    """The inner product by enumerating every permutation, for every pair of
    equal length."""
    if len(u) != len(v):
        return 0 * q**0
    n = len(u)
    total = 0 * q**0
    for pi in permutations(range(n)):
        if all(u[k] == v[pi[k]] for k in range(n)):
            total += q ** inversions(pi)
    return total


def same_value(a, b):
    """Equal, of one type, and (for floats) with the same sign of zero."""
    return a == b and type(a) is type(b) and math.copysign(1, a) == math.copysign(1, b)


@given(
    u=st.lists(st.integers(0, 2), max_size=5),
    v=st.lists(st.integers(0, 2), max_size=5),
    q=st.sampled_from(Q_GRID) | st.floats(-0.99, 0.99)
    | st.fractions(Fraction(-99, 100), Fraction(99, 100), max_denominator=1000),
)
@settings(max_examples=400)
def test_multiset_guard_matches_full_enumeration(u, v, q):
    u, v = tuple(u), tuple(v)
    for a, b in ((u, v), (u, tuple(sorted(u))), (u, u[::-1]), (u, v[: len(u)])):
        assert same_value(q_inner(a, b, q), enumerated_inner(a, b, q))
        assert same_value(q_inner_recursive(a, b, q), recursive_inner(a, b, q))


@given(
    v=st.lists(st.integers(0, 2), max_size=5),
    q=st.sampled_from(Q_GRID) | st.floats(-0.99, 0.99)
    | st.fractions(Fraction(-99, 100), Fraction(99, 100), max_denominator=1000),
)
@settings(max_examples=200)
def test_pairings_are_q_inner_of_every_rearrangement(v, q):
    # One enumeration gives every pairing the vector state reads, each equal
    # to the pairwise enumeration in value, type and sign of zero, and q_inner
    # reads it.
    v = tuple(v)
    pairings = q_pairings(v, q)
    assert set(pairings) == set(permutations(v))
    for u, value in pairings.items():
        assert same_value(value, enumerated_inner(u, v, q))
        assert same_value(q_inner(u, v, q), value)


def test_inversions():
    assert inversions((0, 1, 2)) == 0
    assert inversions((2, 1, 0)) == 3


# ---------------------------------------------------------------------------
# Gram matrices


def test_gram_zero_q_is_identity():
    basis = QBasis((0, 1), 2, 0.0)
    assert np.array_equal(basis.gram, np.eye(basis.dim))


def test_gram_level_one_block_is_identity():
    basis = QBasis((0, 2), 2, 0.7)
    level_one = [i for i, t in enumerate(basis.labels) if len(t) == 1]
    block = basis.gram[np.ix_(level_one, level_one)]
    assert np.array_equal(block, np.eye(3))


def test_gram_triple_repeat_value():
    basis = QBasis((1, 1), 3, 0.5)
    top = basis.space.index((1, 1, 1))
    assert basis.gram[top, top] == pytest.approx(2.625)  # (1+q)(1+q+q^2)


@pytest.mark.parametrize("window, depth", [((0, 1), 3), ((-1, 1), 3)])
@pytest.mark.parametrize("q", Q_GRID)
def test_gram_is_q_inner_entrywise(window, depth, q):
    # The column-by-column enumeration against the pairwise enumeration, on
    # every pair of labels, lengths that differ included.
    basis = QBasis(window, depth, q)
    expected = [[float(enumerated_inner(u, v, q)) for v in basis.labels] for u in basis.labels]
    assert np.array_equal(basis.gram, np.array(expected))


@pytest.mark.parametrize("q", Q_GRID)
def test_gram_positive_definite(q):
    basis = QBasis((0, 2), 3, q)
    assert np.linalg.eigvalsh(basis.gram)[0] > 0


def test_bad_deformation_rejected():
    with pytest.raises(ValueError):
        QBasis((0, 1), 2, 1.0)
    with pytest.raises(ValueError):
        QBasis((0, 1), 2, -1.3)


def test_label_count_and_order():
    basis = QBasis((0, 2), 3, 0.5)
    assert basis.dim == 1 + 3 + 9 + 27
    lengths = [len(t) for t in basis.labels]
    assert lengths == sorted(lengths)
    assert basis.labels[0] == ()


# ---------------------------------------------------------------------------
# Creation / annihilation / position


def test_annihilator_slot_weights():
    basis = QBasis((1, 2), 2, 0.5)
    assert basis.act(Kind.ANNIHILATOR, 1, (1, 2)) == [((2,), 1.0)]
    assert basis.act(Kind.ANNIHILATOR, 1, (2, 1)) == [((2,), 0.5)]
    assert basis.act(Kind.ANNIHILATOR, 1, ()) == []


def test_creator_prepends_and_caps():
    basis = QBasis((1, 2), 2, 0.5)
    assert basis.act(Kind.CREATOR, 1, (2,)) == [((1, 2), 1)]
    assert basis.act(Kind.CREATOR, 1, (1, 2)) == []


def test_position_on_vacuum():
    basis = QBasis((0, 2), 2, 0.5)
    out = basis.apply_word(word(position(1)), {(): 1.0})
    assert out == {(1,): 1.0}


def test_position_metric_self_adjoint():
    basis = QBasis((0, 2), 3, 0.5)
    for j in range(0, 3):
        s = basis.position(j)
        assert np.allclose(metric_adjoint(s, basis.gram).matrix, s.matrix, atol=1e-10)


def test_position_square_vacuum_moment():
    basis = QBasis((0, 2), 3, 0.5)
    om = basis.vacuum_state()
    assert om(word(position(1), position(1))) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("q", Q_GRID)
def test_annihilator_creator_metric_adjoint(q):
    basis = QBasis((0, 2), 3, q)
    for j in range(0, 3):
        got = metric_adjoint(basis.annihilator(j), basis.gram)
        assert np.allclose(got.matrix, basis.creator(j).matrix, atol=1e-10)


def _relations_report():
    return run_suites(RunConfig(model="qdeformed", suites=("relations",)))[0]


@pytest.mark.parametrize("q", RELATIONS_Q, ids=str)
def test_relations_suite_is_exact_at_each_rational_q(q, monkeypatch):
    basis = QBasis((0, 2), 3, q)
    images = [basis.act(Kind.ANNIHILATOR, j, t) for t in basis.labels for j in range(3)]
    weights = [w for image in images for _, w in image]
    assert weights and all(type(w) is Fraction for w in weights)
    monkeypatch.setattr(suites, "RELATIONS_Q", (q,))
    report = _relations_report()
    assert report.passed and report.samples == 9 and report.max_deviation == 0.0
    assert report.details["adjoint_deviation"] == 0.0
    assert report.details["commutation_deviation"] == 0.0
    assert report.details["exact_q"] == [str(q)]


def test_relations_report_at_the_default_grid():
    report = _relations_report()
    assert report.passed and report.samples == 45 and report.max_deviation == 0.0
    assert report.details == {
        "adjoint_deviation": 0.0,
        "commutation_deviation": 0.0,
        "exact_q": ["-9/10", "-1/2", "0", "1/2", "9/10"],
        "gram_min_eigenvalue": 0.018999999999999323,
    }


# Wrong annihilator slot weights, in place of q**k.
WRONG_WEIGHTS = {"q**(k+1)": lambda q, k: q ** (k + 1), "(-q)**k": lambda q, k: (-q) ** k}


@pytest.mark.parametrize("weight", WRONG_WEIGHTS.values(), ids=WRONG_WEIGHTS)
def test_relations_suite_catches_a_wrong_annihilator_weight(weight, monkeypatch):
    act = QBasis.act

    def mutant(self, kind, j, label):
        if kind is Kind.CREATOR:
            return act(self, kind, j, label)
        return [
            (label[:k] + label[k + 1 :], weight(self.q, k)) for k, e in enumerate(label) if e == j
        ]

    monkeypatch.setattr(QBasis, "act", mutant)
    report = _relations_report()
    assert not report.passed
    assert report.details["adjoint_deviation"] > 0
    assert report.details["commutation_deviation"] > 0
    basis = QBasis((0, 2), 3, Fraction(1, 2))
    duals = {v: q_pairings(v, basis.q) for v in basis.labels}
    raised = suites._letter_form(basis, creator(0), duals)
    lowered = suites._letter_form(basis, annihilator(0), duals)
    defects = [x - lowered.get((v, u), 0) for (u, v), x in raised.items()]
    assert any(defects) and all(type(d) is Fraction for d in defects)


Q_VALUES = (st.sampled_from(Q_GRID) | st.floats(-0.99, 0.99)
            | st.fractions(Fraction(-99, 100), Fraction(99, 100), max_denominator=1000))


@given(
    pairs=st.lists(st.tuples(st.lists(st.integers(0, 2), max_size=5),
                             st.lists(st.integers(0, 2), max_size=5)), max_size=6),
    q=Q_VALUES,
)
@settings(max_examples=200)
def test_sub_pair_table_changes_no_value(pairs, q):
    memo = {}
    longest = 0
    for u, v in pairs:
        u, v = tuple(u), tuple(v)
        # Also each tuple against a rearrangement of itself, where the
        # recursion goes deepest.
        for a, b in ((u, v), (u, u[::-1]), (v, tuple(sorted(v)))):
            assert same_value(q_inner_recursive(a, b, q, memo), recursive_inner(a, b, q))
            longest = max(longest, len(a))
    assert all(len(a) == len(b) < longest for a, b in memo)
    for (a, b), value in memo.items():
        assert same_value(value, recursive_inner(a, b, q))


def per_permutation_pairings(v, q):
    """q_pairings computing the zero and q**inversions(pi) for every
    permutation afresh."""
    out = {}
    for pi in permutations(range(len(v))):
        u = tuple(v[k] for k in pi)
        out[u] = out.get(u, 0 * q**0) + q ** inversions(pi)
    return out


@pytest.mark.parametrize("q", [0.0, -0.0, 0.5, 0.123456789, Fraction(-9, 10)], ids=repr)
def test_power_tables_keep_every_value_and_its_type(q):
    tuples = [t for n in range(4) for t in product(range(3), repeat=n)]
    shared = qfock.SubPairTable(q)
    for v in tuples:
        got, want = q_pairings(v, q), per_permutation_pairings(v, q)
        assert got.keys() == want.keys()
        assert all(same_value(got[u], want[u]) for u in want)
        for u in tuples:
            want = recursive_inner(u, v, q)
            for memo in (shared, {}, None):
                assert same_value(q_inner_recursive(u, v, q, memo), want)
    assert all(len(a) == len(b) < 3 for a, b in shared)
    assert all(same_value(value, recursive_inner(a, b, q)) for (a, b), value in shared.items())
    # 0**0 = 1: the empty pair, and the identity pairing at q = 0.
    assert same_value(q_inner_recursive((), (), q), q**0) and q**0 == 1
    assert same_value(q_pairings((2, 2, 1), q)[2, 2, 1], 1 + q)


def test_inner_suite_keeps_one_table_of_sub_pairs(monkeypatch):
    tables = []

    def recording(u, v, q, memo=None):
        tables.append(memo)
        return q_inner_recursive(u, v, q, memo)

    monkeypatch.setattr(suites, "q_inner_recursive", recording)
    report = _inner_report(0.5)
    assert report.passed and report.details["exact_match"]
    memo = tables[0]
    assert len(tables) == sum(9**n for n in range(5)) and all(t is memo for t in tables)
    # Sub-pairs only: none of the top-level length 4, at most every pair below it.
    assert memo and all(len(u) == len(v) < 4 for u, v in memo)
    assert len(memo) <= sum(9**n for n in range(4))
    for (u, v), value in memo.items():
        assert same_value(value, recursive_inner(u, v, Fraction(1, 2)))


def test_inner_suite_exact_mismatch_is_seen(monkeypatch):
    exact = suites.q_inner_recursive

    def drifted(u, v, q, memo=None):
        return exact(u, v, q, memo) + (Fraction(1, 2**60) if u == v == (2, 1) else 0)

    monkeypatch.setattr(suites, "q_inner_recursive", drifted)
    report = _inner_report(0.5)
    assert not report.passed and not report.details["exact_match"]


def _inner_report(q):
    return run_suites(RunConfig(model="qdeformed", suites=("inner",), q=q))[0]


@pytest.mark.parametrize("q", [0.123456789, -0.9999, 0.9999999, 0.5, -0.3])
def test_inner_suite_compares_floats_at_the_same_q(q):
    # The exact side runs at the float's own dyadic value, not at a nearby
    # rational, so near-boundary and many-digit q pass too.
    report = _inner_report(q)
    assert report.passed and report.max_deviation <= 1e-12
    assert report.details["exact_match"]
    assert Fraction(report.details["exact_q"]) == q


def test_inner_suite_float_mismatch_names_its_pair(monkeypatch):
    exact = suites.q_pairings

    def drifted(v, q):
        return {u: x + (1e-9 if isinstance(q, float) else 0) for u, x in exact(v, q).items()}

    monkeypatch.setattr(suites, "q_pairings", drifted)
    report = _inner_report(0.5)
    assert not report.passed and report.details["exact_match"]
    assert report.witnesses[0] == {"u": (), "v": (), "float": 1.0 + 1e-9, "exact": "1"}


def test_inner_suite_catches_a_pairings_defect(monkeypatch):
    # A defect in the one enumeration, planted where every caller finds it:
    # q**3 more on every proper rearrangement, in exact and float q alike.
    exact = qfock.q_pairings

    def planted(v, q):
        return {u: x + (q**3 if u != tuple(v) else 0) for u, x in exact(v, q).items()}

    monkeypatch.setattr(qfock, "q_pairings", planted)
    monkeypatch.setattr(suites, "q_pairings", planted)
    report = _inner_report(0.5)
    assert not report.passed and not report.details["exact_match"]


def test_only_q_pairings_enumerates_permutations():
    # The inner product has one enumeration in the package: every line that
    # calls permutations( sits inside q_pairings.
    found = []
    for path in sorted(Path(qfock.__file__).parent.glob("*.py")):
        source = path.read_text()
        functions = [node for node in ast.walk(ast.parse(source))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for lineno, line in enumerate(source.splitlines(), 1):
            if "permutations(" in line:
                inside = [f.name for f in functions if f.lineno <= lineno <= f.end_lineno]
                found.append((path.name, inside))
    assert found == [("qfock.py", ["q_pairings"])]


@pytest.mark.parametrize("q", Q_GRID)
def test_q_commutation_below_top_level(q):
    basis = QBasis((0, 2), 3, q)
    low = [c for c, t in enumerate(basis.labels) if len(t) <= basis.depth - 1]
    eye = np.eye(basis.dim)
    for i in range(0, 3):
        for j in range(0, 3):
            l_i = basis.annihilator(i).matrix
            ld_j = basis.creator(j).matrix
            defect = l_i @ ld_j - q * ld_j @ l_i - (1.0 if i == j else 0.0) * eye
            assert np.max(np.abs(defect[:, low])) <= 1e-10


def test_walker_matches_matrix_route():
    basis = QBasis((0, 2), 3, 0.5)
    om = basis.vacuum_state()
    hand = {(kind, j): m for j in range(3)
            for kind, m in zip((Kind.CREATOR, Kind.ANNIHILATOR), hand_matrices(basis, j))}
    for w in words_over([0, 1, 2], 3, (Kind.CREATOR, Kind.ANNIHILATOR)):
        m = np.eye(basis.dim)
        for letter in w.letters:
            m = m @ hand[letter.kind, letter.index]
        expected = (basis.gram @ m)[0, 0]
        assert om(w) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("q", Q_GRID)
def test_matrices_match_hand_built(q):
    basis = QBasis((0, 2), 3, q)
    for j in range(0, 3):
        c, a = hand_matrices(basis, j)
        assert np.array_equal(basis.creator(j).matrix, c)
        assert np.array_equal(basis.annihilator(j).matrix, a)
        assert np.array_equal(basis.position(j).matrix, c + a)


@given(data=st.data(), q=st.sampled_from(Q_GRID))
@settings(max_examples=100, deadline=None)
def test_walker_matches_hand_built_product(data, q):
    basis = QBasis((0, 2), 3, q)
    label = data.draw(st.sampled_from(basis.labels))
    letters = data.draw(
        st.lists(
            st.tuples(st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION]),
                      st.integers(0, 2)),
            max_size=4,
        )
    )
    w = Word(tuple(Letter(kind, j) for kind, j in letters))
    got = np.zeros(basis.dim)
    for image, coeff in basis.apply_word(w, {label: 1.0}).items():
        got[basis.labels.index(image)] += coeff
    expected = hand_word_matrix(basis, letters)[:, basis.labels.index(label)]
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Vacuum invariance and its failure for generic vector states


def small_word_sets(basis_window):
    ladder = list(words_over([-1, 0, 1], 3, (Kind.CREATOR, Kind.ANNIHILATOR)))
    pos = list(words_over([-1, 0, 1], 3, (Kind.POSITION,)))
    return ladder, pos


def test_vacuum_invariance_all_families():
    basis = QBasis((-6, 6), 3, 0.5)
    om = basis.vacuum_state()
    ladder, pos = small_word_sets(basis.window)
    families = (
        shift_family(),
        permutation_family(-2, 2, n_random=6, seed=5),
        spreading_family(-1, 1, n_random=8, seed=5),
    )
    for words in (ladder, pos):
        for family in families:
            report = check_symmetry(om, words, family, tol=1e-12)
            assert report.passed, report.witnesses


def test_vector_state_fails_shift_with_witness():
    basis = QBasis((-3, 3), 3, 0.5)
    phi = basis.vector_state((1,))
    w = word(creator(1), annihilator(1))
    report = check_symmetry(phi, [w], shift_family(), tol=1e-12)
    assert not report.passed
    assert report.witnesses
    assert report.witnesses[0]["deviation"] == 1.0


def test_states_unital_and_conjugate_symmetric():
    basis = QBasis((0, 2), 3, -0.5)
    for phi in (basis.vacuum_state(), basis.vector_state((1,))):
        assert phi(Word(())) == 1
        for w in words_over([0, 1], 3, (Kind.CREATOR, Kind.ANNIHILATOR)):
            assert phi(w.adjoint()) == pytest.approx(phi(w).conjugate(), abs=1e-12)


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("label", [(1, 1), (0, 1, 0), (2, 2, 2)])
def test_vector_states_on_repeated_labels_are_normalized(q, label):
    # A label with a repeated entry has deformed norm other than 1 unless
    # q = 0, so the readout must divide by it to give a state.
    basis = QBasis((0, 2), 3, q)
    phi = basis.vector_state(label)
    assert phi(Word(())) == pytest.approx(1, abs=1e-12)
    for w in words_over([0, 1, 2], 3, (Kind.CREATOR, Kind.ANNIHILATOR)):
        assert phi(w.adjoint()) == pytest.approx(phi(w).conjugate(), abs=1e-12)


@pytest.mark.parametrize("label", [np.int64(1), 1, [1]], ids=["np.int64", "int", "list"])
def test_vector_state_takes_only_a_tuple_label(label):
    with pytest.raises(ValueError, match="is not a basis label"):
        QBasis((0, 2), 3, 0.5).vector_state(label)


@pytest.mark.parametrize("q", Q_GRID)
def test_empty_label_vector_state_is_the_vacuum_state(q):
    basis = QBasis((-2, 2), 3, q)
    phi, om = basis.vector_state(()), basis.vacuum_state()
    for kinds in ((Kind.CREATOR, Kind.ANNIHILATOR), (Kind.POSITION,)):
        for w in words_over([-2, -1, 0, 1, 2], 3, kinds):
            assert phi(w) == om(w)


# ---------------------------------------------------------------------------
# Token syntax


def test_token_roundtrip():
    # The ldag/l/s spellings are aliases in the one word parser.
    w = word(creator(0), annihilator(-1), position(2))
    assert Word.from_text("ldag(0).l(-1).s(2)") == w
    assert Word.from_text(w.to_text()) == w
    assert w.to_text() == "c(0).a(-1).x(2)"
    with pytest.raises(ValueError):
        Word.from_text("ld(3)")
