"""Space/operator scaffolding, word evaluation, and the symmetry checker."""

import ast
import gc
import inspect
import json
import tracemalloc
import weakref
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab.boolean import BooleanSpace
from spreadlab.car import FermionChain
from spreadlab.monoid import psi, theta, tau_pow, cycle_for_interval, localize
from spreadlab.monotone import MonotoneBasis, lambda_forms
from spreadlab.operators import (
    MAX_DENSE_DIM,
    Kind,
    LabelModel,
    Letter,
    Operator,
    StateFunctional,
    Term,
    TruncatedSpace,
    Word,
    annihilator,
    budget_count,
    check_budget,
    creator,
    evaluate_word,
    letter_matrix,
    letter_table,
    metric_adjoint,
    mixture,
    position,
    relabel,
    sparse_map,
    walk,
    word,
)
from spreadlab.qfock import QBasis, q_inner
from spreadlab.symmetry import (
    SymmetryFamily,
    check_symmetry,
    permutation_family,
    shift_family,
    spreading_family,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "spreadlab"


# ---------------------------------------------------------------------------
# Letters and words


def test_kinds_hash_by_identity():
    # Enum's own hash runs in Python on every letter coded; members are
    # singletons, so the identity hash gives equal kinds equal hashes.
    assert Kind.__hash__ is object.__hash__
    assert {Kind.CREATOR: 1}[Kind("c")] == 1


def test_letter_validation():
    with pytest.raises(TypeError):
        Letter(Kind.CREATOR)


def test_word_adjoint_reverses_and_swaps():
    w = word(creator(0), annihilator(1), position(2))
    assert w.adjoint() == word(position(2), creator(1), annihilator(0))
    assert w.adjoint().adjoint() == w


def test_word_text_roundtrip():
    w = word(creator(0), annihilator(-1))
    assert w.to_text() == "c(0).a(-1)"
    assert Word.from_text(w.to_text()) == w
    assert Word.from_text("1") == Word(())
    with pytest.raises(ValueError):
        Word.from_text("z(0)")
    with pytest.raises(ValueError):  # the empty word is the only unit
        Word.from_text("c(0).1.a(0)")


def test_word_text_accepts_q_aliases():
    assert Word.from_text("ldag(1).l(2).s(0)") == Word.from_text("c(1).a(2).x(0)")


# ---------------------------------------------------------------------------
# Spaces, operators, metric adjoint


def test_space_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        TruncatedSpace(("a", "a"))


def test_metric_adjoint_identity_metric_is_conjugate_transpose(rng):
    space = TruncatedSpace(tuple(range(4)))
    a = Operator(space, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert np.array_equal(metric_adjoint(a, np.eye(4)).matrix, a.matrix.conj().T)


def test_metric_adjoint_involution_and_antimultiplicative(rng):
    g = rng.standard_normal((5, 5))
    gram = g @ g.T + 5 * np.eye(5)
    space = TruncatedSpace(tuple(range(5)))
    a = Operator(space, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    b = Operator(space, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    twice = metric_adjoint(metric_adjoint(a, gram), gram)
    assert np.allclose(twice.matrix, a.matrix, atol=1e-12)
    assert np.allclose(
        metric_adjoint(a @ b, gram).matrix,
        (metric_adjoint(b, gram) @ metric_adjoint(a, gram)).matrix,
        atol=1e-12,
    )


def test_metric_adjoint_sends_q_annihilator_to_creator():
    # Two independent constructions: the creator from its prepend rule, the
    # adjoint from the Gram metric of the deformed inner product.
    basis = QBasis((1, 2), 2, 0.5)
    got = metric_adjoint(basis.annihilator(1), basis.gram)
    assert np.allclose(got.matrix, basis.creator(1).matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# Word evaluation


def test_empty_word_is_identity():
    basis = MonotoneBasis((0, 2), 2)
    assert np.array_equal(evaluate_word(basis, Word(())).matrix, np.eye(basis.dim))


def test_two_factor_product_monotone():
    basis = MonotoneBasis((0, 2), 2)
    w = word(creator(0), annihilator(0))
    expected = basis.creator(0) @ basis.annihilator(0)
    assert np.array_equal(evaluate_word(basis, w).matrix, expected.matrix)


def test_boolean_cross_word_is_zero():
    bs = BooleanSpace((0, 3))
    w = word(annihilator(0), creator(1))
    assert evaluate_word(bs, w).is_zero()


def test_evaluate_word_rejects_out_of_window_index():
    basis = MonotoneBasis((0, 2), 2)
    with pytest.raises(IndexError):
        evaluate_word(basis, word(creator(5)))


def test_evaluate_word_multiplicative(rng):
    basis = MonotoneBasis((0, 3), 3)
    letters = [creator, annihilator]
    for _ in range(25):
        w1 = Word(tuple(letters[rng.integers(2)](int(rng.integers(0, 4))) for _ in range(int(rng.integers(0, 4)))))
        w2 = Word(tuple(letters[rng.integers(2)](int(rng.integers(0, 4))) for _ in range(int(rng.integers(0, 4)))))
        joint = evaluate_word(basis, w1 + w2)
        split = evaluate_word(basis, w1) @ evaluate_word(basis, w2)
        assert np.array_equal(joint.matrix, split.matrix)


# ---------------------------------------------------------------------------
# Relabeling


def test_relabel_identity():
    w = word(creator(0), annihilator(0))
    assert relabel(w, tau_pow(0)) == w


def test_relabel_under_partial_shifts():
    w = word(creator(0), annihilator(0))
    assert relabel(w, theta(0)) == word(creator(1), annihilator(1))
    w2 = word(creator(1), creator(-1))
    assert relabel(w2, psi(0)) == word(creator(1), creator(-2))


# ---------------------------------------------------------------------------
# States and mixtures


def test_mixture_endpoints():
    basis = MonotoneBasis((0, 4), 3)
    om = basis.vacuum_state()
    oo = basis.state_at_infinity()
    w = word(creator(0), annihilator(0))
    assert mixture(oo, om, 1.0)(w) == om(w)
    assert mixture(oo, om, 0.0)(w) == oo(w)


def test_mixture_midpoint_on_number_word():
    basis = MonotoneBasis((0, 4), 3)
    om = basis.vacuum_state()
    oo = basis.state_at_infinity()
    w = word(annihilator(0), creator(0))
    assert om(w) == 1 and oo(w) == 1
    assert mixture(oo, om, 0.5)(w) == 1


def test_mixture_rejects_bad_weight():
    basis = MonotoneBasis((0, 4), 3)
    om = basis.vacuum_state()
    with pytest.raises(ValueError):
        mixture(om, om, 1.5)
    with pytest.raises(ValueError):
        mixture(om, om, -0.1)


def test_states_are_unital_and_conjugate_symmetric(rng):
    basis = MonotoneBasis((0, 4), 3)
    states = [basis.vacuum_state(), basis.state_at_infinity(), basis.vector_state((1,))]
    empty = Word(())
    for phi in states:
        assert phi(empty) == 1
    letters = [creator, annihilator]
    for _ in range(40):
        w = Word(tuple(letters[rng.integers(2)](int(rng.integers(0, 4))) for _ in range(int(rng.integers(0, 5)))))
        for phi in states:
            assert phi(w.adjoint()) == pytest.approx(phi(w).conjugate(), abs=1e-12)


# ---------------------------------------------------------------------------
# Symmetry checker


def test_empty_family_is_vacuous_pass():
    basis = MonotoneBasis((0, 4), 3)
    report = check_symmetry(
        basis.vacuum_state(), [word(creator(0))], SymmetryFamily("spreading", ()), tol=1e-12
    )
    assert report.passed and report.samples == 0 and report.max_deviation == 0.0


def test_monotone_vacuum_passes_spreading_on_normal_words():
    basis = MonotoneBasis((-6, 7), 4)
    words = [f.word() for f in lambda_forms(range(-3, 4), 2, 2)]
    family = spreading_family(-2, 2, n_random=10, seed=3)
    report = check_symmetry(basis.vacuum_state(), words, family, tol=1e-12)
    assert report.passed
    assert report.max_deviation == 0.0
    assert report.samples > 0


def test_boolean_vector_state_fails_shift_with_witness():
    bs = BooleanSpace((-2, 2))
    phi = bs.vector_state(0)
    w = word(creator(0), annihilator(0))
    report = check_symmetry(phi, [w], shift_family(), tol=1e-12)
    assert not report.passed
    assert report.witnesses
    assert report.witnesses[0]["word"] == "c(0).a(0)"
    assert report.max_deviation == 1.0


def test_out_of_window_relabelings_are_skipped_not_fatal():
    basis = MonotoneBasis((0, 3), 2)
    w = word(creator(3), annihilator(3))
    family = spreading_family(3, 3, n_random=0)  # theta(3), psi(3)
    report = check_symmetry(basis.vacuum_state(), [w], family, tol=1e-12)
    # theta(3) pushes index 3 to 4, outside; psi(3) keeps it at 2.
    assert report.skipped == 1
    assert report.samples == 1


def test_report_serialization_roundtrip():
    basis = MonotoneBasis((0, 4), 3)
    check = check_symmetry(
        basis.vector_state((0,)),
        [word(creator(0), annihilator(0))],
        shift_family(),
        tol=1e-12,
    )
    report = check.report("monotone", "probe", "claim", seed=0)
    data = json.loads(report.to_json())
    assert not data["passed"]
    assert data["witnesses"][0]["word"] == "c(0).a(0)"
    assert data["witnesses"][0]["map"] == check.witnesses[0]["map"]
    assert data["witnesses"][0]["deviation"] == 1.0
    assert "witness: {'word': 'c(0).a(0)'" in report.to_text()


# ---------------------------------------------------------------------------
# Family hierarchy at sample level


def test_cycle_realizes_shift_on_window_words():
    # Relabeling by the interval cycle equals relabeling by the shift for any
    # word inside the interval, so permutation invariance forces shift
    # invariance at window level.
    words = [
        word(creator(0), annihilator(2)),
        word(creator(1), creator(2), annihilator(1)),
    ]
    sigma = cycle_for_interval(0, 2)
    for w in words:
        assert relabel(w, sigma) == relabel(w, tau_pow(1))


def test_permutation_pass_implies_shift_pass_on_window():
    basis = QBasis((-4, 4), 3, 0.5)
    phi = basis.vacuum_state()
    words = [word(annihilator(0), creator(1)), word(annihilator(-1), creator(-1))]
    perm = check_symmetry(phi, words, permutation_family(-2, 2, n_random=8, seed=1), tol=1e-12)
    shift = check_symmetry(phi, words, shift_family(), tol=1e-12)
    assert perm.passed
    assert shift.passed


def test_spreading_maps_factor_through_localized_words(rng):
    # Relabeling through a cofinite-range map equals relabeling through any
    # partial-shift word localizing it on the index window of the word.
    from spreadlab.monoid import random_increasing_map

    words = [
        word(creator(-2), annihilator(0), creator(2)),
        word(creator(1), creator(0), annihilator(-1), annihilator(2)),
    ]
    maps = [theta(1) * psi(-1) * tau_pow(-1)]
    maps += [random_increasing_map(rng, (-3, 3), 4, (-6, 6)) for _ in range(25)]
    for g in maps:
        for w in words:
            k, l = min(w.indices()), max(w.indices())
            r = localize([g(j) for j in range(k, l + 1)], k, l)
            assert relabel(w, g) == relabel(w, r)


# ---------------------------------------------------------------------------
# Window validation and the dense size budget


MODELS = {
    "monotone": lambda window, depth: MonotoneBasis(window, depth),
    "qdeformed": lambda window, depth: QBasis(window, depth, 0.5),
    "boolean": lambda window, depth: BooleanSpace(window),
    "car": lambda window, depth: FermionChain(window),
}


@pytest.mark.parametrize("name", MODELS)
def test_empty_window_rejected_by_every_model(name):
    with pytest.raises(ValueError, match=r"empty window \[3, 1\]"):
        MODELS[name]((3, 1), 2)


@pytest.mark.parametrize("cls", [MonotoneBasis, QBasis, BooleanSpace, FermionChain])
def test_every_model_derives_the_protocol_from_label_model(cls):
    # The window check, the dense space and the label vector state live in
    # LabelModel; a model overrides only what it adds to them.
    assert issubclass(cls, LabelModel)
    assert "space" not in vars(cls)
    assert ("__post_init__" in vars(cls)) is (cls in (MonotoneBasis, QBasis))
    assert ("vector_state" in vars(cls)) is (cls is QBasis)


def test_a_letter_is_its_kind_index_pair():
    letter = Letter(Kind.CREATOR, 0)
    assert letter == (Kind.CREATOR, 0) and hash(letter) == hash((Kind.CREATOR, 0))


@given(
    name=st.sampled_from(sorted(MODELS)),
    lo=st.integers(-3, 3),
    width=st.integers(1, 5),
    depth=st.integers(1, 3),
)
@settings(max_examples=100, deadline=None)
def test_closed_form_dim_counts_the_labels(name, lo, width, depth):
    model = MODELS[name]((lo, lo + width - 1), depth)
    assert model.dim == len(model.labels)


LABEL_MODELS = ("monotone", "qdeformed", "boolean")


@given(
    name=st.sampled_from(LABEL_MODELS),
    lo=st.integers(-3, 3),
    width=st.integers(1, 4),
    depth=st.integers(1, 3),
    candidates=st.lists(st.lists(st.integers(-5, 5), max_size=4), max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_has_label_matches_the_enumeration(name, lo, width, depth, candidates):
    model = MODELS[name]((lo, lo + width - 1), depth)
    labels = set(model.labels)
    assert all(model.has_label(label) for label in labels)
    for entries in candidates:
        label = entries[0] if name == "boolean" and entries else tuple(entries)
        assert model.has_label(label) == (label in labels)


def _no_enumeration(self):
    raise AssertionError("the labels were enumerated")


@pytest.mark.parametrize("name", ["monotone", "qdeformed"])
def test_vector_states_check_labels_without_enumerating(name, monkeypatch):
    cls = {"monotone": MonotoneBasis, "qdeformed": QBasis}[name]
    monkeypatch.setattr(cls, "labels", property(_no_enumeration))
    # 17**40 labels: enumerating them cannot finish.
    model = MODELS[name]((-8, 8), 40)
    assert model.vacuum_state()(word(annihilator(0), creator(0))) == 1
    assert model.vector_state((1,))(word(creator(1), annihilator(1))) == 1
    for label in [(9,), (1, 0) if name == "monotone" else (0,) * 41]:
        with pytest.raises(ValueError, match="is not a basis label"):
            model.vector_state(label)


@pytest.mark.parametrize(
    "model",
    [FermionChain((0, 20)), MonotoneBasis((0, 40), 4), QBasis((0, 15), 3, 0.5)],
    ids=["car", "monotone", "qdeformed"],
)
def test_dense_budget_rejects_before_enumerating(model):
    assert model.dim > MAX_DENSE_DIM
    with pytest.raises(ValueError, match="above the budget of 4096"):
        letter_matrix(model, creator(0))
    with pytest.raises(ValueError, match="above the budget"):
        evaluate_word(model, word())
    assert "labels" not in vars(model)  # no label was enumerated


def test_gram_checks_the_budget_first():
    basis = QBasis((0, 15), 3, 0.5)
    with pytest.raises(ValueError, match="dense dimension 4369"):
        basis.gram
    assert "labels" not in vars(basis)


def test_budget_admits_its_bound_and_rejects_one_more():
    check_budget((-2, 5), 1000, 1000, "has 1000 things")
    with pytest.raises(ValueError) as err:
        check_budget((-2, 5), 1001, 1000, "has 1001 things")
    assert str(err.value) == "window [-2, 5] has 1001 things, above the budget of 1000"


def test_budget_count_stops_reading_once_past_the_budget():
    def counts():
        yield from (4, 3, 4)  # 11 passes a budget of 10
        raise AssertionError("read past the budget")

    assert budget_count(counts(), 10) == 11
    assert budget_count((4, 3, 3), 10) == 10


def test_only_check_budget_words_the_budget_error():
    counts = {path.name: path.read_text().count("above the budget of") for path in SRC.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"operators.py": 1}
    assert "above the budget of" in inspect.getsource(check_budget)


# ---------------------------------------------------------------------------
# The walker's label maps against the dense products


@given(
    name=st.sampled_from(sorted(MODELS)),
    lo=st.integers(-2, 2),
    width=st.integers(1, 4),
    depth=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_sparse_map_matches_dense_products(name, lo, width, depth, data):
    model = MODELS[name]((lo, lo + width - 1), depth)
    first, last = model.window
    letters = st.builds(
        Letter, st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION]),
        st.integers(first, last),
    )
    words = st.lists(letters, max_size=3).map(lambda ls: Word(tuple(ls)))
    combination = data.draw(st.lists(st.tuples(st.integers(-3, 3), words), max_size=4))
    got = sparse_map(model, combination)
    dense = np.zeros((model.dim, model.dim), dtype=complex)
    for coeff, w in combination:
        dense += coeff * evaluate_word(model, w).matrix
    walked = np.zeros_like(dense)
    index = model.space.index
    for label, image in got.items():
        for target, weight in image.items():
            assert weight != 0
            walked[index(target), index(label)] = weight
    if name == "qdeformed":  # float weights q**k, summed in another order
        assert np.allclose(walked, dense, rtol=0, atol=1e-12)
    else:  # integer weights stay integers, and agree exactly
        assert np.array_equal(walked, dense)
        assert all(type(weight) is int for image in got.values() for weight in image.values())


def test_sparse_map_of_the_unit_is_the_identity():
    basis = MonotoneBasis((0, 2), 2)
    assert sparse_map(basis, [(1, word())]) == {t: {t: 1} for t in basis.labels}
    assert sparse_map(basis, [(1, word()), (-1, word())]) == {}


def test_sparse_map_never_walks_a_zero_term(monkeypatch):
    combination = [(1, word(annihilator(1), creator(1))), (-1, word())]
    want = sparse_map(MonotoneBasis((0, 2), 2), combination)
    zero = word(creator(2), annihilator(9))  # a(9) lies outside the window
    act = MonotoneBasis.act
    acted = []

    def counting(model, kind, index, label):
        acted.append((kind, index, label))
        return act(model, kind, index, label)

    monkeypatch.setattr(MonotoneBasis, "act", counting)
    for coeff in (0, 0.0, 0j):
        basis = MonotoneBasis((0, 2), 2)  # with tables of its own
        acted.clear()
        assert sparse_map(basis, [combination[0], (coeff, zero), combination[1]]) == want
        # Each (letter, label) acts at most once; the rightmost letter c(1)
        # acts on every label, a(1) only on the labels c(1) reaches, and the
        # zero term's letters act on none.
        assert len(set(acted)) == len(acted)
        assert {(k, i) for k, i, _ in acted} <= {(Kind.CREATOR, 1), (Kind.ANNIHILATOR, 1)}
        assert {t for k, _, t in acted if k is Kind.CREATOR} == set(basis.labels)
        assert {t for k, _, t in acted if k is Kind.ANNIHILATOR} < set(basis.labels)
        acted.clear()
        assert sparse_map(basis, combination) == want
        assert acted == []  # read from the filled rows


def test_letter_tables_die_with_their_model():
    # The tables live on the model: nothing at module level keeps the model
    # or its tables alive once the last reference goes.
    letters = [word(position(k)) for k in range(8)]
    gc.collect()
    tracemalloc.start()
    try:
        chain = FermionChain((0, 7))
        sparse_map(chain, [(1, w) for w in letters])
        assert letter_table(chain, Kind.POSITION, 3) is letter_table(chain, Kind.POSITION, 3)
        held = tracemalloc.get_traced_memory()[0]
        alive = weakref.ref(chain)
        del chain
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert alive() is None
    assert held > 200_000 and left < held / 20, (held, left)


def test_only_the_letter_lookup_and_the_dense_oracle_read_the_action():
    # One walk loop: every walk reads letters through tables whose rows
    # walk_steps fills from the action, and only the dense oracle
    # letter_matrix reads the action on its own.
    readers = set()

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Attribute) and node.attr == "act":
            readers.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    assert readers == {("operators.py", "walk_steps"), ("operators.py", "letter_matrix")}


def test_every_imported_name_is_used():
    # A name a module imports and never reads is a leftover of a refactor.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {node.value.id for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append((path.name, name))
    assert unused == []


# ---------------------------------------------------------------------------
# The pair walker and the states' row route against the Word route


_REFERENCE_PARTS = {
    Kind.CREATOR: (Kind.CREATOR,),
    Kind.ANNIHILATOR: (Kind.ANNIHILATOR,),
    Kind.POSITION: (Kind.CREATOR, Kind.ANNIHILATOR),
}


def reference_walk(model, w, vec):
    """The walker as it was: one loop over the word's letters, right to left."""
    lo, hi = model.window
    for letter in reversed(w.letters):
        if not lo <= letter.index <= hi:
            raise IndexError(f"index {letter.index} outside window [{lo}, {hi}]")
        out = {}
        for label, coeff in vec.items():
            for kind in _REFERENCE_PARTS[letter.kind]:
                for image, weight in model.act(kind, letter.index, label):
                    c = weight * coeff
                    if c != 0:
                        out[image] = out.get(image, 0) + c
        vec = out
    return vec


def reference_label(model, label):
    return lambda w: reference_walk(model, w, {label: 1.0}).get(label, 0.0)


def reference_deformed(basis, base):
    # Summed over the rearrangements of the base label, in the order a dual
    # lists them, so that the float sums match exactly.
    def read(w):
        total = 0.0 + 0.0j
        image = reference_walk(basis, w, {base: 1.0})
        for u in dict.fromkeys(permutations(base)):
            total += image.get(u, 0.0) * float(q_inner(u, base, basis.q))
        return total / float(q_inner(base, base, basis.q))

    return read


def reference_dual(model, label, dual, norm):
    def read(w):
        total = 0.0 + 0.0j
        image = reference_walk(model, w, {label: 1.0})
        for u, pairing in dual.items():
            total += image.get(u, 0.0) * pairing
        return total / norm

    return read


def reference_mixture(read1, read2, x):
    return lambda w: (1.0 - x) * read1(w) + x * read2(w)


CROSS_MODELS = {
    **MODELS,
    "qdeformed-exact": lambda window, depth: QBasis(window, depth, Fraction(1, 3)),
}


def reference_sparse_map(model, combination):
    """``sparse_map`` as a plain walk: every nonzero term walked from every
    label through the model's action."""
    out = {}
    for label in model.labels:
        image = {}
        for coeff, w in combination:
            if coeff != 0:
                for target, weight in reference_walk(model, w, {label: coeff}).items():
                    image[target] = image.get(target, 0) + weight
        nonzero = {target: weight for target, weight in image.items() if weight != 0}
        if nonzero:
            out[label] = nonzero
    return out


def typed(pairs):
    """(image, weight) pairs, in order, with each weight's type."""
    return [(t, type(x), x) for t, x in pairs]


def exact_map(label_map):
    """Every entry of a label map, in order, with each weight's type."""
    return [(label, typed(image.items())) for label, image in label_map.items()]


@given(
    name=st.sampled_from(sorted(CROSS_MODELS)),
    lo=st.integers(-2, 1),
    width=st.integers(1, 3),
    depth=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_letter_tables_match_the_plain_walk(name, lo, width, depth, data):
    model = CROSS_MODELS[name]((lo, lo + width - 1), depth)
    first, last = model.window
    stray = data.draw(st.integers(0, 4)) == 0  # then some letters leave the window
    index = st.integers(first - 1, last + 1) if stray else st.integers(first, last)
    kinds = st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION])
    words = st.lists(st.builds(Letter, kinds, index), max_size=4).map(lambda ls: Word(tuple(ls)))
    coeffs = st.sampled_from([0, 0.0, 0j]) | st.integers(-3, 3) | st.floats(-2.0, 2.0)
    combination = data.draw(st.lists(st.tuples(coeffs, words), max_size=4))
    expected = outcome(reference_sparse_map, model, combination)
    for _ in range(2):  # the second call reads the tables the first filled
        got = outcome(sparse_map, model, combination)
        if isinstance(expected, dict):
            assert exact_map(got) == exact_map(expected)
        else:
            assert got is expected is IndexError


@pytest.mark.parametrize("name", sorted(CROSS_MODELS))
def test_letter_tables_check_a_letter_after_the_vector_dies(name):
    model = CROSS_MODELS[name]((0, 2), 2)
    killer = [creator(0)] * 3  # past every depth cap and every exclusion
    assert all(reference_walk(model, word(*killer), {t: 1}) == {} for t in model.labels)
    for coeff in (1, 0.5):
        with pytest.raises(IndexError, match=r"index 3 outside window \[0, 2\]"):
            sparse_map(model, [(coeff, word(creator(3), *killer))])


def filled_rows(model):
    """The model's letter tables, without the ones no walk has filled yet."""
    return {key: dict(table) for key, table in vars(model).get("_letter_tables", {}).items() if table}


@given(
    name=st.sampled_from(sorted(CROSS_MODELS)),
    lo=st.integers(-2, 1),
    width=st.integers(1, 3),
    depth=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_walk_and_sparse_map_share_the_model_tables(name, lo, width, depth, data):
    # One model, walk and sparse_map called in a drawn order: rows one route
    # fills are read by the other, and every call equals its plain walk.
    model = CROSS_MODELS[name]((lo, lo + width - 1), depth)
    first, last = model.window
    stray = data.draw(st.integers(0, 4)) == 0  # then some letters leave the window
    index = st.integers(first - 1, last + 1) if stray else st.integers(first, last)
    kinds = st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION])
    words = st.lists(st.builds(Letter, kinds, index), max_size=4).map(lambda ls: Word(tuple(ls)))
    coeffs = st.sampled_from([0, 0.0, 0j]) | st.integers(-3, 3) | st.floats(-2.0, 2.0)
    starts = st.dictionaries(st.sampled_from(model.labels), coeffs, min_size=1, max_size=4)
    calls = data.draw(st.lists(
        st.tuples(st.just(walk), words, starts)
        | st.tuples(st.just(sparse_map), st.lists(st.tuples(coeffs, words), max_size=3)),
        min_size=1, max_size=6,
    ))
    for route, *args in calls:
        reference = reference_walk if route is walk else reference_sparse_map
        before = filled_rows(model)
        expected = outcome(reference, model, *args)
        got = outcome(route, model, *args)
        if expected is IndexError:
            assert got is IndexError
            assert filled_rows(model) == before  # raised before any row was filled
        elif route is walk:
            assert typed(got.items()) == typed(expected.items())
        else:
            assert exact_map(got) == exact_map(expected)
    for (kind, index), table in filled_rows(model).items():
        for label, row in table.items():
            action = [pair for part in _REFERENCE_PARTS[kind] for pair in model.act(part, index, label)]
            assert typed(row) == typed(action)


def states_and_references(model, data):
    """(state, window, raw reference readout) triples for the model's states,
    and for a state of one term pairing with a drawn dual on every label,
    which reads off-diagonal entries and so tells a word from its reversal."""
    lo, hi = model.window
    labels = st.sampled_from(model.labels)
    size = len(model.labels)
    label = data.draw(labels)
    dual = dict(zip(model.labels, data.draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size))))
    weight, norm = data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(0.5, 2.0))
    read = reference_dual(model, label, dual, norm)
    drawn = StateFunctional((lo, hi), (Term(weight, model, label, tuple(dual.items()), norm),))
    return [(drawn, (lo, hi), lambda w: weight * read(w))] + model_states(model, data)


def model_states(model, data):
    lo, hi = model.window
    labels = st.sampled_from(model.labels)
    x = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0))
    if isinstance(model, MonotoneBasis):
        label = data.draw(labels)
        vacuum, probe = reference_label(model, ()), reference_label(model, (hi,))
        return [
            (model.vacuum_state(), (lo, hi), vacuum),
            (model.state_at_infinity(), (lo, hi - 1), probe),
            (model.vector_state(label), (lo, hi), reference_label(model, label)),
            (mixture(model.state_at_infinity(), model.vacuum_state(), x), (lo, hi - 1),
             reference_mixture(probe, vacuum, x)),
        ]
    if isinstance(model, QBasis):
        base = data.draw(labels)
        vacuum, deformed = reference_label(model, ()), reference_deformed(model, base)
        return [
            (model.vacuum_state(), (lo, hi), vacuum),
            (model.vector_state(base), (lo, hi), deformed),
            (mixture(model.vector_state(base), model.vacuum_state(), x), (lo, hi),
             reference_mixture(deformed, vacuum, x)),
        ]
    if isinstance(model, BooleanSpace):
        label = data.draw(labels)
        sharp, site = reference_label(model, "#"), reference_label(model, label)
        return [
            (model.sharp_state(), (lo, hi), sharp),
            (model.infinity_state(), (lo, hi), lambda w: 0 if w.indices() else 1),
            (model.vector_state(label), (lo, hi), site),
            (mixture(model.sharp_state(), model.vector_state(label), x), (lo, hi),
             reference_mixture(sharp, site, x)),
            (mixture(model.sharp_state(), model.infinity_state(), x), (lo, hi),
             reference_mixture(sharp, lambda w: 0 if w.indices() else 1, x)),
        ]
    return []  # the fermionic chain has no states


def outcome(fn, *args):
    """The value, or the exception type raised."""
    try:
        return fn(*args)
    except (IndexError, ValueError) as exc:
        return type(exc)


@given(
    name=st.sampled_from(sorted(CROSS_MODELS)),
    lo=st.integers(-2, 1),
    width=st.integers(1, 3),
    depth=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_pair_walker_and_rows_match_the_word_route(name, lo, width, depth, data):
    model = CROSS_MODELS[name]((lo, lo + width - 1), depth)
    first, last = model.window
    kinds = st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION])
    letters = st.builds(Letter, kinds, st.integers(first - 2, last + 2))  # some outside
    words = data.draw(st.lists(st.lists(letters, max_size=4), min_size=1, max_size=6))
    words = [Word(tuple(w)) for w in words]
    coeffs = st.integers(-3, 3) | st.floats(-2.0, 2.0)
    start = data.draw(st.dictionaries(st.sampled_from(model.labels), coeffs, min_size=1, max_size=4))
    for w in words:
        expected = outcome(reference_walk, model, w, start)
        for got in (outcome(walk, model, w, start), outcome(model.apply_word, w, start)):
            if isinstance(expected, dict):
                assert list(got.items()) == list(expected.items())
                assert [type(c) for c in got.values()] == [type(c) for c in expected.values()]
            else:
                assert got is expected is IndexError
    for state, (wlo, whi), read in states_and_references(model, data):
        assert state.window == (wlo, whi)
        for w in words:
            admitted = all(wlo <= i <= whi for i in w.indices())
            expected = complex(read(w)) if admitted else IndexError
            alphabet = [(l.kind, l.index) for l in w.letters]
            row = outcome(state.values, alphabet, [list(range(len(w)))])
            assert outcome(state, w) == expected
            assert row == ([expected] if admitted else IndexError)


# ---------------------------------------------------------------------------
# The suffix-trie walk of StateFunctional.values against the plain walk


def plain_values(state, alphabet, rows):
    """``StateFunctional.values`` as it was before the suffix-trie walk:
    every row on its own, walked through ``reference_walk`` once per term,
    each term's dual read on every row."""
    lo, hi = state.window
    out = []
    for row in rows:
        letters = [alphabet[c] for c in row if c >= 0]
        for _, i in letters:
            if not lo <= i <= hi:
                raise IndexError(f"index {i} outside state window [{lo}, {hi}]")
        w = Word(tuple(Letter(kind, index) for kind, index in letters))
        value = None
        for weight, model, label, dual, norm in state.terms:
            image = reference_walk(model, w, {label: 1.0})
            total = 0
            for target, pairing in dual:
                coeff = image.get(target)
                if coeff is not None:
                    total += coeff * pairing
            read = weight * (total / norm)
            value = read if value is None else value + read
        out.append(complex(value))
    return out


def bits(values):
    """Each value's type and the exact bits of its parts (-0.0 is not 0.0)."""
    return [(type(v), v.real.hex(), v.imag.hex()) for v in values]


@given(
    name=st.sampled_from(sorted(CROSS_MODELS)),
    lo=st.integers(-2, 1),
    width=st.integers(1, 3),
    depth=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_suffix_trie_matches_the_plain_walk(name, lo, width, depth, data):
    model = CROSS_MODELS[name]((lo, lo + width - 1), depth)
    first, last = model.window
    stray = data.draw(st.integers(0, 9)) == 0  # then some rows leave the window
    index = st.integers(first - 1, last + 1) if stray else st.integers(first, last)
    kinds = st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION])
    drawn = data.draw(st.lists(st.lists(st.tuples(kinds, index), max_size=5), min_size=1, max_size=6))
    # Every suffix of a word ends at a trie node the word passes through.
    suffixes = [w[k:] for w in drawn for k in data.draw(st.sets(st.integers(0, len(w))))]
    words = drawn + suffixes + data.draw(st.lists(st.sampled_from(drawn + [[]]), max_size=3))
    words = data.draw(st.permutations(words))  # mixed lengths and kinds, duplicates, maybe 1
    alphabet = data.draw(st.permutations(sorted({l for w in words for l in w}, key=str)))
    alphabet = list(alphabet) + [(Kind.CREATOR, last + 5)]  # an unused letter outside
    ids = {letter: c for c, letter in enumerate(alphabet)}
    padded = max(map(len, words)) + data.draw(st.integers(0, 2))
    rows = np.full((len(words), padded), -1, np.int64)
    for row, w in zip(rows, words):
        row[padded - len(w):] = [ids[l] for l in w]
    for state, _, _ in states_and_references(model, data):
        expected = outcome(plain_values, state, alphabet, rows)
        got = outcome(state.values, alphabet, rows)
        # The trie walk's tables live for one term's walk, not on the model.
        assert all("_letter_tables" not in vars(term.model) for term in state.terms)
        if expected is IndexError:
            assert got is IndexError
        else:
            assert bits(got) == bits(expected)
            assert bits(state.values(alphabet, rows.tolist())) == bits(expected)


def test_suffix_trie_reads_a_word_that_others_pass_through():
    # c(1) ends at the node that a(0).c(1) and c(0).c(1) pass through: each
    # has its own value, and each term's dual is read once per distinct live
    # word.
    basis = MonotoneBasis((0, 2), 2)
    state = mixture(basis.vector_state((1,)), basis.vacuum_state(), 0.5)
    alphabet = [(Kind.CREATOR, 1), (Kind.ANNIHILATOR, 1), (Kind.CREATOR, 0)]
    rows = [[-1, 0], [1, 0], [-1, 0], [2, 0], [-1, -1]]
    reads = []
    original = Term.read

    def counted(term, image):
        reads.append(term.label)
        return original(term, image)

    try:
        Term.read = counted
        got = state.values(alphabet, rows)
    finally:
        Term.read = original
    assert bits(got) == bits(plain_values(state, alphabet, rows))
    assert got == [0j, 0.5 + 0j, 0j, 0j, 1 + 0j]
    # Each term reads its zero readout once, then once per distinct live
    # word: c(1) sends (1,) to 0, so that term reads only the empty word; the
    # vacuum term reads all four words, c(1) once for its two rows.
    assert sorted(reads) == [()] * 5 + [(1,)] * 2
