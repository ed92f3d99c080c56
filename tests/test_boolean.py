"""Boolean window algebra: relations, the relabeling endomorphisms, and the
segment of invariant states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab.boolean import (
    SHARP,
    BooleanSpace,
    WindowOverflowError,
    alpha,
    image_window,
)
from spreadlab.monoid import (
    FinitePermutation,
    IncreasingMap,
    compose,
    random_increasing_map,
    random_permutation,
    tau_pow,
    theta,
)
from spreadlab import suites
from spreadlab.operators import (
    Kind, Letter, Word, annihilator, creator, evaluate_word, label_state, word,
)
from spreadlab.suites import RunConfig, run_suites
from spreadlab.symmetry import permutation_family, shift_family, spreading_family


@pytest.fixture(scope="module")
def bs():
    return BooleanSpace((0, 3))


def random_element(space, rng):
    k = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
        (space.dim, space.dim)
    )
    return space.element(k, complex(rng.standard_normal(), rng.standard_normal()))


# ---------------------------------------------------------------------------
# Generators and matrix units


def test_creator_sends_vacuum_to_site(bs):
    out = bs.creator(0).compact @ bs.space.basis_vector(SHARP)
    assert np.array_equal(out, bs.space.basis_vector(0))


def test_annihilator_sends_site_to_vacuum(bs):
    out = bs.annihilator(0).compact @ bs.space.basis_vector(0)
    assert np.array_equal(out, bs.space.basis_vector(SHARP))
    assert not (bs.annihilator(0).compact @ bs.space.basis_vector(SHARP)).any()


def hand_letter(space, kind, j):
    """Letter matrix from matrix units (row #, column 0), independent of the
    label action."""
    c = np.zeros((space.dim, space.dim))
    c[1 + j - space.window[0], 0] = 1.0
    return {Kind.CREATOR: c, Kind.ANNIHILATOR: c.T, Kind.POSITION: c + c.T}[kind]


def test_letter_matrices_match_hand_built(bs):
    for j in range(0, 4):
        for kind in (Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION):
            got = evaluate_word(bs, word(Letter(kind, j))).matrix
            assert np.array_equal(got, hand_letter(bs, kind, j))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_walker_matches_hand_built_product(bs, data):
    label = data.draw(st.sampled_from(bs.labels))
    letters = data.draw(
        st.lists(
            st.tuples(st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION]),
                      st.integers(0, 3)),
            max_size=4,
        )
    )
    product = np.eye(bs.dim)
    for kind, j in letters:
        product = product @ hand_letter(bs, kind, j)
    w = Word(tuple(Letter(kind, j) for kind, j in letters))
    got = np.zeros(bs.dim)
    for image, coeff in bs.apply_word(w, {label: 1.0}).items():
        got[bs.index(image)] += coeff
    assert np.array_equal(got, product[:, bs.index(label)])


def test_matrix_unit_identities(bs):
    assert (bs.matrix_unit(SHARP, 0) * bs.matrix_unit(0, SHARP)).allclose(
        bs.matrix_unit(SHARP, SHARP)
    )
    assert (bs.matrix_unit(0, 1) * bs.matrix_unit(2, 3)).allclose(bs.zero())
    assert bs.matrix_unit(0, 1).adjoint().allclose(bs.matrix_unit(1, 0))
    assert bs.creator(2).allclose(bs.matrix_unit(2, SHARP))
    assert bs.annihilator(2).allclose(bs.matrix_unit(SHARP, 2))


def test_label_outside_window_rejected(bs):
    with pytest.raises(IndexError):
        bs.matrix_unit(0, 9)
    with pytest.raises(IndexError):
        bs.creator(-1)


@pytest.mark.parametrize("build", [
    lambda s: s.zero(),
    lambda s: s.identity(),
    lambda s: s.matrix_unit(0, 0),
    lambda s: s.creator(0),
    lambda s: s.annihilator(0),
])
def test_every_builder_checks_the_budget_before_allocating(build):
    # Dimension 5,002: a complex square of it would take 400 MB.
    with pytest.raises(ValueError, match="dense dimension 5002 or more, above the budget of 4096"):
        build(BooleanSpace((0, 5000)))


def test_commutation_relation_exact(bs):
    lo, hi = bs.window
    number_sum = bs.zero()
    for k in range(lo, hi + 1):
        number_sum = number_sum + bs.creator(k) * bs.annihilator(k)
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            lhs = bs.annihilator(i) * bs.creator(j)
            delta = 1.0 if i == j else 0.0
            rhs = delta * (bs.identity() - number_sum)
            # pair identity against the vacuum matrix unit
            assert lhs.allclose(
                delta * bs.matrix_unit(SHARP, SHARP)
            ), "b b† is the vacuum unit"
            # the window form of the relation holds at full-matrix level
            assert np.array_equal(lhs.total_matrix(), rhs.total_matrix())
            # creator-then-annihilator gives the matrix units
            assert (bs.creator(i) * bs.annihilator(j)).allclose(bs.matrix_unit(i, j))


def test_number_sum_misses_only_vacuum(bs):
    total = bs.zero()
    lo, hi = bs.window
    for k in range(lo, hi + 1):
        total = total + bs.creator(k) * bs.annihilator(k)
    expected = np.eye(bs.dim)
    expected[0, 0] = 0.0
    assert np.array_equal(total.total_matrix(), expected)


def test_element_pair_arithmetic(bs):
    rng = np.random.default_rng(4)
    x, y = random_element(bs, rng), random_element(bs, rng)
    prod = x * y
    assert np.allclose(prod.total_matrix(), x.total_matrix() @ y.total_matrix())
    assert prod.scalar == x.scalar * y.scalar
    assert np.allclose(x.adjoint().total_matrix(), x.total_matrix().conj().T)


# ---------------------------------------------------------------------------
# The relabeling action


def isometry_formula(f, x):
    """The action by its definition, independent of ``alpha``'s relabeling:
    V X V* + gamma (V V* + P_gaps - I) on the hull of the mapped window (the
    input window for a permutation), with V the relabeling isometry fixing #.
    Returns the output space, the action's compact part and V V* + P - I."""
    space_in = x.home
    if isinstance(f, FinitePermutation):
        space_out, gaps = space_in, ()
    else:
        space_out, gaps = BooleanSpace(image_window(f, space_in.window)), f.gaps
    v = np.zeros((space_out.dim, space_in.dim), dtype=complex)
    for col, label in enumerate(space_in.labels):
        v[space_out.index(SHARP if label == SHARP else f(label)), col] = 1.0
    proj = np.zeros((space_out.dim, space_out.dim), dtype=complex)
    for gap in gaps:
        if space_out.has_label(gap):
            proj[space_out.index(gap), space_out.index(gap)] = 1.0
    rest = v @ v.conj().T + proj - np.eye(space_out.dim)
    return space_out, v @ x.compact @ v.conj().T + x.scalar * rest, rest


increasing_maps = st.builds(
    IncreasingMap,
    offset=st.integers(-5, 5),
    gaps=st.sets(st.integers(-12, 12), max_size=6).map(lambda s: tuple(sorted(s))),
)


@st.composite
def window_permutations(draw, window):
    sites = list(range(window[0], window[1] + 1))
    return FinitePermutation.from_mapping(dict(zip(sites, draw(st.permutations(sites)))))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_alpha_is_the_isometry_formula(data):
    lo = data.draw(st.integers(-4, 2))
    window = (lo, lo + data.draw(st.integers(0, 4)))
    f = data.draw(increasing_maps | window_permutations(window))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scalar = data.draw(st.complex_numbers(min_magnitude=0.5, max_magnitude=4))
    x = random_element(BooleanSpace(window), rng)
    x = x.home.element(x.compact, scalar)
    space_out, compact, rest = isometry_formula(f, x)
    assert not rest.any()  # every hull site is an image or a gap
    got = alpha(f, x)
    assert got.home == space_out
    assert np.array_equal(got.compact, compact)
    assert got.scalar == x.scalar


def test_alpha_identity_map(bs):
    x = random_element(bs, np.random.default_rng(1))
    got = alpha(tau_pow(0), x)
    assert got.home == bs and np.array_equal(got.compact, x.compact) and got.scalar == x.scalar


def test_alpha_forward_shift_example():
    src = BooleanSpace((0, 0))
    got = alpha(theta(0), src.matrix_unit(0, SHARP))
    assert got.home.window == (1, 1)
    assert got.allclose(got.home.matrix_unit(1, SHARP))
    fixed = alpha(theta(0), src.matrix_unit(SHARP, SHARP))
    assert fixed.allclose(fixed.home.matrix_unit(SHARP, SHARP))


def test_alpha_keeps_the_range_projection(rng):
    # alpha of the compact identity is V V*: a diagonal 0/1 projection of the
    # input rank, i.e. the relabeling has orthonormal columns.
    src = BooleanSpace((-3, 3))
    for _ in range(50):
        f = random_increasing_map(rng, (-2, 2), 3, (-5, 5))
        got = alpha(f, src.element(np.eye(src.dim))).compact
        assert np.array_equal(got, np.diag(np.diag(got)))
        assert set(np.diag(got).tolist()) <= {0, 1} and np.trace(got) == src.dim


def test_alpha_is_unital(rng, bs):
    for _ in range(20):
        f = random_increasing_map(rng, (-2, 2), 3, (-5, 5))
        out = alpha(f, bs.identity())
        assert out.allclose(out.home.identity())


def test_alpha_moves_matrix_units(bs):
    got = alpha(theta(0), bs.matrix_unit(0, 0))
    assert got.allclose(got.home.matrix_unit(1, 1))
    fixed = alpha(theta(0), bs.matrix_unit(SHARP, SHARP))
    assert fixed.allclose(fixed.home.matrix_unit(SHARP, SHARP))


def test_alpha_matrix_unit_rule_general(bs, rng):
    lo, hi = bs.window
    for _ in range(20):
        f = random_increasing_map(rng, (-2, 2), 2, (-4, 4))
        for k in (SHARP, 0, 2):
            for l in (SHARP, 1, 3):
                image_k = SHARP if k == SHARP else f(k)
                image_l = SHARP if l == SHARP else f(l)
                got = alpha(f, bs.matrix_unit(k, l))
                assert got.allclose(got.home.matrix_unit(image_k, image_l))


def test_alpha_morphism_on_random_triples(rng):
    base = BooleanSpace((-3, 3))
    for _ in range(200):
        f = random_increasing_map(rng, (-2, 2), 3, (-6, 6))
        g = random_increasing_map(rng, (-2, 2), 3, (-6, 6))
        x = random_element(base, rng)
        lhs = alpha(compose(f, g), x)
        rhs = alpha(f, alpha(g, x))
        assert lhs.allclose(rhs, 1e-12)


def test_alpha_star_endomorphism(rng):
    base = BooleanSpace((-3, 3))
    for _ in range(60):
        f = random_increasing_map(rng, (-2, 2), 3, (-6, 6))
        x, y = random_element(base, rng), random_element(base, rng)
        fx = alpha(f, x)
        fy = alpha(f, y)
        assert alpha(f, x * y).allclose(fx * fy, 1e-10)
        assert alpha(f, x.adjoint()).allclose(fx.adjoint(), 1e-12)


def test_alpha_permutation_is_automorphism(rng):
    base = BooleanSpace((-3, 3))
    for _ in range(30):
        p = random_permutation(rng, -3, 3)
        x, y = random_element(base, rng), random_element(base, rng)
        px, py = alpha(p, x), alpha(p, y)
        assert alpha(p, x * y).allclose(px * py, 1e-10)
        inv = alpha(p.inverse(), px)
        assert inv.allclose(x, 1e-12)


SEED = 20230526


def test_alpha_relabels_the_generators():
    # alpha sends c(j) and a(j) to c(f(j)) and a(f(j)), and the unit to the
    # unit, for every map the simplex suite checks: so invariance on words
    # is invariance on the elements they span.
    base = BooleanSpace((-3, 3))
    lo, hi = base.window
    families = (
        shift_family(),
        permutation_family(lo, hi, n_random=10, seed=SEED),
        spreading_family(-2, 2, n_random=20, seed=SEED),
    )
    for f in (g for family in families for g in family.maps):
        for j in range(lo, hi + 1):
            raised = alpha(f, base.creator(j))
            assert raised.allclose(raised.home.creator(f(j)))
            lowered = alpha(f, base.annihilator(j))
            assert lowered.allclose(lowered.home.annihilator(f(j)))
        unit = alpha(f, base.identity())
        assert unit.allclose(unit.home.identity())


def test_alpha_permutation_support_must_fit():
    bs = BooleanSpace((0, 2))
    with pytest.raises(WindowOverflowError):
        alpha(FinitePermutation.from_cycle([2, 3]), bs.identity())


# ---------------------------------------------------------------------------
# Invariant states


def test_vector_state_not_invariant(bs):
    x = bs.matrix_unit(0, 0)
    moved = alpha(theta(0), x)  # on the hull [1, 4], which misses site 0

    def vector_state(el, label):
        if not el.home.has_label(label):
            return el.scalar  # the compact part vanishes off the window
        i = el.home.index(label)
        return el.total_matrix()[i, i]

    assert vector_state(x, 0) == 1
    assert vector_state(moved, 0) == 0
    assert moved.allclose(moved.home.matrix_unit(1, 1))


def test_word_level_states(bs):
    sharp = bs.sharp_state()
    infinity = bs.infinity_state()
    w = word(annihilator(0), creator(0))
    assert sharp(w) == 1
    assert infinity(w) == 0  # nonempty products have no scalar part
    assert infinity(word()) == 1
    assert sharp(word(creator(0), annihilator(0))) == 0  # eps_00 at the vacuum
    assert sharp(word()) == 1
    assert infinity(word(creator(1), annihilator(2))) == 0  # E_12 is compact


def _simplex_report():
    return run_suites(RunConfig(model="boolean", suites=("simplex",), seed=SEED))[0]


def test_simplex_suite_walks_the_label_states(monkeypatch):
    def no_element(*args):
        raise AssertionError("a random element was built")

    monkeypatch.setattr(suites, "_random_boolean_element", no_element)
    report = _simplex_report()
    assert report.passed and report.max_deviation == 0.0
    # 211 words under 2 shifts, 16 permutations and 30 spreading maps, at 3 weights
    assert (report.samples, report.skipped) == (211 * 48 * 3, 0)
    assert report.details["word_count"] == 211
    assert len(report.details["verdicts"]) == 9 and all(report.details["verdicts"].values())
    assert report.witnesses == [
        {"state": "site vector at 0", "map": "n=0;gaps=[0]", "moved_unit_ok": True,
         "deviation": 1.0},
    ]


def test_simplex_suite_catches_a_probe_inside_the_window(monkeypatch):
    def inside(self):
        return label_state(self, self.window[1])

    monkeypatch.setattr(BooleanSpace, "infinity_state", inside)
    report = _simplex_report()
    assert not report.passed and report.max_deviation == 1.0
    # a spreading map moves c(3)a(3) onto the probe; the vacuum part alone passes
    assert not report.details["verdicts"]["spreading/x=0.0"]
    assert report.details["verdicts"]["spreading/x=1.0"]


def test_simplex_suite_catches_a_site_dependent_annihilator(monkeypatch):
    act = BooleanSpace.act

    def mutant(self, kind, j, label):
        if kind is Kind.CREATOR:
            return act(self, kind, j, label)
        return [(SHARP, 2 if j == 0 else 1)] if label == j else []

    monkeypatch.setattr(BooleanSpace, "act", mutant)
    report = _simplex_report()
    assert not report.passed and report.max_deviation == 1.0
    assert not report.details["verdicts"]["shift/x=1.0"]


def test_morphism_suite_tells_the_unit_from_the_compact_identity(monkeypatch):
    # The unit (0, 1) and the compact identity (I, 0) have one total matrix:
    # an action that sends a scalar-only element to the compact identity on
    # the output window must fail the suite.
    def mutant(f, x):
        out = alpha(f, x)
        if x.compact.any():
            return out
        return out.home.element(out.scalar * np.eye(out.home.dim), 0)

    monkeypatch.setattr("spreadlab.boolean.alpha", mutant)
    report = run_suites(RunConfig(model="boolean", suites=("morphism",), seed=SEED))[0]
    assert not report.passed and report.max_deviation == 1.0


def test_word_states_conjugate_symmetric(bs, rng):
    from spreadlab.operators import Word, Letter, Kind

    states = [bs.sharp_state(), bs.infinity_state(), bs.vector_state(1)]
    kinds = (Kind.CREATOR, Kind.ANNIHILATOR)
    for _ in range(30):
        letters = tuple(
            Letter(kinds[rng.integers(2)], int(rng.integers(0, 4)))
            for _ in range(int(rng.integers(0, 5)))
        )
        w = Word(letters)
        for phi in states:
            assert phi(w.adjoint()) == phi(w).conjugate()
