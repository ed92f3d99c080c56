"""Fermionic chain relations and the stationary-but-not-spreadable kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab.car import (
    MAX_INDEX_PAIRS,
    FermionChain,
    TwoPointFunction,
    check_index_square,
    positivity_probe,
    spreadability_witness,
    twopoint_stationarity,
)
from spreadlab.monoid import tau_pow, theta
from spreadlab.operators import Kind, Letter, Operator, Word

def anticommutator(a, b):
    return Operator(a.space, a.matrix @ b.matrix + b.matrix @ a.matrix)


# Reference chain construction, independent of the label action: a sign
# string over the sites before j and a lowering factor at site j.
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])  # |1> -> |0>
_SIGN = np.array([[1.0, 0.0], [0.0, -1.0]])
_EYE2 = np.eye(2)


def kron_annihilator(n_sites, site):
    m = np.array([[1.0]])
    for k in range(n_sites):
        m = np.kron(m, _SIGN if k < site else (_LOWER if k == site else _EYE2))
    return m


def kron_letter(n_sites, kind, site):
    a = kron_annihilator(n_sites, site)
    return {Kind.CREATOR: a.T, Kind.ANNIHILATOR: a, Kind.POSITION: a + a.T}[kind]


@pytest.mark.parametrize("n_sites", range(1, 9))
def test_matrices_match_kron_reference(n_sites):
    chain = FermionChain((-1, n_sites - 2))  # site k holds index k - 1
    for site in range(n_sites):
        j = site - 1
        for kind, got in ((Kind.ANNIHILATOR, chain.annihilator(j)),
                          (Kind.CREATOR, chain.creator(j)),
                          (Kind.POSITION, chain.position(j))):
            assert np.array_equal(got.matrix, kron_letter(n_sites, kind, site))


@given(n_sites=st.integers(1, 5), data=st.data())
@settings(max_examples=100, deadline=None)
def test_walker_matches_kron_product(n_sites, data):
    chain = FermionChain((0, n_sites - 1))
    label = data.draw(st.sampled_from(chain.labels))
    letters = data.draw(
        st.lists(
            st.tuples(st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION]),
                      st.integers(0, n_sites - 1)),
            max_size=4,
        )
    )
    product = np.eye(chain.dim)
    for kind, site in letters:
        product = product @ kron_letter(n_sites, kind, site)
    w = Word(tuple(Letter(kind, site) for kind, site in letters))
    got = np.zeros(chain.dim)
    for image, coeff in chain.apply_word(w, {label: 1.0}).items():
        got[chain.space.index(image)] += coeff
    assert np.array_equal(got, product[:, chain.space.index(label)])


@pytest.mark.parametrize("n_sites", range(2, 9))
def test_car_relations_exact(n_sites):
    chain = FermionChain((0, n_sites - 1))
    eye = np.eye(chain.dim)
    for j in range(n_sites):
        for k in range(n_sites):
            a_j, a_k = chain.annihilator(j), chain.annihilator(k)
            c_j = chain.creator(j)
            mixed = anticommutator(c_j, a_k).matrix
            assert np.array_equal(mixed, (eye if j == k else 0 * eye))
            assert not anticommutator(a_j, a_k).matrix.any()
            assert not anticommutator(chain.creator(j), chain.creator(k)).matrix.any()


@pytest.mark.parametrize("n_sites", range(2, 9))
def test_position_relations_exact(n_sites):
    chain = FermionChain((0, n_sites - 1))
    eye = np.eye(chain.dim)
    xs = [chain.position(j) for j in range(n_sites)]
    for j in range(n_sites):
        assert np.array_equal((xs[j] @ xs[j]).matrix, eye)
        assert np.array_equal(xs[j].matrix, xs[j].matrix.conj().T)
        for k in range(n_sites):
            if j != k:
                assert not anticommutator(xs[j], xs[k]).matrix.any()


def test_chain_entries_are_integers():
    chain = FermionChain((-1, 2))
    for j in range(-1, 3):
        m = chain.annihilator(j).matrix
        assert np.array_equal(m, np.round(m.real))


def test_window_bounds():
    chain = FermionChain((2, 4))
    with pytest.raises(IndexError):
        chain.annihilator(1)
    with pytest.raises(ValueError):
        FermionChain((3, 1))


# ---------------------------------------------------------------------------
# Two-point kernel


def test_kernel_values():
    t = TwoPointFunction(coupling=1.0, diagonal=0.5)
    assert t.value(1, -1) == 1j * 3 / (math.pi**2 * 4)
    assert t.value(-1, 1) == -1j * 3 / (math.pi**2 * 4)
    assert t.value(3, 3) == 0.5


def test_kernel_validation():
    for coupling in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            TwoPointFunction(coupling=coupling)
    with pytest.raises(ValueError):
        TwoPointFunction(diagonal=1.5)


def test_stationarity_on_range():
    t = TwoPointFunction(1.0, 0.5)
    check = twopoint_stationarity(t, -20, 20)
    assert check.max_deviation == 0.0 and check.samples == 41**2
    # shifted diagonal and Hermitian consistency
    assert t.value(4, 4) == t.value(3, 3)
    assert t.value(0, 2) == t.value(3, 1).conjugate()


def test_shift_example_values():
    t = TwoPointFunction(1.0, 0.5)
    assert t.value(2, 0) == t.value(1, -1)


def test_witness_found_with_canonical_ratio():
    t = TwoPointFunction(1.0, 0.5)
    w = spreadability_witness(t)
    assert w["map"] == theta(0).to_text()
    assert (w["m"], w["n"]) == (1, -1)
    assert abs(w["lhs"]) / abs(w["rhs"]) == pytest.approx(9 / 4, abs=1e-15)
    assert w["deviation"] > 0


def test_pure_shift_is_not_a_witness():
    t = TwoPointFunction(1.0, 0.5)
    f = tau_pow(1)
    assert t.value(f(1), f(-1)) == t.value(2, 0) == t.value(1, -1)


def test_shift_above_support_is_not_a_witness():
    t = TwoPointFunction(1.0, 0.5)
    f = theta(5)
    assert t.value(f(1), f(-1)) == t.value(1, -1)


def test_largest_coupling_keeps_every_kernel_value_finite():
    t = TwoPointFunction(5.99e307, 0.5)
    assert np.isfinite(t.section(-2, 2)).all()
    for coupling in (6e307, 1e308):
        with pytest.raises(ValueError, match="at most float max / 3"):
            TwoPointFunction(coupling, 0.5)


def test_zero_coupling_has_no_witness():
    with pytest.raises(ValueError):
        spreadability_witness(TwoPointFunction(0.0, 0.5))


# ---------------------------------------------------------------------------
# Positivity probe (advisory)


def test_probe_scalar_case():
    report = positivity_probe(TwoPointFunction(0.0, 0.5), -3, 3)
    assert report["window"] == [-3, 3]
    assert np.allclose([report["min_eigenvalue"], report["max_eigenvalue"]], 0.5)
    assert report["in_unit_interval"]


def test_probe_small_coupling_within_unit_interval():
    report = positivity_probe(TwoPointFunction(0.05, 0.5), -5, 5)
    assert report["in_unit_interval"]
    assert report["min_eigenvalue"] > 0.4


def test_probe_large_coupling_reports_out_of_range():
    report = positivity_probe(TwoPointFunction(50.0, 0.5), -5, 5)
    assert report["in_unit_interval"] is False  # reported, not raised


# ---------------------------------------------------------------------------
# Index-square budget


def test_index_square_budget_is_exact():
    assert MAX_INDEX_PAIRS == 1000**2
    check_index_square(0, 999)
    check_index_square(-(10**18), -(10**18) + 999)
    with pytest.raises(ValueError, match=r"window \[0, 1000\] has 1002001 index pairs"):
        check_index_square(0, 1000)
    with pytest.raises(ValueError, match="empty window"):
        check_index_square(1, 0)


@pytest.mark.parametrize("check", [twopoint_stationarity, positivity_probe])
def test_kernel_checks_reject_an_over_budget_window_before_any_value(check, monkeypatch):
    def value(self, m, n):
        raise AssertionError("a kernel value was computed")

    monkeypatch.setattr(TwoPointFunction, "value", value)
    with pytest.raises(ValueError, match="above the budget of 1000000"):
        check(TwoPointFunction(), 0, 1000)
