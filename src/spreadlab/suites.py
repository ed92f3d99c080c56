"""Runnable check suites, one per verifiable claim.

Each suite is registered once, by the :func:`suite` decorator into
:data:`SUITES`, as a plan and a check.  The plan's parameters are the
:class:`RunConfig` fields the suite reads, with the suite's defaults; it checks
every size budget and builds the suite's inputs.  The check takes the plan and
the seed and returns the deviations and the details; it never sees the config.
The CLI narrows or widens the defaults through flags.  All sampling is seeded
through numpy Generators created from the config seed, so identical configs
give identical reports.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import numpy as np

from . import boolean as bool_model
from . import car as car_model
from .monoid import (
    compose,
    cycle_for_interval,
    decompose_semidirect,
    evaluate_increasing,
    evaluate_rows,
    localize,
    psi,
    random_increasing_map,
    realize_pair,
    semidirect_multiply,
    theta,
)
from .monotone import (
    MonotoneBasis,
    LambdaForm,
    diagonal_number_words,
    lambda_forms,
)
from .operators import (
    MAX_DENSE_DIM, Kind, annihilator, check_budget, check_space, creator, mixture, position,
    sparse_map, word,
)
from .qfock import QBasis, SubPairTable, q_inner_recursive, q_pairings, words_over
from .reports import Deviations, SuiteReport
from .symmetry import (
    check_symmetries,
    check_symmetry,
    permutation_family,
    shift_family,
    spreading_family,
)


class ConfigError(ValueError):
    """Invalid run configuration (reported with exit code 2)."""


# RunConfig fields that select and size the suites of one model; ``all`` runs
# every suite at its own defaults and rejects them.
ONE_MODEL_FIELDS = ("suites", "window", "depth", "samples")
# RunConfig fields that apply to the whole run; every other field is a suite
# option, read by the suites whose plans take it.
RUN_FIELDS = ("model", "suites", "seed", "fmt", "out")


def all_rejects(field: str) -> ConfigError:
    return ConfigError(
        f"'all' runs every suite at its own defaults; {field!r} applies to one model"
    )


@dataclass
class RunConfig:
    """A run; a suite option left at None takes each suite's own default."""

    model: str = "all"
    suites: tuple[str, ...] = ()
    window: tuple[int, int] | None = None
    depth: int | None = None
    q: float | None = None
    tol: float | None = None
    samples: int | None = None
    seed: int = 0
    fmt: str = "text"
    out: str | None = None
    coupling: float | None = None
    diagonal: float | None = None
    words_file: str | None = None

    def validate(self) -> None:
        if self.model == "all":
            for field in ONE_MODEL_FIELDS:
                if getattr(self, field) not in (None, ()):
                    raise all_rejects(field)
        if self.window is not None and self.window[0] > self.window[1]:
            raise ConfigError(f"empty window {self.window}")
        if self.tol is not None and not 0 < self.tol <= 1e-12:
            # The suites that read it check at min(tol, 1e-12): --tol only tightens.
            raise ConfigError(f"tolerance must lie in (0, 1e-12], got {self.tol}")
        if self.q is not None and not abs(self.q) < 1:
            raise ConfigError(f"deformation must satisfy |q| < 1, got {self.q}")
        if self.depth is not None and self.depth < 1:
            raise ConfigError(f"depth must be positive, got {self.depth}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.samples is not None and self.samples < 1:
            raise ConfigError(f"sample count must be positive, got {self.samples}")
        for field in ("out", "words_file"):
            if getattr(self, field) == "":
                raise ConfigError(f"{field!r} must name a path, got ''")
        if self.fmt not in ("json", "text", "csv"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.coupling is not None and (error := car_model.coupling_error(self.coupling)):
            raise ConfigError(error)
        if self.diagonal is not None and not 0 <= self.diagonal <= 1:
            raise ConfigError(f"diagonal must lie in [0, 1], got {self.diagonal}")


@dataclass
class Suite:
    """A registered suite: ``plan(**options)`` checks its budgets and builds
    its inputs, ``check(plan, seed)`` returns its deviations and details."""

    model: str
    name: str
    claim: str
    plan: Callable[..., object]
    check: Callable[[object, int], tuple[Deviations, dict]]

    @property
    def reads(self) -> tuple[str, ...]:
        """The RunConfig fields the suite reads: its plan's parameters."""
        return tuple(inspect.signature(self.plan).parameters)

    def build(self, config: RunConfig):
        """The plan at the options the config sets; the others keep the
        plan's defaults."""
        options = {field: getattr(config, field) for field in self.reads}
        return self.plan(**{field: v for field, v in options.items() if v is not None})

    def run(self, plan, seed: int) -> SuiteReport:
        """The report of the check, with the check's time as ``wall_time_s``."""
        start = time.perf_counter()
        found, details = self.check(plan, seed)
        report = found.report(self.model, self.name, self.claim, seed, details=details)
        report.wall_time_s = time.perf_counter() - start
        return report

    def __call__(self, config: RunConfig) -> SuiteReport:
        return self.run(self.build(config), config.seed)


# model -> suite name -> suite, in definition order, which is the run order.
SUITES: dict[str, dict[str, Suite]] = {}


def suite(model: str, name: str, claim: str, plan: Callable[..., object]):
    """Register the decorated check with its plan as ``SUITES[model][name]``."""

    def register(check):
        SUITES.setdefault(model, {})[name] = Suite(model, name, claim, plan, check)
        return check

    return register


# ---------------------------------------------------------------------------
# Monoid suites


# Most window points the compose oracle walks for each sampled map pair; the
# default window has 101.
MAX_ORACLE_POINTS = 10_000

# Window values the compose oracle evaluates at once for each side of the
# equation: 64 map pairs of the default window, one pair of the largest.  At
# 128 pairs the run is no faster and its peak memory is 0.6 MB higher.
ORACLE_CHUNK_VALUES = 64 * 101


def _oracle_plan(samples: int = 1000, window: tuple[int, int] = (-50, 50)):
    lo, hi = window
    check_budget(window, hi - lo + 1, MAX_ORACLE_POINTS, f"has {hi - lo + 1} points")
    return samples, window


@suite(
    "monoid", "compose-oracle",
    "canonical-form composition agrees pointwise with composing the evaluations",
    _oracle_plan,
)
def monoid_compose_oracle(plan, seed: int) -> tuple[Deviations, dict]:
    """compose(f, g) against f after g on the window, both evaluated by the
    rank equation (:func:`evaluate_rows`), which shares no step with the merge
    that builds the composite's gaps.  Pairs are drawn one at a time from the
    seeded stream and evaluated a chunk at a time; only the points that differ
    are visited, in (sample, point) order, for the witnesses."""
    rng = np.random.default_rng(seed)
    n, (lo, hi) = plan
    found = Deviations()
    window = list(range(lo, hi + 1))
    chunk = max(1, ORACLE_CHUNK_VALUES // len(window))
    for start in range(0, n, chunk):
        pairs = [(random_increasing_map(rng), random_increasing_map(rng))
                 for _ in range(min(chunk, n - start))]
        lhs = evaluate_rows([compose(f, g) for f, g in pairs], window)
        rhs = evaluate_rows([f for f, _ in pairs],
                            evaluate_rows([g for _, g in pairs], window))
        diff = (lhs - rhs).ravel()
        at = np.flatnonzero(diff)  # row-major: in (sample, point) order
        for position, deviation in zip(at.tolist(), diff[at].tolist()):
            (f, g), k = pairs[position // len(window)], window[position % len(window)]
            found.observe(deviation, lambda _: {"f": f.to_text(), "g": g.to_text(), "k": k})
    found.samples = n  # one sample per map pair
    return found, {"window": [lo, hi]}


@suite(
    "monoid", "semidirect",
    "the shift/offset-free pair product realizes composition, and the"
    " backward shift at 0 splits into shift -1 and the forward shift at 1",
    lambda samples=500: samples,
)
def monoid_semidirect(n: int, seed: int) -> tuple[Deviations, dict]:
    rng = np.random.default_rng(seed)
    found = Deviations()
    for _ in range(n):
        f = random_increasing_map(rng)
        g = random_increasing_map(rng)
        prod = semidirect_multiply(decompose_semidirect(f), decompose_semidirect(g))
        found.add(
            int(realize_pair(prod) != compose(f, g)),
            lambda _: {"f": f.to_text(), "g": g.to_text()},
        )
    pivot_ok = decompose_semidirect(psi(0)) == (-1, theta(1))
    found.require(pivot_ok)
    return found, {"psi0_decomposition_ok": pivot_ok}


@suite(
    "monoid", "localize",
    "partial-shift words reproduce arbitrary increasing maps on windows,"
    " and interval cycles reproduce the one-step shift there",
    lambda samples=200: samples,
)
def monoid_localize(n: int, seed: int) -> tuple[Deviations, dict]:
    rng = np.random.default_rng(seed)
    found = Deviations()
    cycles: dict[tuple[int, int], list[int]] = {}  # (k, l) -> the cycle's deviations
    for _ in range(n):
        f = random_increasing_map(rng)
        k = int(rng.integers(-10, 11))
        l = k + int(rng.integers(0, 8))
        window = range(k, l + 1)
        values = evaluate_increasing(f, window)
        r = localize(values, k, l)
        cycle = cycles.get((k, l))
        if cycle is None:
            sigma = cycle_for_interval(k, l)
            cycle = cycles[k, l] = [sigma(j) - (j + 1) for j in window]
        found.add(
            [r(j) - v for j, v in zip(window, values)] + cycle,
            lambda _: {"f": f.to_text(), "interval": [k, l]},
        )
    return found, {}


# ---------------------------------------------------------------------------
# Monotone suites


def _relations_basis(window: tuple[int, int] = (0, 7), depth: int = 4) -> MonotoneBasis:
    basis = MonotoneBasis(window, depth)
    check_space(basis.window, basis.dim)
    return basis


@suite(
    "monotone", "relations",
    "double creations, reversed double annihilations and mismatched"
    " annihilator-creator products vanish; the number-sum commutation identity"
    " holds away from the depth-capped columns",
    _relations_basis,
)
def monotone_relations(basis: MonotoneBasis, seed: int) -> tuple[Deviations, dict]:
    window, depth = basis.window, basis.depth
    lo, hi = window
    found = Deviations()
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            if i >= j:
                found.add(sparse_map(basis, [(1, word(creator(i), creator(j)))]))
                found.add(sparse_map(basis, [(1, word(annihilator(j), annihilator(i)))]))
            if i != j:
                found.add(sparse_map(basis, [(1, word(annihilator(i), creator(j)))]))
    # a(i) c(i) = 1 - sum over k <= i of c(k) a(k), off the depth-capped labels
    numbers = []
    for i in range(lo, hi + 1):
        numbers.append((1, word(creator(i), annihilator(i))))
        defect = sparse_map(basis, [(1, word(annihilator(i), creator(i))), (-1, word()), *numbers])
        capped = set(basis.truncation_columns(i))
        found.add({t: image for t, image in defect.items() if t not in capped})
    return found, {"window": list(window), "depth": depth, "dimension": basis.dim}


def smallest_singular_value(rows: list[dict[int, complex]]) -> float:
    """Least of the ``len(rows)`` singular values of the matrix whose row r
    has the entries ``rows[r]`` (column -> value) and zeros elsewhere.

    Rows that share no column with each other fall into separate blocks, and
    the singular values are those of the blocks; a block with more rows than
    columns adds zeros.  So this is the least over the blocks, each a small
    dense SVD.  The Hamel rows of the default window give blocks of at most
    16 x 31, far below the size at which BLAS splits a product over threads,
    so their value does not depend on the BLAS thread count.
    """
    parent = list(range(len(rows)))

    def root(r: int) -> int:
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    owner: dict[int, int] = {}  # column -> first row that has it
    for r, row in enumerate(rows):
        for c in row:
            parent[root(owner.setdefault(c, r))] = root(r)
    blocks: dict[int, list[int]] = {}
    for r in range(len(rows)):
        blocks.setdefault(root(r), []).append(r)
    least = math.inf
    for members in blocks.values():
        columns = sorted({c for r in members for c in rows[r]})
        if len(columns) < len(members):
            return 0.0
        at = {c: j for j, c in enumerate(columns)}
        block = np.zeros((len(members), len(columns)), dtype=complex)
        for i, r in enumerate(members):
            for c, value in rows[r].items():
                block[i, at[c]] = value
        least = min(least, float(np.linalg.svd(block, compute_uv=False)[-1]))
    return least


# Most (word, basis label) pairs the Hamel rows may walk: window 0..9 at
# depth 4 walks 3,136 x 386 = 1,210,496 pairs in a few seconds; 0..10 would
# walk 4,489 x 562 = 2,522,818.
MAX_HAMEL_WALKS = 2_000_000


def _hamel_basis(window: tuple[int, int] = (0, 4), depth: int = 4) -> MonotoneBasis:
    basis = MonotoneBasis(window, depth)
    lo, hi = basis.window
    dim = basis.dim
    check_space(basis.window, dim)  # within the budget, dim is exact
    # Up to two creators times up to two annihilators; the diagonal pairs are
    # swapped for the reversed products and the empty pair is the identity.
    width = hi - lo + 1
    family_size = (1 + width + math.comb(width, 2)) ** 2
    walks = family_size * dim
    check_budget(basis.window, walks, MAX_HAMEL_WALKS,
                 f"walks {family_size} words over {dim} labels, {walks} pairs")
    return basis


@suite(
    "monotone", "hamel",
    "the normally-ordered words, the reversed number products and the"
    " identity are jointly linearly independent at desk scale",
    _hamel_basis,
)
def monotone_hamel(basis: MonotoneBasis, seed: int) -> tuple[Deviations, dict]:
    lo, hi = basis.window
    dim = basis.dim
    words = [
        form.word()
        for form in lambda_forms(range(lo, hi + 1), 2, 2)
        # diagonal pairs enter through the reversed product instead
        if not (len(form.creators) == len(form.annihilators) == 1
                and form.creators == form.annihilators)
    ]
    words += diagonal_number_words(range(lo, hi + 1))
    # Row r is the row-major matrix of word r, from its walked columns.
    index = basis.space.index
    rows = [
        {index(target) * dim + index(label): weight
         for label, image in sparse_map(basis, [(1, w)]).items()
         for target, weight in image.items()}
        for w in [*words, word()]
    ]
    sigma_min = smallest_singular_value(rows)
    found = Deviations()
    found.samples = len(rows)  # one sample per family member; no deviations
    found.require(sigma_min > 1e-8)
    return found, {"sigma_min": sigma_min, "threshold": 1e-8, "family_size": len(rows)}


def read_lines(path: str, what: str) -> list[tuple[int, str]]:
    """(number, stripped text) of each line of ``path`` neither blank nor a ``#`` comment."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    return [(n, t) for n, t in enumerate(map(str.strip, lines), 1) if t and not t.startswith("#")]


def _simplex_words(path: str | None):
    if path is None:
        return [f.word() for f in lambda_forms(range(-3, 4), 4, 4, max_length=4)]
    words = []
    for lineno, text in read_lines(path, "words file"):
        try:
            words.append(LambdaForm.from_text(text).word())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not words:
        raise ValueError(f"{path}: no words")
    return words


def _spreading(seed: int):
    """theta(h) and psi(h) for each pivot h in -2..2, and 20 seeded maps."""
    return spreading_family(-2, 2, n_random=20, seed=seed)


# Most (word, map) pairs a `simplex` suite may check: `monotone/simplex` checks its
# 1,470 default words under 30 maps, `boolean/simplex` at -3..3 211 words under 48.
MAX_SIMPLEX_PAIRS = 1_000_000


def _simplex_plan(window: tuple[int, int] = (-6, 9), depth: int = 4,
                  words_file: str | None = None, tol: float = 1e-12):
    """The words, the vacuum, the state at infinity, the one-particle vector
    state whose non-invariance is the counterexample, and the tolerance."""
    words = _simplex_words(words_file)
    pairs = len(words) * len(_spreading(0).maps)
    check_budget(window, pairs, MAX_SIMPLEX_PAIRS, f"checks {pairs} (word, map) pairs")
    basis = MonotoneBasis(window, depth)
    return (words, basis.vacuum_state(), basis.state_at_infinity(), basis.vector_state((0,)),
            min(tol, 1e-12))


@suite(
    "monotone", "simplex",
    "every mixture of the vacuum with the state at infinity is invariant"
    " under spreading relabelings of normally-ordered words, while the"
    " one-particle vector state is not",
    _simplex_plan,
)
def monotone_simplex(plan, seed: int) -> tuple[Deviations, dict]:
    words, vacuum, infinity, one_particle, tol = plan
    family = _spreading(seed)
    found = Deviations(tol)
    weights = (0.0, 0.25, 0.5, 1.0)
    states = [mixture(infinity, vacuum, x) for x in weights] + [one_particle]
    *mixtures, (counter,) = check_symmetries(states, words, [family], tol=tol)
    per_weight = {f"x={x}": found.merge(check) for x, (check,) in zip(weights, mixtures)}
    counter_ok = found.merge_counterexample(counter, keep=3)
    found.require(counter_ok)
    return found, {
        "mixture_verdicts": per_weight,
        "counterexample_deviation": counter.max_deviation,
        "word_count": len(words),
    }


# ---------------------------------------------------------------------------
# Deformed suites


@suite(
    "qdeformed", "inner",
    "the inversion-statistic inner product agrees exactly with the"
    " head-peeling recursion on every tuple pair, in exact rationals and"
    " in floating point",
    lambda q=0.5: q,
)
def qdeformed_inner(q: float, seed: int) -> tuple[Deviations, dict]:
    exact_q = Fraction(q)  # every float is a dyadic rational
    found = Deviations(1e-12)
    exact = Deviations()
    memo = SubPairTable(exact_q)  # the recursion's sub-pairs and powers, at the one exact q
    for n in range(5):
        tuples = list(product(range(3), repeat=n))
        # v -> its columns u -> <u, v>, exact and at q; every u missing is 0
        columns = {v: (q_pairings(v, exact_q), q_pairings(v, q)) for v in tuples}
        for u in tuples:
            for v in tuples:
                exact_column, float_column = columns[v]
                lhs = exact_column.get(u, 0)
                rhs = q_inner_recursive(u, v, exact_q, memo)
                if lhs != rhs:  # an exact 0 would change nothing
                    exact.observe(lhs - rhs)
                value = float(float_column.get(u, 0))
                found.add(value - float(lhs),
                          lambda _: {"u": u, "v": v, "float": value, "exact": str(lhs)})
    exact_ok = found.merge(exact)
    return found, {"q": q, "exact_q": str(exact_q), "exact_match": exact_ok}


# The deformations at which the q-deformed relations are checked, exactly.
RELATIONS_Q = tuple(Fraction(n, 10) for n in (-9, -5, 0, 5, 9))


def _gram_bases(window: tuple[int, int] = (0, 2), depth: int = 3) -> list[QBasis]:
    """The basis at each deformation of :data:`RELATIONS_Q`."""
    bases = [QBasis(window, depth, q) for q in RELATIONS_Q]
    bases[0].check_gram()  # the bases differ only in q, which the budget never reads
    return bases


def _letter_form(basis: QBasis, letter, duals: dict) -> dict:
    """(x, y) -> <l e_x, e_y>_q for the letter l, from its walked images and
    the duals t -> {y: <e_t, e_y>_q}; every pair not listed is 0."""
    out: dict = {}
    for x, image in sparse_map(basis, [(1, word(letter))]).items():
        for t, weight in image.items():
            for y, pairing in duals[t].items():
                out[x, y] = out.get((x, y), 0) + weight * pairing
    return out


@suite(
    "qdeformed", "relations",
    "creation is the metric adjoint of annihilation, the deformed"
    " commutation relation holds below the depth cap, and the deformed"
    " Gram matrix stays positive definite",
    _gram_bases,
)
def qdeformed_relations(bases: list[QBasis], seed: int) -> tuple[Deviations, dict]:
    adjoint = Deviations()
    commutation = Deviations()
    min_eig = np.inf
    for basis in bases:
        q = basis.q
        gram = QBasis(basis.window, basis.depth, float(q)).gram
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gram)[0]))
        duals = {v: q_pairings(v, q) for v in basis.labels}
        lo, hi = basis.window
        for i in range(lo, hi + 1):
            # <c(i) u, v>_q = <u, a(i) v>_q, which is <a(i) v, u>_q at real q
            raised = _letter_form(basis, creator(i), duals)
            lowered = _letter_form(basis, annihilator(i), duals)
            transposed = {(u, v): x for (v, u), x in lowered.items()}
            pairs = raised.keys() | transposed.keys()
            adjoint.observe({k: raised.get(k, 0) - transposed.get(k, 0) for k in pairs})
            for j in range(lo, hi + 1):
                # a(i) c(j) - q c(j) a(i) = delta(i, j), off the depth-capped labels
                defect = sparse_map(basis, [
                    (1, word(annihilator(i), creator(j))),
                    (-q, word(creator(j), annihilator(i))),
                    (-int(i == j), word()),
                ])
                commutation.add({t: image for t, image in defect.items() if len(t) < basis.depth})
    found = Deviations()
    found.merge(adjoint)
    found.merge(commutation)
    found.require(min_eig > 0)
    return found, {
        "adjoint_deviation": float(adjoint.max_deviation),
        "commutation_deviation": float(commutation.max_deviation),
        "exact_q": [str(basis.q) for basis in bases],
        "gram_min_eigenvalue": min_eig,
    }


def _families(lo: int, hi: int, seed: int) -> tuple:
    """Both shifts, permutations of [lo, hi] and spreading maps around 0."""
    return (shift_family(), permutation_family(lo, hi, n_random=10, seed=seed),
            _spreading(seed))


def _vacuum_states(window: tuple[int, int] = (-8, 8), depth: int = 3, q: float = 0.5,
                   tol: float = 1e-12):
    """The vacuum state, the one-particle vector state whose non-invariance
    is the counterexample, the deformation and the tolerance."""
    basis = QBasis(window, depth, q)
    return basis.vacuum_state(), basis.vector_state((1,)), q, min(tol, 1e-12)


@suite(
    "qdeformed", "vacuum",
    "the deformed vacuum state is invariant under shifts, finite"
    " permutations and spreading relabelings of ladder and position words,"
    " while a one-particle vector state is not",
    _vacuum_states,
)
def qdeformed_vacuum(plan, seed: int) -> tuple[Deviations, dict]:
    vacuum, one_particle, q, tol = plan
    ladder = list(words_over([-2, -1, 0, 1, 2], 4, (Kind.CREATOR, Kind.ANNIHILATOR)))
    positions = list(words_over([-2, -1, 0, 1, 2], 4, (Kind.POSITION,)))
    found = Deviations(tol)
    verdicts = {}
    families = _families(-2, 2, seed)
    for words in (ladder, positions):
        (checks,) = check_symmetries([vacuum], words, families, tol=tol)
        for family, check in zip(families, checks):
            key = f"{family.name}/{'positions' if words is positions else 'ladder'}"
            verdicts[key] = found.merge(check)
    counter = check_symmetry(
        one_particle, [word(creator(1), annihilator(1))], shift_family(), tol=tol
    )
    counter_ok = found.merge_counterexample(counter, keep=3)
    found.require(counter_ok)
    return found, {"q": q, "verdicts": verdicts, "word_count": len(ladder) + len(positions)}


# ---------------------------------------------------------------------------
# Boolean suites


def _boolean_space(window: tuple[int, int]) -> bool_model.BooleanSpace:
    space = bool_model.BooleanSpace(window)
    check_space(space.window, space.dim)
    return space


@suite(
    "boolean", "relations",
    "annihilator-creator products equal the vacuum projection times the"
    " index match, and creator-annihilator products are the matrix units",
    lambda window=(-4, 4): _boolean_space(window),
)
def boolean_relations(space: bool_model.BooleanSpace, seed: int) -> tuple[Deviations, dict]:
    lo, hi = space.window
    # a(i) c(j) = delta(i, j) times the vacuum projection 1 - sum over k of c(k) a(k)
    vacuum = [(-1, word()), *((1, word(creator(k), annihilator(k))) for k in range(lo, hi + 1))]
    found = Deviations()
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            match = vacuum if i == j else []
            found.add(sparse_map(space, [(1, word(annihilator(i), creator(j))), *match]))
            unit = sparse_map(space, [(1, word(creator(i), annihilator(j)))])
            found.add(int(unit != {j: {i: 1}}))  # the matrix unit E_ij
    return found, {"window": list(space.window)}


def _random_boolean_element(space, rng):
    k = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
        (space.dim, space.dim)
    )
    return space.element(k, complex(rng.standard_normal(), rng.standard_normal()))


# Dense dim x dim arrays alive at the peak of one `boolean/morphism` sample, by
# tracemalloc: 16.0 at 201 and 401 sites, 15.7 at 601 (the budget admits 1,023).
MORPHISM_LIVE_ARRAYS = 16


def _morphism_plan(samples: int = 200, window: tuple[int, int] = (-3, 3)):
    """The sample count and the window's space, whose live dense entries stay
    within those of one matrix of :data:`MAX_DENSE_DIM` rows."""
    space = _boolean_space(window)
    entries = MORPHISM_LIVE_ARRAYS * space.dim ** 2
    check_budget(space.window, entries, MAX_DENSE_DIM ** 2, f"keeps {entries} dense entries alive")
    return samples, space


@suite(
    "boolean", "morphism",
    "the relabeling action composes like the maps and is a unital"
    " star-endomorphism on chained interval windows",
    _morphism_plan,
)
def boolean_morphism(plan, seed: int) -> tuple[Deviations, dict]:
    rng = np.random.default_rng(seed)
    n, base = plan
    found = Deviations(1e-12)
    for _ in range(n):
        f = random_increasing_map(rng, (-2, 2), 3, (-6, 6))
        g = random_increasing_map(rng, (-2, 2), 3, (-6, 6))
        x = _random_boolean_element(base, rng)
        y = _random_boolean_element(base, rng)
        lhs = bool_model.alpha(compose(f, g), x)
        rhs = bool_model.alpha(f, bool_model.alpha(g, x))
        fx = bool_model.alpha(f, x)
        fy = bool_model.alpha(f, y)
        fxy = bool_model.alpha(f, x * y)
        fxs = bool_model.alpha(f, x.adjoint())
        unital = bool_model.alpha(f, base.identity())
        # Part by part: the total matrices cannot tell the unit (0, 1) from
        # the compact identity (I, 0).  The differences die with the call.
        found.add(
            tuple(part for d in (lhs - rhs, fxy - fx * fy, fxs - fx.adjoint(),
                                 unital - unital.home.identity())
                  for part in (d.compact, d.scalar)),
            lambda dev: {"f": f.to_text(), "g": g.to_text(), "deviation": dev},
        )
    return found, {}


def _simplex_space(window: tuple[int, int] = (-3, 3), tol: float = 1e-12):
    """The window's space and the tolerance."""
    space = _boolean_space(window)
    lo, hi = space.window
    if not lo <= 0 <= hi:
        raise ValueError(f"window [{lo}, {hi}] misses site 0, where the site vector witness sits")
    # Words of up to 2 of 2W letters under the W + 41 maps of `_families`: 2 shifts,
    # W - 1 + 10 permutations and 10 + 20 spreading maps.
    width = hi - lo + 1
    pairs = ((2 * width) ** 2 + 2 * width + 1) * (width + 41)
    check_budget(space.window, pairs, MAX_SIMPLEX_PAIRS, f"checks {pairs} (word, map) pairs")
    return space, min(tol, 1e-12)


@suite(
    "boolean", "simplex",
    "mixtures of the vacuum-label state with the scalar-part state are"
    " invariant under the relabeling action, permutations and shifts, while"
    " a site vector state is moved off its matrix unit",
    _simplex_space,
)
def boolean_simplex(plan, seed: int) -> tuple[Deviations, dict]:
    base, tol = plan
    lo, hi = base.window
    # With the unit, c(i)a(j) = E_ij, c(i) = E_i#, a(j) = E_#j and a(i)c(i) = E_## span
    # the window algebra, and alpha relabels each: these words check every element.
    words = list(words_over(range(lo, hi + 1), 2, (Kind.CREATOR, Kind.ANNIHILATOR)))
    families = _families(lo, hi, seed)
    # The states live on the hull of every image, so no relabeling escapes.
    ends = [g(k) for family in families for g in family.maps for k in (lo, hi)]
    hull = bool_model.BooleanSpace((min(lo, *ends), max(hi, *ends)))
    found = Deviations(tol)
    verdicts = {}
    weights = (0.0, 0.3, 1.0)
    states = [mixture(hull.infinity_state(), hull.sharp_state(), lam) for lam in weights]
    for lam, checks in zip(weights, check_symmetries(states, words, families, tol=found.tol)):
        for family, check in zip(families, checks):
            verdicts[f"{family.name}/x={lam}"] = found.merge(check)
    moved_unit = bool_model.alpha(theta(0), base.matrix_unit(0, 0))
    witness_ok = moved_unit.allclose(moved_unit.home.matrix_unit(1, 1))
    # The moved site vector is evidence, not a sample: alpha moves E_00 to E_11.
    site = hull.vector_state(0)
    counter = Deviations(found.tol)
    counter_dev = counter.observe(
        site(word(creator(1), annihilator(1))) - site(word(creator(0), annihilator(0))),
        lambda dev: {
            "state": "site vector at 0",
            "map": theta(0).to_text(),
            "moved_unit_ok": witness_ok,
            "deviation": float(dev),
        },
    )
    counter_ok = found.merge_counterexample(counter, keep=1)
    found.require(witness_ok and counter_ok and counter_dev == 1.0)
    return found, {"weights": list(weights), "verdicts": verdicts, "word_count": len(words)}


# ---------------------------------------------------------------------------
# Fermionic suites


def _chain(window: tuple[int, int] = (0, 7)) -> car_model.FermionChain:
    chain = car_model.FermionChain(window)
    check_space(chain.window, chain.dim)
    return chain


@suite(
    "car", "relations",
    "the chain operators satisfy the anticommutation relations and the"
    " position operators square to the identity and anticommute",
    _chain,
)
def car_relations(chain: car_model.FermionChain, seed: int) -> tuple[Deviations, dict]:
    lo, hi = chain.window
    found = Deviations()
    # {c(j), a(k)} = delta(j, k), {a(j), a(k)} = 0 and {x(j), x(k)} = 2 delta(j, k)
    relations = ((creator, annihilator, 1), (annihilator, annihilator, 0), (position, position, 2))
    for j in range(lo, hi + 1):
        for k in range(lo, hi + 1):
            for left, right, unit in relations:
                a, b = left(j), right(k)
                rhs = unit if j == k else 0
                found.add(sparse_map(chain, [(1, word(a, b)), (1, word(b, a)), (-rhs, word())]))
    return found, {"sites": hi - lo + 1, "dimension": chain.dim}


def _kernel_plan(default: tuple[int, int]):
    def plan(window: tuple[int, int] = default, coupling: float = 1.0, diagonal: float = 0.5):
        car_model.check_index_square(*window)
        return car_model.TwoPointFunction(coupling, diagonal), window

    return plan


@suite(
    "car", "stationary", "the two-point kernel is invariant under shifting both arguments",
    _kernel_plan((-20, 20)),
)
def car_stationary(plan, seed: int) -> tuple[Deviations, dict]:
    t, (lo, hi) = plan
    found = car_model.twopoint_stationarity(t, lo, hi)
    return found, {"window": [lo, hi], "coupling": t.coupling}


@suite(
    "car", "witness",
    "a forward partial shift straddling an index pair changes the"
    " two-point value, so the kernel is stationary but not spreadable",
    lambda coupling=1.0, diagonal=0.5: car_model.spreadability_witness(
        car_model.TwoPointFunction(coupling, diagonal)),
)
def car_witness(w: dict, seed: int) -> tuple[Deviations, dict]:
    lhs, rhs = w["lhs"], w["rhs"]
    ratio = abs(lhs) / abs(rhs) if rhs != 0 else np.inf
    counter = Deviations()
    counter.add(lhs - rhs, lambda _: w)
    found = Deviations()
    counter_ok = found.merge_counterexample(counter, keep=1)
    found.require(counter_ok and ratio >= 2.0)
    return found, {"value_ratio": float(ratio)}


@suite(
    "car", "positivity",
    "spectrum probe of the kernel section against the unit interval"
    " (advisory: out-of-range eigenvalues are reported, never fatal)",
    _kernel_plan((-5, 5)),
)
def car_positivity(plan, seed: int) -> tuple[Deviations, dict]:
    t, (lo, hi) = plan
    found = Deviations()
    found.samples = hi - lo + 1  # one sample per site; advisory, no deviations
    return found, car_model.positivity_probe(t, lo, hi)


def selected_suites(config: RunConfig) -> list[Suite]:
    """The suites a config runs, in run order; a bad model or suite name is a
    ConfigError."""
    if config.model not in [*SUITES, "all"]:
        raise ConfigError(f"unknown model {config.model!r}")
    models = list(SUITES) if config.model == "all" else [config.model]
    selected = []
    for model in models:
        for name in config.suites or SUITES[model]:
            if name not in SUITES[model]:
                raise ConfigError(
                    f"unknown suite {name!r} for model {model!r};"
                    f" available: {', '.join(SUITES[model])}"
                )
            selected.append(SUITES[model][name])
    return selected


def check_read(config: RunConfig, fields) -> None:
    """Reject each suite option among ``fields`` that no suite the config
    selects reads; no plan is built."""
    selected = selected_suites(config)
    for field in fields:
        if field in RUN_FIELDS or any(field in entry.reads for entry in selected):
            continue
        readers = [name for name, entry in SUITES[config.model].items() if field in entry.reads]
        raise ConfigError(
            f"no selected suite reads {field!r}; "
            + (f"{config.model} suites that do: {', '.join(readers)}" if readers
               else f"no {config.model} suite does")
        )


def run_suites(config: RunConfig) -> list[SuiteReport]:
    """Build the plan of every selected suite, then run each check on its
    plan; a bad model or suite name is a ConfigError first."""
    config.validate()
    selected = selected_suites(config)

    def step(entry: Suite, action: Callable, *args):
        try:
            return action(*args)
        except ValueError as exc:
            # Models and states reject windows, depths and labels that
            # do not fit together; that is bad configuration too.
            raise ConfigError(f"{entry.model}/{entry.name}: {exc}") from exc

    # Every size budget before the first check runs; each plan is dropped
    # once its check has run.
    plans = [step(entry, entry.build, config) for entry in selected]
    return [step(entry, entry.run, plans.pop(0), config.seed) for entry in selected]
