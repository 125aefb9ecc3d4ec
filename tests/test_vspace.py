import io
import itertools
import math
import re
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soldeg import (
    GREVLEX,
    GRLEX,
    CapExceeded,
    DimensionError,
    DomainError,
    InconsistencyError,
    PolySystem,
    PreconditionError,
    buchberger_reduced,
    construct_top_representatives,
    gen_fk,
    gen_random,
    interreduce_tops,
    normal_form,
    reduce_against_tops,
    v_space_closure,
    RandomSpec,
    Ring,
    RowBasis,
)

from helpers import mk, row_cap
from oracle_vspace import BruteForceSpan
from soldeg.vspace import DEFAULT_MAX_ROWS


# --- closure ------------------------------------------------------------------


def test_closure_family_dimensions_and_membership():
    F = gen_fk(2, 101)
    x, y = F.ring.variables()
    V2 = v_space_closure(F, 2)
    assert V2.span_dim() == 3
    assert not V2.span_contains(x)
    V3 = v_space_closure(F, 3)
    assert V3.span_contains(x)
    assert V3.span_contains(y)
    assert V3.span_dim() == 9


def test_closure_without_mutants():
    F = mk("p=101; vars=x,y; x^2; y^2")
    V = v_space_closure(F, 3)
    assert V.span_dim() == 6
    expected = {(2, 0), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)}
    assert {r.leading_monomial(GREVLEX) for r in V.rows} == expected


def test_closure_rejects_degree_zero():
    with pytest.raises(DomainError):
        v_space_closure(gen_fk(2, 101), 0)


@pytest.mark.parametrize("d", [2.0, 2.5, True])
def test_closure_refuses_a_degree_that_is_not_an_int(d):
    # a bool passes isinstance(d, int) but is no degree
    with pytest.raises(DomainError, match="closure degree must be an int"):
        v_space_closure(gen_fk(2, 101), d)


def test_closure_rows_lie_in_the_ideal():
    F = gen_fk(3, 101)
    G = buchberger_reduced(F, GREVLEX)
    V = v_space_closure(F, 4)
    for row in V.rows:
        assert normal_form(row, G).is_zero


@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_closure_is_multiplicatively_closed(order):
    F = gen_fk(2, 101)
    d = 4
    V = v_space_closure(F, d, order)
    n = F.ring.nvars
    for row in V.rows:
        for i in range(n):
            m = tuple(int(j == i) for j in range(n))
            if row.degree + 1 <= d:
                assert V.span_contains(row.mul_monomial(m))


def test_closure_monotone_in_degree():
    F = gen_fk(3, 101)
    previous = None
    for d in range(2, 6):
        V = v_space_closure(F, d)
        if previous is not None:
            for row in previous.rows:
                assert V.span_contains(row)
        previous = V


def traced_closure(F, d, order=GREVLEX):
    sink = io.StringIO()
    V = v_space_closure(F, d, order, trace=sink)
    return V, sink.getvalue()


def assert_variable_only_counters(F, V, text):
    # inputs of degree <= d are inserted once; every row of degree < d is
    # passed over once, at the rung that adopted it or, when it has that
    # rung's degree, at the next one, and multiplied by the variables from
    # its start index on: the multiplier's index when its product x_a*r<k>
    # had degree below the rung or the row has the rung's degree, else 0
    # (inputs, and mutants of products of the rung's degree)
    d, names = len(V.dims) - 1, F.ring.names
    lines = [line.split("\t") for line in text.splitlines()]
    passed_at, starts = [], []  # the rung that passes over each row; start indices
    for degree, _, source, multiplier in lines:
        degree = int(degree)
        if source.startswith("f"):
            rung, start = F[int(source[1:])].degree, 0
        else:
            k = int(source[1:])
            rung = passed_at[k]
            below = int(lines[k][0]) + 1 < rung or degree == rung
            start = names.index(multiplier) if below else 0
        passed_at.append(max(rung, degree + 1))
        if degree < d:
            starts.append(start)
    seeds = sum(1 for f in F if f.degree <= d)
    assert len(starts) == sum(1 for row in V.rows if row.degree < d)
    assert V.stats.closure_passes == len(starts)
    assert V.stats.insertions == seeds + sum(F.ring.nvars - start for start in starts)


def test_closure_insertion_counter_within_quadratic_bound():
    for k in (2, 3, 4):
        F = gen_fk(k, 101)
        d = k + 1
        V, text = traced_closure(F, d)
        N = math.comb(F.ring.nvars + d, F.ring.nvars)
        assert V.stats.insertions <= N * N
        assert V.stats.adoptions == V.span_dim()
        assert_variable_only_counters(F, V, text)


@pytest.mark.parametrize("seed", range(6))
def test_closure_counter_bound_on_random_systems(seed):
    n = 2 if seed % 2 else 3
    spec = RandomSpec(seed=seed, n=n, k=n + 1, deg_bounds=(2,) * (n + 1), density=0.7, p=3)
    F = gen_random(spec)
    for d in (2, 3, 4):
        V, text = traced_closure(F, d)
        N = math.comb(n + d, n)
        assert V.stats.insertions <= N * N
        assert_variable_only_counters(F, V, text)


@pytest.mark.parametrize(
    "make, d, counters",
    [
        (lambda: gen_fk(10), 11, (89, 77, 65, 4)),
        (lambda: gen_random(RandomSpec(seed=1, n=4, k=4, deg_bounds=(2,) * 4)), 6, (244, 194, 110, 59484)),
    ],
    ids=["fk10-d11", "random-n4-quadrics-d6"],
)
def test_closure_work_counters_are_pinned(make, d, counters):
    """Work counters are deterministic: insertions, adoptions and passes
    follow the closure's schedule, field_mults the echelon kernel."""
    stats = v_space_closure(make(), d).stats
    assert (stats.insertions, stats.adoptions, stats.closure_passes, stats.field_mults) == counters


def reference_closure(F, d, order):
    """The climb without the start-index skip, on a RowBasis: rung e = 0..d
    re-queues the rows of degree e - 1, inserts the inputs of degree e and
    multiplies every queued row by every variable. Returns the basis, the
    trace text, the insertion and pass counts, the dimension after each
    rung, and the residual of every product that the start-index rule skips
    (the variables before the row's start)."""
    ring, n = F.ring, F.ring.nvars
    basis = RowBasis(ring, order)
    lines, queue, tops, skipped, dims = [], deque(), [], [], []
    insertions = passes = 0

    def insert(f, source, multiplier, e, a=None):
        nonlocal insertions
        insertions += 1
        residual = basis.insert_reduce(f)
        if not residual.is_zero:
            pivot = ring.poly({residual.leading_monomial(order): 1}).render()
            row_id = f"r{len(lines)}"
            lines.append(f"{residual.degree}\t{pivot}\t{source}\t{multiplier}\n")
            # a product below the rung, or a row of the rung's degree, starts at x_a
            start = 0 if a is None or f.degree == e > residual.degree else a
            (queue if residual.degree < e else tops).append((row_id, residual, start))
        return residual

    for e in range(d + 1):
        queue.extend(tops)
        tops.clear()
        for i, f in enumerate(F):
            if f.degree == e:
                insert(f, f"f{i}", "1", e)
        while queue:
            row_id, g, start = queue.popleft()
            passes += 1
            for a in range(n):
                x = tuple(int(j == a) for j in range(n))
                residual = insert(g.mul_monomial(x), row_id, ring.names[a], e, a)
                if a < start:
                    skipped.append(residual)
        dims.append(basis.span_dim())
    return basis, "".join(lines), insertions, passes, dims, skipped


@st.composite
def closure_cases(draw):
    p = draw(st.sampled_from([2, 3, 101]))
    if draw(st.booleans()):
        F = gen_fk(draw(st.integers(2, 4)), p)
    else:
        n = draw(st.integers(2, 3))
        k = draw(st.integers(1, n + 1))
        bounds = tuple(draw(st.lists(st.integers(1, 3 if n == 2 else 2), min_size=k, max_size=k)))
        F = gen_random(RandomSpec(seed=draw(st.integers(0, 10**6)), n=n, k=k,
                                  deg_bounds=bounds, density=draw(st.sampled_from([0.4, 0.7, 1.0])),
                                  p=p))
    order = draw(st.sampled_from([GREVLEX, GRLEX]))
    d = max(1, F.max_degree() + draw(st.sampled_from([2, 3, 1, 0, -1])))
    return F, d, order


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(closure_cases())
def test_closure_matches_the_closure_without_the_skip(case):
    F, d, order = case
    V, text = traced_closure(F, d, order)
    basis, ref_text, insertions, passes, dims, skipped = reference_closure(F, d, order)
    assert text == ref_text
    assert V.rows == basis.rows
    assert V.dims == dims
    assert V.stats.adoptions == basis.span_dim() == V.span_dim()
    assert V.stats.closure_passes == passes
    assert insertions - V.stats.insertions == len(skipped)
    assert all(residual.is_zero for residual in skipped)


def closure_outcome(F, d, order, trace, max_rows=DEFAULT_MAX_ROWS):
    """(dims, rows, counters) of v_space_closure(F, d, order), or the
    counters that CapExceeded carries when the closure passes `max_rows`."""
    try:
        with row_cap(max_rows):
            V = v_space_closure(F, d, order, trace=trace)
    except CapExceeded as err:
        return "capped", dict(vars(err.stats))
    return V.dims, V._rows(), dict(vars(V.stats))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(closure_cases(), st.integers(1, 12))
def test_an_untraced_closure_equals_a_traced_one(case, max_rows):
    # reports and the benchmark climb untraced; the oracle tests above trace
    F, d, order = case
    for cap in (DEFAULT_MAX_ROWS, max_rows):
        assert closure_outcome(F, d, order, None, cap) == closure_outcome(F, d, order, io.StringIO(), cap)


@pytest.mark.parametrize("k", range(2, 13))
def test_an_untraced_closure_equals_a_traced_one_on_the_family(k):
    F = gen_fk(k, 101)
    for order, d, cap in itertools.product((GREVLEX, GRLEX), (k + 1, k + 2), (DEFAULT_MAX_ROWS, 5)):
        untraced = closure_outcome(F, d, order, None, cap)
        assert untraced == closure_outcome(F, d, order, io.StringIO(), cap)
        assert (untraced[0] == "capped") == (cap == 5)


def closure_with_and_without_the_product_path(F, d, order):
    """(trace text, dims, rows, stats) of v_space_closure(F, d, order), once
    as it is and once with every product reduced by RowBasis._insert, so
    that no product is stored without a reduction."""

    def through_insert(self, lead, work):
        work[lead] = 1
        return self._insert(work)

    runs = []
    for slow in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if slow:
                mp.setattr(RowBasis, "_insert_product", through_insert)
            V, text = traced_closure(F, d, order)
        runs.append((text, V.dims, V._rows(), vars(V.stats)))
    return runs


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(closure_cases())
def test_a_product_stored_as_it_is_matches_its_reduction(case):
    fast, slow = closure_with_and_without_the_product_path(*case)
    assert fast == slow


@pytest.mark.parametrize("k", range(2, 13))
def test_a_product_stored_as_it_is_matches_its_reduction_on_the_family(k):
    F = gen_fk(k, 101)
    for order, d in itertools.product((GREVLEX, GRLEX), (k + 1, k + 2)):
        fast, slow = closure_with_and_without_the_product_path(F, d, order)
        assert fast == slow


@pytest.mark.parametrize(
    "F, d",
    [
        (mk("p=101; vars=x,y,z; x^2*y; x*y^3; z^4"), 6),
        (PolySystem(gen_fk(12).ring, [f.top() for f in gen_fk(12)]), 13),
    ],
)
def test_a_closure_of_monomial_rows_matches_its_reduction_and_the_brute_force_span(F, d):
    # every row is a monomial, so every product comes from a row with no
    # tail: the closure's empty-product branch and nothing else
    oracle = BruteForceSpan(F, d)
    for order in (GREVLEX, GRLEX):
        fast, slow = closure_with_and_without_the_product_path(F, d, order)
        assert fast == slow
        _, dims, rows, _ = fast
        assert all(len(row) == 1 for _, row in rows)
        V = v_space_closure(F, d, order)
        assert V.span_dim() == oracle.dim == dims[-1]
        assert all(oracle.contains(row) for row in V.rows)


def test_a_product_that_hits_no_pivot_skips_the_echelon_kernel(monkeypatch):
    # fk10 at d = 11 inserts 89 candidates (pinned above): its 3 inputs and
    # 86 products, of which only those that meet a pivot reach _insert
    calls, hits = [], []
    insert, insert_product = RowBasis._insert, RowBasis._insert_product

    def counted_insert(self, work):
        calls.append(None)
        return insert(self, work)

    def counted_product(self, lead, work):
        hits.append(lead in self._tails or not self._tails.keys().isdisjoint(work))
        return insert_product(self, lead, work)

    monkeypatch.setattr(RowBasis, "_insert", counted_insert)
    monkeypatch.setattr(RowBasis, "_insert_product", counted_product)
    stats = v_space_closure(gen_fk(10), 11).stats
    assert stats.insertions == 89 == 3 + len(hits)
    assert len(calls) == 3 + sum(hits) == 21


@pytest.mark.parametrize(
    "text, d",
    [
        ("p=101; vars=x,y; x^3 + y; y^3 + x; x*y", 5),
        ("p=2; vars=x,y; x^2 + x*y + 1; y^2 + x", 4),
        ("p=3; vars=x,y,z; x*y + z; y^2 + 2*x; x*z + y + 1", 4),
        ("p=3; vars=x,y; x*y + 2; x^2 + y^2 + x", 4),
        ("p=101; vars=x,y; x + 1; 2; x*y", 3),  # a constant enters at rung 0
        ("p=2; vars=x,y,z; x^2 + y; y*z + x + 1; z^2", 4),
    ],
)
def test_rung_dims_match_the_brute_force_span(text, d):
    F = mk(text)
    for order in (GREVLEX, GRLEX):
        assert v_space_closure(F, d, order).dims == [BruteForceSpan(F, e).dim for e in range(d + 1)]


def test_rung_dims_equal_the_closures_of_each_degree():
    constants = 0
    for seed, p, n in itertools.product(range(10), (2, 3, 101), (1, 2, 3)):
        # a degree-1 member that draws only its constant term is a constant
        spec = RandomSpec(seed=seed, n=n, k=n + 1, deg_bounds=(1,) + (2,) * n, density=0.4, p=p)
        F = gen_random(spec)
        constants += F.degrees().count(0)
        for order in (GREVLEX, GRLEX):
            d = F.max_degree() + 2
            dims = v_space_closure(F, d, order).dims
            assert dims[1:] == [v_space_closure(F, e, order).span_dim() for e in range(1, d + 1)]
    assert constants


def test_a_climb_closed_early_writes_the_counters_of_the_rungs_it_climbed():
    # the d_reg walk closes the climb at every finite d_reg: its counters,
    # rung dims and rows are then those of the closure to the last rung
    from soldeg.vspace import _climb

    systems = [gen_fk(k, p) for k, p in ((3, 101), (5, 3), (7, 2))] + [
        gen_random(RandomSpec(seed=seed, n=n, k=n + 1, deg_bounds=(2,) * (n + 1), density=0.7, p=p))
        for seed, n, p in ((0, 2, 101), (1, 3, 3), (2, 3, 101), (3, 2, 2), (4, 3, 2))
    ]
    for F in systems:
        for order in (GREVLEX, GRLEX):
            d = F.max_degree() + 2
            for r in range(1, d):
                rungs = _climb(F, d, order, max_rows=DEFAULT_MAX_ROWS, trace=None)
                V = next(itertools.islice(rungs, r, None))
                rungs.close()
                W = v_space_closure(F, r, order)
                assert (vars(V.stats), V.dims, V._rows()) == (vars(W.stats), W.dims, W._rows())
            assert V.stats.closure_passes > 0  # rung d - 1 multiplied the inputs


def test_closure_log_and_trace():
    F = gen_fk(2, 101)
    sink = io.StringIO()
    V = v_space_closure(F, 3, trace=sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == V.span_dim()
    for line in lines:
        degree, pivot, source, multiplier = line.split("\t")
        assert degree.isdigit()
        assert source.startswith(("f", "r"))
        assert pivot and multiplier
        if source.startswith("f"):
            assert multiplier == "1"
        else:
            assert multiplier in F.ring.names
    # deterministic: a second run yields byte-identical output
    sink2 = io.StringIO()
    v_space_closure(F, 3, trace=sink2)
    assert sink2.getvalue() == sink.getvalue()


def test_closure_cap_carries_partial_stats():
    F = gen_fk(4, 101)
    with row_cap(2), pytest.raises(CapExceeded) as err:
        v_space_closure(F, 5)
    assert err.value.stats is not None
    assert err.value.stats.adoptions >= 2


@pytest.mark.parametrize("max_rows", [1, 5, 10])
def test_closure_cap_carries_the_counters_at_the_cap(max_rows):
    F = gen_random(RandomSpec(seed=2, n=3, k=3, deg_bounds=(2, 2, 2), density=1.0, p=101))
    assert v_space_closure(F, 3).span_dim() > max_rows
    with row_cap(max_rows), pytest.raises(CapExceeded) as err:
        v_space_closure(F, 3)
    stats = err.value.stats
    assert stats.adoptions == max_rows + 1
    assert stats.insertions >= stats.adoptions
    assert stats.field_mults > 0
    # the three inputs are adopted before the first row is multiplied
    assert (stats.closure_passes > 0) == (max_rows >= 3)


# systems whose climbs adopt rows below their rung at various rungs, or at
# none (x^2; y^5); none has a constant input, which rung 0 adopts
LAST_FALL_CASES = [
    "p=101; vars=x,y; x^2 + y; y^2 + x; x*y",
    "p=101; vars=x,y; x^5 + y; y^5 + x; x*y",
    "p=101; vars=x,y; x^2; y^5",
    "p=101; vars=x,y; x; x + 1",
    "p=3; vars=x,y,z; x^2 + y*z + 1; y^2 + x; z^2 + x*y + z",
]


@pytest.mark.parametrize("order", [GREVLEX, GRLEX], ids=lambda o: o.kind)
def test_the_last_fall_is_the_last_rung_whose_trace_holds_a_lower_degree(order):
    """_last_fall on V(F, d) is the last rung e <= d whose trace lines, those
    v_space_closure(F, e) writes past the trace of v_space_closure(F, e - 1),
    include a row of degree below e; 0 if none."""
    systems = [mk(text) for text in LAST_FALL_CASES] + [gen_fk(k, 101) for k in (2, 3, 5)]
    systems.append(gen_random(RandomSpec(seed=1, n=3, k=3, deg_bounds=(2,) * 3)))
    seen = set()
    for F in systems:
        before, falls = "", []
        for d in range(1, 8):
            sink = io.StringIO()
            V = v_space_closure(F, d, order, trace=sink)
            text = sink.getvalue()
            assert text.startswith(before)
            if any(int(line.split("\t")[0]) < d for line in text[len(before):].splitlines()):
                falls.append(d)
            assert V._last_fall() == max(falls, default=0), (F, d)
            seen.add(V._last_fall())
            before = text
    assert {0, 1, 3, 4, 6} <= seen  # no fall, and falls at several rungs


# --- top representatives ------------------------------------------------------


def test_representatives_for_the_family():
    F = gen_fk(2, 101)
    reps = construct_top_representatives(F, 2)
    ring = F.ring
    assert len(reps) == 3
    assert reps[ring.monomial(1, 1)] == F[2]
    assert reps[ring.monomial(2, 0)] == F[0]
    assert reps[ring.monomial(0, 2)] == F[1]


@pytest.mark.parametrize("seed", range(4))
def test_representative_properties_on_random_systems(seed):
    spec = RandomSpec(seed=seed, n=2, k=3, deg_bounds=(2, 2, 2), density=0.8, p=101,
                      require_hypothesis=True)
    F = gen_random(spec)
    from soldeg import degree_of_regularity

    d = degree_of_regularity(F)
    reps = construct_top_representatives(F, d)
    assert len(reps) == math.comb(d + F.ring.nvars - 1, d)
    V = v_space_closure(F, d)
    for m, p in reps.items():
        assert p.top().terms == {m: 1}
        assert V.span_contains(p)


@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_representatives_do_not_depend_on_input_order(order):
    spec = RandomSpec(seed=23, n=2, k=3, deg_bounds=(2, 2, 2), density=0.8, p=101,
                      require_hypothesis=True)
    F = gen_random(spec)
    from soldeg import degree_of_regularity

    d = degree_of_regularity(F)
    backwards = PolySystem(F.ring, reversed(list(F)))
    reps = construct_top_representatives(F, d, order)
    assert construct_top_representatives(backwards, d, order) == reps


@pytest.mark.parametrize("d_reg", [0, True, 2.0])
def test_representatives_refuse_a_degree_that_is_not_a_positive_int(d_reg):
    # True used to pass this check and fail later in the closure
    with pytest.raises(DomainError, match="regularity degree must be a positive int"):
        construct_top_representatives(gen_fk(2, 101), d_reg)


def test_representatives_refuse_oversized_inputs():
    F = mk("p=101; vars=x,y; x; y; x^5")
    with pytest.raises(PreconditionError):
        construct_top_representatives(F, 1)


def test_representatives_detect_wrong_regularity_degree():
    # the error names the largest monomial that is no pivot; in x^2 + y^2,
    # x^2 is a pivot whose row tops out in x^2 + y^2
    for text, missing in [("p=101; vars=x,y; x*y", "x^2"), ("p=101; vars=x,y; x^2 + y^2", "x*y")]:
        with pytest.raises(InconsistencyError, match=rf"monomial {re.escape(missing)} has no"):
            construct_top_representatives(mk(text), 2)


# --- reduction against representatives ----------------------------------------


def test_reduce_member_of_reps():
    F = gen_fk(2, 101)
    reps = construct_top_representatives(F, 2)
    coeffs, rem = reduce_against_tops(F[0], reps)
    assert coeffs == {F.ring.monomial(2, 0): 1}
    assert rem.is_zero


def test_reduce_two_top_terms():
    F = gen_fk(2, 101)
    reps = construct_top_representatives(F, 2)
    f = F.ring.poly({(2, 0): 1, (0, 2): 1})
    coeffs, rem = reduce_against_tops(f, reps)
    assert coeffs == {F.ring.monomial(2, 0): 1, F.ring.monomial(0, 2): 1}
    assert rem == F.ring.poly({(1, 0): -1, (0, 1): -1})
    rebuilt = rem
    for m, c in coeffs.items():
        rebuilt = rebuilt + reps[m].scaled(c)
    assert rebuilt == f


def test_reduce_keeps_constants():
    F = gen_fk(2, 101)
    reps = construct_top_representatives(F, 2)
    f = F.ring.poly({(1, 1): 1, (0, 0): 1})
    coeffs, rem = reduce_against_tops(f, reps)
    assert coeffs == {F.ring.monomial(1, 1): 1}
    assert rem == F.ring.one()


def test_reduce_degree_mismatch():
    F = gen_fk(2, 101)
    reps = construct_top_representatives(F, 2)
    with pytest.raises(DomainError, match="degree exactly 2"):
        reduce_against_tops(F.ring.variable(0), reps)
    with pytest.raises(DomainError):
        reduce_against_tops(F.ring.zero(), reps)
    with pytest.raises(DomainError):
        reduce_against_tops(F[0], {})


def test_reduce_refuses_a_polynomial_of_another_ring():
    # a 3-variable x*y used to end in a bare KeyError
    reps = construct_top_representatives(gen_fk(2, 101), 2)
    x, y, _ = Ring(101, ("x", "y", "z")).variables()
    with pytest.raises(DimensionError, match="differs from the representatives' ring"):
        reduce_against_tops(x * y, reps)


# --- leading-term interreduction ----------------------------------------------


def as_renders(F):
    return sorted(f.render() for f in F)


def test_interreduce_drops_multiples():
    F = mk("p=101; vars=x,y; x; x^2")
    assert as_renders(interreduce_tops(F)) == ["x"]


def test_interreduce_single_substitution():
    F = mk("p=101; vars=x,y; x^2 + y; x^2")
    assert as_renders(interreduce_tops(F)) == ["x^2", "y"]


def test_interreduce_fixpoint_for_family():
    F = gen_fk(2, 101)
    assert interreduce_tops(F) == F


def test_interreduce_preserves_the_ideal():
    F = mk("p=101; vars=x,y; x^2 + y; x^2 + x; x^3 + 1")
    F2 = interreduce_tops(F)
    G = buchberger_reduced(F, GREVLEX)
    G2 = buchberger_reduced(F2, GREVLEX)
    assert G.polys == G2.polys
    lms = [f.leading_monomial(GREVLEX) for f in F2]
    for i, a in enumerate(lms):
        for j, b in enumerate(lms):
            if i != j:
                assert not all(x <= y for x, y in zip(a, b))


def test_interreduce_repairs_the_degree_hypothesis():
    from soldeg import degree_of_regularity

    F = mk("p=101; vars=x,y; x; y; x^5")
    assert F.max_degree() > 1
    F2 = interreduce_tops(F)
    d = degree_of_regularity(F2)
    assert isinstance(d, int)
    assert F2.max_degree() <= d
