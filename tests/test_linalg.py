import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soldeg import (
    GREVLEX,
    GRLEX,
    DimensionError,
    Polynomial,
    Ring,
    RowBasis,
    gen_fk,
    v_space_closure,
)

from helpers import mk
from oracle_vspace import monomials_at_most

RING = Ring(101, ("x", "y"))


def poly(terms):
    return RING.poly(terms)


def test_first_insertion_is_its_own_residual():
    basis = RowBasis(RING)
    f = poly({(2, 0): 1, (0, 1): 1})
    residual = basis.insert_reduce(f)
    assert residual == f
    assert basis.rows == [f]


def test_scalar_multiple_reduces_to_zero():
    ring5 = Ring(5, ("x", "y"))
    basis = RowBasis(ring5)
    basis.insert_reduce(ring5.poly({(2, 0): 1, (0, 1): 1}))
    residual = basis.insert_reduce(ring5.poly({(2, 0): 2, (0, 1): 2}))
    assert residual.is_zero
    assert basis.span_dim() == 1


def test_insert_reduce_hand_elimination():
    basis = RowBasis(RING)
    basis.insert_reduce(poly({(2, 0): 1}))
    basis.insert_reduce(poly({(1, 1): 1}))
    residual = basis.insert_reduce(poly({(2, 0): 1, (1, 1): 1, (0, 2): 1}))
    assert residual == poly({(0, 2): 1})
    assert basis.pivots == {(2, 0), (1, 1), (0, 2)}


def test_insert_reduce_makes_residual_monic():
    basis = RowBasis(RING)
    residual = basis.insert_reduce(poly({(1, 0): 7, (0, 0): 14}))
    assert residual == poly({(1, 0): 1, (0, 0): 2})


def test_span_contains_zero_and_combinations():
    basis = RowBasis(RING)
    x = poly({(1, 0): 1})
    y = poly({(0, 1): 1})
    basis.insert_reduce(x)
    basis.insert_reduce(y)
    assert basis.span_contains(RING.zero())
    assert basis.span_contains(x.scaled(3) - y.scaled(2))
    assert not basis.span_contains(poly({(1, 1): 1}))


def test_span_contains_family_example():
    F = gen_fk(2, 101)
    V = v_space_closure(F, 2)
    assert not V.span_contains(RING.poly({(1, 0): 1}))
    assert not V.span_contains(RING.poly({(0, 1): 1}))


def test_span_dim_examples():
    assert RowBasis(RING).span_dim() == 0
    F = gen_fk(2, 101)
    assert v_space_closure(F, 2).span_dim() == 3
    assert v_space_closure(F, 3).span_dim() == 9


def test_ring_mismatch_raises():
    basis = RowBasis(RING)
    with pytest.raises(DimensionError):
        basis.insert_reduce(Ring(7, ("x", "y")).one())


def _random_polys(rng, ring, count, deg=3):
    mons = monomials_at_most(ring.nvars, deg)
    out = []
    while len(out) < count:
        terms = {m: rng.randrange(0, ring.p) for m in mons if rng.random() < 0.5}
        f = Polynomial(ring, terms)
        if not f.is_zero:
            out.append(f)
    return out


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_rref_invariants_after_random_insertions(seed, order):
    rng = random.Random(seed)
    basis = RowBasis(RING, order)
    polys = _random_polys(rng, RING, 12)
    inserted = 0
    last_dim = 0
    for f in polys:
        basis.insert_reduce(f)
        inserted += 1
        assert last_dim <= basis.span_dim() <= inserted
        last_dim = basis.span_dim()
    rows = basis.rows
    pivots = [r.leading_monomial(order) for r in rows]
    # pivots pairwise distinct, monic, and absent from every other row
    assert len(set(pivots)) == len(pivots)
    for r, pv in zip(rows, pivots):
        assert r.terms[pv] == 1
        for other in rows:
            if other is not r:
                assert pv not in other.terms
    # rows sorted by descending pivot
    assert all(order.compare(a, b) == 1 for a, b in zip(pivots, pivots[1:]))
    # the span contains every row and random combinations of rows
    for r in rows:
        assert basis.span_contains(r)
    combo = RING.zero()
    for r in rows:
        combo = combo + r.scaled(rng.randrange(1, RING.p))
    assert basis.span_contains(combo)


@pytest.mark.parametrize("seed", range(5))
def test_insertion_order_independence(seed):
    rng = random.Random(100 + seed)
    polys = _random_polys(rng, RING, 10)
    one = RowBasis(RING)
    for f in polys:
        one.insert_reduce(f)
    shuffled = polys[:]
    rng.shuffle(shuffled)
    two = RowBasis(RING)
    for f in shuffled:
        two.insert_reduce(f)
    assert one.rows == two.rows


def test_reduce_leaves_basis_unchanged():
    basis = RowBasis(RING)
    basis.insert_reduce(poly({(2, 0): 1, (0, 1): 5}))
    before = basis.rows
    r = basis.reduce(poly({(2, 0): 3, (1, 0): 1}))
    assert r == poly({(1, 0): 1, (0, 1): -15})
    assert basis.rows == before


# --- the packed insertion contract: the pivot, and the stored row -------------


@pytest.mark.parametrize("order", [GREVLEX, GRLEX], ids=lambda o: o.kind)
def test_insert_returns_the_pivot_and_stores_the_monic_tail(order):
    basis = RowBasis(RING, order)
    enc = basis._pack.encode
    x, one = enc((1, 0)), enc((0, 0))
    assert one == 0  # the unit monomial packs to 0 in both orders
    pivot = basis._insert({x: 7, one: 14})
    assert pivot == x
    assert basis._tails[pivot] == {one: 2}  # monic: 7*x + 14 -> x + 2
    assert basis._insert({x: 3, one: 6}) is None  # 3*(x + 2) reduces to zero
    # x reduces to -2, which is adopted with pivot 0, not taken for zero
    assert basis._insert({x: 1}) == 0
    assert basis._tails[0] == {}
    assert basis.span_dim() == 2


@pytest.mark.parametrize("order", [GREVLEX, GRLEX], ids=lambda o: o.kind)
def test_insert_reduce_residual_is_a_copy_of_the_stored_row(order):
    basis = RowBasis(RING, order)
    first = basis.insert_reduce(poly({(1, 0): 1, (0, 1): 3}))
    assert first == poly({(1, 0): 1, (0, 1): 3})
    assert basis.insert_reduce(poly({(1, 0): 2, (0, 1): 6})).is_zero
    assert basis.insert_reduce(poly({(0, 1): 5})) == poly({(0, 1): 1})
    # the rows read are reduced; the residual handed out, like the stored row, keeps its terms
    assert basis.rows == [poly({(1, 0): 1}), poly({(0, 1): 1})]
    assert first == poly({(1, 0): 1, (0, 1): 3})


@pytest.mark.parametrize("order", [GREVLEX, GRLEX], ids=lambda o: o.kind)
def test_closure_multiplies_an_adopted_constant(order):
    # x reduces against x + 1 to a constant, whose products x and y fill degree 1
    V = v_space_closure(mk("p=101; vars=x,y; x + 1; x"), 2, order)
    assert V.span_dim() == 6
    assert V.pivots == set(monomials_at_most(2, 2))


class _FullScanBasis:
    """Reference echelon basis on exponent-tuple keys that back-reduces every
    stored row on adoption, so its rows are always the reduced ones."""

    def __init__(self, ring, order):
        self.ring = ring
        self.p = ring.p
        self.order = order
        self.rows = {}  # pivot -> tail

    def _reduce(self, work):
        p = self.p
        for pm in work.keys() & self.rows.keys():
            c = work.pop(pm)
            for m, rc in self.rows[pm].items():
                work[m] = (work.get(m, 0) - c * rc) % p
        return {m: v for m, v in work.items() if v}

    def reduce(self, f):
        return Polynomial(self.ring, self._reduce(dict(f.terms)))

    def span_contains(self, f):
        return not self._reduce(dict(f.terms))

    def insert_reduce(self, f):
        p = self.p
        work = self._reduce(dict(f.terms))
        if not work:
            return self.ring.zero()
        pivot = max(work, key=self.order.key)
        c = work.pop(pivot)
        inv = pow(c, -1, p)
        work = {m: v * inv % p for m, v in work.items()}
        for pm, tail in self.rows.items():
            rc = tail.pop(pivot, None)
            if rc is None:
                continue
            for m, nc in work.items():
                tail[m] = (tail.get(m, 0) - rc * nc) % p
            self.rows[pm] = {m: v for m, v in tail.items() if v}
        self.rows[pivot] = work
        return Polynomial(self.ring, {**work, pivot: 1})

    @property
    def pivots(self):
        return frozenset(self.rows)

    def polys(self):
        return [
            Polynomial(self.ring, {**self.rows[pivot], pivot: 1})
            for pivot in sorted(self.rows, key=self.order.key, reverse=True)
        ]


class _LargestFirstBasis:
    """Reference row-echelon basis on exponent-tuple keys, counting field
    multiplications like RowBasis: rows are stored as adopted, an incoming
    row loses its largest pivot monomial until none is left, and reading
    the rows back-substitutes copies of them in ascending pivot order."""

    def __init__(self, ring, order):
        self.p = ring.p
        self.key = order.key
        self.tails = {}  # pivot -> tail as adopted
        self.mult_count = 0

    def _reduce(self, work, tails=None):
        tails = self.tails if tails is None else tails
        p = self.p
        while hits := work.keys() & tails.keys():
            pm = max(hits, key=self.key)
            c = work.pop(pm)
            tail = tails[pm]
            self.mult_count += len(tail)
            for m, rc in tail.items():
                work[m] = (work.get(m, 0) - c * rc) % p
            work = {m: v for m, v in work.items() if v}
        return work

    def reduce(self, f):
        self._reduce(dict(f.terms))

    def insert_reduce(self, f):
        work = self._reduce(dict(f.terms))
        if work:
            pivot = max(work, key=self.key)
            c = work.pop(pivot)
            if c != 1:
                inv = pow(c, -1, self.p)
                self.mult_count += len(work)
                work = {m: v * inv % self.p for m, v in work.items()}
            self.tails[pivot] = work

    def read_rows(self):
        reduced = {}  # the tails stay as adopted
        for pivot in sorted(self.tails, key=self.key):
            reduced[pivot] = self._reduce(dict(self.tails[pivot]), reduced)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_largest_pivot_first_matches_a_full_scan(seed, order):
    """Residuals and rows equal those of a basis kept fully reduced, after
    every insertion, whether the rows are read after each one or only at
    the end; the multiplication count of the unread basis is pinned exactly."""
    rng = random.Random(300 + seed)
    ring = Ring(rng.choice([2, 3, 101]), ("x", "y", "z"))
    basis = RowBasis(ring, order)  # read after every insertion
    unread = RowBasis(ring, order)  # read once, at the end
    reference = _FullScanBasis(ring, order)
    counter = _LargestFirstBasis(ring, order)
    for f in _random_polys(rng, ring, 25):
        residual = reference.insert_reduce(f)
        assert basis.insert_reduce(f) == residual
        assert basis.rows == reference.polys()
        assert unread.insert_reduce(f) == residual
        counter.insert_reduce(f)
        assert unread.mult_count == counter.mult_count
    assert unread.rows == reference.polys()
    counter.read_rows()
    assert unread.mult_count == counter.mult_count


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("order", [GREVLEX, GRLEX], ids=lambda o: o.kind)
def test_a_rows_read_leaves_the_stored_rows_as_adopted(seed, order):
    rng = random.Random(500 + seed)
    ring = Ring(rng.choice([2, 3, 101]), ("x", "y", "z"))
    read, unread = RowBasis(ring, order), RowBasis(ring, order)  # read after every insertion; never
    for f in _random_polys(rng, ring, 25):
        assert read.insert_reduce(f) == unread.insert_reduce(f)
        stored = [(pm, tail, dict(tail)) for pm, tail in read._tails.items()]
        assert read._rows() == read._rows()  # each read rebuilds the same rows
        assert all(read._tails[pm] is tail and tail == copy for pm, tail, copy in stored)
    assert read._tails == unread._tails and not hasattr(read, "_reduced")


_OPS = st.sampled_from(["insert", "insert", "insert", "reduce", "contains", "rows", "pivots"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([2, 3, 101]),
    order=st.sampled_from([GREVLEX, GRLEX]),
    data=st.data(),
)
def test_reads_between_writes_match_a_full_scan(p, order, data):
    """Random interleavings of writes and reads on one basis, a rows read
    followed by more insertions included, agree with a basis kept fully
    reduced at every step, and count multiplications like the reference."""
    ring = Ring(p, ("x", "y", "z"))
    mons = monomials_at_most(ring.nvars, 3)
    polys = st.dictionaries(st.sampled_from(mons), st.integers(1, p - 1), max_size=6).map(
        lambda terms: Polynomial(ring, terms)
    )
    basis = RowBasis(ring, order)
    reference = _FullScanBasis(ring, order)
    counter = _LargestFirstBasis(ring, order)
    inserted = []
    for op in data.draw(st.lists(_OPS, min_size=1, max_size=40)):
        if op == "rows":
            assert basis.rows == reference.polys()
            counter.read_rows()
        elif op == "pivots":
            assert basis.pivots == reference.pivots
        else:
            if op != "insert" and inserted and data.draw(st.booleans()):
                # a combination of inserted polynomials, so that membership holds
                f = ring.zero()
                for g in data.draw(st.lists(st.sampled_from(inserted), min_size=1, max_size=4)):
                    f = f + g.scaled(data.draw(st.integers(1, p - 1)))
            else:
                f = data.draw(polys)
            if op == "insert":
                inserted.append(f)
                assert basis.insert_reduce(f) == reference.insert_reduce(f)
                counter.insert_reduce(f)
            elif op == "reduce":
                assert basis.reduce(f) == reference.reduce(f)
                counter.reduce(f)
            else:
                assert basis.span_contains(f) == reference.span_contains(f)
                counter.reduce(f)
        assert basis.mult_count == counter.mult_count
        assert basis.span_dim() == len(reference.rows)
