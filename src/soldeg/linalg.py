"""Exact echelon bases over GF(p), with monomial-indexed columns.

A RowBasis stores each row as it was adopted: monic, free of the pivots that
existed then, but free to hold pivots adopted later. Reducing an incoming
polynomial therefore removes pivot monomials largest first, since a
subtracted row can bring in smaller pivots. The reduced echelon form, where
each pivot occurs in exactly one row, is built beside the stored rows by one
back-substitution pass when the rows are read. Columns are packed monomials
(see rings.Packing) under the basis's order.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import DimensionError
from .rings import GREVLEX, Polynomial, Ring, TermOrder


class RowBasis:
    """Echelon basis of a span of polynomials, read in canonical reduced form.

    Rows are held as pivot -> tail maps, the pivot coefficient 1. Adopting a
    row leaves the stored rows as they are: each tail is free of the pivots
    that existed at its adoption, and may hold pivots adopted since (row
    echelon form, as in Gaussian elimination). Reading `rows` or `_rows`
    builds fresh copies of the tails, each reduced against the reduced rows
    with smaller pivots, in ascending pivot order (Gauss-Jordan
    back-substitution); the rows read are the canonical reduced ones, so
    they depend only on the span, not on insertion order.

    Residuals do not depend on the stored form. Every nonzero element of the
    span leads with a pivot, so v + span holds exactly one element that
    contains no pivot monomial. Reduction removes every pivot monomial from
    v, largest first: a tail lies below its pivot, so once a pivot is
    removed no later subtraction brings it back. It thus returns that one
    element, whichever form the rows are stored in, and reduce,
    span_contains, insert_reduce and the adoption order are those of a basis
    kept fully reduced.

    Single-writer: rows are added through insert_reduce, _insert, or
    _insert_product, the only code that stores a product (vspace._climb
    adopts rows inline but calls it for every product). It stores a product
    that hits no pivot as it is and hands any other to _insert, the only
    code that reduces a row. A stored row never changes after adoption:
    each tail is its adopted residual less the pivot. reduce, span_contains
    and row reads add to mult_count, the only shared state, so concurrent
    readers race on that counter alone.
    """

    __slots__ = ("ring", "order", "_pack", "_tails", "mult_count")

    def __init__(self, ring: Ring, order: TermOrder = GREVLEX):
        self.ring = ring
        self.order = order
        self._pack = ring.packing(order)
        self._tails: dict[int, dict[int, int]] = {}  # pivot coefficient implicitly 1
        self.mult_count = 0  # field multiplications performed so far

    def _encode(self, f: Polynomial) -> dict[int, int]:
        """A fresh copy of f's terms, keyed under this basis's packing."""
        if f.ring != self.ring:
            raise DimensionError(
                f"polynomial ring {f.ring!r} differs from basis ring {self.ring!r}"
            )
        return dict(f._packed(self._pack))

    def _reduce_terms(self, work: dict[int, int], tails=None) -> dict[int, int]:
        """Eliminate every pivot of `tails` (default: the stored rows) from
        `work` in place, largest first."""
        tails = self._tails if tails is None else tails
        if not (hit := work.keys() & tails.keys()):
            return work
        heap = [-m for m in hit]  # max-heap of hit pivots
        heapify(heap)
        p = self.ring.p
        while heap:
            pm = -heappop(heap)
            c = work.pop(pm, 0)
            if not c:  # cancelled, or a duplicate entry already handled
                continue
            tail = tails[pm]
            self.mult_count += len(tail)
            for m, rc in tail.items():
                v = work.get(m)
                if v is None:
                    work[m] = -c * rc % p
                    if m in tails:
                        heappush(heap, -m)
                elif v := (v - c * rc) % p:
                    work[m] = v
                else:
                    del work[m]
        return work

    def _insert(self, work: dict[int, int]) -> int | None:
        """insert_reduce on packed terms, which it consumes: the pivot of the
        adopted row, or None when `work` lay in the span (the pivot may be 0,
        the unit monomial, so test it against None). `_tails[pivot]` is the
        stored row itself, not a copy, and it never changes: the monic
        residual's tail."""
        work = self._reduce_terms(work)
        if not work:
            return None
        pivot = max(work)
        c = work.pop(pivot)
        if c != 1:
            p = self.ring.p
            inv = pow(c, -1, p)
            self.mult_count += len(work)
            work = {m: v * inv % p for m, v in work.items()}
        self._tails[pivot] = work
        return pivot

    def _insert_product(self, lead: int, work: dict[int, int]) -> int | None:
        """_insert on the monic `work` + `lead`, where `lead` lies above every
        key of `work`, which it consumes. When neither `lead` nor a key of
        `work` is a pivot, nothing can cancel and `work` is stored as the
        tail of `lead` as it is: the residual _insert would adopt, with no
        multiplication, so mult_count does not move. An empty `work`, the
        product of a monomial row, needs no key test."""
        tails = self._tails
        if lead not in tails and (not work or tails.keys().isdisjoint(work)):
            tails[lead] = work
            return lead
        work[lead] = 1
        return self._insert(work)

    def reduce(self, f: Polynomial) -> Polynomial:
        """Full reduction of f against the basis; the basis is unchanged."""
        return Polynomial._from_packed(self.ring, self._pack, self._reduce_terms(self._encode(f)))

    def insert_reduce(self, f: Polynomial) -> Polynomial:
        """Reduce f fully, then adopt the residual as a new monic row.

        Returns the monic residual (zero if f was already in the span). The
        stored rows are left as they are; see the class docstring.
        """
        pivot = self._insert(self._encode(f))
        terms = {} if pivot is None else {pivot: 1, **self._tails[pivot]}
        return Polynomial._from_packed(self.ring, self._pack, terms)

    def span_contains(self, f: Polynomial) -> bool:
        return not self._reduce_terms(self._encode(f))

    def span_dim(self) -> int:
        return len(self._tails)

    @property
    def pivots(self) -> frozenset[tuple[int, ...]]:
        return frozenset(map(self._pack.decode, self._tails))

    def _rows(self) -> list[tuple[int, dict[int, int]]]:
        """(pivot, row) pairs of the reduced echelon form, by descending
        pivot; each row is a packed term map, pivot included, built anew."""
        reduced: dict[int, dict[int, int]] = {}
        # ascending: a tail holds only smaller pivots, whose rows are already
        # reduced; the copy compacts what the pops and deletions left sparse
        for pm, tail in sorted(self._tails.items()):
            reduced[pm] = {**self._reduce_terms(dict(tail), reduced)}
        for pm, row in reduced.items():  # every reduction is done: add the pivots
            row[pm] = 1
        return list(reversed(reduced.items()))

    @property
    def rows(self) -> list[Polynomial]:
        """Rows as polynomials, sorted by descending pivot."""
        return [Polynomial._from_packed(self.ring, self._pack, t) for _, t in self._rows()]

    def __repr__(self):
        return f"RowBasis(dim={len(self._tails)}, order={self.order.kind})"
