"""Exact reduced echelon bases over GF(p), with monomial-indexed columns.

A RowBasis is kept fully reduced at all times: each pivot monomial occurs in
exactly one row (with coefficient 1) and in no other row's tail. Because
tails can therefore never reintroduce a pivot, fully reducing an incoming
polynomial is a single pass over the pivots it touches, in any order.
"""

from __future__ import annotations

import bisect

from .errors import DimensionError
from .rings import GREVLEX, Monomial, Polynomial, Ring, TermOrder


class _Row:
    __slots__ = ("pivot", "tail", "key")

    def __init__(self, pivot: Monomial, tail: dict[Monomial, int], key):
        self.pivot = pivot
        self.tail = tail  # pivot excluded; pivot coefficient is implicitly 1
        self.key = key


class RowBasis:
    """Canonical reduced echelon basis of a span of polynomials.

    Single-writer: mutate the rows through insert_reduce only. Reads
    (reduce, span_contains, rows, span_dim) leave the rows unchanged, but
    reduce and span_contains add to mult_count, so concurrent readers race
    on that counter. The final row set depends only on the span, not on
    insertion order.
    """

    __slots__ = ("ring", "order", "_rows", "_by_pivot", "mult_count")

    def __init__(self, ring: Ring, order: TermOrder = GREVLEX):
        self.ring = ring
        self.order = order
        self._rows: list[_Row] = []  # ascending by pivot key
        self._by_pivot: dict[Monomial, _Row] = {}
        self.mult_count = 0  # field multiplications performed so far

    def _check_ring(self, f: Polynomial):
        if f.ring != self.ring:
            raise DimensionError(f"polynomial ring {f.ring!r} differs from basis ring {self.ring!r}")

    def _reduce_terms(self, work: dict[Monomial, int]) -> dict[Monomial, int]:
        """Eliminate every pivot monomial from `work` in place."""
        hits = work.keys() & self._by_pivot.keys()
        if not hits:
            return work
        p = self.ring.p
        by_pivot = self._by_pivot
        for pm in hits:
            c = work.pop(pm)
            tail = by_pivot[pm].tail
            self.mult_count += len(tail)
            for m, rc in tail.items():
                v = (work.get(m, 0) - c * rc) % p
                if v:
                    work[m] = v
                else:
                    del work[m]
        return work

    def reduce(self, f: Polynomial) -> Polynomial:
        """Full reduction of f against the basis; the basis is unchanged."""
        self._check_ring(f)
        return Polynomial._raw(self.ring, self._reduce_terms(dict(f.terms)))

    def insert_reduce(self, f: Polynomial) -> Polynomial:
        """Reduce f fully, then adopt the residual as a new monic row.

        Returns the monic residual (zero if f was already in the span). On
        adoption, all stored rows are back-reduced against the new row, so
        the basis stays canonically reduced.
        """
        self._check_ring(f)
        work = self._reduce_terms(dict(f.terms))
        if not work:
            return Polynomial.zero_poly(self.ring)
        p = self.ring.p
        key = self.order.key
        pivot = max(work, key=key)
        c = work.pop(pivot)
        if c != 1:
            inv = pow(c, -1, p)
            self.mult_count += len(work)
            work = {m: v * inv % p for m, v in work.items()}
        for row in self._rows:
            rc = row.tail.pop(pivot, None)
            if rc is None:
                continue
            self.mult_count += len(work)
            tail = row.tail
            for m, nc in work.items():
                v = (tail.get(m, 0) - rc * nc) % p
                if v:
                    tail[m] = v
                else:
                    del tail[m]
        new = _Row(pivot, work, key(pivot))
        bisect.insort(self._rows, new, key=lambda r: r.key)
        self._by_pivot[pivot] = new
        terms = dict(work)
        terms[pivot] = 1
        return Polynomial._raw(self.ring, terms)

    def span_contains(self, f: Polynomial) -> bool:
        self._check_ring(f)
        return not self._reduce_terms(dict(f.terms))

    def span_dim(self) -> int:
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> frozenset[Monomial]:
        return frozenset(self._by_pivot)

    @property
    def rows(self) -> list[Polynomial]:
        """Rows as polynomials, sorted by descending pivot."""
        out = []
        for row in reversed(self._rows):
            terms = dict(row.tail)
            terms[row.pivot] = 1
            out.append(Polynomial._raw(self.ring, terms))
        return out

    def __repr__(self):
        return f"RowBasis(dim={len(self._rows)}, order={self.order.kind})"
