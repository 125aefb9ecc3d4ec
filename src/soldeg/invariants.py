"""Regularity, solving, and last fall degrees, with machine-checked
certificates for every bound that relates them.

All four invariants are exact integers (the regularity degree may be an
InfiniteDegree marker carrying the cap that was scanned). verify_bounds
computes everything once, sharing closure bases between the scans, and
emits one certificate per bound with lhs, rhs, and a pass/fail/skipped
verdict. Resource caps never produce wrong numbers: a capped computation
turns the certificates that need it into skips with a "cap:" reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import CapExceeded, DomainError
from .groebner import GroebnerBasis, buchberger_reduced, ideal_dim_le
from .linalg import RowBasis
from .rings import GREVLEX, PolySystem, TermOrder, enumerate_monomials
from .vspace import VSpaceBasis, v_space_closure

LFD_RATIONALE = (
    "falls cannot occur past the solving degree: once the reduced basis lies in "
    "the degree-e span, degree-compatible division keeps every reduction of a "
    "bounded ideal element inside degree e"
)


@dataclass(frozen=True)
class InfiniteDegree:
    """Marker for an infinite regularity degree; remembers the scanned cap."""

    cap: int

    def __repr__(self):
        return f"+infinity(cap={self.cap})"


DegreeValue = Union[int, InfiniteDegree]


def _macaulay_bound(F: PolySystem) -> int:
    """d_1 + ... + d_m - m + 2 over the m = min(n, k) largest input degrees."""
    m = min(F.ring.nvars, len(F))
    degs = sorted(F.degrees(), reverse=True)[:m]
    return sum(degs) - m + 2


def degree_of_regularity(F: PolySystem, cap: int | None = None) -> DegreeValue:
    """Smallest d at which the degree-d slice spanned by bounded multiples of
    the input top parts fills the whole degree-d space; InfiniteDegree(cap)
    when no d up to the cap works."""
    if cap is None:
        cap = _macaulay_bound(F) + 1  # one degree of slack past the Macaulay bound
    if cap < 1:
        raise DomainError(f"cap must be at least 1, got {cap}")
    ring = F.ring
    n = ring.nvars
    order = GREVLEX
    tops = [f.top() for f in F]
    for d in range(1, cap + 1):
        full = math.comb(d + n - 1, d)
        basis = RowBasis(ring, order)
        done = False
        for t in tops:
            if t._degree > d:
                continue
            for m in enumerate_monomials(n, d - t._degree, "exactly", order):
                basis.insert_reduce(t.mul_monomial(m))
                if basis.span_dim() == full:
                    done = True
                    break
            if done:
                break
        if basis.span_dim() == full:
            return d
    return InfiniteDegree(cap)


def _closure_at(F, order, d, cache, trace=None) -> VSpaceBasis:
    V = cache.get(d)
    if V is None:
        V = v_space_closure(F, d, order, trace=trace)
        cache[d] = V
    return V


def _default_sd_cap(F: PolySystem, G: GroebnerBasis, d_reg: DegreeValue) -> int:
    if isinstance(d_reg, int):
        return max(d_reg + 1, F.max_degree())
    # no finite regularity degree: fall back to the Macaulay bound,
    # stretched to keep the scan non-empty
    return max(_macaulay_bound(F), G.max_degree)


def _sd_scan(F, order, cap, G, cache, trace=None) -> int:
    start = max(1, G.max_degree)
    partial: dict[int, int] = {}
    for d in range(start, cap + 1):
        V = _closure_at(F, order, d, cache, trace)
        partial[d] = V.span_dim()
        if all(V.span_contains(g) for g in G.polys):
            return d
    raise CapExceeded(
        f"solving degree exceeds cap {cap}", details={"partial_dims": partial}
    )


def solving_degree(F: PolySystem, order: TermOrder = GREVLEX, cap: int | None = None) -> int:
    """Smallest d whose degree-d span contains the reduced Groebner basis."""
    G = buchberger_reduced(F, order)
    if cap is None:
        cap = _default_sd_cap(F, G, degree_of_regularity(F))
    return _sd_scan(F, order, cap, G, {})


def _lfd_from_cache(F, order, sd, G, cache) -> int:
    worst = 0
    for e in range(1, sd + 1):
        if _closure_at(F, order, e, cache).span_dim() < ideal_dim_le(G, e):
            worst = e
    return worst + 1 if worst else 1


def last_fall_degree(F: PolySystem, order: TermOrder = GREVLEX, cap: int | None = None) -> int:
    """Minimal d such that every ideal element f lies in the span at degree
    max(d, deg f). Computed by comparing span dimensions against the ideal's
    bounded dimensions for every degree up to the solving degree."""
    G = buchberger_reduced(F, order)
    if cap is None:
        cap = _default_sd_cap(F, G, degree_of_regularity(F))
    cache: dict[int, VSpaceBasis] = {}
    sd = _sd_scan(F, order, cap, G, cache)
    return _lfd_from_cache(F, order, sd, G, cache)


@dataclass
class Certificate:
    """One verified bound: lhs/rhs values and a pass/fail/skipped verdict."""

    id: str
    lhs: object
    rhs: object
    verdict: str  # "pass" | "fail" | "skipped"
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "reason": self.reason,
        }


@dataclass
class DegreeReport:
    """All computed invariants for one system plus the bound certificates."""

    d_reg: DegreeValue
    gbd: int | None
    sd: int | None
    lfd: int | None
    order: TermOrder
    hypothesis: dict[str, bool]
    certificates: list[Certificate]
    system: dict
    lfd_rationale: str = LFD_RATIONALE

    @property
    def all_pass(self) -> bool:
        return all(c.verdict != "fail" for c in self.certificates)

    @property
    def any_capped(self) -> bool:
        return any(
            c.verdict == "skipped" and (c.reason or "").startswith("cap")
            for c in self.certificates
        )

    def to_json(self) -> dict:
        d_reg = (
            self.d_reg
            if isinstance(self.d_reg, int)
            else {"infinite": True, "cap": self.d_reg.cap}
        )
        return {
            "d_reg": d_reg,
            "gbd": self.gbd,
            "sd": self.sd,
            "lfd": self.lfd,
            "order": self.order.kind,
            "hypothesis": dict(self.hypothesis),
            "certificates": [c.to_json() for c in self.certificates],
            "system": dict(self.system),
            "lfd_rationale": self.lfd_rationale,
        }


INF = "+inf"


def verify_bounds(
    F: PolySystem,
    order: TermOrder = GREVLEX,
    *,
    cap: int | None = None,
    trace=None,
) -> DegreeReport:
    """Compute d_reg, Gbd, sd, and Lfd, then certify every bound.

    `cap` bounds both the d_reg scan and the sd scan (default: derived from
    F for each). `trace` receives every closure's lines (see v_space_closure).

    Certificates (in report order):
      sd_le_dreg_plus_1        sd <= d_reg + 1, needs max deg(F) <= d_reg
      gbd_le_dreg              Gbd <= d_reg
      sd_eq_max_lfd_gbd        sd == max(Lfd, Gbd)
      sd_generalized_bound     sd <= max(d_reg + 1, max deg(F))
      lfd_upper_bound          Lfd <= max(d_reg + 1, max deg(F))
      sd_macaulay_bound        sd <= d_1 + ... + d_n - n + 2, needs k >= n
      vspace_dim_identity      dim V(F, d_reg+1) == dim of ideal elements
                               of degree <= d_reg + 1, needs the hypothesis
    """
    ring = F.ring
    n = ring.nvars
    maxdeg = F.max_degree()
    d_reg = degree_of_regularity(F, cap)
    finite = isinstance(d_reg, int)
    hypothesis = {
        "d_reg_finite": finite,
        "max_deg_le_d_reg": (maxdeg <= d_reg) if finite else True,
        "satisfied": finite and maxdeg <= d_reg,
    }

    cache: dict[int, VSpaceBasis] = {}
    G = gbd_v = sd = lfd = None
    cap_notes: dict[str, str] = {}
    try:
        G = buchberger_reduced(F, order)
        gbd_v = G.max_degree
    except CapExceeded as exc:
        cap_notes["gbd"] = str(exc)
    if G is not None:
        try:
            sd_cap = cap if cap is not None else _default_sd_cap(F, G, d_reg)
            sd = _sd_scan(F, order, sd_cap, G, cache, trace)
        except CapExceeded as exc:
            cap_notes["sd"] = str(exc)
        if sd is not None:
            try:
                lfd = _lfd_from_cache(F, order, sd, G, cache)
            except CapExceeded as exc:
                cap_notes["lfd"] = str(exc)

    def skip_for(*names):
        values = {"gbd": gbd_v, "sd": sd, "lfd": lfd}
        for name in names:
            if name in cap_notes:
                return f"cap: {cap_notes[name]}"
            if values[name] is None:
                return f"cap: {name} unavailable"
        return None

    certs: list[Certificate] = []

    def emit(cid, lhs, rhs, *, skipped=None, trivial=None, equality=False):
        if skipped:
            certs.append(Certificate(cid, None, None, "skipped", skipped))
        elif trivial:
            certs.append(Certificate(cid, lhs, INF, "pass", trivial))
        else:
            ok = (lhs == rhs) if equality else (lhs <= rhs)
            certs.append(Certificate(cid, lhs, rhs, "pass" if ok else "fail"))

    # sd <= d_reg + 1 under the hypothesis max deg <= d_reg
    blocked = skip_for("sd")
    if blocked:
        emit("sd_le_dreg_plus_1", None, None, skipped=blocked)
    elif not finite:
        emit("sd_le_dreg_plus_1", sd, None, trivial="regularity degree infinite; bound trivial")
    elif maxdeg > d_reg:
        emit(
            "sd_le_dreg_plus_1",
            None,
            None,
            skipped=f"hypothesis fails: max deg {maxdeg} > d_reg {d_reg}",
        )
    else:
        emit("sd_le_dreg_plus_1", sd, d_reg + 1)

    blocked = skip_for("gbd")
    if blocked:
        emit("gbd_le_dreg", None, None, skipped=blocked)
    elif not finite:
        emit("gbd_le_dreg", gbd_v, None, trivial="regularity degree infinite; bound trivial")
    else:
        emit("gbd_le_dreg", gbd_v, d_reg)

    blocked = skip_for("sd", "lfd", "gbd")
    if blocked:
        emit("sd_eq_max_lfd_gbd", None, None, skipped=blocked)
    else:
        emit("sd_eq_max_lfd_gbd", sd, max(lfd, gbd_v), equality=True)

    general_rhs = max(d_reg + 1, maxdeg) if finite else None
    for cid, value, name in (("sd_generalized_bound", sd, "sd"), ("lfd_upper_bound", lfd, "lfd")):
        blocked = skip_for(name)
        if blocked:
            emit(cid, None, None, skipped=blocked)
        elif not finite:
            emit(cid, value, None, trivial="regularity degree infinite; bound trivial")
        else:
            emit(cid, value, general_rhs)

    if not finite:
        emit("sd_macaulay_bound", None, None, skipped="regularity degree infinite")
    elif len(F) < n:
        emit("sd_macaulay_bound", None, None, skipped="fewer polynomials than variables")
    else:
        blocked = skip_for("sd")
        if blocked:
            emit("sd_macaulay_bound", None, None, skipped=blocked)
        else:
            emit("sd_macaulay_bound", sd, _macaulay_bound(F))

    if not hypothesis["satisfied"]:
        emit(
            "vspace_dim_identity",
            None,
            None,
            skipped="hypothesis fails: needs finite d_reg and max deg <= d_reg",
        )
    else:
        blocked = skip_for("gbd")
        if blocked:
            emit("vspace_dim_identity", None, None, skipped=blocked)
        else:
            try:
                V = _closure_at(F, order, d_reg + 1, cache, trace)
                emit(
                    "vspace_dim_identity",
                    V.span_dim(),
                    ideal_dim_le(G, d_reg + 1),
                    equality=True,
                )
            except CapExceeded as exc:
                emit("vspace_dim_identity", None, None, skipped=f"cap: {exc}")

    system = {
        "p": ring.p,
        "vars": list(ring.names),
        "k": len(F),
        "degrees": list(F.degrees()),
        "max_deg": maxdeg,
    }
    return DegreeReport(
        d_reg=d_reg,
        gbd=gbd_v,
        sd=sd,
        lfd=lfd,
        order=order,
        hypothesis=hypothesis,
        certificates=certs,
        system=system,
    )
