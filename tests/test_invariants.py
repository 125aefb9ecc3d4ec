import io
import itertools
import math
import tracemalloc
from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soldeg import (
    GREVLEX,
    GRLEX,
    CapExceeded,
    DegreeReport,
    DomainError,
    InfiniteDegree,
    MAX_DEGREE,
    Polynomial,
    PolySystem,
    RandomSpec,
    Ring,
    buchberger_reduced,
    degree_of_regularity,
    gen_fk,
    gbd,
    gen_random,
    ideal_dim_le,
    interreduce_tops,
    last_fall_degree,
    render_report,
    solving_degree,
    v_space_closure,
    verify_bounds,
)
from soldeg.vspace import DEFAULT_MAX_ROWS

from helpers import mk, row_cap
from oracle_vspace import rref


# --- degree of regularity -------------------------------------------------------


def record_rungs(monkeypatch) -> list[int]:
    """The rungs the d_reg walk climbs, in order, recorded by wrapping
    invariants._climb; the closures climb vspace._climb and are not seen."""
    from soldeg import invariants

    rungs, climb = [], invariants._climb

    def recording(*args, **kwargs):
        for V in climb(*args, **kwargs):
            rungs.append(len(V.dims) - 1)
            yield V

    monkeypatch.setattr(invariants, "_climb", recording)
    return rungs


@pytest.mark.parametrize("k", range(2, 7))
def test_regularity_of_the_family(k):
    assert degree_of_regularity(gen_fk(k, 101)) == k


def test_regularity_of_monomial_squares():
    assert degree_of_regularity(mk("p=101; vars=x,y; x^2; y^2")) == 3


def test_regularity_infinite_marker():
    d = degree_of_regularity(mk("p=101; vars=x,y; x*y"))
    assert isinstance(d, InfiniteDegree)
    assert d.cap == 4  # the Macaulay bound 3, plus one
    assert "infinity" in repr(d)


def test_regularity_linear_full_rank():
    assert degree_of_regularity(mk("p=101; vars=x,y; x + 2*y; x + 3*y + 1")) == 1


@pytest.mark.parametrize(
    "text, d_reg",
    [
        # common zeros (1, +-i) and (1, +-i, 0) over GF(9), but none over
        # GF(3), so the point search finds nothing and the scan runs
        ("p=3; vars=x,y; x^2 + y^2; x^3*y + x*y^3", InfiniteDegree(7)),
        ("p=3; vars=x,y,z; x^2 + y^2; x*z; y*z; z^2", InfiniteDegree(6)),
        ("p=101; vars=x; 1", 1),  # cap 2
        # three constants among the four largest degrees put the cap at 0;
        # the scan still reaches degree 1, which the constants fill
        ("p=101; vars=x,y,z,w; x; 1; 1; 1", 1),
    ],
)
def test_regularity_scan_stops_at_lazards_degree(monkeypatch, text, d_reg):
    # with k >= n a slice fills by (d_1 - 1) + ... + (d_n - 1) + 1 = cap - 2
    # if at all, so an infinite walk climbs rungs 0 .. cap - 2 and no more
    rungs = record_rungs(monkeypatch)
    assert degree_of_regularity(mk(text)) == d_reg
    last = d_reg if isinstance(d_reg, int) else d_reg.cap - 2
    assert rungs == list(range(last + 1))


def _reference_cap(F: PolySystem) -> int:
    """One past the Macaulay bound over the min(n, k) largest degrees."""
    degs = sorted(F.degrees(), reverse=True)[: min(F.ring.nvars, len(F))]
    return sum(degs) - len(degs) + 3


def _reference_slice(F: PolySystem, d: int) -> tuple[int, int]:
    """(rank, size) of the degree-d slice: the dense rank of every product of
    exact degree d of the top parts, and the number of monomials of degree
    d. Independent of the library's echelon kernel and of its closure."""
    n, p = F.ring.nvars, F.ring.p
    tops = [(f.degree, f.top().terms) for f in F]
    cols = [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d]
    pos = {m: i for i, m in enumerate(cols)}
    rows = []
    for e, top in tops:
        for mult in itertools.product(range(d - e + 1), repeat=n):
            if e <= d and sum(mult) == d - e:
                row = [0] * len(cols)
                for m, c in top.items():
                    row[pos[tuple(map(sum, zip(m, mult)))]] = c
                rows.append(row)
    return len(rref(rows, p)), len(cols)


def _reference_regularity(F: PolySystem):
    """d_reg as the first degree d up to the cap whose dense slice is full."""
    cap = _reference_cap(F)
    for d in range(1, max(1, cap) + 1):  # a constant fills degree 1 even when cap < 1
        rank, size = _reference_slice(F, d)
        if rank == size:
            return d
    return InfiniteDegree(cap)


@st.composite
def _small_systems(draw):
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from([2, 3, 101]))
    ring = Ring(p, nvars=n)
    polys = []
    for _ in range(draw(st.integers(1, n + 1))):
        e = draw(st.integers(0, 3 if n < 4 else 2))
        mons = [m for m in itertools.product(range(e + 1), repeat=n) if sum(m) <= e]
        top = [m for m in mons if sum(m) == e]
        coeff = st.integers(1, p - 1)
        terms = draw(st.dictionaries(st.sampled_from(mons), coeff, max_size=3))
        terms.update(draw(st.dictionaries(st.sampled_from(top), coeff, min_size=1, max_size=2)))
        polys.append(Polynomial(ring, terms))
    return PolySystem(ring, polys)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(F=_small_systems())
def test_regularity_matches_dense_reference(F):
    assert degree_of_regularity(F) == _reference_regularity(F)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(F=_small_systems())
def test_the_rungs_of_the_climb_over_the_tops_differ_by_the_dense_slices(F):
    # the tops are homogeneous, so V(tops, e) is the direct sum of the
    # slices of degree <= e and dims[e] - dims[e - 1] is the slice-e rank
    from soldeg.vspace import DEFAULT_MAX_ROWS, _climb

    tops = PolySystem(F.ring, [f.top() for f in F])
    cap = max(1, _reference_cap(F))
    *_, V = _climb(tops, cap, GREVLEX, max_rows=DEFAULT_MAX_ROWS, trace=None)
    dims = [0] + V.dims
    assert [dims[e + 1] - dims[e] for e in range(cap + 1)] == [
        _reference_slice(F, e)[0] for e in range(cap + 1)
    ]


def test_the_walk_shares_the_closures_row_cap(monkeypatch, tmp_path, capsys):
    # the ideal of x^2, y^5 has 1 + 2 + 3 + 5 + 6 = 17 rows up to d_reg = 6
    from soldeg import invariants, vspace
    from soldeg.cli import main

    text = "p=101; vars=x,y; x^2; y^5"
    system = mk(text)

    def capped(F, d, order, *, max_rows, trace):
        # the walk climbs a system of tops of its own; the climb of `system`
        # that a report of it reads keeps the default cap
        return vspace._climb(F, d, order, max_rows=max_rows if F is system else 10, trace=trace)

    assert degree_of_regularity(system) == 6
    full = verify_bounds(mk(text))
    monkeypatch.setattr(invariants, "_climb", capped)
    note = "d_reg walk: closure exceeded 10 rows"
    with pytest.raises(CapExceeded, match=note) as err:
        degree_of_regularity(system)
    assert err.value.stats.adoptions == 11
    assert err.value.stats.insertions >= 11
    # the report still comes out: Gbd, sd and Lfd as before, d_reg unknown,
    # and every certificate that reads d_reg a cap skip
    report = verify_bounds(system)
    assert (report.d_reg, report.gbd, report.sd, report.lfd) == (None, full.gbd, full.sd, full.lfd)
    assert report.hypothesis == {"d_reg_finite": None, "max_deg_le_d_reg": None, "satisfied": False}
    for c, f in zip(report.certificates, full.certificates):
        if c.id == "sd_eq_max_lfd_gbd":
            assert c == f and c.verdict == "pass"
        else:
            assert (c.verdict, c.reason) == ("skipped", f"cap: {note}")
    assert report.to_json()["d_reg"] is None
    assert report.all_pass and report.any_capped
    # analyze parses a system of its own, so there the climb of F is capped too
    path = tmp_path / "capped.txt"
    path.write_text(text + "\n")
    assert main(["analyze", str(path)]) == 3
    out = capsys.readouterr().out
    assert "d_reg: None" in out and "d_reg finite=unknown" in out and note in out


def test_the_walk_stops_at_the_largest_supported_degree(monkeypatch):
    # k > n, Lazard's degree 65533; the slices stay tiny, so the walk climbs
    # every supported rung and refuses rung MAX_DEGREE + 1
    rungs = record_rungs(monkeypatch)
    with pytest.raises(DomainError, match=f"degree {MAX_DEGREE + 1} exceeds"):
        degree_of_regularity(mk("p=101; vars=x,y; x^32767; y^32767; x^32767 + y"))
    assert rungs == list(range(MAX_DEGREE + 1))


# --- solving degree ----------------------------------------------------------------


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_solving_degree_of_the_family(k, order):
    assert solving_degree(gen_fk(k, 101), order) == k + 1


def test_solving_degree_trivial_cases():
    assert solving_degree(mk("p=101; vars=x; x")) == 1
    assert solving_degree(mk("p=101; vars=x,y; x^2; y^2")) == 2


def refuse_all_work(monkeypatch):
    """Make every first step of an entry point raise: the proofs of d_reg
    that need no climb, the one route to d_reg (its read off the climb of
    F, or the walk), the climb of F (and of the tops), and Buchberger."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    for name in ("_regularity_proof", "_regularity", "_climb", "buchberger_reduced"):
        monkeypatch.setattr(f"soldeg.invariants.{name}", refuse)


@pytest.mark.parametrize("order", ["grevlex", None])
def test_an_order_that_is_no_term_order_is_refused_before_any_work(monkeypatch, order):
    """verify_bounds looks its packing up first: neither the d_reg walk,
    nor a climb, nor Buchberger runs on an order given as a bare string or
    left out as None."""
    refuse_all_work(monkeypatch)
    with pytest.raises(DomainError, match=f"^term order must be a TermOrder, got {order!r}$"):
        verify_bounds(gen_fk(3, 101), order)


@pytest.mark.parametrize("call, order", [
    (lambda F, o: solving_degree(F, o), "grlex"),
    (lambda F, o: last_fall_degree(F, o), None),
    (lambda F, o: v_space_closure(F, 3, o), "grevlex"),
    (lambda F, o: buchberger_reduced(F, o), "grevlex"),
    (lambda F, o: gbd(F, o), 3),
    (lambda F, o: interreduce_tops(F, o), "grlex"),
], ids=["solving_degree", "last_fall_degree", "v_space_closure", "buchberger_reduced",
        "gbd", "interreduce_tops"])
def test_an_order_that_is_no_term_order_is_a_domain_error_at_every_entry_point(call, order):
    """Each public function that takes an order names the value it got,
    rather than failing on its missing attribute."""
    with pytest.raises(DomainError, match=f"^term order must be a TermOrder, got {order!r}$"):
        call(gen_fk(3, 101), order)


def test_work_caps_are_constants_not_parameters():
    """A work cap only turns a runaway phase into a cap skip, so the row
    and pair caps and MAX_DEGREE are module constants: no entry point takes
    a cap (and, in test_cli, no subcommand a --cap flag)."""
    import inspect

    for fn in (v_space_closure, buchberger_reduced, solving_degree, last_fall_degree,
               verify_bounds):
        assert not {"max_rows", "max_pairs", "cap"} & set(inspect.signature(fn).parameters)


def test_the_scan_raises_its_cap_past_the_largest_supported_degree(monkeypatch):
    """With no rung accepted through MAX_DEGREE, lowered here to 3 below
    fk(3)'s sd = 4, the scan raises its own cap; a report then takes Gbd
    from Buchberger and names that cap for sd and Lfd."""
    from soldeg import invariants

    monkeypatch.setattr(invariants, "MAX_DEGREE", 3)
    F = gen_fk(3, 101)
    with pytest.raises(CapExceeded, match="^solving degree exceeds cap 3$"):
        invariants._scan(F, GREVLEX, invariants._rungs(F, GREVLEX))
    report = verify_bounds(F)
    assert (report.d_reg, report.gbd, report.sd, report.lfd) == (3, 1, None, None)
    reason = "cap: solving degree exceeds cap 3"
    assert verdicts(report) == [
        ("sd_le_dreg_plus_1", "skipped", reason),
        ("gbd_le_dreg", "pass", None),
        ("sd_eq_max_lfd_gbd", "skipped", reason),
        ("sd_generalized_bound", "skipped", reason),
        ("lfd_upper_bound", "skipped", reason),
        ("sd_macaulay_bound", "skipped", reason),
        ("vspace_dim_identity", "skipped",
         "cap: degree 4 exceeds the largest supported degree 3"),
    ]


@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_the_scan_rejects_a_rung_whose_rows_are_no_groebner_basis(monkeypatch, order):
    """V(F, 2) of x^2 + y; x*y + 1 is the span of the two inputs, and they
    are no Groebner basis: their one S-pair, of lcm degree 3, reduces to
    y^2 - x, not zero. The scan rejects rung 2 on that pair, goes on, and
    accepts rung 3, so the report is the one Buchberger's basis gives."""
    from soldeg import invariants

    F = mk("p=101; vars=x,y; x^2 + y; x*y + 1")
    checked, is_basis = [], invariants._is_basis

    def recorded(rows, pack, p, low=0):
        verdict = is_basis(rows, pack, p, low)
        checked.append((low, sorted(pack.decode(m) for m, _ in rows), verdict))
        return verdict

    monkeypatch.setattr(invariants, "_is_basis", recorded)
    report = verify_bounds(F, order)
    assert checked[0] == (2, [(1, 1), (2, 0)], False)  # rung 2: the inputs' rows, rejected
    assert checked[-1][0] == 3 and checked[-1][2]  # rung 3 accepted
    assert (report.d_reg, report.gbd, report.sd, report.lfd) == (InfiniteDegree(5), 2, 3, 3)
    assert report.gbd == buchberger_reduced(F, order).max_degree
    assert [(c.id, c.verdict) for c in report.certificates] == [
        ("sd_le_dreg_plus_1", "pass"), ("gbd_le_dreg", "pass"), ("sd_eq_max_lfd_gbd", "pass"),
        ("sd_generalized_bound", "pass"), ("lfd_upper_bound", "pass"),
        ("sd_macaulay_bound", "skipped"), ("vspace_dim_identity", "skipped"),
    ]


def test_solving_and_last_fall_degrees_build_no_regularity_slice(monkeypatch):
    # each climbs F once and never the tops, a system the d_reg walk builds
    from soldeg import invariants, vspace

    climbed = []

    def recording(F, *args, **kwargs):
        climbed.append(F)
        return vspace._climb(F, *args, **kwargs)

    monkeypatch.setattr(invariants, "_climb", recording)
    for F, degrees in [(gen_fk(3, 101), (4, 4)),
                       (mk("p=101; vars=x,y; x^999 + y^999; x + y"), (1, 1))]:
        climbed.clear()
        assert (solving_degree(F), last_fall_degree(F)) == degrees
        assert len(climbed) == 2 and all(S is F for S in climbed)


@pytest.mark.parametrize("k", [3, 6])
def test_the_upper_bounds_fail_under_a_regularity_degree_too_small(k, monkeypatch):
    # no bound of the sd scan comes from d_reg, so a wrong d_reg cannot cap
    # the scan below sd: the bounds it breaks fail instead of being skipped
    from soldeg import invariants

    monkeypatch.setattr(invariants, "_regularity", lambda *args: k - 1)
    report = verify_bounds(gen_fk(k, 101))
    assert (report.d_reg, report.sd, report.lfd) == (k - 1, k + 1, k + 1)
    assert cert(report, "sd_generalized_bound").verdict == "fail"
    assert cert(report, "lfd_upper_bound").verdict == "fail"
    assert not report.all_pass


def test_solving_degree_with_infinite_regularity():
    # single monomial generator: its own basis, contained at its own degree
    assert solving_degree(mk("p=101; vars=x,y; x*y")) == 2


# --- last fall degree ----------------------------------------------------------------


def test_last_fall_degree_of_the_family():
    assert last_fall_degree(gen_fk(2, 101)) == 3
    assert last_fall_degree(gen_fk(3, 101)) == 4


def test_last_fall_degree_without_falls():
    assert last_fall_degree(mk("p=101; vars=x,y; x^2; y^2")) == 1
    assert last_fall_degree(mk("p=101; vars=x; x")) == 1


def test_last_fall_degree_wide_linear_system():
    # reductions happen at degree 1 already
    assert last_fall_degree(mk("p=101; vars=x,y; x + y; x - y")) == 1


# --- verify_bounds ---------------------------------------------------------------------


def cert(report: DegreeReport, cid: str):
    matches = [c for c in report.certificates if c.id == cid]
    assert len(matches) == 1
    return matches[0]


def test_family_report_values():
    report = verify_bounds(gen_fk(2, 101))
    assert (report.d_reg, report.gbd, report.sd, report.lfd) == (2, 1, 3, 3)
    assert report.all_pass and not report.any_capped
    t = cert(report, "sd_le_dreg_plus_1")
    assert (t.lhs, t.rhs, t.verdict) == (3, 3, "pass")
    m = cert(report, "sd_macaulay_bound")
    assert (m.lhs, m.rhs, m.verdict) == (3, 4, "pass")
    i = cert(report, "vspace_dim_identity")
    assert (i.lhs, i.rhs, i.verdict) == (9, 9, "pass")


def test_family_k3_identity_certificate():
    report = verify_bounds(gen_fk(3, 101))
    c = cert(report, "sd_eq_max_lfd_gbd")
    assert (c.lhs, c.rhs, c.verdict) == (4, 4, "pass")


def test_report_with_violated_hypothesis():
    report = verify_bounds(mk("p=101; vars=x,y; x; y; x^5"))
    assert report.d_reg == 1 and report.sd == 1
    assert not report.hypothesis["max_deg_le_d_reg"]
    t = cert(report, "sd_le_dreg_plus_1")
    assert t.verdict == "skipped" and "hypothesis" in t.reason
    assert cert(report, "vspace_dim_identity").verdict == "skipped"
    g = cert(report, "sd_generalized_bound")
    assert (g.lhs, g.rhs, g.verdict) == (1, 5, "pass")
    l = cert(report, "lfd_upper_bound")
    assert l.verdict == "pass"
    assert cert(report, "gbd_le_dreg").verdict == "pass"
    assert report.all_pass


def test_report_with_infinite_regularity():
    report = verify_bounds(mk("p=101; vars=x,y; x*y"))
    assert isinstance(report.d_reg, InfiniteDegree)
    assert (report.gbd, report.sd, report.lfd) == (2, 2, 1)
    t = cert(report, "sd_le_dreg_plus_1")
    assert t.verdict == "pass" and t.rhs == "+inf"
    assert cert(report, "sd_macaulay_bound").verdict == "skipped"
    c = cert(report, "sd_eq_max_lfd_gbd")
    assert (c.lhs, c.rhs, c.verdict) == (2, 2, "pass")


def test_report_for_inconsistent_system():
    # unit ideal: the constant 1 appears at degree 1 and its monomial
    # multiples flood the span, so sd = lfd = 1 while gbd = 0
    report = verify_bounds(mk("p=101; vars=x,y; x; x + 1"))
    assert (report.gbd, report.sd, report.lfd) == (0, 1, 1)
    assert cert(report, "sd_eq_max_lfd_gbd").verdict == "pass"
    assert report.all_pass


def test_report_orders_differ_only_in_label():
    a = verify_bounds(gen_fk(2, 101), GREVLEX)
    b = verify_bounds(gen_fk(2, 101), GRLEX)
    assert a.order.kind == "grevlex" and b.order.kind == "grlex"
    assert (a.d_reg, a.gbd, a.sd, a.lfd) == (b.d_reg, b.gbd, b.sd, b.lfd)


def test_report_json_is_stable_and_complete():
    report = verify_bounds(gen_fk(2, 101))
    text = render_report(report)
    assert text == render_report(verify_bounds(gen_fk(2, 101)))
    assert '"sd": 3' in text
    assert '"d_reg": 2' in text
    doc = report.to_json()
    assert set(doc) == {
        "d_reg", "gbd", "sd", "lfd", "order", "hypothesis",
        "certificates", "system", "lfd_rationale",
    }
    assert all(
        set(c) == {"id", "lhs", "rhs", "verdict", "reason"} for c in doc["certificates"]
    )


def test_infinite_marker_serialization():
    doc = verify_bounds(mk("p=101; vars=x,y; x*y")).to_json()
    assert doc["d_reg"] == {"infinite": True, "cap": doc["d_reg"]["cap"]}


# --- capped report paths --------------------------------------------------------------


def verdicts(report: DegreeReport):
    return [(c.id, c.verdict, c.reason) for c in report.certificates]


def cap_the_climb_of(monkeypatch, F, cap):
    """Cap the climb of F itself at `cap` rows, and not the d_reg walk's
    climb of the tops, a system of its own."""
    from soldeg import invariants, vspace

    def climb(S, d, order, *, max_rows, trace):
        return vspace._climb(S, d, order, max_rows=cap if S is F else max_rows, trace=trace)

    monkeypatch.setattr(invariants, "_climb", climb)
    return F


def test_one_row_cap_binds_the_walk_the_scan_and_the_closure():
    """vspace.DEFAULT_MAX_ROWS, read at call time, is the one row cap: lowered
    to 40, it stops the d_reg walk over the tops of fk(10) and the climb of
    F, whose rung 11 holds 77 rows, and every skip names 40 rows."""
    with row_cap(40):
        report = verify_bounds(gen_fk(10, 101))
    assert (report.d_reg, report.gbd, report.sd, report.lfd) == (None, 1, None, None)
    assert all(c.verdict == "skipped" for c in report.certificates)
    assert {c.reason for c in report.certificates} == {
        "cap: d_reg walk: closure exceeded 40 rows", "cap: closure exceeded 40 rows"}


def test_report_when_the_sd_closure_hits_the_row_cap(monkeypatch):
    report = verify_bounds(cap_the_climb_of(monkeypatch, gen_fk(2, 101), 3))
    assert (report.d_reg, report.gbd, report.sd, report.lfd) == (2, 1, None, None)
    assert verdicts(report) == [
        ("sd_le_dreg_plus_1", "skipped", "cap: closure exceeded 3 rows"),
        ("gbd_le_dreg", "pass", None),
        ("sd_eq_max_lfd_gbd", "skipped", "cap: closure exceeded 3 rows"),
        ("sd_generalized_bound", "skipped", "cap: closure exceeded 3 rows"),
        ("lfd_upper_bound", "skipped", "cap: closure exceeded 3 rows"),
        ("sd_macaulay_bound", "skipped", "cap: closure exceeded 3 rows"),
        ("vspace_dim_identity", "skipped", "cap: closure exceeded 3 rows"),
    ]


def test_report_when_buchberger_is_capped(monkeypatch):
    """Buchberger runs only when a cap stopped the scan (here the row cap 3
    of the climb of fk(2), below sd = 3); capped too, it leaves Gbd unknown
    with sd and Lfd."""
    def capped(*args, **kwargs):
        raise CapExceeded("buchberger exceeded 1 pairs")

    monkeypatch.setattr("soldeg.invariants.buchberger_reduced", capped)
    report = verify_bounds(cap_the_climb_of(monkeypatch, gen_fk(2, 101), 3))
    assert (report.d_reg, report.gbd, report.sd, report.lfd) == (2, None, None, None)
    # Gbd, sd and Lfd are all unknown, and each skip names Buchberger's cap
    reason = "cap: buchberger exceeded 1 pairs"
    assert verdicts(report) == [
        ("sd_le_dreg_plus_1", "skipped", reason),
        ("gbd_le_dreg", "skipped", reason),
        ("sd_eq_max_lfd_gbd", "skipped", reason),
        ("sd_generalized_bound", "skipped", reason),
        ("lfd_upper_bound", "skipped", reason),
        ("sd_macaulay_bound", "skipped", reason),
        ("vspace_dim_identity", "skipped", reason),
    ]


def test_report_when_only_the_identity_closure_hits_the_row_cap(monkeypatch):
    """sd = 2 needs a 2-row closure, and V(F, d_reg + 1 = 4) more than 5 rows.
    Past sd the identity is read off the checked basis, so it passes, traced
    or not; only the traced report climbs to rung 4, to trace V(F, 4), and
    its trace ends with the capped climb's lines."""
    F = cap_the_climb_of(monkeypatch, mk("p=101; vars=x,y; x^2; y^2"), 5)
    log = io.StringIO()
    for trace in (None, log):
        report = verify_bounds(F, trace=trace)
        assert (report.d_reg, report.gbd, report.sd, report.lfd) == (3, 2, 2, 1)
        assert verdicts(report) == [
            ("sd_le_dreg_plus_1", "pass", None),
            ("gbd_le_dreg", "pass", None),
            ("sd_eq_max_lfd_gbd", "pass", None),
            ("sd_generalized_bound", "pass", None),
            ("lfd_upper_bound", "pass", None),
            ("sd_macaulay_bound", "pass", None),
            ("vspace_dim_identity", "pass", None),
        ]
        # the 11 monomials of degree <= 4 outside 1, x, y, x*y
        assert (report.certificates[-1].lhs, report.certificates[-1].rhs) == (11, 11)
        assert not report.any_capped
    capped_trace, capped = _closure_trace(F, 4, 5)
    assert capped
    assert log.getvalue() == _closure_trace(F, 2, 5)[0] + capped_trace


def test_report_when_the_identity_degree_passes_the_largest_supported_degree():
    # d_reg = 32767 = MAX_DEGREE, so V(F, d_reg + 1) cannot be formed
    report = verify_bounds(mk("p=2; vars=x; x^32767"))
    assert (report.d_reg, report.gbd, report.sd, report.lfd) == (32767, 32767, 32767, 1)
    assert verdicts(report) == [
        ("sd_le_dreg_plus_1", "pass", None),
        ("gbd_le_dreg", "pass", None),
        ("sd_eq_max_lfd_gbd", "pass", None),
        ("sd_generalized_bound", "pass", None),
        ("lfd_upper_bound", "pass", None),
        ("sd_macaulay_bound", "pass", None),
        ("vspace_dim_identity", "skipped",
         "cap: degree 32768 exceeds the largest supported degree 32767"),
    ]
    assert report.any_capped


def test_report_with_infinite_regularity_lists_every_verdict():
    report = verify_bounds(mk("p=101; vars=x,y; x*y"))
    trivial = "regularity degree infinite; bound trivial"
    assert verdicts(report) == [
        ("sd_le_dreg_plus_1", "pass", trivial),
        ("gbd_le_dreg", "pass", trivial),
        ("sd_eq_max_lfd_gbd", "pass", None),
        ("sd_generalized_bound", "pass", trivial),
        ("lfd_upper_bound", "pass", trivial),
        ("sd_macaulay_bound", "skipped", "regularity degree infinite"),
        (
            "vspace_dim_identity",
            "skipped",
            "hypothesis fails: needs finite d_reg and max deg <= d_reg",
        ),
    ]
    assert [c.rhs for c in report.certificates][:5] == ["+inf", "+inf", 2, "+inf", "+inf"]


UNDERDETERMINED = (
    "p=101; vars=x1,x2,x3,x4; order=grevlex;"
    "11*x2^2 + 22*x1*x3 + 78*x1*x4 + 5*x2*x4 + 56*x4^2 + 57;"
    "41*x1*x3 + 68*x3^2 + 23*x1*x4 + 4*x2*x4 + 23*x3*x4 + 66*x4^2 + 66*x1 + 58*x3;"
    "58*x1*x3 + 97*x2*x3 + 95*x3^2 + 68*x1*x4 + 36*x2*x4 + 59*x2 + 73*x4"
)


def test_underdetermined_system_skips_the_macaulay_bound_for_infinite_regularity():
    # k = 3 quadrics in n = 4 variables: the top parts generate an ideal of
    # height <= 3, so no degree slice fills and d_reg is infinite; that skip
    # is the only way the Macaulay certificate can be skipped for k < n
    report = verify_bounds(mk(UNDERDETERMINED))
    assert report.d_reg == InfiniteDegree(6)
    assert (report.gbd, report.sd, report.lfd) == (3, 3, 1)
    trivial = "regularity degree infinite; bound trivial"
    assert verdicts(report) == [
        ("sd_le_dreg_plus_1", "pass", trivial),
        ("gbd_le_dreg", "pass", trivial),
        ("sd_eq_max_lfd_gbd", "pass", None),
        ("sd_generalized_bound", "pass", trivial),
        ("lfd_upper_bound", "pass", trivial),
        ("sd_macaulay_bound", "skipped", "regularity degree infinite"),
        (
            "vspace_dim_identity",
            "skipped",
            "hypothesis fails: needs finite d_reg and max deg <= d_reg",
        ),
    ]


def test_fewer_forms_than_variables_need_no_regularity_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("k < n must not climb a rung of the walk")

    monkeypatch.setattr("soldeg.invariants._climb", refuse)
    assert degree_of_regularity(mk(UNDERDETERMINED)) == InfiniteDegree(6)
    assert degree_of_regularity(mk("p=2; vars=x,y,z; x*y + z; y^2 + x*z")) == InfiniteDegree(5)
    with pytest.raises(AssertionError, match="k < n"):
        degree_of_regularity(mk("p=101; vars=x,y,z; x*y; 1"))  # constant member: I is not proper


def test_a_coordinate_common_zero_of_the_tops_needs_no_regularity_scan(monkeypatch):
    # x^a*y^(a-1) and y both vanish at (1, 0), and no slice ever fills
    family = "p=101; vars=x,y; x^{a}*y^{b}; y"
    for a in range(2, 6):
        F = mk(family.format(a=a, b=a - 1))
        assert degree_of_regularity(F) == _reference_regularity(F) == InfiniteDegree(2 * a + 1)

    def refuse(*args, **kwargs):
        raise AssertionError("a coordinate common zero must not climb a rung of the walk")

    monkeypatch.setattr("soldeg.invariants._climb", refuse)
    for a in (1000, 16384):
        assert degree_of_regularity(mk(family.format(a=a, b=a - 1))) == InfiniteDegree(2 * a + 1)
    # the tops vanish at (0, 1) and at (0, 0, 1)
    assert degree_of_regularity(mk("p=2; vars=x,y; x*y; x^2 + x*y + y")) == InfiniteDegree(5)
    assert degree_of_regularity(mk("p=3; vars=x,y,z; x*y; y*z; x*z; x^2 + y^2")) == InfiniteDegree(6)
    with pytest.raises(AssertionError, match="coordinate"):
        degree_of_regularity(mk("p=101; vars=x,y; x^3*y + y^4; x"))  # y^4 rules out (0, 1)


def test_a_rational_common_zero_of_the_tops_needs_no_regularity_scan(monkeypatch):
    # x^(2a-1) + y^(2a-1) and x + y both vanish at (1, -1), not a coordinate point
    family = "p=101; vars=x,y; x^{e} + y^{e}; x + y"
    for a in range(2, 6):
        F = mk(family.format(e=2 * a - 1))
        assert degree_of_regularity(F) == _reference_regularity(F) == InfiniteDegree(2 * a + 1)

    def refuse(*args, **kwargs):
        raise AssertionError("a rational common zero must not climb a rung of the walk")

    monkeypatch.setattr("soldeg.invariants._climb", refuse)
    for a in (1000, 16384):
        assert degree_of_regularity(mk(family.format(e=2 * a - 1))) == InfiniteDegree(2 * a + 1)
    # the tops vanish at (1, 1) and at (1, 1, 1)
    assert degree_of_regularity(mk("p=2; vars=x,y; x^2 + y^2; x*y + y^2 + y")) == InfiniteDegree(5)
    assert degree_of_regularity(
        mk("p=3; vars=x,y,z; x^2 - y^2; y^2 - z^2; x*y - z^2; x*z - y^2 + x")
    ) == InfiniteDegree(6)
    # the tops vanish at (1, 1), but 102 points outnumber the 4 monomials of degree 3
    with pytest.raises(AssertionError, match="rational"):
        degree_of_regularity(mk("p=101; vars=x,y; x^2 - y^2; x*y - y^2"))


def test_the_rational_point_search_tries_no_more_points_than_the_row_cap(monkeypatch):
    from soldeg import invariants

    def refuse(*args, **kwargs):
        raise AssertionError("a rational common zero must not climb a rung of the walk")

    # 1,040,604 points pass the row cap, but (1, 1, 1, 1) comes early
    with monkeypatch.context() as mp:
        mp.setattr(invariants, "_climb", refuse)
        F = mk("p=101; vars=x,y,z,w; x^47 - y^47; y^47 - z^47; z^47 - w^47; w^47 - x^47")
        assert degree_of_regularity(F) == InfiniteDegree(187)
    # the tops vanish at (1, 2) only, the third of the points (1, 0), (1, 1),
    # (1, 2), (0, 1); the 5 monomials of degree cap - 2 = 4 let the search run
    F = mk("p=3; vars=x,y; x^2 - y^2; x^3 + y^3")
    assert degree_of_regularity(F) == _reference_regularity(F) == InfiniteDegree(6)
    with row_cap(3):
        assert degree_of_regularity(F) == InfiniteDegree(6)  # found among the first 3
    with row_cap(2), pytest.raises(CapExceeded, match="d_reg walk"):
        degree_of_regularity(F)  # missed by the first 2: the walk runs, into the same cap


def test_the_rational_point_search_matches_brute_force():
    # every top at every point of P^{n-1}(GF(p)) whose first nonzero
    # coordinate is 1, evaluated from Polynomial.terms alone
    from soldeg.invariants import _rational_common_zero

    def top_terms(f):
        d = max(map(sum, f.terms))
        return {m: c for m, c in f.terms.items() if sum(m) == d}

    answers = set()
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            for seed in range(30):
                k = 1 + seed % (n + 1)
                bounds = tuple(1 + (seed + i) % 3 for i in range(k))
                F = gen_random(RandomSpec(seed=seed, n=n, k=k, deg_bounds=bounds, density=0.5, p=p))
                points = [P for P in itertools.product(range(p), repeat=n)
                          if any(P) and next(v for v in P if v) == 1]
                assert len(points) == (p**n - 1) // (p - 1)
                zero = any(
                    all(sum(c * math.prod(v**e for v, e in zip(P, m)) for m, c in top_terms(f).items())
                        % p == 0 for f in F)
                    for P in points
                )
                assert _rational_common_zero(F) == zero, (p, n, seed)
                answers.add(zero)
    assert answers == {False, True}


def test_a_lazard_degree_past_the_largest_supported_degree_is_refused_up_front(monkeypatch):
    # with k = n forms of positive degree, d_reg is Lazard's degree or
    # infinite, so past MAX_DEGREE no walk can end in a number
    assert degree_of_regularity(mk("p=101; vars=x,y; x^20000; 1")) == 1  # a constant member
    assert degree_of_regularity(mk("p=101; vars=x,y; x^20000; y^20000; x; y")) == 1  # k > n

    def refuse(*args, **kwargs):
        raise AssertionError("a Lazard degree past MAX_DEGREE must not climb a rung of the walk")

    monkeypatch.setattr("soldeg.invariants._climb", refuse)
    for text, lazard in [("p=101; vars=x,y; x^20000; y^20000", 39999),
                         ("p=2; vars=x,y; x^16384 + y; y^16385", 32768)]:
        with pytest.raises(DomainError, match=rf"Lazard's degree {lazard} or infinite, and "
                                              rf"{lazard} exceeds the largest supported degree"):
            degree_of_regularity(mk(text))
    # a common zero of the tops is still proved first: (1, -1) here
    assert degree_of_regularity(mk("p=101; vars=x,y; x^20001 + y^20001; x + y")) == InfiniteDegree(20003)


def test_constant_member_fills_degree_one_with_fewer_forms_than_variables():
    assert degree_of_regularity(mk("p=101; vars=x,y,z; x*y; 1")) == 1
    assert degree_of_regularity(mk("p=2; vars=x,y,z,w; x + 1; 1; y*z")) == 1


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("make, values, calls, skipped", [
    (lambda: gen_fk(6, 101), (6, 7, 7), [7], []),  # the identity at d_reg + 1 = sd
    (lambda: gen_fk(10, 101), (10, 11, 11), [11], []),
    (lambda: mk("p=101; vars=x,y; x^2; y^5"), (6, 5, 1), [7], []),  # d_reg + 1 = 7 > sd = 5
    # d_reg is infinite, so the identity certificate counts none
    (lambda: mk("p=101; vars=x,y; x^300 + y^300"), (InfiniteDegree(302), 300, 1), [],
     ["sd_macaulay_bound", "vspace_dim_identity"]),
], ids=["fk6", "fk10", "past-sd", "x300"])
def test_a_report_counts_the_ideal_at_most_once_for_the_identity(monkeypatch, make, values,
                                                                  calls, skipped, traced):
    """The scan reads Lfd off its climb and counts nothing; the identity
    certificate is the one caller of ideal_dim_le, once, at d_reg + 1."""
    from soldeg import invariants

    counted = []

    def count(G, e):
        counted.append(e)
        return ideal_dim_le(G, e)

    monkeypatch.setattr(invariants, "ideal_dim_le", count)
    report = verify_bounds(make(), trace=io.StringIO() if traced else None)
    assert (report.d_reg, report.sd, report.lfd) == values
    assert [c.id for c in report.certificates if c.verdict == "skipped"] == skipped
    assert all(c.verdict == "pass" for c in report.certificates if c.id not in skipped)
    assert counted == calls


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "make, walks",
    [
        (lambda: gen_fk(6, 101), False),  # d_reg = 6 is read: the first fall is at rung 7
        (lambda: mk(UNDERDETERMINED), False),  # Gbd = sd = 3 and Lfd = 1, d_reg infinite
        # d_reg = sd = 5 is read: Lfd = 1, so no rung falls
        (lambda: gen_random(RandomSpec(seed=1, n=4, k=4, deg_bounds=(2,) * 4)), False),
        # the walk climbs to Lazard's degree and proves d_reg infinite
        (lambda: gen_random(RandomSpec(seed=5, n=3, k=3, deg_bounds=(3, 2, 2), p=3)), True),
        (lambda: mk("p=101; vars=x; x^3; x^3 + x"), True),  # rung 3 falls where slice 3 fills
        (lambda: mk("p=101; vars=x,y; x^2; y^5"), True),  # slice 6 fills past sd = 5
    ],
    ids=["fk6", "underdetermined", "n4-quadrics", "n3-p3", "fall-at-fill", "fill-past-sd"],
)
def test_verify_bounds_climbs_F_to_sd_and_past_it_only_to_trace(
    monkeypatch, make, walks, traced
):
    """A report reads V(F, e) at e = 1..sd silently, as rungs of one climb
    of F, and climbs the tops after it only when d_reg cannot be read off
    that climb and the d_reg walk runs; it builds no v_space_closure. Once
    G is known it writes the blocks of rungs max(1, Gbd)..sd. Untraced, the
    climb of F stops at rung sd; traced, it also reads rung d_reg + 1 when
    that lies past sd, only to write its trace."""
    from soldeg import invariants, vspace

    F, climbed, read, rungs_climbed = make(), [], [], []
    rungs = invariants._rungs

    def climb(S, *args, **kwargs):
        climbed.append(S is F)
        for V in vspace._climb(S, *args, **kwargs):
            if S is F:
                rungs_climbed.append(len(V.dims) - 1)
            yield V

    def reader(S, *args):
        at = rungs(S, *args)

        def recorded(e, write=True):
            read.append((e, write))
            return at(e, write)

        return recorded if S is F else at

    def refuse(*args, **kwargs):
        raise AssertionError("a report builds no closure of its own")

    monkeypatch.setattr(invariants, "_climb", climb)
    monkeypatch.setattr(invariants, "_rungs", reader)
    monkeypatch.setattr(vspace, "v_space_closure", refuse)  # invariants imports none
    report = verify_bounds(F, trace=io.StringIO() if traced else None)
    scanned = [(e, False) for e in range(1, report.sd + 1)]
    written = [(e, True) for e in range(max(1, report.gbd), report.sd + 1)]
    past_sd = report.hypothesis["satisfied"] and report.d_reg >= report.sd
    identity = [(report.d_reg + 1, True)] if traced and past_sd else []
    assert read == scanned + written + identity  # no rung past sd read untraced
    assert rungs_climbed == list(range(max(e for e, _ in read) + 1))
    assert climbed == [True] + [False] * walks  # F, then the tops if the read gave nothing
    V = invariants._scan(F, GREVLEX, rungs(F, GREVLEX))[3]
    read_off = invariants._fill_before_fall(V, F.ring.nvars)
    assert walks == (invariants._regularity_proof(F) is None and read_off is None)
    assert read_off in (None, report.d_reg)


@pytest.mark.parametrize("text, d_reg", [
    ("p=101; vars=x; x^3; x^3 + x", 3),  # rung 3 fills slice 3 and falls to x
    ("p=101; vars=x,y,z; x^45; y^45; z^45", None),  # slice 133 fills past sd = 45
])
def test_d_reg_is_walked_when_the_climb_of_F_falls_first_or_fills_past_sd(text, d_reg):
    """Neither input gives d_reg off the climb of F, so the report walks
    the tops: x^3; x^3 + x to d_reg = 3, and x^45; y^45; z^45 into the
    walk's row cap, a skip of every certificate that reads d_reg."""
    from soldeg import invariants

    F = mk(text)
    report = verify_bounds(F)
    V = invariants._scan(F, GREVLEX, invariants._rungs(F, GREVLEX))[3]
    assert invariants._fill_before_fall(V, F.ring.nvars) is None
    assert report.d_reg == d_reg
    if d_reg is None:
        assert cert(report, "gbd_le_dreg").reason.startswith("cap: d_reg walk: ")


@pytest.mark.parametrize("make", [
    lambda: gen_fk(4, 101),
    lambda: gen_fk(6, 101),
    lambda: gen_random(RandomSpec(seed=1, n=3, k=3, deg_bounds=(2,) * 3)),
], ids=["fk4", "fk6", "n3-quadrics"])
def test_a_report_that_reads_d_reg_is_the_one_the_walk_gives_under_every_row_cap(
    monkeypatch, make
):
    """When the climb of F gives d_reg = e, it passed rung e under the row
    cap with dims[e] rows, and the walk's climb of the tops through e holds
    as many, so it passes the same cap. With the one row cap lowered to
    every value up to one past the rows of V(F, sd), a report and its trace
    are the same whether d_reg is read or walked: no report loses the walk's
    cap skip."""
    from soldeg import invariants

    F = make()
    rows = invariants._scan(F, GREVLEX, invariants._rungs(F, GREVLEX))[3].dims[-1]
    read = set()
    for max_rows in range(1, rows + 2):
        reports = []
        for walk in (False, True):
            log = io.StringIO()
            with row_cap(max_rows), monkeypatch.context() as mp:
                if walk:
                    mp.setattr(invariants, "_fill_before_fall", lambda V, n: None)
                reports.append((render_report(verify_bounds(F, trace=log)), log.getvalue()))
        assert reports[0] == reports[1], max_rows
        with row_cap(max_rows), suppress(CapExceeded):
            V = invariants._scan(F, GREVLEX, invariants._rungs(F, GREVLEX))[3]
            read.add(invariants._fill_before_fall(V, F.ring.nvars))
    assert read == {verify_bounds(F).d_reg}  # by every scan that the cap lets end


def test_a_walk_refused_past_the_largest_supported_degree_runs_after_the_scan():
    """k > n, so nothing refuses this input up front: the scan climbs F into
    the row cap and Buchberger gives Gbd, and then the walk of the tops,
    which climbs every supported rung with no slice filled, refuses degree
    MAX_DEGREE + 1. A traced report has written the scan's lines by then."""
    F = mk("p=101; vars=x,y; x^32767; y^32767; x^32767 + y")
    message = f"degree {MAX_DEGREE + 1} exceeds the largest supported degree {MAX_DEGREE}"
    with pytest.raises(DomainError, match=message):
        verify_bounds(F)
    log = io.StringIO()
    with pytest.raises(DomainError, match=message):
        verify_bounds(F, trace=log)
    assert log.getvalue().startswith("32767\tx^32767\tf0\t1\n")


@pytest.mark.parametrize("make", [
    lambda: gen_fk(6, 101),
    lambda: mk(UNDERDETERMINED),
    lambda: mk("p=101; vars=x,y; x^2 + y; x*y + 1"),
    lambda: mk("p=101; vars=x,y; x; x + 1"),
    lambda: gen_random(RandomSpec(seed=5, n=3, k=3, deg_bounds=(3, 2, 2), p=3)),
], ids=["fk6", "underdetermined", "rejected-rung", "unit-ideal", "n3-p3"])
def test_an_uncapped_report_never_runs_buchberger(monkeypatch, make):
    """G and sd come off the climb of F; Buchberger is left for a capped scan."""
    from soldeg import invariants

    F = make()
    full = verify_bounds(F)

    def refuse(*args, **kwargs):
        raise AssertionError("an uncapped report ran Buchberger")

    monkeypatch.setattr(invariants, "buchberger_reduced", refuse)
    for trace in (None, io.StringIO()):
        assert render_report(verify_bounds(F, trace=trace)) == render_report(full)
    assert (solving_degree(F), last_fall_degree(F)) == (full.sd, full.lfd)


def _closure_trace(F, d, max_rows):
    """(trace text, capped) of v_space_closure(F, d) built from scratch
    under a row cap of `max_rows`."""
    sink = io.StringIO()
    try:
        with row_cap(max_rows):
            v_space_closure(F, d, trace=sink)
    except CapExceeded:
        return sink.getvalue(), True
    return sink.getvalue(), False


@pytest.mark.parametrize("max_rows", [12, DEFAULT_MAX_ROWS])  # V(fk4, 5) has 20 rows
def test_the_rung_reader_reads_each_rung_as_the_closure_at_its_degree(monkeypatch, max_rows):
    """Read in any order, a rung gives dim V(F, d) and writes the trace of
    v_space_closure(F, d); once the row cap has stopped the climb, every
    later rung raises that cap, and an earlier one is still read."""
    from soldeg import invariants, vspace

    monkeypatch.setattr(vspace, "DEFAULT_MAX_ROWS", max_rows)
    F, log = gen_fk(4, 101), io.StringIO()
    at = invariants._rungs(F, GREVLEX, log)
    for d in (3, 5, 2, 6, 4, 1):
        start = len(log.getvalue())
        trace, capped = _closure_trace(F, d, max_rows)
        if capped:
            with pytest.raises(CapExceeded, match=f"closure exceeded {max_rows} rows"):
                at(d)
        else:
            assert at(d).dims[d] == v_space_closure(F, d).span_dim()
        assert log.getvalue()[start:] == trace
    with pytest.raises(DomainError, match=f"degree {MAX_DEGREE + 1} exceeds"):
        at(MAX_DEGREE + 1)


@pytest.mark.parametrize("max_rows", [3, 5, 12, 40, None])
@pytest.mark.parametrize("text", [
    "p=101; vars=x,y; x^2 + y; y^2 + x; x*y",
    "p=101; vars=x,y; x^5 + y; y^5 + x; x*y",
    "p=101; vars=x,y; x^2; y^5",  # d_reg + 1 = 7 > sd = 5: traced, the climb goes on
    "p=101; vars=x,y; x*y",
    "p=101; vars=x,y; x; x + 1",
    "p=3; vars=x,y,z; x^2 + y*z + 1; y^2 + x; z^2 + x*y + z",
])
def test_a_report_traces_each_closure_it_reads_as_a_closure_built_from_scratch(
    monkeypatch, text, max_rows
):
    """The trace of a report is that of V(F, d) built from scratch at each
    scanned degree, up to sd or the first capped one, then at d_reg + 1
    when the identity needs it past sd; a capped closure's trace ends with
    the row that passed the cap."""
    F = mk(text)
    rows = DEFAULT_MAX_ROWS if max_rows is None else max_rows
    cap_the_climb_of(monkeypatch, F, rows)
    log = io.StringIO()
    report = verify_bounds(F, trace=log)
    expected = []
    for d in itertools.count(max(1, report.gbd)):
        trace, capped = _closure_trace(F, d, rows)
        expected.append(trace)
        if capped or d == report.sd:
            break
    if report.hypothesis["satisfied"] and (report.sd is None or report.d_reg >= report.sd):
        expected.append(_closure_trace(F, report.d_reg + 1, rows)[0])
    assert log.getvalue() == "".join(expected)


def test_a_report_keeps_one_closure_of_its_scan_alive():
    """The sd scan of gen_fk(60) builds V(F, d) for d = 1..61, and a report
    keeps only the latest: its peak traced memory stays within a small
    multiple of one closure at 61, not the sum of all 61."""

    def peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    F = gen_fk(60, 101)
    assert peak(lambda: verify_bounds(F)) / peak(lambda: v_space_closure(F, 61)) < 4


def test_sd_scan_keys_each_input_once(monkeypatch):
    from soldeg import invariants
    from soldeg.rings import Polynomial

    F = gen_fk(6, 101)
    G = buchberger_reduced(F, GRLEX)
    keyed = []
    packed = Polynomial._packed

    def counted(self, pack):
        if any(self is f for f in F.polys):
            keyed.append(self)
        return packed(self, pack)

    rungs = v_space_closure(F, 7, GRLEX).dims
    monkeypatch.setattr(Polynomial, "_packed", counted)
    scanned = invariants._scan(F, GRLEX, invariants._rungs(F, GRLEX))
    assert scanned[0].polys == G.polys and scanned[1:3] == (7, 7) and scanned[3].dims == rungs
    # the scan tests the inputs at rungs 1..7, and the climb inserts them
    # once; each is keyed under grlex once by each, not once per rung
    assert len(keyed) == 2 * len(F)
