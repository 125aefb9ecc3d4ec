"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 2..7 share one deterministic pool of hypothesis-satisfying
random systems (n in {2,3}, k in {n..n+2}, degrees <= 3, p in {2,3,101});
criterion 8 uses a second, larger pool filtered through leading-term
interreduction. Everything is exact integer arithmetic, no tolerances.
"""

import math
import time

import pytest

from soldeg import (
    GREVLEX,
    GRLEX,
    GenerationError,
    RandomSpec,
    buchberger_reduced,
    construct_top_representatives,
    degree_of_regularity,
    gen_fk,
    gen_random,
    ideal_dim_le,
    interreduce_tops,
    v_space_closure,
    verify_bounds,
)

from soldeg.invariants import _rungs, _scan

from oracle_vspace import BruteForceSpan

PRIMES = (2, 3, 101)
ORDERS = (GREVLEX, GRLEX)


def note(line):
    print(line)


# --- shared pools -------------------------------------------------------------


def _profiles(n, k):
    if n == 2:
        return [(2,) * k, (3,) + (2,) * (k - 1), (3,) * k]
    if k == n:
        # generic cubics: the heaviest admissible regime (d_reg up to 7)
        return [(2,) * k, (3,) + (2,) * (k - 1), (3,) * k]
    return [(2,) * k, (3,) + (2,) * (k - 1)]


@pytest.fixture(scope="module")
def main_pool():
    """Hypothesis-satisfying instances with their full reports."""
    t0 = time.monotonic()
    instances = []
    idx = 0
    for p in PRIMES:
        for n in (2, 3):
            for k in (n, n + 1, n + 2):
                for prof_no, bounds in enumerate(_profiles(n, k)):
                    seeds = 3 if n == 2 else 2
                    for s in range(seeds):
                        seed = 100_000 * p + 1000 * n + 100 * k + 10 * prof_no + s
                        spec = RandomSpec(
                            seed=seed, n=n, k=k, deg_bounds=bounds, density=0.8,
                            p=p, require_hypothesis=True, retry_limit=150,
                        )
                        try:
                            F = gen_random(spec)
                        except GenerationError:
                            continue
                        order = ORDERS[idx % 2]
                        idx += 1
                        instances.append((F, verify_bounds(F, order)))
    elapsed = time.monotonic() - t0
    return instances, elapsed


@pytest.fixture(scope="module")
def family_reports():
    out = []
    for k in range(2, 7):
        for order in ORDERS:
            F = gen_fk(k, 101)
            out.append((k, order, F, verify_bounds(F, order)))
    return out


# --- criterion 1: the optimal family, exact values ------------------------------


def test_criterion_1_family_regression():
    t0 = time.monotonic()
    for k in range(2, 7):
        F = gen_fk(k, 101)
        x, y = F.ring.variables()
        for order in ORDERS:
            report = verify_bounds(F, order)
            assert report.d_reg == k
            G = buchberger_reduced(F, order)
            assert G.polys == (x, y)
            assert report.gbd == 1
            assert report.sd == k + 1
            Vk = v_space_closure(F, k, order)
            assert not Vk.span_contains(x)
            assert not Vk.span_contains(y)
            Vk1 = v_space_closure(F, k + 1, order)
            assert Vk1.span_contains(x)
            assert Vk1.span_contains(y)
            assert report.all_pass
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    note(f"criterion 1: PASS (k=2..6, both orders, {elapsed:.1f}s < 30s)")


# --- criterion 2: sharp bound on random systems --------------------------------


def test_criterion_2_sd_bounded_by_dreg_plus_one(main_pool):
    instances, elapsed = main_pool
    assert len(instances) >= 100, f"only {len(instances)} instances generated"
    seen_n = set()
    seen_p = set()
    violations = []
    for F, report in instances:
        assert isinstance(report.d_reg, int)
        assert F.max_degree() <= report.d_reg
        seen_n.add(F.ring.nvars)
        seen_p.add(F.ring.p)
        if report.sd > report.d_reg + 1:
            violations.append((F, report))
    assert seen_n == {2, 3} and seen_p == set(PRIMES)
    assert not violations
    assert elapsed < 300.0
    note(
        f"criterion 2: PASS ({len(instances)} hypothesis instances, "
        f"0 violations of sd <= d_reg + 1, pool built in {elapsed:.1f}s < 300s)"
    )


# --- criterion 3: solving degree identity ---------------------------------------


def test_criterion_3_sd_equals_max_lfd_gbd(main_pool, family_reports):
    instances, _ = main_pool
    reports = [r for _, r in instances] + [r for _, _, _, r in family_reports]
    checked = 0
    for report in reports:
        if None in (report.sd, report.lfd, report.gbd):
            continue
        assert report.sd == max(report.lfd, report.gbd)
        checked += 1
    assert checked == len(reports)
    note(f"criterion 3: PASS (sd == max(lfd, gbd) on all {checked} instances)")


# --- criterion 4: basis degree below the regularity degree -----------------------


def test_criterion_4_gbd_le_dreg(main_pool, family_reports):
    instances, _ = main_pool
    reports = [r for _, r in instances] + [r for _, _, _, r in family_reports]
    checked = 0
    for report in reports:
        if isinstance(report.d_reg, int):
            assert report.gbd <= report.d_reg
            checked += 1
    note(f"criterion 4: PASS (gbd <= d_reg on all {checked} finite instances)")


# --- criterion 5: improved Macaulay bound ----------------------------------------


def test_criterion_5_macaulay_bound(main_pool, family_reports):
    instances, _ = main_pool
    pairs = [(F, r) for F, r in instances] + [(F, r) for _, _, F, r in family_reports]
    checked = 0
    for F, report in pairs:
        n = F.ring.nvars
        if not isinstance(report.d_reg, int) or len(F) < n:
            continue
        top = sorted(F.degrees(), reverse=True)[:n]
        assert report.sd <= sum(top) - n + 2
        checked += 1
    assert checked > 0
    note(f"criterion 5: PASS (sd within the Macaulay value on {checked} instances)")


# --- criterion 6: dimension identity at d_reg + 1 ---------------------------------


def test_criterion_6_dimension_identity(main_pool, family_reports):
    instances, _ = main_pool
    pairs = [(F, r) for F, r in instances] + [(F, r) for _, _, F, r in family_reports]
    # the report reads the scan's rungs when d + 1 <= sd, and the checked
    # basis past sd: a fresh closure checks both branches
    off_scan = off_basis = 0
    for F, report in pairs:
        if not report.hypothesis["satisfied"]:
            continue
        d = report.d_reg
        G = buchberger_reduced(F, report.order)
        V = v_space_closure(F, d + 1, report.order)
        assert V.span_dim() == ideal_dim_le(G, d + 1)
        cert = next(c for c in report.certificates if c.id == "vspace_dim_identity")
        assert cert.verdict == "pass"
        assert (cert.lhs, cert.rhs) == (V.span_dim(), ideal_dim_le(G, d + 1))
        if d + 1 <= report.sd:
            off_scan += 1
        else:
            off_basis += 1
    assert off_basis >= 100 and off_scan >= 20
    note(f"criterion 6: PASS (dim V(F, d_reg+1) identity on {off_scan + off_basis} "
         f"instances: {off_scan} read off the scan, {off_basis} off the checked basis)")


# --- criterion 7: representative coverage ------------------------------------------


def test_criterion_7_top_representatives(main_pool, family_reports):
    instances, _ = main_pool
    pairs = [(F, r) for F, r in instances] + [(F, r) for _, _, F, r in family_reports]
    checked = 0
    for F, report in pairs:
        if not report.hypothesis["satisfied"]:
            continue
        d = report.d_reg
        n = F.ring.nvars
        reps = construct_top_representatives(F, d, report.order)
        assert len(reps) == math.comb(d + n - 1, d)
        V = v_space_closure(F, d, report.order)
        for m, rep in reps.items():
            assert rep.top().terms == {m: 1}
            assert V.span_contains(rep)
        checked += 1
    assert checked >= 100
    note(f"criterion 7: PASS (full representative sets on {checked} instances)")


# --- criterion 8: the basis read off the climb of F is Buchberger's ---------------


def _oracle_pool(target=200):
    cells = []
    for p in PRIMES:
        for k in (2, 3, 4):
            for bounds in ((2,) * k, (3,) + (2,) * (k - 1)):
                cells.append((p, 2, k, bounds))
        for k in (3, 4):
            cells.append((p, 3, k, (2,) * k))
    instances = []
    seed = 0
    while len(instances) < target and seed < 40 * len(cells):
        p, n, k, bounds = cells[seed % len(cells)]
        spec = RandomSpec(
            seed=500_000 + seed, n=n, k=k, deg_bounds=bounds, density=0.8, p=p
        )
        seed += 1
        F = interreduce_tops(gen_random(spec))
        d = degree_of_regularity(F)
        if isinstance(d, int) and F.max_degree() <= d:
            instances.append((F, d))
    return instances


def test_criterion_8_oracle_equivalence():
    instances = _oracle_pool(200)
    assert len(instances) >= 200
    for i, (F, d) in enumerate(instances):
        order = ORDERS[i % 2]
        at = _rungs(F, order)
        G, sd, _, _ = _scan(F, order, at)
        assert G.polys == buchberger_reduced(F, order).polys
        assert sd <= d + 1  # the paper's bound
        stats = at(sd).stats
        N = math.comb(F.ring.nvars + sd, F.ring.nvars)
        assert stats.adoptions <= N * N
        assert stats.insertions <= N * N
    note(
        f"criterion 8: PASS (the scan's basis == Buchberger on {len(instances)} "
        "instances, sd <= d_reg + 1, adoptions within N^2)"
    )


# --- criterion 9: closure vs brute-force fixed point ---------------------------------


def test_criterion_9_vspace_oracle(main_pool):
    instances, _ = main_pool
    systems = [F for F, _ in instances if F.ring.nvars == 2]
    systems.append(gen_fk(2, 101))
    checked = 0
    for F in systems:
        for d in range(1, 5):
            oracle = BruteForceSpan(F, d)
            V = v_space_closure(F, d)
            assert V.span_dim() == oracle.dim
            for row in V.rows:
                assert oracle.contains(row)
            for row in oracle.row_polys(F.ring):
                assert V.span_contains(row)
            checked += 1
    assert checked >= 4 * 40
    note(f"criterion 9: PASS ({checked} closure/brute-force comparisons agree)")
