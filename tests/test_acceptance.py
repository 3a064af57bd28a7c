"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Three criteria (c09, c12, c13) check window and threshold claims, as the
package encodes them, that the exact values contradict.  Scans report such
violations as data, so these criteria pin the exact defect set: any witness
added, lost or moved fails the test.  Each pinned set is derived in its
test from a closed formula and the published sc prefix, or its inputs are
confirmed by a second method (the brute-force oracle, the recursion rows).
A pin changes only together with such a derivation.

c10 asserts the published fiber bound of the growth proof and fails: the
package's map g has fibers of at least n/2 at n = 2 (mod 4), n >= 38, and
the repository cannot yet tell whether map g is the proof's g.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter

from conftest import acceptance_line as line
from test_analytics import EXTRA_EQUALITIES, REMARK_EQUALITIES, REMARK_REVERSALS

from sccore import abacus as ab
from sccore import analytics as an
from sccore import formulas as fm
from sccore import growth as gr
from sccore import partitions as pt
from sccore.cli import main
from sccore.errors import MapGUndefined, OutOfRange
from sccore.series import clear_series_caches, sc_coeffs, sc_t_coeffs

A000700_PREFIX = [1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3,
                  3, 4, 5, 5, 5, 6, 7, 8, 8, 9, 11, 12, 12, 14]

SC9_BELOW_SC7 = [
    9, 18, 21, 82, 114, 146, 178, 210, 338, 402, 466, 594, 658, 722, 786,
    850, 978, 1106, 1362, 1426, 1618, 1746, 1874, 2130, 2386, 2514, 2642,
    2770, 2898, 3154, 3282, 3410, 3666, 3922, 4050, 4178, 4306, 4434, 4690,
    4818, 4946, 5202, 5458, 5586, 5970, 6226, 6482, 6738, 6994, 7250, 7506,
    8018, 8274, 8530, 8786, 9042, 9298, 9554, 9810,
]

SC11_EQ_SC9 = [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 14, 15, 16, 20, 22, 27, 31, 32, 35, 55]

# n in (20, 2000] where the conjectured sc_9(4n+b) > alpha sc_9(n) fails,
# keyed by (4, b); (4, 0) holds throughout
SC9_THRESHOLD_FAILURES = {
    (4, 1): [840, 860, 1140, 1280, 1500, 1980],
    (4, 3): [620, 840],
    (4, 4): [1280],
}
# n in [n_lo, 20] where it fails.  These exist only because (4, 1) and
# (4, 4) are encoded with n_lo = 1 (the other two start at 17 and 49), and
# the repository holds no statement of the conjecture that fixes n_lo, so
# they are kept apart from the defects above.
SC9_LOW_N_FAILURES = {(4, 1): [1], (4, 4): [1, 20]}

# n in [213, 400] where the sigma_odd window is not unimodal
SIGMA_ODD_FAILURES = [213, 215, 218, 221, 223, 226, 229, 231, 234, 237, 239, 245, 247]


def test_c01_table_reproduction(table1_reference, tmp_path):
    started = time.monotonic()
    out = tmp_path / "table.csv"
    assert main(["table", "sc", "--nmax", "60", "--tmax", "62",
                 "--format", "csv", "--out", str(out)]) == 0
    cells = {}
    for row in out.read_text().strip().splitlines()[1:]:
        t, n, v = row.split(",")
        cells[(int(t), int(n))] = int(v)
    mismatched = [k for k, v in table1_reference.items() if cells.get(k) != v]
    # every populated cell triple-verified: series = recursion (= oracle, n <= 30)
    tables = fm.RecursionTables(60)
    triple_bad = []
    oracle = {n: pt.enumerate_self_conjugate(n) for n in range(31)}
    for t in range(2, 63):
        series_row = sc_t_coeffs(t, 60)
        for n in range(max(0, t - 2), 61):
            v = cells[(t, n)]
            if not (v == series_row[n] == fm.sc_t_value(t, n, tables)):
                triple_bad.append((t, n))
            elif n <= 30 and v != sum(1 for p in oracle[n] if pt.is_t_core(p, t)):
                triple_bad.append((t, n))
    elapsed = time.monotonic() - started
    ok = not mismatched and not triple_bad and elapsed < 5.0
    line(1, ok, f"{len(table1_reference)} published cells, {len(cells)} regenerated, "
                f"triple-verified, {elapsed:.2f}s (< 5s)")
    assert mismatched == [] and triple_bad == []
    assert elapsed < 5.0


def test_c02_prefix():
    got = list(sc_coeffs(27))
    line(2, got == A000700_PREFIX, f"sc(0..27) = published 28-value prefix")
    assert got == A000700_PREFIX


def test_c03_sc6_zero_set_cold():
    clear_series_caches()
    started = time.monotonic()
    zs = an.zero_set(6, 10000)
    elapsed = time.monotonic() - started
    ok = zs == {2, 12, 13, 73} and elapsed < 10.0
    line(3, ok, f"zero set {sorted(zs)} on [0,10000], cold build {elapsed:.2f}s (< 10s)")
    assert zs == {2, 12, 13, 73}
    assert elapsed < 10.0


def test_c04_sc9_below_sc7():
    rep = an.compare_pair(7, 10000)
    ok = rep.data["less"] == SC9_BELOW_SC7
    line(4, ok, f"{{n <= 10000 : sc_9(n) < sc_7(n)}} = published 59-element list")
    assert rep.data["less"] == SC9_BELOW_SC7


def test_c05_sc6_vs_sc4():
    rep = an.compare_pair(4, 10000)
    less = [n for n in rep.data["less"] if n > 15]
    equal = [n for n in rep.data["equal"] if n > 15]
    ok = less == [112, 180, 265] and equal == [27, 28, 33, 40, 73, 75, 118, 190, 248]
    line(5, ok, f"on (15,10000]: strict-less {less}, equal {equal}")
    assert less == [112, 180, 265]
    assert equal == [27, 28, 33, 40, 73, 75, 118, 190, 248]


def test_c06_sc11_vs_sc9():
    rep = an.compare_pair(9, 10000)
    ok = rep.data["equal"] == SC11_EQ_SC9 and rep.data["less"] == [11, 23]
    line(6, ok, f"on [0,10000]: equal set (20 values) and strict-less {{11, 23}}")
    assert rep.data["equal"] == SC11_EQ_SC9
    assert rep.data["less"] == [11, 23]


def test_c07_characterizations():
    details = []
    all_ok = True
    for t in (2, 3, 4, 7, 9):
        rep = an.characterization_check(t, 10000)
        all_ok &= rep.verdict == "holds"
        details.append(f"t={t}:{rep.verdict}")
    rep5 = an.characterization_check(5, 10000)
    winner = rep5.data["matching_readings"]
    all_ok &= rep5.verdict == "holds" and winner == ["shifted"]
    details.append(f"t=5 winning reading: {winner}")
    line(7, all_ok, "; ".join(details))
    assert all_ok, details


def test_c08_large_t_formulas():
    tables = fm.RecursionTables(1000)
    sc = sc_coeffs(1000)
    bad = []
    checked = 0
    for t_full in range(2, 1003):
        row = sc_t_coeffs(t_full, 1000)
        for n in range(1001):
            try:
                value = fm.sc_large(t_full, n, tables)
            except OutOfRange:
                continue
            checked += 1
            if value.value != row[n]:
                bad.append((t_full, n))
    remark_bad = []
    for n in range(52, 1001):
        q = n // 4
        coeff = {0: 11, 1: 12, 2: 12, 3: 14}[n % 4]
        if sc_t_coeffs(2 * q - 12, 1000)[n] != sc[n] - coeff * (q - 6):
            remark_bad.append(("even", n))
    for n in range(76, 1001):
        q = n // 4
        coeff = {0: 8, 1: 9, 2: 11, 3: 12}[n % 4]
        t_full = 2 * q - 11
        if sc_t_coeffs(t_full, 1000)[n] != sc[n] - sc[n - t_full] - coeff * (q - 7):
            remark_bad.append(("odd", n))
    ok = not bad and not remark_bad
    line(8, ok, f"{checked} (t, n) cells across all validity regions agree with the "
                f"series; both remark case-formulas hold to n = 1000")
    assert bad == [] and remark_bad == []


def test_c09_theorem_windows_and_anomalies():
    even = an.monotonicity_scan("sc-even", 1000, window="theorem")
    odd = an.monotonicity_scan("sc-odd", 1000, window="theorem")
    # Defect of the window as encoded (strict sc_{T+2}(n) > sc_T(n) for
    # n >= 48, n/3 < T <= n-17): it reaches T = n-18 at every odd n.  There
    # T > n/2, so the odd-first-hook formula sc_T(n) = sc(n) - sc(n-T)
    # (checked cell by cell in c08) gives sc_{T+2}(n) - sc_T(n) =
    # sc(18) - sc(16), which the published prefix makes 0: an equality.
    assert A000700_PREFIX[18] == A000700_PREFIX[16]
    edge = [(n - 18, n) for n in range(49, 1001, 2)]
    assert all(3 * t > n and 2 * t > n for t, n in edge)
    odd_bad = sorted((t, n) for (t, n, _, _) in odd.witnesses)
    edge_ok = odd_bad == edge and all(lhs == rhs for (_, _, lhs, rhs) in odd.witnesses)
    # The small-n region (T odd, 11 <= T <= n-17, n <= 47) recounted by the
    # brute-force oracle: every self-conjugate partition of n, tested as a t-core.
    oracle_eq, oracle_lt = set(), set()
    for n in range(48):
        sc_n = pt.enumerate_self_conjugate(n)
        for t in range(11, n - 16, 2):
            upper = sum(pt.is_t_core(p, t + 2) for p in sc_n)
            lower = sum(pt.is_t_core(p, t) for p in sc_n)
            if upper == lower:
                oracle_eq.add((t, n))
            elif upper < lower:
                oracle_lt.add((t, n))
    eqs = set(map(tuple, odd.data["small_n_equalities"]))
    lts = set(map(tuple, odd.data["small_n_reversals"]))
    oracle_ok = eqs == oracle_eq and lts == oracle_lt
    printed_ok = REMARK_EQUALITIES <= eqs and lts == REMARK_REVERSALS
    extras = eqs - REMARK_EQUALITIES
    ok = even.verdict == "holds" and edge_ok and oracle_ok and printed_ok \
        and extras == EXTRA_EQUALITIES
    line(9, ok,
         f"even-window inequality holds (n <= 1000); ten published anomalies reproduce "
         f"and agree with the oracle; pinned defects: the strict odd window as encoded "
         f"fails by equality exactly {len(odd_bad)} times, all at T = n-18 "
         f"(sc(18) = sc(16)), and the anomaly region holds {len(extras)} unlisted "
         f"equalities {sorted(extras)}")
    assert even.verdict == "holds"
    assert edge_ok, f"odd-window witnesses moved off T = n-18: {odd_bad[:5]}..."
    assert oracle_ok, (sorted(eqs ^ oracle_eq), sorted(lts ^ oracle_lt))
    assert printed_ok
    assert extras == EXTRA_EQUALITIES, sorted(extras)


def test_c10_growth(growth_19_150):
    sc = sc_coeffs(5000)
    bad_ratio = [n for n in range(19, 5001) if sc[n - 2] * (n + 2) >= sc[n] * n]
    bad_ratio += [n for n in range(8, 5001) if sc[n - 4] * (n + 4) >= sc[n] * n]
    rep = growth_19_150
    kinds = {w[0] for w in rep.witnesses}
    structural = kinds & {"g-h-not-identity", "g-not-onto-B", "A-size", "B-empty",
                          "class-total", "growth-inequality", "g-image-not-in-B"}
    fiber = sorted(w[1] for w in rep.witnesses if w[0] == "fiber-bound")
    # The audit counts fibers on hook sequences.  Recount them with map_g on
    # every self-conjugate partition of n-2: the largest fiber must give a
    # fiber-bound witness exactly when it is >= n/2 (n = 38), and none
    # otherwise (n = 34).
    recount_bad = []
    for n in (34, 38):
        fibers: Counter = Counter()
        for p in pt.enumerate_self_conjugate(n - 2):
            try:
                fibers[gr.map_g(p, n)] += 1
            except MapGUndefined:
                continue
        largest = max(fibers.values())
        expected = [("fiber-bound", n, largest, n)] if 2 * largest >= n else []
        if [w for w in rep.witnesses if w[:2] == ("fiber-bound", n)] != expected:
            recount_bad.append(n)
    ok = not bad_ratio and not structural and not recount_bad and rep.verdict == "holds"
    line(10, ok,
         f"both cross-multiplied ratio bounds hold to 5000; g∘h = id, class split, and "
         f"the growth inequality verified exhaustively on [19,150]; published fiber "
         f"bound < n/2 fails at n = 2 (mod 4): {fiber[:5]}... ({len(fiber)} values)")
    assert bad_ratio == []
    assert structural == set()
    assert recount_bad == [], f"audit fiber counts disagree with map_g at n = {recount_bad}"
    assert rep.verdict == "holds", (
        f"fiber-of-the-retraction bound |preimage| < n/2 fails at {fiber}; "
        "the surjection audit and growth inequality themselves pass"
    )


def test_c11_core_quotient_round_trip():
    bad = []
    for n in range(41):
        for p in pt.partitions_of(n):
            for t in range(2, 9):
                if ab.assemble(ab.t_core(p, t), ab.t_quotient(p, t), t) != p:
                    bad.append((p, t))
    fig = pt.from_diagonal_hooks((29, 15))
    fig_ok = (
        ab.t_core(fig, 5) == (5, 1, 1, 1, 1)
        and ab.t_quotient(fig, 5) == ((1, 1), (), (2, 1), (), (2,))
    )
    ok = not bad and fig_ok
    line(11, ok, "assemble∘(core, quotient) = id for all partitions of n <= 40, "
                 "t in 2..8; worked 5-core example reproduced verbatim")
    assert bad == [] and fig_ok


def test_c12_identities_and_inequalities():
    id_bad = []
    for spec in an.PRINTED_IDENTITIES:
        rep = an.identity_check(spec, 2000)
        if rep.verdict != "holds":
            id_bad.append(spec)
    c7_bad = []
    for spec in an.PROVED_C7_INEQUALITIES:
        rep = an.inequality_check(spec, 2000)
        if rep.verdict != "holds":
            c7_bad.append(spec)
    conj_violations = {}
    for spec in an.CONJECTURED_INEQUALITIES:
        rep = an.inequality_check(spec, 2000)
        if rep.witnesses:
            conj_violations[(spec.a, spec.b)] = [n for (_, n, _, _) in rep.witnesses]
    high = {k: [n for n in ns if n > 20] for k, ns in conj_violations.items()}
    low = {k: [n for n in ns if n <= 20] for k, ns in conj_violations.items()}
    high = {k: ns for k, ns in high.items() if ns}
    low = {k: ns for k, ns in low.items() if ns}
    # Second methods.  Every value the comparisons read, sc_9(0..4*2000+4),
    # is the same on the odd recursion row as on the series.  On n <= 20 the
    # brute-force oracle recounts sc_9 and the failures themselves; at n = 1
    # they follow from the prefix alone, since sc_9(m) = sc(m) for m < 9 and
    # sc(5) = sc(1) = 1, sc(8) = 2 < 2.6 sc(1).
    rec_ok = fm.RecursionTables(8004).row(9) == list(sc_t_coeffs(9, 8004))
    oracle_sc9 = {m: sum(pt.is_t_core(p, 9) for p in pt.enumerate_self_conjugate(m))
                  for m in range(85)}
    by_oracle = {}
    for spec in an.CONJECTURED_INEQUALITIES:
        num, den = spec.alpha.numerator, spec.alpha.denominator
        bad = [n for n in range(spec.n_lo, 21)
               if den * oracle_sc9[spec.a * n + spec.b] <= num * oracle_sc9[n]]
        if bad:
            by_oracle[(spec.a, spec.b)] = bad
    low_ok = low == by_oracle == SC9_LOW_N_FAILURES
    ok = not id_bad and not c7_bad and rec_ok and low_ok and high == SC9_THRESHOLD_FAILURES
    line(12, ok,
         f"five printed identities hold to 2000; both c_7 inequalities hold to 2000; "
         f"pinned defect: the conjectured sc_9 thresholds fail at {high} for n > 20, "
         f"on values the recursion row confirms; at n <= 20, reached only because "
         f"n_lo = 1 is encoded, they also fail at {low}, as the oracle confirms")
    assert id_bad == [] and c7_bad == []
    assert rec_ok
    assert low_ok, (low, by_oracle)
    assert high == SC9_THRESHOLD_FAILURES, conj_violations


def test_c13_telescoping_and_unimodality():
    tel_bad = [n for n in range(400, 2, -1)  # from the top, so every row is built once, to 400
               if an.telescoping_check(n) != (True, True, True)]
    pi = an.unimodality_scan("pi", 63, 400, 400)
    se = an.unimodality_scan("sigma_even", 139, 400, 400)
    so = an.unimodality_scan("sigma_odd", 213, 400, 400)
    se_bad = sorted({n for (_, n, _, _) in se.witnesses})
    so_bad = sorted({n for (_, n, _, _) in so.witnesses})
    # Defect: for n = 4q the sigma_even window's top index 2q-8 rises by 4.
    # The even-first-term formula sc_2t(n) = sc(n) - t sc(n-4t) gives the
    # numerators sc_{2q-8}(n) - sc_{2q-10}(n) = (q-5) sc(20) - (q-4) sc(16)
    # and sc_{2q-6}(n) - sc_{2q-8}(n) = (q-4) sc(16) - (q-3) sc(12), that is
    # 2q-15 and 2q-11 by the published prefix.  n = 139 has a mid-sequence rise.
    P = A000700_PREFIX
    se_expected = [(32, 139, 1560, 1570)] + [
        (2 * q - 8, 4 * q, (q - 5) * P[20] - (q - 4) * P[16], (q - 4) * P[16] - (q - 3) * P[12])
        for q in range(35, 101)
    ]
    assert all(cur - prev == 4 for (_, _, prev, cur) in se_expected[1:])
    # Second method: every sc_t row with 8 <= t <= 202, which covers every
    # value both windows read to n = 400, is the same on the recursion rows
    # as on the series.
    rec = fm.RecursionTables(400)
    rec_ok = all(
        rec.row(t) == list(sc_t_coeffs(t, 400))
        for t in range(8, 203)
    )
    se_ok = sorted(se.witnesses) == sorted(se_expected)
    ok = not tel_bad and pi.verdict == "holds" and rec_ok and se_ok \
        and so_bad == SIGMA_ODD_FAILURES
    line(13, ok,
         f"all three telescoping sums equal 1 exactly for 3 <= n <= 400; pi unimodal "
         f"on [63,400]; pinned defects, on values the recursion rows confirm: sigma_even "
         f"fails at {len(se_bad)} n (139, and n = 0 mod 4 where the top index rises "
         f"by 4); sigma_odd fails at {len(so_bad)} n in [213,247], clean from 248")
    assert tel_bad == []
    assert pi.verdict == "holds"
    assert rec_ok
    assert se_ok, se_bad
    assert so_bad == SIGMA_ODD_FAILURES, so_bad


def test_c14_simultaneous_cores():
    bad = []
    for s in range(2, 8):
        for t in range(s + 1, 9):
            from math import gcd

            if gcd(s, t) != 1:
                continue
            rec = an.simultaneous_counts(s, t)
            if not (rec.count == rec.enumerated and rec.sc_count == rec.enumerated_sc
                    and rec.max_size == rec.enumerated_max):
                bad.append((s, t, rec))
    line(14, not bad, "enumeration certifies both closed-form counts and the maximum "
                      "size for every coprime 2 <= s < t <= 8")
    assert bad == []


def test_c15_performance():
    clear_series_caches()
    started = time.monotonic()
    sc_t_coeffs(6, 10000)
    single = time.monotonic() - started
    clear_series_caches()
    started = time.monotonic()
    an.monotonicity_scan("sc-even", 1000)
    an.monotonicity_scan("sc-odd", 1000)
    scan_elapsed = time.monotonic() - started
    ok = single < 1.0 and scan_elapsed < 30.0
    line(15, ok, f"single-family build at N=10000: {single:.2f}s (< 1s); full "
                 f"both-parity monotonicity scan at n <= 1000: {scan_elapsed:.1f}s (< 30s)")
    assert single < 1.0
    assert scan_elapsed < 30.0


def test_c16_determinism(tmp_path):
    texts = {}
    for name, args in {
        "positivity": ["scan", "positivity", "--t", "6", "--nmax", "2000"],
        "monotonicity": ["scan", "monotonicity", "--family", "sc-even", "--nmax", "120"],
        "growth": ["scan", "growth", "--range", "19..40", "--workers", "2"],
    }.items():
        runs = []
        for k in (0, 1):
            out = tmp_path / f"{name}{k}.json"
            main([*args, "--json", str(out)])
            text = out.read_text()
            assert re.search(r'"elapsed_ms": \d+', text)
            runs.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": _', text))
            json.loads(out.read_text())  # valid JSON round-trips
        texts[name] = runs[0] == runs[1]
    ok = all(texts.values())
    line(16, ok, f"repeated scan reports byte-identical outside the wall-time field: {texts}")
    assert ok
