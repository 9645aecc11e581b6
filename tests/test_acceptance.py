"""Acceptance suite.

Each test covers one acceptance criterion over the corpus (every group of
order <= 8 plus a search-produced nonassociative gyrogroup of order 8) and
prints a single PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

import nuclei_oracle
from gyrokit.cli import main
from gyrokit.commutator import commutator, commutator_subgyrogroup, nc_commutator
from gyrokit.core import Perm, verify_axioms
from gyrokit.gyrofile import save_table
from gyrokit.normality import is_normal, try_quotient
from gyrokit.nuclei import (
    is_twisted_subgroup,
    left_nucleus,
    left_translations,
    lg_prime,
    lg_sharp,
    lmlt,
    middle_nucleus,
    radical,
    right_nucleus,
)
from gyrokit.prime_index import (
    check_condition_n,
    equivalence_report,
    index_two_normality,
    is_prime,
    normality_by_gyration_invariance,
    smallest_prime_precondition,
)
from gyrokit.search import (
    MODE_FIRST_NONASSOCIATIVE,
    SearchConfig,
    automorphisms,
    canonical_form,
    run_search,
)
from gyrokit.substructure import (
    NotPartition,
    enumerate_subgyrogroups,
    is_L_subgyrogroup,
    is_subgroup,
    left_cosets,
)
from gyrokit.sweep import lg_prime_word_oracle

MUTATIONS_PER_TABLE = 20
MUTATION_SEED = 0x5EED


def report(num: int, label: str, ok: bool):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_01_axioms_and_mutation_detection(corpus):
    violations = []
    for name, g in corpus.items():
        start = time.monotonic()
        if not verify_axioms(g.table).passed:
            violations.append(f"{name}: axioms fail")
        elapsed = time.monotonic() - start
        if g.order <= 8 and elapsed >= 1.0:
            violations.append(f"{name}: verification took {elapsed:.2f}s")
        if g.order < 2:
            continue  # no distinct replacement value exists
        rng = random.Random(MUTATION_SEED + g.order * 1000 + len(name))
        for _ in range(MUTATIONS_PER_TABLE):
            a = rng.randrange(g.order)
            b = rng.randrange(g.order)
            delta = rng.randrange(1, g.order)
            rows = [list(r) for r in g.table]
            rows[a][b] = (rows[a][b] + delta) % g.order
            if verify_axioms(rows).passed:
                violations.append(f"{name}: mutation at ({a},{b}) passed")
    report(1, "axioms and mutation detection", not violations)
    assert not violations, violations


def test_criterion_02_gyration_identities(corpus):
    violations = []
    for name, g in corpus.items():
        translations = left_translations(g)
        for a in g.elements():
            for b in g.elements():
                gy = g.gyr(a, b)
                if g.gyr(g.add(a, b), b) != gy:
                    violations.append(f"{name}: loop property at ({a},{b})")
                if g.gyr(b, a) != gy.inverse():
                    violations.append(f"{name}: inverse symmetry at ({a},{b})")
                composed = (
                    translations[g.add(a, b)].inverse()
                    * translations[a]
                    * translations[b]
                )
                if gy != composed:
                    violations.append(f"{name}: translation form at ({a},{b})")
    report(2, "gyration identities", not violations)
    assert not violations, violations[:5]


def _classical_derived(g):
    t, inv = g.table, g.inv
    comms = {t[inv[t[a][b]]][t[b][a]] for a in g.elements() for b in g.elements()}
    closed = {0} | comms
    while True:
        new = {t[a][b] for a in closed for b in closed} | {inv[a] for a in closed}
        if new <= closed:
            return tuple(sorted(closed))
        closed |= new


def test_criterion_03_commutator_theorem_sweep(corpus):
    violations = []
    for name, g in corpus.items():
        els = list(g.elements())
        derived = commutator_subgyrogroup(g)
        dset = derived.as_set()
        for a in els:
            for b in els:
                # item (1)
                if (commutator(g, a, b) == 0) != (
                    g.add(a, b) == g.gyr(a, b)(g.add(b, a))
                ):
                    violations.append(f"{name}: item1 ({a},{b})")
                # item (2)
                na, nb = g.neg(a), g.neg(b)
                if g.neg(g.add(a, b)) != g.add(g.add(na, nb), commutator(g, na, nb)):
                    violations.append(f"{name}: item2 ({a},{b})")
        # item (3) over all quotient projections
        for s in enumerate_subgyrogroups(g):
            if not is_normal(g, s):
                continue
            q = try_quotient(g, s)
            for a in els:
                for b in els:
                    if q.projection(commutator(g, a, b)) != commutator(
                        q.table, q.projection(a), q.projection(b)
                    ):
                        violations.append(f"{name}: item3 N={list(s.members)}")
        # item (4)
        for tau in automorphisms(g):
            if frozenset(tau(x) for x in dset) != dset:
                violations.append(f"{name}: item4 tau={list(tau.images)}")
        # item (5)
        if (derived.members == (0,)) != g.is_gyrocommutative():
            violations.append(f"{name}: item5")
        # item (6) and the membership equivalence
        for s in enumerate_subgyrogroups(g):
            if not is_normal(g, s):
                continue
            gyrocomm = try_quotient(g, s).table.is_gyrocommutative()
            if gyrocomm != (dset <= s.as_set()):
                violations.append(f"{name}: item6 N={list(s.members)}")
            if gyrocomm != all(
                commutator(g, a, b) in s.as_set() for a in els for b in els
            ):
                violations.append(f"{name}: item6-members N={list(s.members)}")
        # group degeneration against the independent oracle
        if g.is_group() and derived.members != _classical_derived(g):
            violations.append(f"{name}: classical derived subgroup mismatch")
    s3 = corpus["s3"]
    if commutator_subgyrogroup(s3).members != (0, 3, 4):
        violations.append("s3: derived subgroup is not the alternating part")
    report(3, "commutator theorem sweep", not violations)
    assert not violations, violations[:5]


def test_criterion_04_commutator_normal_closure(corpus):
    violations = []
    for name, g in corpus.items():
        closure = nc_commutator(g)
        derived = commutator_subgyrogroup(g)
        if not is_normal(g, closure):
            violations.append(f"{name}: closure not normal")
        if not try_quotient(g, closure).table.is_gyrocommutative():
            violations.append(f"{name}: quotient not gyrocommutative")
        if not is_subgroup(g, closure) or not is_subgroup(g, derived):
            violations.append(f"{name}: closure or derived not a subgroup")
        for s in enumerate_subgyrogroups(g):
            if not is_normal(g, s):
                continue
            gyrocomm = try_quotient(g, s).table.is_gyrocommutative()
            if gyrocomm != (closure.as_set() <= s.as_set()):
                violations.append(f"{name}: minimality at N={list(s.members)}")
    report(4, "commutator normal closure", not violations)
    assert not violations, violations[:5]


def test_criterion_05_nuclei(corpus):
    violations = []
    for name, g in corpus.items():
        nl, nm, nr = left_nucleus(g), middle_nucleus(g), right_nucleus(g)
        if nl.members != nm.members:
            violations.append(f"{name}: left and middle nuclei differ")
        for nucleus in (nl, nm, nr):
            if not is_L_subgyrogroup(g, nucleus) or not is_subgroup(g, nucleus):
                violations.append(f"{name}: nucleus structure")
        if not is_normal(g, nl):
            violations.append(f"{name}: left nucleus not normal")
        if not g.is_group() and len(nl) >= g.order:
            violations.append(f"{name}: nucleus not proper")
        for position, nucleus in zip(("left", "middle", "right"), (nl, nm, nr)):
            if nucleus.as_set() != nuclei_oracle.nucleus_by_gyrations(g, position):
                violations.append(f"{name}: dual characterizations differ")
    report(5, "nuclei", not violations)
    assert not violations, violations[:5]


def test_criterion_06_twisted_permutation_layer(corpus):
    violations = []
    for name, g in corpus.items():
        start = time.monotonic()
        group = lmlt(g)
        translations = left_translations(g)
        if not is_twisted_subgroup(group, translations).is_twisted:
            violations.append(f"{name}: translations not twisted")
        ident = Perm.identity(g.order)
        if [p for p in translations if p(0) == 0] != [ident]:
            violations.append(f"{name}: zero stabilizer intersection")
        sharp = lg_sharp(g)
        prime = lg_prime(g)
        if sharp != frozenset(g.left_translation(a) for a in left_nucleus(g).members):
            violations.append(f"{name}: sharp differs from nucleus translations")
        if not prime <= sharp:
            violations.append(f"{name}: chain containment")
        for subset in (sharp, prime):
            for gen in group.generators:
                for x in subset:
                    if gen * x * gen.inverse() not in subset:
                        violations.append(f"{name}: conjugation normality")
        oracle = lg_prime_word_oracle(g, max_len=6)
        if oracle != prime:
            violations.append(f"{name}: word oracle disagreement")
        elapsed = time.monotonic() - start
        if g.order <= 8 and elapsed >= 60.0:
            violations.append(f"{name}: layer took {elapsed:.1f}s")
    report(6, "twisted permutation layer", not violations)
    assert not violations, violations[:5]


def test_criterion_07_radical(corpus):
    violations = []
    for name, g in corpus.items():
        rad = radical(g)
        if not rad.as_set() <= left_nucleus(g).as_set():
            violations.append(f"{name}: radical outside left nucleus")
        if not is_subgroup(g, rad):
            violations.append(f"{name}: radical not a subgroup")
        if not is_normal(g, rad):
            violations.append(f"{name}: radical not normal")
        if g.is_group() and g.is_gyrocommutative() and rad.members != (0,):
            violations.append(f"{name}: abelian radical not trivial")
    report(7, "radical", not violations)
    assert not violations, violations[:5]


def test_criterion_08_prime_index_sweep(corpus):
    violations = []
    pairs = 0
    for name, g in corpus.items():
        for s in enumerate_subgyrogroups(g):
            if len(s) == g.order:
                continue
            try:
                fam = left_cosets(g, s)
            except NotPartition:
                continue
            p = len(fam.cosets)
            if not is_prime(p):
                continue
            pairs += 1
            if not equivalence_report(g, s).all_equal:
                violations.append(f"{name}: conditions disagree H={list(s.members)}")
            if smallest_prime_precondition(g, s):
                ok, _ = check_condition_n(g, s)
                if not ok:
                    violations.append(f"{name}: smallest prime condition")
                found, _ = normality_by_gyration_invariance(g, s)
                if found != is_normal(g, s):
                    violations.append(f"{name}: invariance mismatch")
            if p == 2 and index_two_normality(g, s) and not is_normal(g, s):
                violations.append(f"{name}: index-2 theorem H={list(s.members)}")
    if pairs == 0:
        violations.append("no prime-index pairs found")
    report(8, "prime index sweep", not violations)
    assert not violations, violations[:5]


def test_criterion_09_search():
    violations = []
    expected_counts = [1, 1, 1, 2, 1, 2]
    for n, expected in zip(range(1, 7), expected_counts):
        result = run_search(SearchConfig(order=n))
        if not result.complete:
            violations.append(f"n={n}: incomplete")
        if len(result.tables) != expected:
            violations.append(f"n={n}: {len(result.tables)} classes, expected {expected}")
        if not all(t.is_group() for t in result.tables):
            violations.append(f"n={n}: nonassociative table below order 8")
        forms = {canonical_form(t).table for t in result.tables}
        if len(forms) != len(result.tables):
            violations.append(f"n={n}: canonical dedup mismatch")
    start = time.monotonic()
    result = run_search(
        SearchConfig(order=8, mode=MODE_FIRST_NONASSOCIATIVE, time_budget=3600)
    )
    elapsed = time.monotonic() - start
    if elapsed >= 3600:
        violations.append("order-8 search exceeded the one-hour budget")
    if not result.tables:
        violations.append("no nonassociative order-8 table found")
    else:
        table = result.tables[0]
        if not verify_axioms(table.table).passed:
            violations.append("emitted table fails the axioms")
        if table.is_group():
            violations.append("emitted table is associative")
    report(9, "search", not violations)
    assert not violations, violations


def test_criterion_10_sweep_determinism(corpus, tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    for name, table in corpus.items():
        save_table(d / f"{name}.gyro", table)
    code1 = main(["sweep-theorems", str(d)])
    out1 = capsys.readouterr().out
    code2 = main(["sweep-theorems", str(d)])
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 0
    report(10, "sweep determinism", ok)
    assert ok
