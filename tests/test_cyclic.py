"""Cyclic-term decisions, synthesis, prime arities, spectra, and corollaries."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from finalg import cyclic, kernels
from finalg.catalog import (
    boolean_affine,
    boolean_majority,
    one_element,
    projections_only,
    rock_paper_scissors,
    three_chain_meet,
    three_majority,
    z3_affine,
)
from finalg.core import (
    Congruence,
    Var,
    algebra,
    clone_iter,
    decode_tuple,
    encode_tuple,
    is_cyclic_table,
    orbit_representatives,
    term_table,
)
from finalg.cyclic import (
    CyclicDecision,
    arity_spectrum,
    check_block_quotient_lemma,
    check_congruence_tower,
    check_spectrum_multiplicativity,
    find_cyclic_term,
    has_cyclic_term,
    is_prime,
    next_prime_above,
    smallest_cyclic_prime_check,
)
from finalg.errors import BudgetExceeded, InvalidInput, TheoremViolation
from finalg.relations import (
    Relation,
    contains_constant,
    is_cyclic_relation,
    is_subuniverse_of_power,
    relation_from_codes,
    shift_orbit,
)


def test_projections_only_has_no_cyclic_term():
    for k in (2, 3, 4):
        d = has_cyclic_term(projections_only(), k)
        assert not d.has_cyclic_term
        assert d.counterexample is not None


def test_boolean_majority_ternary():
    d = has_cyclic_term(boolean_majority(), 3)
    assert d.has_cyclic_term


def test_affine_binary_no_cyclic_with_clone_oracle():
    aff = boolean_affine()
    d = has_cyclic_term(aff, 2)
    assert not d.has_cyclic_term
    # independent oracle: exhaust the arity-2 clone looking for a cyclic table
    found = False
    for m, table, _ in clone_iter(aff, 2, 100_000):
        if m == 2 and is_cyclic_table(np.array(table), 2, 2):
            found = True
    assert not found


def test_counterexample_reverifies():
    for alg, k in ((boolean_affine(), 2), (projections_only(), 3)):
        d = has_cyclic_term(alg, k)
        orbit = shift_orbit(d.counterexample)
        # the orbit closure is a nonempty cyclic constant-free subpower
        from finalg import kernels
        flat, offsets, arities = alg.packed
        members = kernels.closure_members(
            flat, offsets, arities, alg.size, k,
            sorted(encode_tuple(t, alg.size) for t in orbit),
        )
        tuples = set()
        for code in members:
            c = int(code)
            digits = []
            for _ in range(k):
                digits.append(c % alg.size)
                c //= alg.size
            tuples.add(tuple(reversed(digits)))
        rel = Relation(k, (alg.size,) * k, frozenset(tuples))
        assert rel.tuples
        assert is_cyclic_relation(rel)
        assert contains_constant(rel) is None
        assert is_subuniverse_of_power(alg, rel)


def orbit_reaches_constant(ops, orbit):
    """Semi-naive closure of one orbit over plain tuples, up to a constant."""
    members = set(orbit)
    order = list(members)
    lo = 0
    while lo < len(order):
        hi = len(order)
        for arity, table in ops:
            for pos in range(arity):
                layers = [order[:lo] if q < pos else order[lo:hi] if q == pos else order[:hi]
                          for q in range(arity)]
                for args in itertools.product(*layers):
                    val = tuple(map(table.__getitem__, zip(*args)))
                    if val not in members:
                        if len(set(val)) == 1:
                            return True
                        members.add(val)
                        order.append(val)
        lo = hi
    return False


def per_orbit_decision(alg, k):
    """(verdict, counterexample): every orbit closed on its own, in code order."""
    n = alg.size
    ops = [(op.arity, dict(zip(itertools.product(range(n), repeat=op.arity), op.table)))
           for op in alg.operations]
    for t in itertools.product(range(n), repeat=k):
        orbit = [t[i:] + t[:i] for i in range(k)]
        if min(orbit) == t and len(set(t)) > 1 and not orbit_reaches_constant(ops, orbit):
            return False, t
    return True, None


def idempotent_table(n, arity, fill):
    """The idempotent table whose off-diagonal entries are `fill`, in order."""
    step = (n**arity - 1) // (n - 1)
    fill = iter(fill)
    return [i // step if i % step == 0 else next(fill) for i in range(n**arity)]


def test_decision_matches_per_orbit_oracle_two_element_ternary():
    for fill in itertools.product(range(2), repeat=6):
        alg = algebra(2, {"f": (3, idempotent_table(2, 3, fill))})
        for k in (5, 7):
            d = has_cyclic_term(alg, k)
            assert (d.has_cyclic_term, d.counterexample) == per_orbit_decision(alg, k), fill


def test_decision_matches_per_orbit_oracle_three_element_binary():
    rng = random.Random(5)
    for _ in range(30):
        fill = [rng.randrange(3) for _ in range(6)]
        alg = algebra(3, {"f": (2, idempotent_table(3, 2, fill))})
        for k in (4, 5):
            d = has_cyclic_term(alg, k)
            assert (d.has_cyclic_term, d.counterexample) == per_orbit_decision(alg, k), fill


def _reference_has_cyclic_term(alg, k, guard=cyclic.TUPLE_SPACE_GUARD):
    """The orbit scan without the first-round pre-pass: one closure per
    orbit, in code order, sharing one mask of the orbits verified so far."""
    alg.require_idempotent()
    if k < 2:
        raise InvalidInput("cyclic terms have arity at least 2")
    n = alg.size
    N = n**k
    if N > guard:
        raise BudgetExceeded(f"tuple space {n}^{k} exceeds guard {guard}")
    flat, offsets, arities = alg.packed
    good = np.zeros(N, dtype=np.bool_)
    good[kernels.constant_codes(n, k)] = True
    for code in range(N):
        if good[code]:
            continue  # a constant, or an orbit already verified
        orbit = cyclic._shift_codes(code, n, k)
        _, hit = kernels.closure(flat, offsets, arities, n, k, orbit,
                                 stop_at_constant=True, good=good)
        if hit == -1:
            return CyclicDecision(k, False, decode_tuple(code, n, k))
        good[orbit] = True
    return CyclicDecision(k, True)


def _reference_verify_counterexample(alg, counter, k):
    """Re-close the counterexample's orbit from scratch: the closure must be
    a nonempty, cyclic, constant-free subpower."""
    flat, offsets, arities = alg.packed
    orbit = cyclic._shift_codes(encode_tuple(counter, alg.size), alg.size, k)
    members = kernels.closure_members(flat, offsets, arities, alg.size, k, orbit)
    rel = relation_from_codes(members, alg.size, k)
    return bool(rel.tuples and is_cyclic_relation(rel) and contains_constant(rel) is None
                and is_subuniverse_of_power(alg, rel))


def assert_matches_reference(alg, k):
    d = has_cyclic_term(alg, k)
    ref = _reference_has_cyclic_term(alg, k)
    assert (d.has_cyclic_term, d.counterexample) == (ref.has_cyclic_term, ref.counterexample)
    assert d.has_cyclic_term or _reference_verify_counterexample(alg, d.counterexample, k)


def two_element_ternary():
    for fill in itertools.product(range(2), repeat=6):
        yield algebra(2, {"f": (3, idempotent_table(2, 3, fill))})


def random_binary(rng, n):
    return algebra(n, {"f": (2, idempotent_table(n, 2, [rng.randrange(n) for _ in range(n * n - n)]))})


def mixed_algebra(rng, n):
    """Unary, binary and ternary operations at once (the only idempotent
    unary operation is the identity)."""
    return algebra(n, {
        "u": (1, list(range(n))),
        "g": (2, idempotent_table(n, 2, [rng.randrange(n) for _ in range(n**2 - n)])),
        "h": (3, idempotent_table(n, 3, [rng.randrange(n) for _ in range(n**3 - n)])),
    })


def test_decision_matches_reference_scan_two_element_ternary():
    for alg in two_element_ternary():
        for k in range(2, 9):
            assert_matches_reference(alg, k)


def test_decision_matches_reference_scan_binary():
    rng = random.Random(11)
    for _ in range(40):
        alg = random_binary(rng, 3)
        for k in range(2, 7):
            assert_matches_reference(alg, k)
    for _ in range(20):
        assert_matches_reference(random_binary(rng, 4), 4)


def test_decision_matches_reference_scan_mixed_and_degenerate():
    rng = random.Random(12)
    for _ in range(20):
        alg = mixed_algebra(rng, rng.choice((2, 3)))
        for k in (2, 3, 4, 5):
            assert_matches_reference(alg, k)
    for n, k in ((1, 2), (1, 7), (2, 2), (2, 5), (3, 3)):
        assert_matches_reference(algebra(n, {}), k)
    assert_matches_reference(one_element(), 6)
    assert has_cyclic_term(one_element(), 6).has_cyclic_term


@pytest.mark.parametrize("limit", [1, 7])
def test_decision_matches_reference_scan_with_few_edges(monkeypatch, limit):
    monkeypatch.setattr(cyclic, "EDGE_LIMIT", limit)
    rng = random.Random(13)
    for alg in two_element_ternary():
        for k in (2, 3, 5):
            assert_matches_reference(alg, k)
    for _ in range(10):
        assert_matches_reference(random_binary(rng, 3), 4)
        assert_matches_reference(mixed_algebra(rng, 2), 3)


def test_first_round_settled_orbits_close_to_a_constant():
    rng = random.Random(14)
    algs = [(alg, 5) for alg in itertools.islice(two_element_ternary(), 0, 64, 7)]
    algs += [(random_binary(rng, 3), 4) for _ in range(8)]
    algs += [(mixed_algebra(rng, 3), 3) for _ in range(4)]
    for alg, k in algs:
        n = alg.size
        flat, offsets, arities = alg.packed
        reps, index = orbit_representatives(n, k)
        constants = kernels.constant_codes(n, k)
        settled = np.zeros(len(reps), dtype=np.bool_)
        settled[index[constants]] = True
        seeded = settled.copy()
        edges = cyclic._first_round_edges(alg, k, reps, index)
        cyclic._settle(edges, settled, np.flatnonzero(~settled))
        for row in np.flatnonzero(settled & ~seeded):
            members = kernels.closure_members(
                flat, offsets, arities, n, k, cyclic._shift_codes(int(reps[row]), n, k))
            assert np.isin(constants, members).any()


def test_every_false_verdict_is_reverified(monkeypatch):
    checked = []
    verify = cyclic._verify_counterexample

    def recording(alg, counter, orbit, member):
        checked.append(counter)
        verify(alg, counter, orbit, member)

    monkeypatch.setattr(cyclic, "_verify_counterexample", recording)
    rng = random.Random(15)
    algs = list(two_element_ternary()) + [random_binary(rng, 3) for _ in range(20)]
    for alg in algs:
        for k in (2, 4, 5):
            checked.clear()
            d = has_cyclic_term(alg, k)
            assert checked == ([] if d.has_cyclic_term else [d.counterexample])


def refuting_closure(alg, k):
    """The counterexample, orbit and member mask of the closure that refutes
    a k-ary cyclic term of `alg`."""
    d = has_cyclic_term(alg, k)
    n = alg.size
    orbit = cyclic._shift_codes(encode_tuple(d.counterexample, n), n, k)
    flat, offsets, arities = alg.packed
    member, hit = kernels.closure(flat, offsets, arities, n, k, orbit, True)
    assert hit == -1
    return d.counterexample, orbit, member


def test_doctored_refuting_masks_fail_verification():
    # every set of tuples is closed under a projection, so on projections_only
    # each doctored mask breaks the certificate in the one way it names
    alg, n, k = projections_only(), 2, 3
    counter, orbit, member = refuting_closure(alg, k)
    assert counter == (0, 0, 1) and sorted(np.flatnonzero(member)) == sorted(orbit)
    cyclic._verify_counterexample(alg, counter, orbit, member)
    dropped = member.copy()
    dropped[orbit[1]] = False
    constant = member.copy()
    constant[kernels.constant_codes(n, k)[1]] = True
    unshifted = member.copy()
    unshifted[encode_tuple((0, 1, 1), n)] = True
    other = np.zeros_like(member)  # the closure of another orbit
    other[cyclic._shift_codes(encode_tuple((0, 1, 1), n), n, k)] = True
    doctored = [(alg, counter, orbit, mask) for mask in (dropped, constant, unshifted, other)]
    # boolean_affine at k = 4: Sg(orbit of (0, 0, 0, 1)) is the 8 tuples of
    # odd weight; the orbit alone is shift-closed and constant-free, not closed
    alg = boolean_affine()
    counter, orbit, member = refuting_closure(alg, 4)
    assert counter == (0, 0, 0, 1) and member.sum() == 8
    cyclic._verify_counterexample(alg, counter, orbit, member)
    orbit_only = np.zeros_like(member)
    orbit_only[orbit] = True
    doctored.append((alg, counter, orbit, orbit_only))
    for args in doctored:
        with pytest.raises(TheoremViolation):
            cyclic._verify_counterexample(*args)


def test_refuted_orbit_is_closed_once(monkeypatch):
    alg, k = projections_only(), 3
    counter, orbit, _ = refuting_closure(alg, k)
    seeds = []
    checking = []
    closure, is_closed = kernels.closure, kernels.is_closed

    def recording(flat, offsets, arities, n, k, codes, *args, **kwargs):
        if not checking:
            seeds.append(sorted(int(c) for c in codes))
        return closure(flat, offsets, arities, n, k, codes, *args, **kwargs)

    def closedness(*args):
        checking.append(True)
        try:
            return is_closed(*args)
        finally:
            checking.pop()

    def fail(*args):
        raise AssertionError("orbit closed again")

    monkeypatch.setattr(kernels, "closure", recording)
    monkeypatch.setattr(kernels, "is_closed", closedness)
    monkeypatch.setattr(kernels, "closure_members", fail)
    d = has_cyclic_term(alg, k)
    assert d.counterexample == counter
    assert seeds.count(sorted(orbit)) == 1


def test_first_round_edges_stay_within_the_limit():
    # a 4-ary operation at k = 16 has 4116 orbits and 16**3 first-round
    # products per orbit: 67 MB as an int32 table, which the limit cuts to
    # 16 MiB
    alg = algebra(2, {"p": (4, lambda x, y, z, w: x)})
    alg.packed
    reps, index = orbit_representatives(2, 16)
    tracemalloc.start()
    try:
        edges = cyclic._first_round_edges(alg, 16, reps, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges.shape == (4116, cyclic.EDGE_LIMIT // 4116)
    assert peak < 2 * cyclic.EDGE_LIMIT * 4  # bytes


def test_least_bad_orbit_returns_before_a_large_edge_table(monkeypatch):
    # the projection's least orbit (0, ..., 0, 1) is bad; its edge table
    # would hold 4116 * 1019 entries, far more than one batch
    def fail(*args):
        raise AssertionError("edge table built")

    monkeypatch.setattr(cyclic, "_first_round_edges", fail)
    d = has_cyclic_term(algebra(2, {"p": (4, lambda x, y, z, w: x)}), 16)
    assert (d.has_cyclic_term, d.counterexample) == (False, (0,) * 15 + (1,))


@pytest.mark.parametrize("chunk", [1, 40])
def test_decision_matches_reference_scan_with_a_closed_least_orbit(monkeypatch, chunk):
    # with batches this small most edge tables count as large, so those scans
    # close their least open orbit before they build the table
    rng = random.Random(16)
    algs = [(alg, k) for alg in two_element_ternary() for k in (2, 3, 5)]
    algs += [(random_binary(rng, 3), 4) for _ in range(10)]
    algs += [(mixed_algebra(rng, 2), 3) for _ in range(10)]
    expected = [_reference_has_cyclic_term(alg, k) for alg, k in algs]
    closed = []
    edges = cyclic._first_round_edges

    def recording(alg, k, reps, index):
        closed.append(True)
        return edges(alg, k, reps, index)

    monkeypatch.setattr(kernels, "CHUNK", chunk)
    monkeypatch.setattr(cyclic, "_first_round_edges", recording)
    for (alg, k), ref in zip(algs, expected):
        d = has_cyclic_term(alg, k)
        assert (d.has_cyclic_term, d.counterexample) == (ref.has_cyclic_term, ref.counterexample)
    verdicts = {d.has_cyclic_term for d in expected}
    assert verdicts == {True, False} and 0 < len(closed) < len(algs)


def test_orbit_generator_reduction_vs_full_subpower_enumeration():
    # n=2, k=3: decision matches scanning every cyclic invariant subpower
    space = list(itertools.product(range(2), repeat=3))
    for alg in (boolean_majority(), boolean_affine(), projections_only()):
        all_free_of_constants_ok = True
        for mask in range(1, 2 ** len(space)):
            subset = frozenset(space[i] for i in range(len(space)) if mask >> i & 1)
            rel = Relation(3, (2, 2, 2), subset)
            if not is_cyclic_relation(rel):
                continue
            if not is_subuniverse_of_power(alg, rel):
                continue
            if contains_constant(rel) is None:
                all_free_of_constants_ok = False
        assert has_cyclic_term(alg, 3).has_cyclic_term == all_free_of_constants_ok


def test_requires_idempotent_and_arity():
    with pytest.raises(InvalidInput):
        has_cyclic_term(boolean_majority(), 1)


def test_find_cyclic_term_majority():
    maj = boolean_majority()
    result = find_cyclic_term(maj, 3)
    table = term_table(maj, result.term, 3)
    assert is_cyclic_table(table, 3, 2)
    assert result.measure_history == sorted(result.measure_history)
    assert len(set(result.measure_history)) == len(result.measure_history)


def test_find_cyclic_term_affine_is_xor3():
    aff = boolean_affine()
    result = find_cyclic_term(aff, 3)
    table = term_table(aff, result.term, 3)
    expected = [sum(args) % 2 for args in itertools.product(range(2), repeat=3)]
    assert list(table) == expected


def test_synthesis_evaluates_only_witnesses_and_the_final_term(monkeypatch):
    # the start x0, each round's witness term s, and the returned term once;
    # no intermediate t_r is evaluated
    alg, k = rock_paper_scissors(), 5
    evaluated, witnesses = [], []
    table, witness = cyclic.term_table, cyclic._constant_witness_term

    def recording_table(alg, t, arity):
        evaluated.append(t)
        return table(alg, t, arity)

    def recording_witness(alg, b, k):
        witnesses.append(witness(alg, b, k))
        return witnesses[-1]

    monkeypatch.setattr(cyclic, "term_table", recording_table)
    monkeypatch.setattr(cyclic, "_constant_witness_term", recording_witness)
    result = find_cyclic_term(alg, k)
    assert len(witnesses) == len(result.measure_history) - 1 >= 2
    assert len(evaluated) == len(witnesses) + 2
    assert evaluated[0] == Var(0) and evaluated[-1] is result.term
    assert all(a is b for a, b in zip(evaluated[1:-1], witnesses))
    assert is_cyclic_table(table(alg, result.term, k), k, 3)


def test_find_cyclic_term_one_element():
    result = find_cyclic_term(one_element(), 4)
    assert result.term == Var(0)


def test_find_cyclic_term_rejects_impossible():
    with pytest.raises(InvalidInput):
        find_cyclic_term(boolean_affine(), 2)


def test_constant_witness_term_stops_at_the_first_constant(monkeypatch):
    # the orbit of (0, 0, 0, 0, 1) in Z3's affine algebra generates 81 rows,
    # and only row 72, (2, ..., 2), is constant
    alg, n, k = z3_affine(), 3, 5
    b = encode_tuple((0, 0, 0, 0, 1), n)
    seeds = kernels.tuple_rows(cyclic._shift_codes(b, n, k), n, k)
    assert sum(1 for _ in cyclic.term_closure(alg, seeds)) == 81
    rows = []
    closure = cyclic.term_closure

    def counting(alg, seeds):
        for row, term in closure(alg, seeds):
            rows.append(row.copy())
            yield row, term

    monkeypatch.setattr(cyclic, "term_closure", counting)
    term = cyclic._constant_witness_term(alg, b, k)
    assert len(rows) == 72
    assert (rows[-1] == 2).all() and not any((r == r[0]).all() for r in rows[:-1])
    table = term_table(alg, term, k)
    assert {int(table[encode_tuple(seeds[:, j].tolist(), n)]) for j in range(k)} == {2}


def groupoid_classes():
    """One idempotent 3-element groupoid per class of renaming elements and
    swapping arguments."""
    perms = list(itertools.permutations(range(3)))
    reps = {}
    for fill in itertools.product(range(3), repeat=6):
        table = idempotent_table(3, 2, fill)
        canon = min(tuple(pi[table[3 * inv[a[s]] + inv[a[1 - s]]]]
                          for a in itertools.product(range(3), repeat=2))
                    for pi in perms for inv in [[pi.index(x) for x in range(3)]]
                    for s in (0, 1))
        reps.setdefault(canon, table)
    return [algebra(3, {"f": (2, table)}) for table in reps.values()]


def test_find_cyclic_term_on_every_groupoid_class_at_four():
    # the 74 classes are those the cyclic benchmark samples at k = 4 and 5
    classes = groupoid_classes()
    assert len(classes) == 74
    found = 0
    for alg in classes:
        if not has_cyclic_term(alg, 4):
            continue
        result = find_cyclic_term(alg, 4)
        assert is_cyclic_table(term_table(alg, result.term, 4), 4, 3)
        history = result.measure_history
        assert all(a < b for a, b in zip(history, history[1:])) and history[-1] == 3**4
        found += 1
    assert found == 35


def test_primes():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert next_prime_above(2) == 3
    assert next_prime_above(3) == 5


def test_smallest_cyclic_prime_check_suite():
    for alg, tname in (
        (boolean_majority(), "maj"),
        (boolean_affine(), "aff"),
    ):
        p, d = smallest_cyclic_prime_check(alg)
        assert p == 3 and d.has_cyclic_term
    for alg in (three_majority(), z3_affine()):
        p, d = smallest_cyclic_prime_check(alg)
        assert p == 5 and d.has_cyclic_term


def test_prime_check_rejects_non_taylor():
    with pytest.raises(InvalidInput, match=r"\{0,1\} splits into \{0\} \| \{1\}"):
        smallest_cyclic_prime_check(projections_only())


def test_majority_spectrum():
    spec = arity_spectrum(boolean_majority(), 15)
    assert spec.members == {3, 5, 7, 9, 11, 13, 15}
    assert check_spectrum_multiplicativity(boolean_majority(), 3, 3)
    assert check_spectrum_multiplicativity(boolean_majority(), 2, 2)
    assert check_spectrum_multiplicativity(boolean_majority(), 2, 3)


def test_affine_spectrum():
    spec = arity_spectrum(boolean_affine(), 4)
    assert 2 not in spec.members
    assert 4 not in spec.members
    assert 3 in spec.members
    assert check_spectrum_multiplicativity(boolean_affine(), 2, 2)


def test_block_quotient_lemma():
    chain = three_chain_meet()
    c = Congruence.from_classes(3, [[0, 1], [2]])
    assert check_block_quotient_lemma(chain, c, 3)
    assert check_block_quotient_lemma(chain, Congruence.diagonal(3), 3)
    assert check_block_quotient_lemma(chain, Congruence.full(3), 3)
    with pytest.raises(InvalidInput):
        check_block_quotient_lemma(chain, Congruence.from_classes(3, [[0, 2], [1]]), 3)


def test_block_lemma_rejects_non_congruences():
    z3 = z3_affine()
    bad = Congruence.from_classes(3, [[0, 1], [2]])  # 0-1+0 = 2 breaks it
    with pytest.raises(InvalidInput):
        check_block_quotient_lemma(z3, bad, 3)


def test_congruence_tower():
    chain = three_chain_meet()
    tower = [Congruence.diagonal(3), Congruence.from_classes(3, [[0, 1], [2]]),
             Congruence.full(3)]
    assert check_congruence_tower(chain, tower, 2) is None  # splits not < 2
    assert check_congruence_tower(chain, tower, 3) is True
    short = [Congruence.diagonal(2), Congruence.full(2)]
    assert check_congruence_tower(boolean_majority(), short, 3) is True
    with pytest.raises(InvalidInput):
        check_congruence_tower(chain, tower, 4)  # not prime
    with pytest.raises(InvalidInput):
        check_congruence_tower(chain, list(reversed(tower)), 3)
