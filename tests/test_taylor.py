"""The exact Taylor test: `core.taylor_split` against the paper's cyclic-term
theorem, its re-verified splits, and the gates that require it."""

import itertools
import json
import random
import re

import pytest

from finalg import core, jsonio
from finalg.absorption import absorption_theorem_check
from finalg.catalog import boolean_majority, projections_only, z3_affine
from finalg.cli import main
from finalg.core import (
    FiniteAlgebra,
    OperationTable,
    algebra,
    find_taylor_term,
    generate_subuniverse,
    is_taylor_term,
    require_taylor,
    taylor_split,
)
from finalg.cyclic import has_cyclic_term, smallest_cyclic_prime_check
from finalg.digraph import Digraph, find_loop_smooth_taylor
from finalg.errors import BudgetExceeded, InvalidInput, TheoremViolation
from finalg.relations import Relation


def groupoids(n):
    """Every idempotent groupoid on n elements, off-diagonal entries in
    product order."""
    for rest in itertools.product(range(n), repeat=n * n - n):
        entries = iter(rest)
        table = tuple(x if x == y else next(entries) for x in range(n) for y in range(n))
        yield FiniteAlgebra(n, (OperationTable("f", 2, table),))


def random_groupoids(n, count, seed):
    rng = random.Random(seed)
    return [FiniteAlgebra(n, (OperationTable("f", 2, tuple(
        x if x == y else rng.randrange(n) for x in range(n) for y in range(n))),))
        for _ in range(count)]


def zero_and_projection():
    """0 absorbs everything, and on {1, 2} the operation is the first
    projection: the semilattice {0, 1} is Taylor, the subalgebra {1, 2} is not."""
    return algebra(3, {"f": (2, lambda x, y: 0 if 0 in (x, y) else x)})


NON_TAYLOR = {
    "projections_only": (projections_only, r"\{0,1\} splits into \{0\} \| \{1\}"),
    "zero_and_projection": (zero_and_projection, r"\{1,2\} splits into \{1\} \| \{2\}"),
}


def brute_split_ok(alg, S, X):
    """S is a subuniverse, X a proper nonempty part of it, and each operation
    sends every tuple over S to the part of one fixed argument."""
    if not X or not X < S or generate_subuniverse(alg, S) != S:
        return False
    for op in alg.operations:
        tuples = list(itertools.product(sorted(S), repeat=op.arity))
        if not any(all((op.apply(alg.size, t) in X) == (t[j] in X) for t in tuples)
                   for j in range(op.arity)):
            return False
    return True


def test_taylor_split_agrees_with_cyclic_terms_at_five():
    # the paper: an idempotent algebra is Taylor iff it has a cyclic term of
    # every prime arity above its size; 331 of the 729 groupoids on 3 elements
    algs = list(groupoids(3)) + random_groupoids(4, 40, seed=5)
    verdicts = [(taylor_split(a) is None, has_cyclic_term(a, 5).has_cyclic_term) for a in algs]
    assert all(split == cyclic for split, cyclic in verdicts)
    assert sum(split for split, _ in verdicts[:729]) == 331
    assert 0 < sum(split for split, _ in verdicts[729:]) < 40


def test_every_split_is_a_projection_split():
    splits = 0
    for alg in list(groupoids(3)) + random_groupoids(4, 40, seed=5):
        split = taylor_split(alg)
        if split is not None:
            splits += 1
            assert brute_split_ok(alg, *split), alg.operations[0].table
    assert splits >= 729 - 331


def test_a_split_that_does_not_verify_is_a_theorem_violation(monkeypatch):
    # majority on {0,1} is no projection on {0} | {1}; a split claimed there
    # must fail the re-verification
    monkeypatch.setattr(core, "_projection_part", lambda alg, block: frozenset({0}))
    taylor_split.cache_clear()
    try:
        with pytest.raises(TheoremViolation, match="failed to verify"):
            taylor_split(boolean_majority())
    finally:
        taylor_split.cache_clear()


def test_two_generated_subuniverses_past_the_guard_exceed_the_budget(monkeypatch):
    # Sg(0, 1) of Z3's Maltsev operation is the whole universe
    monkeypatch.setattr(core, "CONGRUENCE_SIZE_GUARD", 2)
    taylor_split.cache_clear()
    try:
        with pytest.raises(BudgetExceeded, match="Sg\\(0,1\\) has 3"):
            require_taylor(z3_affine())
        # the printed term does not need the split: the clone search answers
        term, _ = find_taylor_term(z3_affine())
        assert is_taylor_term(z3_affine(), term) is not None
    finally:
        taylor_split.cache_clear()


def test_find_taylor_term_agrees_with_taylor_split():
    for alg in list(groupoids(3))[::24]:
        found = find_taylor_term(alg)
        assert (found is None) == (taylor_split(alg) is not None)
        if found is not None:
            assert is_taylor_term(alg, found[0]) is not None


@pytest.mark.parametrize("name", sorted(NON_TAYLOR))
def test_every_gate_names_the_split(name):
    build, split = NON_TAYLOR[name]
    alg = build()
    n = alg.size
    full = Relation(2, (n, n), frozenset(itertools.product(range(n), repeat=2)))
    with pytest.raises(InvalidInput, match="algebra A is not Taylor: " + split):
        absorption_theorem_check(alg, alg, full)
    taylor = algebra(n, {alg.operations[0].name: (2, min)})
    with pytest.raises(InvalidInput, match="algebra B is not Taylor: " + split):
        absorption_theorem_check(taylor, alg, full)
    complete = Digraph.build(n, list(itertools.product(range(n), repeat=2)))
    with pytest.raises(InvalidInput, match="the algebra is not Taylor: " + split):
        find_loop_smooth_taylor(complete, alg)
    with pytest.raises(InvalidInput, match=split + ", where every operation is a projection"):
        smallest_cyclic_prime_check(alg)


@pytest.mark.parametrize("name", sorted(NON_TAYLOR))
def test_prime_check_exits_2_naming_the_split(name, tmp_path, capsys):
    build, split = NON_TAYLOR[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(jsonio.algebra_to_json(build())))
    assert main(["--json", "alg", "cyclic", str(path), "--prime-check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the algebra is not Taylor: ")
    assert re.search(split, captured.err)
