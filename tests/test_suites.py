"""The broadcast brute-force homomorphism oracle and the batched subuniverses
of the square, each against the pure-Python loop it replaced: the same first
map in product order, on the oracle suite's own instance streams and on
hand-made edge cases; the same relations in the same order."""

import itertools
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

from finalg import catalog, digraph, jsonio, kernels, suites
from finalg.absorption import SearchBudget
from finalg.core import FiniteAlgebra, OperationTable
from finalg.csp import RelationalStructure, digraph_structure, find_homomorphism, structure
from finalg.errors import BudgetExceeded, InvalidInput
from finalg.relations import Relation
from finalg.suites import brute_force_homomorphism


def _reference_brute_force(x: RelationalStructure, a: RelationalStructure):
    for mapping in itertools.product(range(a.size), repeat=x.size):
        ok = True
        for (name, rx), (_, ra) in zip(x.relations, a.relations):
            for t in rx.tuples:
                if tuple(mapping[v] for v in t) not in ra.tuples:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return mapping
    return None


def _oracle_streams(seed, hom_count, circle_count):
    """The first instances of `oracles_suite`'s hom and circle streams,
    drawn from the same `random.Random(seed)` in the same order."""
    rng = random.Random(seed)
    pairs = []
    for i in range(500):
        template = suites._random_template(rng)
        instance = suites._random_instance(rng, template)
        if i < hom_count:
            pairs.append((instance, template))
    for _ in range(circle_count):
        template = suites._random_circle_union(rng)
        instance = suites._random_digraph(rng)
        pairs.append((digraph_structure(instance), digraph_structure(template)))
    return pairs


def _assert_same(x, a):
    expected = _reference_brute_force(x, a)
    got = brute_force_homomorphism(x, a)
    assert got == expected, (x, a)
    if got is not None:
        assert type(got) is tuple and all(type(v) is int for v in got)
    return got


# The reference loop takes about 2 s per million maps; the one instance above
# this (seed 105, 12**6 maps, unsatisfiable) is checked against the solver.
REFERENCE_MAPS = 10**6


@pytest.mark.parametrize("seed", [1, 7, 105])
def test_oracle_streams_match_reference(seed):
    found = []
    for x, a in _oracle_streams(seed, 150, 60):
        if a.size ** x.size <= REFERENCE_MAPS:
            found.append(_assert_same(x, a))
        else:
            assert (brute_force_homomorphism(x, a) is None) == (find_homomorphism(x, a) is None)
    assert any(f is None for f in found) and any(f is not None for f in found)


def _unary(size, name, values):
    return (name, Relation(1, (size,), frozenset((v,) for v in values)))


def _rel(size, name, arity, tuples):
    return (name, Relation(arity, (size,) * arity, frozenset(map(tuple, tuples))))


EDGE_CASES = {
    "empty X": (
        RelationalStructure(0, (_rel(0, "E", 2, []),)),
        structure(2, {"E": [(0, 1)]}),
    ),
    "one-element A, satisfiable": (
        structure(3, {"E": [(0, 1), (1, 2)]}),
        structure(1, {"E": [(0, 0)]}),
    ),
    "one-element A, unsatisfiable": (
        structure(3, {"E": [(0, 1), (1, 2)]}),
        RelationalStructure(1, (_rel(1, "E", 2, []),)),
    ),
    "empty relation of A": (
        RelationalStructure(3, (_rel(3, "E", 2, [(0, 2)]), _unary(3, "U", [1]))),
        RelationalStructure(2, (_rel(2, "E", 2, [(1, 0)]), _unary(2, "U", []))),
    ),
    "empty relation of X": (
        RelationalStructure(3, (_rel(3, "E", 2, []), _unary(3, "U", [2]))),
        RelationalStructure(2, (_rel(2, "E", 2, [(1, 0)]), _unary(2, "U", [1]))),
    ),
    "unary and ternary": (
        RelationalStructure(4, (
            _unary(4, "U", [0, 3]),
            _rel(4, "T", 3, [(0, 1, 2), (1, 2, 3), (3, 0, 1)]),
        )),
        RelationalStructure(3, (
            _unary(3, "U", [2]),
            _rel(3, "T", 3, [(a, b, c) for a, b, c in itertools.product(range(3), repeat=3)
                             if (a + b + c) % 3 == 1]),
        )),
    ),
    "repeated variable": (
        structure(3, {"E": [(1, 1), (0, 1), (2, 0)]}),
        structure(3, {"E": [(0, 1), (1, 2), (2, 2), (2, 0)]}),
    ),
    "repeated variable, unsatisfiable": (
        structure(2, {"E": [(0, 0), (0, 1)]}),
        structure(3, {"E": [(0, 1), (1, 2), (2, 0)]}),
    ),
    "ternary with repeats": (
        RelationalStructure(3, (_rel(3, "T", 3, [(0, 0, 1), (1, 2, 1), (2, 2, 2)]),)),
        RelationalStructure(2, (_rel(2, "T", 3, [(1, 1, 0), (0, 1, 0), (0, 0, 0)]),)),
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_reference(name):
    _assert_same(*EDGE_CASES[name])


def test_edge_case_answers():
    assert brute_force_homomorphism(*EDGE_CASES["empty X"]) == ()
    assert brute_force_homomorphism(*EDGE_CASES["one-element A, satisfiable"]) == (0, 0, 0)
    assert brute_force_homomorphism(*EDGE_CASES["one-element A, unsatisfiable"]) is None
    assert brute_force_homomorphism(*EDGE_CASES["empty relation of A"]) is None
    assert brute_force_homomorphism(*EDGE_CASES["empty relation of X"]) == (0, 0, 1)
    assert brute_force_homomorphism(*EDGE_CASES["repeated variable"]) == (1, 2, 0)
    assert brute_force_homomorphism(*EDGE_CASES["repeated variable, unsatisfiable"]) is None


@pytest.mark.parametrize("chunk", [1, 3, 50])
def test_small_chunks_match_reference(monkeypatch, chunk):
    # blocks of at most `chunk` maps: at 1 every map is its own prefix, at 3
    # and 50 the trailing one to three variables form the block
    monkeypatch.setattr(suites, "ORACLE_BLOCK", chunk)
    for x, a in list(EDGE_CASES.values()) + _oracle_streams(1, 40, 15):
        _assert_same(x, a)


def test_late_first_map_crosses_chunks(monkeypatch):
    # the only map is the last of 7**5: in the last of 7**5, 7**3 and 7
    # prefixes, and in the one block of all the maps
    path = structure(5, {"E": [(i, i + 1) for i in range(4)]})
    target = structure(7, {"E": [(6, 6)]})
    for block in (1, 49, 7**4, suites.ORACLE_BLOCK):
        monkeypatch.setattr(suites, "ORACLE_BLOCK", block)
        assert _assert_same(path, target) == (6,) * 5


def test_largest_stream_instance_holds_one_block():
    # seed 105's unsatisfiable circle instance: 12**6 maps, blocks of 12**5
    x, a = next((x, a) for x, a in _oracle_streams(105, 0, 200)
                if a.size == 12 and x.size == 6 and find_homomorphism(x, a) is None)
    tracemalloc.start()
    try:
        got = brute_force_homomorphism(x, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is None
    assert peak < 2 * 12**5  # bytes; one bool per map of a block


def test_signature_mismatch():
    binary = structure(2, {"E": [(0, 1)]})
    unary = RelationalStructure(2, (_unary(2, "E", [0, 1]),))
    renamed = structure(2, {"F": [(0, 1)]})
    for x, a in ((binary, unary), (unary, binary), (binary, renamed)):
        with pytest.raises(InvalidInput):
            brute_force_homomorphism(x, a)



# ---------------------------------------------------------------------------
# the subuniverses of the square against the closure loop they replaced


def _reference_invariant_binary_relations(alg):
    n = alg.size
    pairs = list(itertools.product(range(n), repeat=2))
    out = []
    flat, offsets, arities = alg.packed
    for mask in range(1, 2 ** len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        codes = sorted(a * n + b for a, b in chosen)
        if kernels.is_closed(flat, offsets, arities, n, 2, codes):
            out.append(Relation.binary(n, n, chosen))
    return out


def _square_cases():
    """The catalog algebras with n <= 3, and seeded random 1-3-element
    algebras: arities 1-3, up to three operations, idempotent or not."""
    algs = [make() for _, make in sorted(catalog.NAMED.items())]
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 3)
        ops = [OperationTable(f"f{i}", arity, tuple(rng.randrange(n) for _ in range(n**arity)))
               for i, arity in enumerate(rng.choices((1, 2, 3), k=rng.randint(1, 3)))]
        algs.append(FiniteAlgebra(n, tuple(ops)))
    return [alg for alg in algs if alg.size <= 3]


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_invariant_binary_relations_match_reference(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(kernels, "FIRST_CHUNK", chunk)
        monkeypatch.setattr(kernels, "CHUNK", chunk)
    cases = _square_cases()
    assert any(len(alg.operations) > 1 for alg in cases)
    assert any(not alg.is_idempotent() for alg in cases)
    counts = set()
    for alg in cases:
        got = suites.invariant_binary_relations(alg)
        expected = _reference_invariant_binary_relations(alg)
        assert [r.sorted_tuples() for r in got] == [r.sorted_tuples() for r in expected]
        assert got == expected
        counts.add(len(got))
    assert len(counts) > 5


def test_invariant_binary_relations_refuses_five_elements_before_allocating():
    # 2**16 masks at n = 4 fit the table guard; 2**25 at n = 5 do not
    def projection(n):
        return FiniteAlgebra(n, (OperationTable("f", 2, tuple(x for x in range(n)
                                                              for _ in range(n))),))
    four = suites.invariant_binary_relations(projection(4))
    assert len(four) == 2**16 - 1  # a projection preserves every relation
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="table guard"):
            suites.invariant_binary_relations(projection(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_task_paths_do_not_import_numpy_ma(tmp_path):
    # where numpy loads numpy.ma lazily, np.unique imports it on its first
    # call, a cost every fresh process pays; these commands keep to
    # kernels.unique, and the CSP commands to its scope deduplication
    path = tmp_path / "rps.json"
    path.write_text(jsonio.dumps(jsonio.algebra_to_json(catalog.rock_paper_scissors())))
    # linear equations over Z3, whose cyclic polymorphism search has 59049 scopes
    lin_z3 = structure(3, {"E": [t for t in itertools.product(range(3), repeat=3)
                                 if sum(t) % 3 == 1]})
    lin_path = tmp_path / "lin-z3.json"
    lin_path.write_text(jsonio.dumps(jsonio.template_to_json(lin_z3)))
    # a planted 3-colouring: 30 vertices, 60 edges
    rng = random.Random(5)
    colour = [rng.randrange(3) for _ in range(30)]
    edges = set()
    while len(edges) < 60:
        u, v = rng.sample(range(30), 2)
        if colour[u] != colour[v]:
            edges |= {(u, v), (v, u)}
    k3 = [(i, j) for i in range(3) for j in range(3) if i != j]
    solve_path = tmp_path / "solve.json"
    solve_path.write_text(jsonio.dumps({
        "template": jsonio.template_to_json(structure(3, {"E": k3})),
        "structure": jsonio.template_to_json(structure(30, {"E": sorted(edges)}))}))
    script = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "if 'numpy.ma' in sys.modules:\n"
        "    sys.exit(77)\n"
        "from finalg.cli import main\n"
        f"argvs = [['--json', 'alg', 'cyclic', {str(path)!r}, '--arity', '4'],\n"
        f"         ['--json', 'csp', 'classify', {str(lin_path)!r}],\n"
        f"         ['--json', 'csp', 'solve', {str(solve_path)!r}],\n"
        "         ['--json', 'verify', 'absorption-theorem', '--seed', '1'],\n"
        "         ['--json', 'verify', 'loop-theorem', '--seed', '1']]\n"
        "for argv in argvs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    if done.returncode == 77:
        pytest.skip("this numpy imports numpy.ma along with numpy")
    assert done.returncode == 0, done.stderr


# instances per suite at seed 1; the suite sizes are module constants
SUITE_SIZES = {"absorption-theorem": 13, "cyclic-prime": 4, "loop-theorem": 240,
               "spectra": 7, "oracles": 769}


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_every_suite_passes_in_process(name):
    report = suites.run_suite(name, 1)
    assert report.ok, report.violations[:5]
    assert report.instances == SUITE_SIZES[name]


def test_loop_theorem_suite_hands_its_budget_to_every_report(monkeypatch):
    """The `run_suite` budget (`--budget-arity`, `--budget-tables`) reaches
    every absorption report of `verify loop-theorem`; without one each
    report runs at the default budget and the JSON is the default's."""
    budgets = []
    report = digraph.absorption_report

    def recording(alg, budget=None):
        budgets.append(budget)
        return report(alg, budget)

    monkeypatch.setattr(digraph, "absorption_report", recording)
    small = SearchBudget(max_arity=2, max_tables=10)
    suites.run_suite("loop-theorem", 1, small)
    assert budgets and all(b == small for b in budgets)
    budgets.clear()
    default = suites.run_suite("loop-theorem", 1).to_json()
    assert budgets and all(b == SearchBudget() for b in budgets)
    assert suites.run_suite("loop-theorem", 1, SearchBudget()).to_json() == default
