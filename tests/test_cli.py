"""CLI subcommands, exit codes, and reproducible JSON output."""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finalg
from finalg import catalog, cli, digraph, jsonio
from finalg.catalog import boolean_majority, projections_only, z3_affine
from finalg.cli import build_parser, main
from finalg.core import App, OperationTable, Var, algebra, is_cyclic_table, is_simple
from finalg.csp import digraph_structure, is_polymorphism
from finalg.digraph import Digraph
from finalg.errors import InvalidInput


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["maj"] = tmp_path / "maj.json"
    paths["maj"].write_text(jsonio.dumps(jsonio.algebra_to_json(boolean_majority())))
    paths["proj"] = tmp_path / "proj.json"
    paths["proj"].write_text(jsonio.dumps(jsonio.algebra_to_json(projections_only())))
    k3 = Digraph.symmetric(3, [(0, 1), (1, 2), (0, 2)])
    paths["k3"] = tmp_path / "k3.json"
    paths["k3"].write_text(jsonio.dumps(jsonio.digraph_to_json(k3)))
    paths["k3t"] = tmp_path / "k3t.json"
    paths["k3t"].write_text(jsonio.dumps(jsonio.template_to_json(digraph_structure(k3))))
    full2 = Digraph.build(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    paths["full2"] = tmp_path / "full2.json"
    paths["full2"].write_text(jsonio.dumps(jsonio.digraph_to_json(full2)))
    k2 = Digraph.symmetric(2, [(0, 1)])
    paths["k2t"] = tmp_path / "k2t.json"
    paths["k2t"].write_text(jsonio.dumps(jsonio.template_to_json(digraph_structure(k2))))
    inst = {
        "template": str(paths["k3t"]),
        "structure": {"size": 2, "relations": [
            {"name": "E", "arity": 2, "tuples": [[0, 1], [1, 0]]}
        ]},
    }
    paths["inst"] = tmp_path / "inst.json"
    paths["inst"].write_text(json.dumps(inst))
    return {k: str(v) for k, v in paths.items()}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, ["--json"] + argv)
    return code, json.loads(out)


def test_alg_analyze(files, capsys):
    code, payload = run_json(capsys, ["alg", "analyze", files["maj"]])
    assert code == 0
    assert payload["result"]["idempotent"] is True
    assert payload["result"]["simple"] is True
    assert payload["result"]["taylor_term"] is not None
    assert payload["config"]["seed"] == 1


def test_alg_cyclic_decision(files, capsys):
    code, payload = run_json(capsys, ["alg", "cyclic", files["maj"], "--arity", "3"])
    assert code == 0
    assert payload["result"]["has_cyclic_term"] is True
    code, payload = run_json(capsys, ["alg", "cyclic", files["proj"], "--arity", "3"])
    assert code == 0
    assert payload["result"]["has_cyclic_term"] is False
    assert payload["result"]["counterexample"] is not None


def test_alg_cyclic_prime_and_spectrum(files, capsys):
    code, payload = run_json(capsys, ["alg", "cyclic", files["maj"], "--prime-check"])
    assert code == 0
    assert payload["result"]["prime"] == 3
    code, payload = run_json(capsys, ["alg", "cyclic", files["maj"], "--spectrum", "5"])
    assert code == 0
    assert payload["result"]["members"] == [3, 5]


# sha256 of the `--json alg analyze` output of each catalog algebra
ANALYZE_SHA256 = {
    "one_element": "96a7baec0fb99b69a8527fd99f6425ffe9437dab44ea8688918ff90356114602",
    "boolean_meet": "b1ff3f07fd65485ac4b7fc2eb4c0f3179e90a0fb0f44e1ebae99fcdabb0d6d6c",
    "three_chain_meet": "9c718d0fca0ffa917fb27c0025070316bdac3a60d6708bbb01acf6b0e6701341",
    "boolean_majority": "64ca4c23ff71a2aede723e016b3069d0513bd505250e8c1885858aa6a77ee7cf",
    "boolean_affine": "bfadb956102f2855621de57da2ae7225de9f62f264cfdbdeca9fd9d16b629d1d",
    "z3_affine": "9222ca765200c31bf5b86eb1c8dd6f17943dc3e2a545795773a22e86c90b3a08",
    "three_majority": "29de95f1c3bbaeeb303edf8d4ec2d91e780c4fc285cb0ef6d738300e59ae8fe7",
    "projections_only": "76137642325f0ea6e4b793e0ece3684ae35e29e90550434b5ee0cbd72835718e",
    "rock_paper_scissors": "d16273f38418f24f19ad0b7fb863281b25938a977b8fbb7138c5864590534b9f",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_SHA256))
def test_alg_analyze_output_is_byte_identical(name, tmp_path, capsys):
    alg = getattr(catalog, name)()
    path = tmp_path / f"{name}.json"
    path.write_text(jsonio.dumps(jsonio.algebra_to_json(alg)))
    code, out = run(capsys, ["--json", "alg", "analyze", str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_SHA256[name]
    assert json.loads(out)["result"]["simple"] == is_simple(alg)


def test_alg_analyze_skips_an_operation_too_wide_for_the_taylor_scan(tmp_path):
    # a 40-ary operation has 2**40 {x,y}-patterns; listing them all once
    # ran out of memory, so the run gets 1 GiB of address space
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"size": 1, "operations": [
        {"name": "f", "arity": 40, "table": [0]}]}))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(finalg.__file__))
    proc = subprocess.run([sys.executable, "-m", "finalg.cli", "--json", "alg", "analyze",
                           str(path)], env={**os.environ, "PYTHONPATH": src},
                          preexec_fn=limit, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["taylor_term"] == ["var", 0]


def test_alg_clone_and_absorb(files, capsys):
    code, payload = run_json(capsys, ["alg", "clone", files["proj"],
                                      "--budget-arity", "2"])
    assert code == 0
    assert payload["result"]["arity_counts"]["2"] == 2
    code, payload = run_json(capsys, ["alg", "absorb", files["maj"]])
    assert code == 0
    subs = [w["subuniverse"] for w in payload["result"]["proper_absorbing"]]
    assert [0] in subs and [1] in subs


# sha256 of `--json alg clone` and `--json alg absorb` on the algebras of the
# `search` benchmark workload, which pin the clone scan's tables, witness
# terms and completeness flags
CLONE_ABSORB_SHA256 = {
    ("clone", "boolean_affine", "--budget-arity", "6"):
        "caf22ac499e7aacaa2c6ae29902ef1a0c7a963476a4d7496c25add28d77a7f49",
    ("clone", "z3_affine", "--budget-arity", "4"):
        "0e088e8811a220eb90313c6fa21632f740d56b1cacc583499f871280d243112e",
    ("clone", "boolean_lattice", "--budget-arity", "4"):
        "bbb958b76c077610e57c42db01da062f1731d4c710ebee6d1e62520a0995cbf9",
    ("clone", "boolean_meet", "--budget-arity", "6"):
        "ec4519054d51b202b248f175c575628c404331308f161728c98c80e694b79500",
    ("absorb", "one_element"): "73d1e7b58b78a87a02b8cb470c04c41779b3de394a4aa4b20ff6394fe2ac7500",
    ("absorb", "boolean_meet"): "c30442c12e888948933a96187501919e378964112ed24f9e4d53aaa5c5bb027d",
    ("absorb", "three_chain_meet"):
        "d173354438640e0005cb9dc7054d6b75310e4d4920e3a163f36c53dc322af19a",
    ("absorb", "boolean_majority"):
        "3ad6ba5b27f0ff130df6406a6b6e003bad5836e1d4c93db33f908ea8b0f6bdd2",
    ("absorb", "boolean_affine"): "2e500adaad016a46a54f2b556475ec0432bbbe7bf2ba72b24affcdcde0a28448",
    ("absorb", "z3_affine"): "7a8a9ed77edb46fbe12f6c4d6a24e34fc8df528a72b74d6a3ac7b14e24096c78",
    ("absorb", "three_majority"): "2efc152f98b29c548bdd0f4a9bdab9703ffa56489cbf0d0ccdb90fecdc0d6c44",
    ("absorb", "projections_only"):
        "2e500adaad016a46a54f2b556475ec0432bbbe7bf2ba72b24affcdcde0a28448",
    ("absorb", "rock_paper_scissors", "--budget-tables", "2000"):
        "b603d1ef300c1fbe7aad85328110b92f95e5124e376c96a126899bef4752e7b9",
}


def boolean_lattice():
    return algebra(2, {"meet": (2, lambda x, y: x & y), "join": (2, lambda x, y: x | y)})


@pytest.mark.parametrize("case", sorted(CLONE_ABSORB_SHA256))
def test_clone_and_absorb_output_is_byte_identical(case, tmp_path, capsys):
    command, name, *flags = case
    alg = boolean_lattice() if name == "boolean_lattice" else getattr(catalog, name)()
    path = tmp_path / f"{name}.json"
    path.write_text(jsonio.dumps(jsonio.algebra_to_json(alg)))
    code, out = run(capsys, ["--json", "alg", command, str(path), *flags])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLONE_ABSORB_SHA256[case]


def test_verify_loop_theorem_output_is_byte_identical(capsys):
    code, out = run(capsys, ["--json", "verify", "loop-theorem", "--seed", "1"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e80e0095809a84a38e3524268c579b8714f64b46af756ad7670c9318a074b362"


def test_graph_commands(files, capsys):
    code, payload = run_json(capsys, ["graph", "classify", files["k3"]])
    assert code == 0
    assert payload["result"]["verdict"] == "NPComplete"
    code, payload = run_json(capsys, ["graph", "alg-length", files["k3"]])
    assert code == 0
    assert payload["result"]["digraph_algebraic_length"] == 1
    code, payload = run_json(capsys, ["graph", "smooth-part", files["k3"]])
    assert code == 0
    assert payload["result"]["smooth_part"] == [0, 1, 2]
    code, payload = run_json(capsys, ["graph", "loop-check", files["full2"],
                                      files["maj"]])
    assert code == 0
    assert payload["result"]["loop_vertex"] in (0, 1)


def test_graph_alg_length_reads_one_forest(tmp_path, capsys, monkeypatch):
    # a directed 3-cycle, an edge and a loop: lengths 3, None and 1
    g = Digraph.build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 5)])
    path = tmp_path / "g.json"
    path.write_text(jsonio.dumps(jsonio.digraph_to_json(g)))
    calls = []
    forest = digraph._forest

    def counting(*args):
        calls.append(args)
        return forest(*args)

    monkeypatch.setattr(digraph, "_forest", counting)
    code, out = run(capsys, ["--json", "graph", "alg-length", str(path)])
    assert code == 0
    assert len(calls) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ca3d630e2c1efa32952dee5060fd4d61646dbaf81403d64032273ecd18fccc20"


def test_csp_solve_and_classify(files, capsys):
    code, payload = run_json(capsys, ["csp", "solve", files["inst"]])
    assert code == 0
    assert payload["result"]["satisfiable"] is True
    code, payload = run_json(capsys, ["csp", "classify", files["k3t"]])
    assert code == 0
    assert payload["result"]["outcome"] == "NPComplete"


def test_csp_classify_budget_inconclusive(files, capsys):
    # a one-node budget interrupts the branching search for K2's polymorphism
    code, payload = run_json(capsys, ["csp", "classify", files["k2t"],
                                      "--budget-tables", "1"])
    assert code == 3
    assert payload["result"]["outcome"] == "Inconclusive"
    # a tiny tuple-space guard cuts off the same search before it starts
    code, payload = run_json(capsys, ["csp", "classify", files["k2t"],
                                      "--guard-tuples", "5"])
    assert code == 3
    assert payload["result"]["outcome"] == "Inconclusive"
    # K3 is settled by the closed-walk witness without any search, so
    # slashed budgets leave the verdict intact
    code, payload = run_json(capsys, ["csp", "classify", files["k3t"],
                                      "--budget-tables", "10"])
    assert code == 0
    assert payload["result"]["outcome"] == "NPComplete"


def test_csp_classify_directed_five_cycle(tmp_path, capsys):
    # a directed cycle is a circle, so tractable (Bang-Jensen-Hell); its
    # 7-ary cyclic polymorphism search branches deeper than Python's default
    # recursion limit
    c5 = digraph_structure(Digraph.cycle(5))
    path = tmp_path / "c5.json"
    path.write_text(jsonio.dumps(jsonio.template_to_json(c5)))
    code = main(["--json", "csp", "classify", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    result = json.loads(captured.out)["result"]
    assert (result["outcome"], result["prime"]) == ("ConjecturedTractable", 7)
    op = OperationTable("cyc7", 7, tuple(result["witness_polymorphism"]))
    assert is_cyclic_table(op.array, 7, 5)
    assert is_polymorphism(c5, op)


def test_verify_suite(files, capsys):
    code, payload = run_json(capsys, ["verify", "spectra", "--seed", "1"])
    assert code == 0
    assert payload["result"]["ok"] is True
    assert payload["result"]["seed"] == 1


def test_exit_code_invalid_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["alg", "analyze", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["alg", "analyze", str(bad)]) == 2


MALFORMED = {
    "arity-not-int": ("algebra", '{"size": 2, "operations": '
                          '[{"name": "f", "arity": "x", "table": [0, 1]}]}'),
    "size-infinite": ("algebra", '{"size": Infinity, "operations": []}'),
    "entry-not-int": ("algebra", '{"size": 2, "operations": '
                          '[{"name": "f", "arity": 1, "table": ["a", 1]}]}'),
    "relation-arity-not-int": ("template", '{"size": 2, "relations": '
                               '[{"name": "E", "arity": "x", "tuples": []}]}'),
    "tuple-entry-not-int": ("template", '{"size": 2, "relations": '
                            '[{"name": "E", "arity": 1, "tuples": [["a"]]}]}'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(case, tmp_path, capsys):
    kind, text = MALFORMED[case]
    path = tmp_path / "in.json"
    path.write_text(text)
    argv = ["alg", "cyclic", str(path), "--arity", "3"] if kind == "algebra" \
        else ["csp", "classify", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {kind} JSON")
    assert "Traceback" not in err


# Arbitrary JSON, with a few integers past int64 and past any index.
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers(-3, 40) | st.sampled_from([10**30, -(2**63), 2**64]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_SMALL = st.integers(-1, 4) | _JSON
_ALGEBRA = st.fixed_dictionaries({
    "size": _SMALL,
    "operations": st.lists(st.fixed_dictionaries({
        "name": st.sampled_from(["f", "g"]) | _JSON,
        "arity": _SMALL,
        "table": st.lists(_SMALL, max_size=9) | _JSON,
    }), max_size=2) | _JSON,
}) | _JSON
_TEMPLATE = st.fixed_dictionaries({
    "size": _SMALL,
    "relations": st.lists(st.fixed_dictionaries({
        "name": st.sampled_from(["E", "R"]) | _JSON,
        "arity": _SMALL,
        "tuples": st.lists(st.lists(_SMALL, max_size=3), max_size=5) | _JSON,
    }), max_size=2) | _JSON,
}) | _JSON
# a template given by path: a directory, a missing file, a null byte
_INSTANCE = st.fixed_dictionaries({
    "template": _TEMPLATE | st.sampled_from(["/", "/nonexistent/template.json", "\x00"]),
    "structure": _TEMPLATE,
}) | _JSON

# argv with None where the input path goes, and the inputs to draw
FUZZ = {
    "alg-cyclic": (["alg", "cyclic", None, "--arity", "3"], _ALGEBRA),
    "csp-solve": (["csp", "solve", None], _INSTANCE),
    "csp-classify": (["csp", "classify", None], _TEMPLATE),
}


@pytest.mark.parametrize("command", sorted(FUZZ))
@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(command, data, tmp_path_factory):
    argv, inputs = FUZZ[command]
    path = tmp_path_factory.getbasetemp() / f"fuzz-{command}.json"
    path.write_text(json.dumps(data.draw(inputs)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if a is None else a for a in argv])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


# argv as in FUZZ, the input, the exit code
HUGE = 10**30
OVERSIZED = {
    # the table-length check must not compute 2**HUGE
    "operation-arity": (["alg", "cyclic", None, "--arity", "3"], {"size": 2, "operations": [
        {"name": "f", "arity": HUGE, "table": []}]}, 2),
    # one domain per structure element
    "structure-size": (["csp", "solve", None], {
        "template": {"size": 2, "relations": [{"name": "E", "arity": 2, "tuples": [[0, 1]]}]},
        "structure": {"size": HUGE, "relations": [{"name": "E", "arity": 2, "tuples": []}]},
    }, 3),
    "template-path-is-a-directory": (["csp", "solve", None], {"template": "/", "structure": {}}, 2),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_input_is_refused(case, tmp_path, capsys):
    argv, data, expected = OVERSIZED[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main([str(path) if a is None else a for a in argv]) == expected
    assert "Traceback" not in capsys.readouterr().err


# argv as in FUZZ, and the input: each of size -1
NEGATIVE_TEMPLATE = {"size": -1, "relations": []}
NEGATIVE_DIGRAPH = {"vertices": -1, "edges": []}
NEGATIVE_SIZE = {
    "csp-classify": (["csp", "classify", None], NEGATIVE_TEMPLATE),
    "csp-solve": (["csp", "solve", None], {"template": NEGATIVE_TEMPLATE,
                                            "structure": NEGATIVE_TEMPLATE}),
    "graph-classify": (["graph", "classify", None], NEGATIVE_DIGRAPH),
    "graph-alg-length": (["graph", "alg-length", None], NEGATIVE_DIGRAPH),
    "graph-smooth-part": (["graph", "smooth-part", None], NEGATIVE_DIGRAPH),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_SIZE))
def test_negative_size_exits_2_with_a_message(case, tmp_path, capsys):
    argv, data = NEGATIVE_SIZE[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main([str(path) if a is None else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: negative") and "-1" in err
    assert "Traceback" not in err


# FUZZ's commands at size -1, which its seeded draws never reach
FUZZ_NEGATIVE = {
    "alg-cyclic": {"size": -1, "operations": [{"name": "f", "arity": 2, "table": []}]},
    "csp-classify": NEGATIVE_TEMPLATE,
    "csp-solve": NEGATIVE_SIZE["csp-solve"][1],
}


@pytest.mark.parametrize("command", sorted(FUZZ))
def test_cli_fuzz_commands_exit_2_at_size_minus_one(command, tmp_path, capsys):
    argv, _ = FUZZ[command]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(FUZZ_NEGATIVE[command]))
    assert main([str(path) if a is None else a for a in argv]) == 2
    assert "Traceback" not in capsys.readouterr().err


_JSON_KEYS = (st.text(), st.integers(), st.floats(), st.booleans() | st.none())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.lists(st.integers())
    | st.one_of(*(st.dictionaries(key, inner) for key in _JSON_KEYS)),
    max_leaves=20)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(obj=_JSON_VALUES)
def test_dumps_writes_the_bytes_of_json_dumps(obj):
    try:
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    except TypeError:  # keys of types that do not compare, as None and False
        with pytest.raises(TypeError):
            jsonio.dumps(obj)
    else:
        assert jsonio.dumps(obj) == expected


# object() gets a fixed id: its repr holds a memory address that changes per run
@pytest.mark.parametrize("obj", [{1}, b"x", pytest.param(object(), id="object()"), 1j,
                                 [np.int64(1)], {(1,): 0}, {1: 0, "a": 0}], ids=repr)
def test_dumps_refuses_what_json_dumps_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        jsonio.dumps(obj)


def test_malformed_term_and_relation_json_raise_invalid_input():
    for data in ({"op": "f"}, ["var", "x"], ["app", "f"], ["nope"]):
        with pytest.raises(InvalidInput, match="malformed term JSON"):
            jsonio.term_from_json(data)
    for data in ({"arity": "x", "sizes": [2], "tuples": []}, {"arity": 1}):
        with pytest.raises(InvalidInput, match="malformed relation JSON"):
            jsonio.relation_from_json(data)


# sha256 of the `--json alg cyclic ALG --arity k --find-term` output, which
# pins every byte of the synthesized witness terms
FIND_TERM_SHA256 = {
    ("z3_affine", 5): "ed1f8b077f4555ab6d63cada0a9b9ded90abb6816055a867bf3dfd74df6a7429",
    ("three_majority", 5): "3de59b014ddd4b4d20ffeb534e64d54d9841a0a9cf45b7bd68884d5b5547453b",
    ("rock_paper_scissors", 5):
        "dcbd73e5cff069974f863b4067b637df42ae08b53517bc5b9c113bad6013b453",
    ("boolean_affine", 7): "da9db056371c995f46ec4363980ce0aa048ec94ccd31590444f0881fd8c593da",
}


@pytest.mark.parametrize("name, k", sorted(FIND_TERM_SHA256))
def test_find_term_output_is_byte_identical(name, k, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(jsonio.dumps(jsonio.algebra_to_json(getattr(catalog, name)())))
    code, out = run(capsys, ["--json", "alg", "cyclic", str(path), "--arity", str(k),
                             "--find-term"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIND_TERM_SHA256[name, k]


def test_byte_identical_output(files, capsys):
    _, first = run(capsys, ["--json", "csp", "classify", files["k3t"]])
    _, second = run(capsys, ["--json", "csp", "classify", files["k3t"]])
    assert first == second
    _, third = run(capsys, ["verify", "spectra", "--seed", "2", "--json"])
    _, fourth = run(capsys, ["verify", "spectra", "--seed", "2", "--json"])
    assert third == fourth


def test_human_output_renders_same_data(files, capsys):
    code, human = run(capsys, ["alg", "cyclic", files["maj"], "--arity", "3"])
    assert code == 0
    assert "has_cyclic_term: true" in human
    assert "version" in human  # config header present


def test_consecutive_calls_share_no_parser_state(files, capsys, monkeypatch):
    built = []

    def build_once_counted():
        built.append(True)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", build_once_counted)
    try:
        code, payload = run_json(capsys, ["--seed", "5", "alg", "analyze", files["maj"]])
        assert code == 0
        assert payload["config"]["seed"] == 5
        with pytest.raises(SystemExit) as exc:
            main(["alg", "analyze", files["maj"], "--seed", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, human = run(capsys, ["alg", "analyze", files["maj"]])
        assert code == 0
        assert human.startswith("config:\n")  # human output, not JSON
        assert "  seed: 1" in human.splitlines()
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_jsonio_roundtrips(tmp_path):
    alg = z3_affine()
    assert jsonio.algebra_from_json(jsonio.algebra_to_json(alg)) == alg
    term = App("mal", (Var(0), App("mal", (Var(1), Var(2), Var(0))), Var(2)))
    assert jsonio.term_from_json(jsonio.term_to_json(term)) == term
    g = Digraph.build(3, [(0, 1), (2, 2)])
    assert jsonio.digraph_from_json(jsonio.digraph_to_json(g)) == g
    a = digraph_structure(g)
    assert jsonio.template_from_json(jsonio.template_to_json(a)) == a
    from finalg.relations import Relation
    r = Relation(3, (2, 3, 2), frozenset({(0, 2, 1), (1, 0, 0)}))
    assert jsonio.relation_from_json(jsonio.relation_to_json(r)) == r
