"""CLI subcommands, exit codes, and reproducible JSON output."""

import hashlib
import json

import pytest

from finalg import catalog, jsonio
from finalg.catalog import boolean_majority, projections_only, z3_affine
from finalg.cli import main
from finalg.core import App, Var
from finalg.csp import digraph_structure
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


def test_alg_clone_and_absorb(files, capsys):
    code, payload = run_json(capsys, ["alg", "clone", files["proj"],
                                      "--budget-arity", "2"])
    assert code == 0
    assert payload["result"]["arity_counts"]["2"] == 2
    code, payload = run_json(capsys, ["alg", "absorb", files["maj"]])
    assert code == 0
    subs = [w["subuniverse"] for w in payload["result"]["proper_absorbing"]]
    assert [0] in subs and [1] in subs


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
