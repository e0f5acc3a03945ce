"""The benchmark's span tracer wraps program names by module and attribute;
a renamed or deleted one would only fail the traced benchmark run."""

import importlib
import importlib.util
import pathlib

from finalg.csp import CSPSearch

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    """perfbench/spans.py loaded by path, without installing its wrappers."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    spans = _spans()
    for mod, attr, *_ in spans.WRAPPED + spans.WRAPPED_GENERATORS:
        assert callable(getattr(importlib.import_module(f"finalg.{mod}"), attr, None)), \
            f"finalg.{mod}.{attr}"
    assert callable(CSPSearch.__post_init__) and callable(CSPSearch.solutions)


def test_a_built_search_has_the_fields_the_tracer_reads():
    spans = _spans()
    search = CSPSearch(2, [0b11] * 2, [([(0, 1)], frozenset({(0, 1), (1, 0)}))])
    assert spans._build_counts((search,), {}, None) == {"constraints": 1}
    before = spans._nodes_before((search,))
    assert search.first() == (0, 1)
    assert spans._nodes_counts((search,), before, None) == {"nodes": search.nodes}
    assert search.nodes > 0
