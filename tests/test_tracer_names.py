"""The benchmark tracer still finds every name it wraps.

perfbench/tracer.py wraps package functions by name from outside, so a
rename or a trimmed attribute breaks the benchmark, whose own tests are
slow.  This loads the tracer by path and checks those names only.
"""

import importlib
import importlib.util
from pathlib import Path

from finspace.intmat import smith_normal_form

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    for layer, names in tracer.TRACED.items():
        mod = importlib.import_module(f"finspace.{layer}")
        for dotted in names:
            owner_name, _, member = dotted.partition(".")
            owner = getattr(mod, owner_name, None)
            assert owner is not None, f"finspace.{layer}.{owner_name} is gone"
            if member:  # wrapped through the class dict, as install() does
                assert member in vars(owner), f"finspace.{layer}.{dotted} is gone"


def test_smith_form_keeps_what_the_tracer_reads():
    sf = smith_normal_form([[2]])
    assert (sf.S, sf.U, sf.V) == ([[2]], [[1]], [[1]])
