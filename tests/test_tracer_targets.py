"""The per-layer tracer in perfbench/ wraps ovalab names from outside
the package.  A rename in ovalab would only surface when a traced
benchmark run fails, so check here that every name it wraps exists
where it looks for it."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("_ovalab_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # the tracer swaps owner.__dict__[attr]; an inherited or missing
    # name would be wrapped in the wrong place or not at all
    missing = [f"{span}: {owner!r}.{attr}" for owner, attr, span in tracer.TARGETS
               if attr not in vars(owner)]
    assert not missing
