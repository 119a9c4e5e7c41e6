"""The end-to-end benchmark's traced pass wraps library bindings by name
(``benchmarks/e2e/tracing.py``'s ``ENTRY_POINTS``) and exits with an
error when one is missing.  Resolving them here makes a rename or a
moved import fail the unit suite, not only a benchmark run."""

import importlib.util
import pathlib

TRACING = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "e2e" / "tracing.py"
)


def test_every_traced_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.check_entry_points()  # raises MissingEntryPoint naming it
