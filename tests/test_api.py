"""Public API surface tests: imports, __all__, and the README example."""

import importlib

import pytest

def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_top_level_all_importable():
    import repro

    for name in repro.__all__:
        if name == "__version__":
            continue
        assert hasattr(repro, name), name


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.matching",
        "repro.algorithms",
        "repro.generators",
        "repro.sched",
        "repro.experiments",
        "repro.io",
        "repro.dynamic",
    ],
)
def test_subpackage_all_importable(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


def test_readme_quickstart():
    """The module docstring / README example works as printed."""
    from repro import SchedulingProblem, solve

    prob = SchedulingProblem(processors=["cpu0", "cpu1", "gpu"])
    prob.add_task("render", [(("gpu",), 2.0), (("cpu0", "cpu1"), 5.0)])
    prob.add_task("encode", [(("cpu0",), 3.0), (("cpu1",), 3.0)])
    schedule = solve(prob)
    assert schedule.makespan == 3.0


def test_docstrings_on_public_functions():
    """Every public callable carries a docstring (deliverable (e))."""
    import repro
    import repro.algorithms as alg
    import repro.generators as gen
    import repro.matching as mat

    for mod in (repro, alg, gen, mat):
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj):
                assert obj.__doc__, f"{mod.__name__}.{name} lacks a docstring"
