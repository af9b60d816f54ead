import pytest

from tanglekit.verify import SUITE_NAMES, run_suite

NAMED_SUITES = [name for name in SUITE_NAMES if name != "all"]


def test_suite_names_are_the_cli_choices():
    assert SUITE_NAMES == (
        "plucker",
        "cauchy-binet",
        "lu",
        "slocc",
        "permutation",
        "monotonicity",
        "lmn",
        "pfaffian",
        "all",
    )


@pytest.mark.parametrize("suite", NAMED_SUITES)
def test_named_suites_pass(suite):
    results = run_suite(suite, trials=10, seed=0)
    assert results
    for r in results:
        assert r.passed, f"{r.name}: residual {r.max_residual:.3e} > {r.tolerance:.0e}"


def test_all_suite_aggregates_everything():
    union = sum(len(run_suite(name, trials=5, seed=0)) for name in NAMED_SUITES)
    assert len(run_suite("all", trials=5, seed=0)) == union


def test_suite_results_are_deterministic():
    a = run_suite("slocc", trials=8, seed=42)
    b = run_suite("slocc", trials=8, seed=42)
    assert [(r.name, r.max_residual) for r in a] == [(r.name, r.max_residual) for r in b]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("spectral", trials=5, seed=0)
