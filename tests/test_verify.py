import itertools
import math

import numpy as np
import pytest

import tanglekit.cli as cli
import tanglekit.verify as verify
from tanglekit.bipartition import epsilon_apply
from tanglekit.local_ops import monotonicity_trial, random_povm_pair
from tanglekit.monotones import admissible_partitions
from tanglekit.states import random_state
from tanglekit.verify import (
    SUITE_NAMES,
    check_lmn_sum,
    check_povm_monotonicity,
    check_slocc_invariance,
    run_suite,
)

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


@pytest.mark.parametrize("seed", [0, 11])
def test_a_property_draws_the_same_inputs_in_every_suite(seed):
    # A failure that `verify all --seed s` finds reruns as `verify <suite> --seed s`.
    everything = run_suite("all", trials=7, seed=seed)
    for suite in NAMED_SUITES:
        results = run_suite(suite, trials=7, seed=seed)
        names = {r.name for r in results}
        assert results == [r for r in everything if r.name in names], suite


@pytest.mark.parametrize("seed", [0, 11])
def test_povm_monotonicity_matches_monotonicity_trial_bit_for_bit(seed):
    # The check forms each draw's two branches once for all partitions and
    # both monotones. Replayed draw for draw through monotonicity_trial, which
    # forms them per call, every residual and so the worst is the same float.
    trials = 8
    rng = np.random.default_rng(seed)
    replay = []
    for _ in range(trials):
        residuals = []
        for n_qubits in (2, 3, 4):
            state = random_state(n_qubits, seed=rng)
            qubit = int(rng.integers(1, n_qubits + 1))
            povm = random_povm_pair(rng)
            for part in admissible_partitions(n_qubits):
                for mono in ("d", "e"):
                    before, after = monotonicity_trial(state, qubit, povm, mono, part)
                    residuals.append(after - before)
        replay.append(residuals)
    trial_residuals = check_povm_monotonicity.__wrapped__
    assert list(trial_residuals(trials, np.random.default_rng(seed))) == replay
    result = check_povm_monotonicity(trials, np.random.default_rng(seed))
    assert result.trials == trials
    assert result.max_residual == max(max(residuals) for residuals in replay)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("spectral", trials=5, seed=0)


@pytest.mark.parametrize("trials", [0, -1])
def test_trials_must_be_positive(trials):
    message = f"^trials must be >= 1, got {trials}$"
    with pytest.raises(ValueError, match=message):
        run_suite("lmn", trials=trials)
    with pytest.raises(ValueError, match=message):
        check_lmn_sum(trials, np.random.default_rng(0))


def test_all_suite_report_shape():
    # Every property counts one trial per random draw: a matrix, a state
    # with all its partitions, or one state per register size N in
    # {2, 3, 4} for POVM monotonicity.
    expected = [
        ("plucker-relation", 1e-12, 20),
        ("gauge-covariance", 1e-10, 20),
        ("cauchy-binet-hermitian", 1e-10, 20),
        ("cauchy-binet-bilinear", 1e-10, 20),
        ("epsilon-form", 0.0, 20),
        ("lu-single-qubit", 1e-10, 20),
        ("lu-selected-block", 1e-10, 20),
        ("slocc-invariance", 1e-8, 20),
        ("homogeneity", 1e-10, 20),
        ("range-ordering", 1e-12, 20),
        ("permutation-three-tangle", 1e-10, 20),
        ("permutation-four-qubit", 1e-10, 20),
        ("povm-monotonicity", 1e-9, 20),
        ("lmn-sum", 1e-9, 20),
        ("lmn-monotone-match", 1e-10, 20),
        ("pfaffian-square", 1e-10, 20),
        ("pfaffian-five-qubit", 1e-10, 20),
    ]
    results = run_suite("all", trials=20, seed=3)
    assert [(r.name, r.tolerance, r.trials) for r in results] == expected
    assert all(r.passed for r in results)


def test_epsilon_form_sees_a_symmetric_epsilon_gram_past_four_qubits(monkeypatch):
    # The Cauchy-Binet properties draw N = 2..5 and never form an ε-Gram with
    # m >= 5; epsilon-form draws m = 1..6, so a Gram that is symmetric where it
    # should be antisymmetric (X + X^T for odd m >= 5) fails it.
    real = verify.gram_bilinear

    def symmetric_for_odd_m_past_four(z, m):
        if m < 5 or m % 2 == 0:
            return real(z, m)
        half = len(z) // 2
        x = z[:half].T @ epsilon_apply(m - 1, z[half:])
        return x + x.T

    monkeypatch.setattr(verify, "gram_bilinear", symmetric_for_odd_m_past_four)
    results = {r.name: r.passed for r in run_suite("cauchy-binet", trials=6, seed=0)}
    assert results == {
        "cauchy-binet-hermitian": True,
        "cauchy-binet-bilinear": True,
        "epsilon-form": False,
    }


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_nan_residual_fails_the_check(monkeypatch, where):
    # Each slocc-invariance residual takes two E values, so a NaN at call k
    # lands in residual k // 2.
    real = verify.e_monotone
    calls = []

    def counted_e(state, part):
        calls.append(part)
        return real(state, part)

    monkeypatch.setattr(verify, "e_monotone", counted_e)
    assert check_slocc_invariance(8, np.random.default_rng(0)).passed
    target = {"first": 0, "middle": len(calls) // 2, "last": len(calls) - 1}[where]
    counter = itertools.count()

    def e_with_one_nan(state, part):
        value = real(state, part)
        return math.nan if next(counter) == target else value

    monkeypatch.setattr(verify, "e_monotone", e_with_one_nan)
    result = check_slocc_invariance(8, np.random.default_rng(0))
    assert next(counter) == len(calls)
    assert math.isnan(result.max_residual)
    assert not result.passed


def test_nan_residual_fails_the_cli_run(monkeypatch, capsys):
    monkeypatch.setattr(verify, "e_monotone", lambda state, part: math.nan)
    code = cli.main(["verify", "slocc", "--trials", "4"])
    stdout = capsys.readouterr().out
    assert code == cli.EXIT_VERIFY_FAILED
    assert "[FAIL] slocc-invariance" in stdout
    assert "max residual nan" in stdout
