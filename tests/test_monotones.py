import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit.bipartition import Partition, reshape, unreshape
from tanglekit.monotones import (
    FOUR_QUBIT_LMN_SIGNS,
    admissible_partitions,
    all_partitions_report,
    concurrence_squared,
    d_monotone,
    e_monotone,
    five_qubit_pfaffian_monotone,
    four_qubit_h,
    four_qubit_lmn,
    meyer_wallach_q,
    n_tangle,
    partition_report,
    three_tangle,
)
from tanglekit.states import PureState, make_named_state, random_state
from oracles import d_oracle, e_oracle_minor, e_oracle_pairwise

GHZ3 = make_named_state("ghz", 3)
W3 = make_named_state("w", 3)
GHZ4 = make_named_state("ghz", 4)
GHZ5 = make_named_state("ghz", 5)
P3 = Partition(3, (3,))


def kron_states(*vectors):
    amps = np.array([1.0 + 0j])
    for v in vectors:
        amps = np.kron(amps, np.asarray(v, dtype=complex))
    n = int(np.log2(amps.size))
    return PureState(n, amps)


def test_d_monotone_named_values():
    assert abs(d_monotone(GHZ3, P3) - 1.0) < 1e-10
    assert abs(d_monotone(W3, P3) - 8.0 / 9.0) < 1e-10
    assert d_monotone(make_named_state("product-zero", 3), P3) == 0.0


def test_d_monotone_matches_reduced_density_oracle():
    for n in (2, 3, 4, 5):
        state = random_state(n, seed=70 + n)
        for part in admissible_partitions(n):
            assert abs(d_monotone(state, part) - d_oracle(state, part.selected)) < 1e-10


def test_e_monotone_named_values():
    assert abs(e_monotone(GHZ3, P3) - 1.0) < 1e-10
    assert e_monotone(W3, P3) < 1e-12
    assert abs(e_monotone(GHZ4, Partition(4, (4,))) - 1.0) < 1e-10
    assert e_monotone(GHZ4, Partition(4, (3, 4))) < 1e-12


def test_e_monotone_matches_minor_contraction_oracle():
    for n in (2, 3, 4, 5):
        state = random_state(n, seed=80 + n)
        for part in admissible_partitions(n):
            assert (
                abs(e_monotone(state, part) - e_oracle_minor(state, part.selected))
                < 1e-10
            )


def test_e_monotone_matches_pairwise_oracle_for_single_qubit_partitions():
    for n in (2, 3, 4, 5):
        state = random_state(n, seed=90 + n)
        for part in admissible_partitions(n):
            if part.n == 1:
                assert (
                    abs(e_monotone(state, part) - e_oracle_pairwise(state, part.selected))
                    < 1e-10
                )


def test_monotones_reject_mismatched_partition():
    with pytest.raises(ValueError):
        d_monotone(GHZ3, Partition(4, (4,)))
    with pytest.raises(ValueError):
        e_monotone(GHZ4, P3)


def test_concurrence_squared_values():
    bell = make_named_state("bell", 2)
    assert abs(concurrence_squared(bell) - 1.0) < 1e-12
    assert concurrence_squared(make_named_state("product-zero", 2)) == 0.0
    uniform = PureState(2, np.full(4, 0.5))
    assert concurrence_squared(uniform) < 1e-15


def test_concurrence_equals_e_monotone():
    state = random_state(2, seed=100)
    assert abs(concurrence_squared(state) - e_monotone(state, Partition(2, (2,)))) < 1e-12


def test_concurrence_rejects_other_sizes():
    with pytest.raises(ValueError):
        concurrence_squared(GHZ3)


def test_three_tangle_values():
    assert abs(three_tangle(GHZ3) - 1.0) < 1e-10
    assert three_tangle(W3) < 1e-12
    biseparable = kron_states([1.0, 0.0], [1 / np.sqrt(2), 0.0, 0.0, 1 / np.sqrt(2)])
    assert three_tangle(biseparable) < 1e-12


def test_three_tangle_partition_agreement():
    for seed in range(5):
        state = random_state(3, seed=110 + seed)
        values = [e_monotone(state, Partition(3, (k,))) for k in (1, 2, 3)]
        assert max(values) - min(values) < 1e-10
        assert abs(three_tangle(state) - values[2]) < 1e-15


def test_three_tangle_rejects_other_sizes():
    with pytest.raises(ValueError):
        three_tangle(GHZ4)


def test_four_qubit_h_values():
    assert abs(four_qubit_h(GHZ4) - 0.5) < 1e-15
    assert four_qubit_h(make_named_state("product-zero", 4)) == 0.0


def test_four_qubit_h_squares_to_e_monotone():
    for seed in range(5):
        state = random_state(4, seed=120 + seed)
        h = four_qubit_h(state)
        e = e_monotone(state, Partition(4, (4,)))
        assert abs(4.0 * abs(h) ** 2 - e) < 1e-10


def test_four_qubit_h_rejects_other_sizes():
    with pytest.raises(ValueError):
        four_qubit_h(GHZ3)


def test_four_qubit_lmn_sign_convention_frozen():
    # regression lock: the orientation signs that make L + M + N vanish
    assert FOUR_QUBIT_LMN_SIGNS == (1.0, -1.0, 1.0)


def test_four_qubit_lmn_sum_rule():
    for seed in range(10):
        state = random_state(4, seed=130 + seed)
        lv, mv, nv = four_qubit_lmn(state)
        assert abs(lv + mv + nv) <= 1e-9 * max(abs(lv), abs(mv), abs(nv), 1.0)


def test_four_qubit_lmn_ghz_and_product():
    lv, _, _ = four_qubit_lmn(GHZ4)
    assert abs(lv) < 1e-15
    product = kron_states(
        [1.0, 0.0], [1.0, 0.0], [1 / np.sqrt(2), 0.0, 0.0, 1 / np.sqrt(2)]
    )
    assert all(abs(v) < 1e-15 for v in four_qubit_lmn(product))


def test_four_qubit_lmn_matches_e_monotones():
    state = random_state(4, seed=140)
    values = four_qubit_lmn(state)
    for value, selected in zip(values, ((3, 4), (2, 4), (1, 4))):
        assert abs(16.0 * abs(value) - e_monotone(state, Partition(4, selected))) < 1e-10


def test_n_tangle_reductions():
    assert abs(n_tangle(make_named_state("bell", 2)) - 1.0) < 1e-12
    assert abs(n_tangle(GHZ4) - 1.0) < 1e-10
    assert abs(n_tangle(GHZ5) - 1.0) < 1e-10
    assert abs(n_tangle(GHZ5) - e_oracle_pairwise(GHZ5, (5,))) < 1e-12
    state = random_state(3, seed=150)
    assert abs(n_tangle(state) - three_tangle(state)) < 1e-15


def test_n_tangle_permutation_invariance_even_n():
    for seed in range(5):
        state = random_state(4, seed=160 + seed)
        values = [e_monotone(state, Partition(4, (k,))) for k in (1, 2, 3, 4)]
        assert max(values) - min(values) < 1e-10


def test_n_tangle_rejects_single_qubit():
    with pytest.raises(ValueError):
        n_tangle(PureState(1, [1.0, 0.0]))


def test_five_qubit_pfaffian_matches_determinant_path():
    assert abs(
        five_qubit_pfaffian_monotone(GHZ5, Partition(5, (4, 5)))
        - e_monotone(GHZ5, Partition(5, (4, 5)))
    ) < 1e-10
    for seed in range(5):
        state = random_state(5, seed=170 + seed)
        for part in admissible_partitions(5):
            if part.n != 2:
                continue
            pf_value = five_qubit_pfaffian_monotone(state, part)
            assert abs(pf_value - e_monotone(state, part)) < 1e-10


def test_five_qubit_gram_pfaffian_squares_to_determinant():
    from tanglekit.bipartition import reshape
    from tanglekit.linalg import pfaffian
    from tanglekit.plucker import gram_bilinear

    for seed in range(5):
        state = random_state(5, seed=175 + seed)
        for selected in ((4, 5), (1, 3)):
            g = gram_bilinear(reshape(state, Partition(5, selected)), 3)
            pf = pfaffian(g)
            det = complex(np.linalg.det(g))
            assert abs(pf**2 - det) <= 1e-10 * max(1.0, abs(det))


def test_five_qubit_pfaffian_product_state():
    assert five_qubit_pfaffian_monotone(
        make_named_state("product-zero", 5), Partition(5, (4, 5))
    ) == 0.0


def test_five_qubit_pfaffian_rejects_bad_arguments():
    with pytest.raises(ValueError):
        five_qubit_pfaffian_monotone(GHZ4, Partition(4, (3, 4)))
    with pytest.raises(ValueError):
        five_qubit_pfaffian_monotone(GHZ5, Partition(5, (5,)))


def test_meyer_wallach_values():
    assert abs(meyer_wallach_q(GHZ3) - 1.0) < 1e-10
    assert meyer_wallach_q(make_named_state("product-zero", 3)) == 0.0
    assert abs(meyer_wallach_q(W3) - 8.0 / 9.0) < 1e-10
    with pytest.raises(ValueError):
        meyer_wallach_q(GHZ4)


def test_admissible_partition_counts():
    assert len(admissible_partitions(2)) == 1
    assert len(admissible_partitions(3)) == 3
    assert len(admissible_partitions(4)) == 7
    assert len(admissible_partitions(5)) == 15
    assert len(admissible_partitions(6)) == 6 + 15 + 10


def test_admissible_partitions_dedup_keeps_last_qubit():
    for n in (2, 4, 6):
        for part in admissible_partitions(n):
            if 2 * part.n == n:
                assert n in part.selected


def test_half_split_complement_gives_same_values():
    state = random_state(4, seed=180)
    kept = Partition(4, (3, 4))
    complement = Partition(4, (1, 2))
    assert abs(d_monotone(state, kept) - d_monotone(state, complement)) < 1e-12
    assert abs(e_monotone(state, kept) - e_monotone(state, complement)) < 1e-12


def test_report_counts_and_flags():
    reports = all_partitions_report(GHZ4)
    assert len(reports) == 7
    by_label = {r.partition.label: r for r in reports}
    assert by_label["3,4"].rank_deficient  # two zero rows in the square reshape
    assert not by_label["4"].rank_deficient
    assert by_label["4"].aux_name == "H"
    assert abs(by_label["4"].aux_value - 0.5) < 1e-15
    assert by_label["3,4"].aux_name == "L"
    assert by_label["2,4"].aux_name == "M"
    assert by_label["1,4"].aux_name == "N"


def test_report_pfaffian_aux_for_five_qubits():
    state = random_state(5, seed=190)
    reports = all_partitions_report(state)
    assert len(reports) == 15
    pf_reports = [r for r in reports if r.partition.n == 2]
    assert len(pf_reports) == 10
    for r in pf_reports:
        assert r.aux_name == "pfaffian"
        assert abs(16.0 * abs(r.aux_value) - r.e_value) < 1e-10


def test_report_values_match_monotone_calls():
    # The report and the single-value entry points share one kernel per value.
    zero5 = PureState(5, np.zeros(32))
    states = [random_state(n, seed=200 + n) for n in range(2, 7)]
    states += [GHZ5, make_named_state("w", 5), zero5]
    for state in states:
        for report in all_partitions_report(state):
            part = report.partition
            assert report.d_value == d_monotone(state, part)
            assert report.e_value == e_monotone(state, part)
            if report.aux_name == "pfaffian":
                expected = five_qubit_pfaffian_monotone(state, part)
                assert abs(16.0 * abs(report.aux_value) - expected) <= 1e-12 * expected
    for report in all_partitions_report(zero5):
        assert report.d_value == report.e_value == 0.0
        assert report.rank_deficient
        if report.partition.n == 2:
            assert report.aux_name == "pfaffian" and report.aux_value == 0j


def _rank_flag_states(n):
    """Haar, GHZ, W, zero, unnormalized, product+ε and GHZ+ε·Haar states."""
    haar = random_state(n, seed=230 + n)
    ghz = make_named_state("ghz", n).amplitudes
    product = make_named_state("product-zero", n).amplitudes
    yield haar
    yield make_named_state("ghz", n)
    yield make_named_state("w", n)
    yield PureState(n, np.zeros(2**n))
    yield PureState(n, 37.5 * haar.amplitudes)
    for k in range(2, 17, 2):
        noise = random_state(n, seed=1000 * n + k).amplitudes
        yield PureState(n, product + 10.0**-k * noise)
        yield PureState(n, ghz + 10.0**-k * noise)


def test_rank_flag_matches_svd_rank_on_state_families():
    # The report's Cholesky shortcut may only ever agree with the SVD rank.
    deficient = 0
    for n in range(2, 9):
        for state in _rank_flag_states(n):
            for report in all_partitions_report(state):
                part = report.partition
                svd_says = bool(np.linalg.matrix_rank(reshape(state, part)) < part.l)
                assert report.rank_deficient == svd_says, (n, part.label)
                deficient += svd_says
    assert deficient > 0


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 8),
    pick=st.integers(0, 10**6),
    rank=st.integers(0, 16),
    log_eps=st.floats(-17.0, -1.0),
    log_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_flag_matches_svd_rank_near_rank_deficiency(
    n, pick, rank, log_eps, log_scale, seed
):
    parts = admissible_partitions(n)
    part = parts[pick % len(parts)]
    rank = min(rank, part.l)
    rng = np.random.default_rng(seed)

    def gaussian(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    z = gaussian((part.L, rank)) @ gaussian((rank, part.l))
    z /= np.linalg.norm(z) or 1.0
    noise = gaussian((part.L, part.l))
    z += 10.0**log_eps * noise / np.linalg.norm(noise)
    state = unreshape(10.0**log_scale * z, part)
    svd_says = bool(np.linalg.matrix_rank(reshape(state, part)) < part.l)
    assert partition_report(state, part).rank_deficient == svd_says


def test_range_and_ordering_on_normalized_states():
    for n in (2, 3, 4, 5):
        for seed in range(10):
            state = random_state(n, seed=210 + 10 * n + seed)
            for part in admissible_partitions(n):
                d = d_monotone(state, part)
                e = e_monotone(state, part)
                assert -1e-12 <= e <= d + 1e-12
                assert d <= 1.0 + 1e-12


def test_homogeneity_fourth_power():
    state = random_state(4, seed=220)
    c = 0.7 - 1.2j
    scaled = PureState(4, c * state.amplitudes)
    for part in admissible_partitions(4):
        for mono in (d_monotone, e_monotone):
            expected = abs(c) ** 4 * mono(state, part)
            assert abs(mono(scaled, part) - expected) <= 1e-10 * max(1.0, expected)
