import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglekit.bipartition import Partition, reshape, unreshape
from tanglekit import monotones
from tanglekit.local_ops import LocalOperator, apply_local, random_sl2, random_unitary
from tanglekit.monotones import (
    _NORM_MAX,
    _NORM_MIN,
    FOUR_QUBIT_LMN_SIGNS,
    _partial_trace_grams,
    _surely_full_rank,
    admissible_partitions,
    all_partitions_report,
    concurrence_squared,
    d_monotone,
    e_monotone,
    five_qubit_pfaffian_monotone,
    four_qubit_h,
    four_qubit_lmn,
    n_tangle,
    partition_report,
    three_tangle,
)
from tanglekit.plucker import gram_bilinear, gram_hermitian
from tanglekit.states import PureState, make_named_state, random_state
from tanglekit.verify import _rel
from oracles import (
    d_oracle,
    de_oracle_slogdet,
    e_oracle_minor,
    e_oracle_pairwise,
    reshape_bitwise,
    reshape_gathered,
)

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


def test_slogdet_oracle_matches_the_other_oracles_and_the_library():
    # The oracle of the underflow regressions below, checked where nothing underflows.
    for n in (2, 3, 4, 5):
        state = random_state(n, seed=100 + n)
        for part in admissible_partitions(n):
            z = reshape_gathered(state, part.selected)
            assert np.array_equal(z, reshape_bitwise(state, part.selected))
            d, e = de_oracle_slogdet(state, part.selected)
            assert abs(d - d_oracle(state, part.selected)) < 1e-10
            assert abs(e - e_oracle_minor(state, part.selected)) < 1e-10
    for n in (10, 12):  # l = 32 and 64, far from where det underflows
        state = random_state(n, seed=n)
        part = Partition(n, tuple(range(1, n // 2 + 1)))
        d, e = de_oracle_slogdet(state, part.selected)
        assert d == pytest.approx(d_monotone(state, part), rel=1e-9)
        assert e == pytest.approx(e_monotone(state, part), rel=1e-9)


# log10 of the unit-trace Gram determinant on 1..N/2 is about -727 at N = 16 and
# -1610 at N = 18, far below any float, so these fail on every platform until
# D and E are formed in the log domain (ROADMAP item 1).  N = 14 and 15 are left
# out: there the determinant sits near 1e-308 and may or may not underflow.
@pytest.mark.xfail(reason="det of the l x l Gram matrix underflows to 0")
@pytest.mark.parametrize("n, seed", [(16, 1), (16, 2), (16, 3), (18, 1)])
def test_balanced_partition_d_and_e_survive_determinant_underflow(n, seed):
    state = random_state(n, seed=seed)
    part = Partition(n, tuple(range(1, n // 2 + 1)))
    report = partition_report(state, part)
    d, e = de_oracle_slogdet(state, part.selected)
    assert not report.rank_deficient
    assert report.d_value == pytest.approx(d, rel=1e-9)
    assert report.e_value == pytest.approx(e, rel=1e-9)


def test_monotones_reject_mismatched_partition():
    with pytest.raises(ValueError):
        d_monotone(GHZ3, Partition(4, (4,)))
    with pytest.raises(ValueError):
        e_monotone(GHZ4, P3)
    # Each state has fewer nonzero amplitudes than its partition's l (4 and 8),
    # which the report settles by the zero-column exit; only the reshape sees
    # the mismatch, and it must still raise.
    with pytest.raises(ValueError, match="^partition is for 4 qubits, state has 3$"):
        partition_report(GHZ3, Partition(4, (3, 4)))
    with pytest.raises(ValueError):
        partition_report(make_named_state("ghz", 6), Partition(7, (1, 2, 3)))


def test_concurrence_squared_values():
    bell = make_named_state("bell", 2)
    assert abs(concurrence_squared(bell) - 1.0) < 1e-12
    assert concurrence_squared(make_named_state("product-zero", 2)) == 0.0
    uniform = PureState(2, np.full(4, 0.5))
    assert concurrence_squared(uniform) < 1e-15


def test_concurrence_equals_four_det_squared():
    # The definition 4 |det C|**2, an oracle apart from the N-tangle path it takes.
    for seed in range(100, 110):
        state = random_state(2, seed=seed)
        expected = 4.0 * abs(np.linalg.det(state.amplitudes.reshape(2, 2))) ** 2
        assert abs(concurrence_squared(state) - expected) < 1e-12


def test_concurrence_rejects_other_sizes():
    with pytest.raises(
        ValueError, match="^concurrence_squared is defined for 2 qubits, got 3$"
    ):
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
    with pytest.raises(
        ValueError, match="^three_tangle is defined for 3 qubits, got 4$"
    ):
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
    with pytest.raises(
        ValueError, match="^four_qubit_h is defined for 4 qubits, got 3$"
    ):
        four_qubit_h(GHZ3)
    with pytest.raises(
        ValueError, match="^four_qubit_lmn is defined for 4 qubits, got 5$"
    ):
        four_qubit_lmn(GHZ5)


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
    with pytest.raises(ValueError, match="^n_tangle needs at least 2 qubits, got 1$"):
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
    with pytest.raises(
        ValueError, match="^five_qubit_pfaffian_monotone is defined for 5 qubits"
    ):
        five_qubit_pfaffian_monotone(GHZ4, Partition(4, (3, 4)))
    with pytest.raises(ValueError):
        five_qubit_pfaffian_monotone(GHZ5, Partition(5, (5,)))


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


def _same_bits(a, b) -> bool:
    """Equal, with the same sign on every zero part: ``==`` takes -0.0 for 0.0."""
    a, b = complex(a), complex(b)
    return all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in ((a.real, b.real), (a.imag, b.imag))
    )


def _sparse_state(n, seed):
    """A random state on k < 2**(n//2) amplitudes at random positions, so the
    reshapes with l > k have a zero column and the report skips them."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 2 ** (n // 2)))
    amps = np.zeros(2**n, dtype=complex)
    where = rng.choice(2**n, size=k, replace=False)
    amps[where] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return PureState(n, amps)


def _derived(state, part) -> bool:
    """Whether all_partitions_report takes this partition's Gram matrices from
    its parent's, S plus its largest unselected qubit: below the top layer, when
    the parent formed them, i.e. its reshape has no zero column."""
    n = state.num_qubits
    if part.n == n // 2:
        return False
    parent = Partition(n, tuple(sorted(part.selected + (part.unselected[-1],))))
    return bool(reshape(state, parent).any(axis=0).all())


def _close(a, b) -> bool:
    return abs(a - b) <= 1e-12 * abs(b)


def test_report_values_match_monotone_calls():
    # The report and the single-value entry points share one kernel per value;
    # on GHZ, W, product and sparse states most reshapes have an exactly zero
    # column, which the report settles without a determinant (without a reshape
    # when the state has fewer nonzero amplitudes than l): to the same bits.
    # Below the top layer the report derives both Gram matrices from its
    # parent's, the same sums in another order: D and E agree to round-off.
    zero5 = PureState(5, np.zeros(32))
    states = [random_state(n, seed=200 + n) for n in range(2, 7)]
    states += [zero5] + [
        make_named_state(name, n)
        for name in ("ghz", "w", "product-zero")
        for n in range(2, 9)
    ]
    states += [_sparse_state(n, seed=210 + 10 * n + i) for n in range(4, 9) for i in range(3)]
    zero_column_pfaffians = derived = 0
    for state in states:
        for report in all_partitions_report(state):
            part = report.partition
            same = _close if _derived(state, part) else _same_bits
            derived += same is _close
            assert same(report.d_value, d_monotone(state, part))
            # The report caps E at D (see test_report_e_never_exceeds_d).
            e_value = min(e_monotone(state, part), d_monotone(state, part))
            assert same(report.e_value, e_value)
            assert report.rank_deficient == partition_report(state, part).rank_deficient
            if report.aux_name == "pfaffian":
                expected = five_qubit_pfaffian_monotone(state, part)
                assert abs(16.0 * abs(report.aux_value) - expected) <= 1e-12 * expected
                # With a zero column every term of the Pfaffian's expansion is
                # a signed zero, and their sum from +0 is +0, as the report says.
                if not reshape(state, part).any(axis=0).all():
                    assert _same_bits(report.aux_value, 0j)
                    zero_column_pfaffians += 1
            elif report.aux_name == "H":
                assert _same_bits(report.aux_value, four_qubit_h(state))
            elif report.aux_name is not None:
                expected = four_qubit_lmn(state)["LMN".index(report.aux_name)]
                assert _same_bits(report.aux_value, expected)
    # GHZ-5 (support 2 < l), zero-5 (support 0) and W-5 (support 5, but no
    # amplitude with both selected qubits 1): ten n = 2 partitions each.
    assert zero_column_pfaffians >= 30
    assert derived > 0
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


def test_report_e_never_exceeds_d():
    # |det(Z^T g Z)| <= det(Z^H Z) holds exactly, but the ε-Gram determinant
    # breaks it by round-off: by up to 1.6e-13 relative on square Haar reshapes,
    # and by 0.016-0.043 over D = 0 on the square reshape with a duplicated
    # column below. Square reshapes take E = D, so e_monotone reads exactly 0
    # there; the report's min(E, D) guards the rectangular ones.
    states = [
        make_named_state(name, n) for name in ("ghz", "w", "product-zero") for n in range(2, 11)
    ]
    states += [random_state(n, seed=n) for n in (4, 5, 6, 8, 10)]
    for state in states:
        for report in all_partitions_report(state):
            assert report.e_value <= report.d_value, (state.num_qubits, report.partition.label)
    part = Partition(12, (7, 8, 9, 10, 11, 12))
    for seed in range(6):
        z = reshape(random_state(12, seed=seed), part).copy()
        z[:, -1] = z[:, 0]
        state = unreshape(z, part)
        report = partition_report(state, part)
        assert report.e_value <= report.d_value, seed
        assert e_monotone(state, part) == 0.0, seed


def test_square_partitions_take_e_equal_to_d():
    # Gr(l, l) is a point with the one Plücker coordinate det Z, and |det g| = 1,
    # so |det(Z^T g Z)| = det(Z^H Z): E = D on every square reshape. The report
    # and e_monotone take D's value; the ε-Gram determinant is the oracle.
    squares = 0
    for n in (2, 4, 6, 8):
        states = [random_state(n, seed=240 + n)]
        states += [make_named_state(name, n) for name in ("ghz", "w")]
        for state in states:
            for report in all_partitions_report(state):
                part = report.partition
                if part.L != part.l:
                    continue
                squares += 1
                d = report.d_value
                assert _same_bits(report.e_value, d), (n, part.label)
                assert _same_bits(e_monotone(state, part), d_monotone(state, part))
                gram = gram_bilinear(reshape(state, part), part.m)
                oracle = part.l**2 * abs(np.linalg.det(gram)) ** (2.0 / part.l)
                assert abs(oracle - d) <= 1e-10 * d, (n, part.label, oracle, d)
    assert squares == 3 * (1 + 3 + 10 + 35)


def _same_report(a, b) -> bool:
    """Field by field, with numbers compared by :func:`_same_bits`."""
    return all(
        type(x) is type(y) and (_same_bits(x, y) if isinstance(x, (float, complex)) else x == y)
        for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b), strict=True)
    )


def _assert_matches_partition_report(state, derives):
    """Each of ``all_partitions_report``'s reports against ``partition_report``'s:
    a derived partition (see _derived) has D and E to round-off, and every other
    field to the bit; any other partition every field to the bit.  ``derives``
    says whether the state may have derived partitions at all."""
    reports = all_partitions_report(state)
    assert [r.partition for r in reports] == admissible_partitions(state.num_qubits)
    for report in reports:
        single = partition_report(state, report.partition)
        where = (state.num_qubits, report.partition.label)
        if _derived(state, report.partition):
            assert derives, where
            assert _close(report.d_value, single.d_value), where
            assert _close(report.e_value, single.e_value), where
            report = dataclasses.replace(report, d_value=single.d_value, e_value=single.e_value)
        assert _same_report(report, single), where


def test_all_partitions_report_scales_once_to_the_same_bits():
    # all_partitions_report divides the amplitudes by the norm once; each
    # partition_report divides its own reshape. Elementwise, that is one division.
    states = [
        PureState(n, scale * random_state(n, seed=250 + n).amplitudes)
        for n in range(2, 9)
        for scale in (1e-70, 1.0, 1e70)
    ]
    states += [PureState(6, np.zeros(64))]
    states += [_sparse_state(n, seed=260 + 10 * n + i) for n in range(4, 9) for i in range(3)]
    for state in states:
        _assert_matches_partition_report(state, derives=True)


def test_partial_trace_grams_match_the_child_reshape():
    # Dropping a selected qubit k whose larger qubits are all selected makes k
    # the lowest row bit of the child's reshape; low counts those larger qubits.
    state = random_state(7, seed=310)
    children = 0
    for n in (2, 3):
        for selected in itertools.combinations(range(1, 8), n):
            parent = Partition(7, selected)
            z = reshape(state, parent)
            grams = gram_hermitian(z), gram_bilinear(z, parent.m)
            for low, k in enumerate(reversed(selected)):
                if k != 7 - low:
                    break
                child = Partition(7, tuple(q for q in selected if q != k))
                gram, bilinear = _partial_trace_grams(*grams, low)
                z_child = reshape(state, child)
                assert np.allclose(gram, gram_hermitian(z_child), rtol=0, atol=1e-15)
                assert np.allclose(bilinear, gram_bilinear(z_child, child.m), rtol=0, atol=1e-15)
                children += 1
    assert children == 6 + 1 + 15 + 5 + 1


def _count_calls(monkeypatch, names):
    """Count calls to these ``tanglekit.monotones`` names; the Cholesky
    check's answers are kept in order under ``"answers"``."""
    calls = {name: 0 for name in names} | {"answers": []}
    for name in names:
        original = getattr(monotones, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            result = _original(*args)
            if _name == "_surely_full_rank":
                calls["answers"].append(result)
            return result

        monkeypatch.setattr(monotones, name, counted)
    return calls


def _product_state(n, rng):
    """A product of n Haar-random qubit states."""
    amps = np.ones(1, dtype=complex)
    for _ in range(n):
        qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = np.kron(amps, qubit / np.linalg.norm(qubit))
    return amps


@pytest.mark.parametrize("n", [7, 8])
def test_all_partitions_report_reshapes_only_the_top_layer(monkeypatch, n):
    # The top layer n = N // 2 has 35 partitions at N = 7 and 8. Below it both
    # Gram matrices come from the parent's, and so does a rank certificate:
    # on a Haar state every root is certified and no child checks again. On a
    # product state plus 1e-6 Haar noise no Cholesky check settles anything,
    # so every partition runs one, and the SVD ranks the state's own reshape of
    # each: one more reshape per partition, a second one at each root.
    names = ("reshape", "gram_hermitian", "_surely_full_rank")
    haar = random_state(n, seed=280 + n)
    calls = _count_calls(monkeypatch, names)
    assert not any(r.rank_deficient for r in all_partitions_report(haar))
    assert calls == {"reshape": 35, "gram_hermitian": 35, "_surely_full_rank": 35,
                     "answers": [True] * 35}
    near = PureState(n, _product_state(n, np.random.default_rng(n)) + 1e-6 * haar.amplitudes)
    total = len(admissible_partitions(n))
    calls = _count_calls(monkeypatch, names)
    assert not any(r.rank_deficient for r in all_partitions_report(near))
    assert calls == {"reshape": total + 35, "gram_hermitian": 35, "_surely_full_rank": total,
                     "answers": [False] * total}


def test_eps_gram_is_formed_only_where_a_value_or_a_child_needs_it(monkeypatch):
    # A single square partition takes E = D and a rectangular one needs its
    # ε-Gram; each root of the walk forms one for its children, which derive
    # theirs, so a Haar state forms one per root: C(N, N/2) / 2 of them.
    calls = _count_calls(monkeypatch, ("gram_bilinear",))
    state = random_state(4, seed=320)
    partition_report(state, Partition(4, (3, 4)))
    assert calls["gram_bilinear"] == 0
    partition_report(state, Partition(4, (4,)))
    assert calls["gram_bilinear"] == 1
    for n, roots in ((4, 3), (6, 10)):
        calls = _count_calls(monkeypatch, ("gram_bilinear",))
        all_partitions_report(random_state(n, seed=320 + n))
        assert calls["gram_bilinear"] == roots, n
    # partition_report opens one reshape: no Gram matrix on a zero column, and
    # a second reshape only where the SVD ranks an uncertified one.
    haar = random_state(6, seed=326)
    near = PureState(6, _product_state(6, np.random.default_rng(6)) + 1e-6 * haar.amplitudes)
    names = ("reshape", "gram_hermitian", "gram_bilinear", "_surely_full_rank")
    for state, selected, counts, answers in (
        (haar, (1, 2), (1, 1, 1, 1), [True]),
        (haar, (1, 2, 6), (1, 1, 0, 1), [True]),
        (near, (1, 2), (2, 1, 1, 1), [False]),
        (make_named_state("ghz", 6), (1, 2), (1, 0, 0, 0), []),
    ):
        calls = _count_calls(monkeypatch, names)
        partition_report(state, Partition(6, selected))
        assert calls == dict(zip(names, counts)) | {"answers": answers}, selected


def test_all_partitions_report_checks_children_of_uncertified_parents(monkeypatch):
    # The square reshape on {3, 4} has rank 3, so its Cholesky check fails and
    # its children {4} and {3} run their own, which certify them; {1, 4} and
    # {2, 4} are certified, and their children {1} and {2} inherit that.
    part = Partition(4, (3, 4))
    rng = np.random.default_rng(290)
    z = (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))) @ (
        rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    )
    calls = _count_calls(monkeypatch, ("_surely_full_rank",))
    reports = all_partitions_report(unreshape(z, part))
    assert calls["answers"] == [True, True, False, True, True]
    assert [r.partition.label for r in reports if r.rank_deficient] == ["3,4"]


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_all_partitions_report_matches_partition_report_to_round_off(n):
    # Every GHZ and W node opens its own reshape, as a zero column or a support
    # below l stops their Gram chains. The x37.5 copy takes both paths through
    # a scale other than 1.
    haar = random_state(n, seed=300 + n)
    for state in (haar, PureState(n, 37.5 * haar.amplitudes)):
        _assert_matches_partition_report(state, derives=True)
    for name in ("ghz", "w"):
        _assert_matches_partition_report(make_named_state(name, n), derives=False)


@settings(max_examples=60, deadline=None, print_blob=True)
@given(n=st.integers(4, 8), log_eps=st.floats(-16.0, -1.0), seed=st.integers(0, 2**32 - 1))
def test_all_partitions_report_rank_flag_on_near_product_states(n, log_eps, seed):
    # A product state plus eps * Haar noise: from eps = 1e-16, where every
    # reshape is numerically rank 1, to 0.1, where every one is certified.
    # The flags of derived partitions rest on the inherited certificate.
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps = _product_state(n, rng) + 10.0**log_eps * noise / np.linalg.norm(noise)
    state = PureState(n, amps)
    for report in all_partitions_report(state):
        part = report.partition
        svd_says = bool(np.linalg.matrix_rank(reshape(state, part)) < part.l)
        assert report.rank_deficient == svd_says, part.label


def test_full_rank_check_leaves_its_argument_alone():
    for z, full in ((random_state(6, seed=270).amplitudes.reshape(8, 8), True),
                    (np.ones((8, 8)), False)):
        gram = gram_hermitian(z / np.linalg.norm(z))
        before = gram.copy()
        assert _surely_full_rank(gram) is full
        assert gram.tobytes() == before.tobytes()


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


@settings(max_examples=150, deadline=None, print_blob=True)
@given(
    n=st.integers(2, 8),
    pick=st.integers(0, 10**6),
    rank=st.integers(0, 16),
    log_eps=st.floats(-17.0, -1.0),
    log_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    zero_cols=st.integers(0, 3),
)
# sigma_min of this (1, 2, 3) reshape sits 0.4% below matrix_rank's cut, so
# ranking a scaled copy of the reshape can disagree with ranking the state's own.
@example(n=7, pick=28, rank=2, log_eps=-13.7578125, log_scale=0.0, seed=250, zero_cols=0)
@example(n=7, pick=28, rank=2, log_eps=-13.7578125, log_scale=1.0, seed=250, zero_cols=0)
def test_rank_flag_matches_svd_rank_near_rank_deficiency(
    n, pick, rank, log_eps, log_scale, seed, zero_cols
):
    # zero_cols columns set exactly to 0 pit the report's zero-column answer
    # against the SVD rank of a reshape that is otherwise near-deficient.
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
    z[:, rng.permutation(part.l)[:zero_cols]] = 0.0
    state = unreshape(10.0**log_scale * z, part)
    svd_says = bool(np.linalg.matrix_rank(reshape(state, part)) < part.l)
    report = partition_report(state, part)
    assert report.rank_deficient == svd_says
    if zero_cols:
        assert report.d_value == report.e_value == 0.0


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


@settings(max_examples=20, deadline=None, print_blob=True)
@given(
    n=st.integers(6, 8),
    near=st.sampled_from([None, "ghz", "product-zero"]),
    log_eps=st.floats(-12.0, -1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_invariances_past_five_qubits(n, near, log_eps, seed):
    # verify's lu and slocc suites draw N = 2..5; these are their oracles, at
    # their tolerances, on Haar, GHZ + eps Haar and |0...0> + eps Haar states.
    rng = np.random.default_rng(seed)
    amps = random_state(n, seed=rng).amplitudes
    if near is not None:
        amps = make_named_state(near, n).amplitudes + 10.0**log_eps * amps
    state = PureState(n, amps / np.linalg.norm(amps))
    qubits = range(1, n + 1)
    lu = apply_local(state, [LocalOperator(q, random_unitary(rng)) for q in qubits])
    slocc = apply_local(state, [LocalOperator(q, random_sl2(rng)) for q in qubits])
    c = complex(*rng.uniform(0.5, 1.5, size=2))
    scaled = PureState(n, c * state.amplitudes)
    for part in admissible_partitions(n):
        d = d_monotone(state, part)
        e = e_monotone(state, part)
        assert _rel(d_monotone(lu, part), d) <= 1e-10
        assert _rel(e_monotone(slocc, part), e) <= 1e-8
        assert _rel(d_monotone(scaled, part), abs(c) ** 4 * d) <= 1e-10
        assert _rel(e_monotone(scaled, part), abs(c) ** 4 * e) <= 1e-10
        assert -1e-12 <= e <= d + 1e-12 and d <= 1.0 + 1e-12


@pytest.mark.xfail(
    reason="square E comes from the Hermitian Gram matrix, which squares "
    "kappa(Z); ROADMAP item 1's one LU of Z mends it",
)
@pytest.mark.parametrize(
    "seed, selected",
    [(3763, (3, 5, 7, 8)), (1170, (1, 3, 4, 8)), (2422, (1, 3, 5, 8))],
)
def test_square_e_is_slocc_invariant_at_eight_qubits(seed, selected):
    # Haar draws of test_invariances_past_five_qubits (near=None) whose square
    # E moves by 2e-7 to 4e-7 under SL(2,C)^8; l^2 |det Z|^(4/l) from one LU
    # of Z moves by at most 7.8e-14 on the same draws.
    n = 8
    rng = np.random.default_rng(seed)
    amps = random_state(n, seed=rng).amplitudes
    state = PureState(n, amps / np.linalg.norm(amps))
    qubits = range(1, n + 1)
    for _ in qubits:
        random_unitary(rng)  # the property's LU draws come before its SL(2,C) ones
    slocc = apply_local(state, [LocalOperator(q, random_sl2(rng)) for q in qubits])
    part = Partition(n, selected)
    assert _rel(e_monotone(slocc, part), e_monotone(state, part)) <= 1e-8


def test_norms_whose_fourth_power_is_not_a_normal_float_raise():
    def bell_like(n, c):
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = amps[-1] = c
        return PureState(n, amps)

    range_message = r"^state norm .*, outside \[1\.221e-77, 1\.158e\+77\]$"
    p2 = Partition(2, (2,))
    p5 = Partition(5, (4, 5))
    # pytest turns warnings into errors here, so none of these may warn either.
    for c in (1e80, 1e155, 1e-90):
        for call in (d_monotone, e_monotone, partition_report):
            with pytest.raises(ValueError, match=range_message):
                call(bell_like(2, c), p2)
        # A 5-qubit n = 2 report of a sparse state leaves on the zero-column
        # exit, which comes after the norm check.
        for call in (five_qubit_pfaffian_monotone, partition_report):
            with pytest.raises(ValueError, match=range_message):
                call(bell_like(5, c), p5)
        for named, n in ((concurrence_squared, 2), (four_qubit_h, 4), (four_qubit_lmn, 4)):
            with pytest.raises(ValueError, match=range_message):
                named(bell_like(n, c))
    haar4 = random_state(4, seed=3)
    unit_lmn = four_qubit_lmn(haar4)
    for c in (1e76, 1e-76):
        for value in (
            d_monotone(bell_like(2, c), p2),
            e_monotone(bell_like(2, c), p2),
            concurrence_squared(bell_like(2, c)),
        ):
            assert abs(value - 4 * c**4) <= 1e-12 * 4 * c**4
        assert abs(four_qubit_h(bell_like(4, c)) - c**2) <= 1e-12 * c**2
        scaled_lmn = four_qubit_lmn(PureState(4, c * haar4.amplitudes))
        for value, unit in zip(scaled_lmn, unit_lmn):
            assert abs(value - c**4 * unit) <= 1e-12 * abs(c**4 * unit)
    # Inside the range a value is formed at unit norm before the scale comes back
    # in, so none overflows at the top; at the bottom one that would come out
    # subnormal, or 0 from a nonzero unit value, raises.
    top = bell_like(2, 8e76)  # norm 1.131e77; 4 c**4 = 1.6384e308 is a float
    for value in (d_monotone(top, p2), e_monotone(top, p2), concurrence_squared(top)):
        assert abs(value - 4 * 8e76**4) <= 1e-12 * 4 * 8e76**4
    edge = PureState(2, [1.15e77, 0, 0, 0])
    assert d_monotone(edge, p2) == e_monotone(edge, p2) == 0.0
    for report in all_partitions_report(bell_like(4, 9.9e76 / np.sqrt(2))):
        if report.partition.n == 2:  # the square reshapes have rank 2, not 4
            assert report.d_value == report.e_value == report.aux_value == 0.0
    # At norm 2e-77 a near-product D of 1.9e-12 |c|**4 is subnormal, and one of
    # about 1e-24 |c|**4 underflows to 0.
    subnormal = r"^result \S+ is below the normal float range$"
    for eps in (1e-6, 1e-12):
        amps = np.array([1, 0, 0, 0]) + eps * random_state(2, seed=1).amplitudes
        near_product = PureState(2, 2e-77 * amps / np.linalg.norm(amps))
        for call in (d_monotone, e_monotone, partition_report):
            with pytest.raises(ValueError, match=subnormal):
                call(near_product, p2)
    tiny_haar4 = PureState(4, 2e-77 * haar4.amplitudes)
    tiny_haar5 = PureState(5, 2e-77 * random_state(5, seed=3).amplitudes)
    for call, state, part in (
        (partition_report, tiny_haar4, Partition(4, (3, 4))),
        (five_qubit_pfaffian_monotone, tiny_haar5, p5),
        (partition_report, tiny_haar5, p5),
    ):
        with pytest.raises(ValueError, match=subnormal):
            call(state, part)
    with pytest.raises(ValueError, match=subnormal):
        four_qubit_lmn(tiny_haar4)
    zero = partition_report(PureState(2, np.zeros(4)), p2)
    assert zero.d_value == zero.e_value == 0.0 and zero.rank_deficient
    # The ends of the range are the last norms whose fourth power is a normal float.
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    assert tiny <= _NORM_MIN**4 and np.nextafter(_NORM_MIN, 0.0) ** 4 < tiny
    assert _NORM_MAX**4 <= huge
    with pytest.raises(OverflowError):
        float(np.nextafter(_NORM_MAX, np.inf)) ** 4
