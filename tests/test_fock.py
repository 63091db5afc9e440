"""Truncated Fock algebra: operators, states, Wigner oracles.

Expected values marked by derivation: independent oracles (series sums,
scipy.linalg.expm, explicit enumeration) are evaluated in the tests
themselves and never share code with the implementation under test.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from trilinear import (
    FockDim,
    Operator,
    StateVector,
    TruncationLeakWarning,
    TwoModeSpace,
    cat_state,
    coherent_state,
    displacement_operator,
    embed,
    embed_radial,
    fock_state,
    fock_wigner_closed_form,
    mode_operator,
    product_state,
    wigner_oracle,
)
from trilinear.fock import (
    _displacement_matrix,
    axial_marginal,
    displaced_amplitudes,
    guard_leak,
    radial_marginal,
)

from wigner_kernel import grid_wigner, pinned_grid_wigner

TWO_OVER_PI = 2 / math.pi

dims = st.integers(min_value=2, max_value=14).map(FockDim)


def coherent_series(alpha: complex, n: int) -> complex:
    """Independent oracle: <n|alpha> = e^{-|a|^2/2} a^n / sqrt(n!)."""
    return np.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))


# ---------------------------------------------------------------------------
# operators


def test_annihilate_dim2_matrix():
    a = mode_operator(FockDim(2), "annihilate").matrix
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_parity_dim3_matrix():
    p = mode_operator(FockDim(3), "parity").matrix
    assert np.array_equal(p, np.diag([1.0, -1.0, 1.0]).astype(complex))


def test_number_operator_identity():
    d = FockDim(5)
    a = mode_operator(d, "annihilate").matrix
    adag = mode_operator(d, "create").matrix
    assert np.allclose(adag @ a, np.diag([0, 1, 2, 3, 4]), atol=1e-14)
    assert np.array_equal(mode_operator(d, "number").matrix,
                          np.diag([0, 1, 2, 3, 4]).astype(complex))


@given(dims)
def test_create_is_adjoint_of_annihilate(d):
    a = mode_operator(d, "annihilate").matrix
    adag = mode_operator(d, "create").matrix
    assert np.array_equal(adag, a.conj().T)


@given(dims)
def test_commutator_is_identity_below_truncation(d):
    a = mode_operator(d, "annihilate").matrix
    comm = a @ a.conj().T - a.conj().T @ a
    sub = comm[: d.dim - 1, : d.dim - 1]
    assert np.abs(sub - np.eye(d.dim - 1)).max() < 1e-12


@given(dims)
def test_parity_equals_exp_of_number(d):
    parity = mode_operator(d, "parity").matrix
    oracle = scipy.linalg.expm(1j * math.pi * mode_operator(d, "number").matrix)
    assert np.abs(parity - oracle).max() < 1e-12


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        mode_operator(FockDim(4), "squeeze")


def test_operator_tag_validation():
    with pytest.raises(ValueError):
        Operator(np.array([[0, 1], [0, 0]], dtype=complex), tag="hermitian")
    with pytest.raises(ValueError):
        Operator(np.array([[1, 1], [0, 1]], dtype=complex), tag="unitary")


# ---------------------------------------------------------------------------
# two-mode space and embedding


@given(st.integers(2, 9), st.integers(2, 7))
def test_index_map_is_a_bijection(dr, da):
    space = TwoModeSpace(FockDim(dr), FockDim(da))
    occ = space.occupations()
    flat = [space.index(int(na), int(nc)) for na, nc in occ]
    assert sorted(flat) == list(range(space.dim))
    assert np.array_equal(space.k_values(), occ[:, 0] + 2 * occ[:, 1])


def test_embed_identity_both_ways():
    space = TwoModeSpace(FockDim(4), FockDim(3))
    ident = Operator(np.eye(4, dtype=complex), tag="unitary")
    assert np.array_equal(embed(ident, space, "radial").matrix, np.eye(12))
    ident_a = Operator(np.eye(3, dtype=complex), tag="unitary")
    assert np.array_equal(embed(ident_a, space, "axial").matrix, np.eye(12))


def test_embedded_numbers_build_conserved_weight():
    space = TwoModeSpace(FockDim(5), FockDim(4))
    n_r = embed(mode_operator(space.radial, "number"), space, "radial").matrix
    n_a = embed(mode_operator(space.axial, "number"), space, "axial").matrix
    k_op = n_r + 2 * n_a
    assert np.allclose(np.diag(k_op).real, space.k_values())
    assert np.abs(k_op - np.diag(np.diag(k_op))).max() == 0.0


def test_different_mode_embeddings_commute():
    space = TwoModeSpace(FockDim(5), FockDim(4))
    a = embed(mode_operator(space.radial, "annihilate"), space, "radial").matrix
    c = embed(mode_operator(space.axial, "annihilate"), space, "axial").matrix
    assert np.abs(a @ c - c @ a).max() == 0.0


def test_embed_dimension_mismatch():
    space = TwoModeSpace(FockDim(5), FockDim(4))
    with pytest.raises(ValueError):
        embed(mode_operator(FockDim(3), "number"), space, "radial")
    with pytest.raises(ValueError):
        embed(mode_operator(FockDim(5), "number"), space, "sideways")


def test_embed_preserves_tags():
    space = TwoModeSpace(FockDim(6), FockDim(12))
    assert embed(mode_operator(space.radial, "parity"), space, "radial").tag == "hermitian"
    assert embed(displacement_operator(0.3, space.axial), space, "axial").tag == "unitary"


def test_operator_dag():
    a = mode_operator(FockDim(4), "annihilate")
    assert np.array_equal(a.dag().matrix, mode_operator(FockDim(4), "create").matrix)


def test_state_overlap_and_fidelity():
    d = FockDim(20)
    a = coherent_state(d, 0.6)
    b = coherent_state(d, 0.6)
    assert a.fidelity(b) == pytest.approx(1.0, abs=1e-12)
    c = fock_state(d, 3)
    expect = abs(coherent_series(0.6, 3)) ** 2
    assert a.fidelity(c) == pytest.approx(expect, abs=1e-10)
    assert a.overlap(c) == pytest.approx(np.conj(coherent_series(0.6, 3)), abs=1e-10)


def test_states_and_operators_keep_their_own_memory():
    # a caller's array, written after construction, changes neither object,
    # and the caller may still write it
    amp = np.zeros(4, dtype=complex)
    amp[1] = 1.0
    psi = StateVector(amp, FockDim(4))
    amp[0] = 5.0
    assert not np.shares_memory(psi.amplitudes, amp)
    assert np.linalg.norm(psi.amplitudes) == 1.0
    assert not psi.amplitudes.flags.writeable
    m = np.eye(3, dtype=complex)
    op = Operator(m, tag="unitary")
    assert op.matrix is not m and m.flags.writeable
    m[0, 0] = 2.0
    assert op.matrix[0, 0] == 1.0
    assert not op.matrix.flags.writeable


# ---------------------------------------------------------------------------
# displacement


def test_displacement_of_zero_is_identity():
    d = FockDim(12)
    assert np.abs(displacement_operator(0.0, d).matrix - np.eye(12)).max() < 1e-14


def test_displacement_vacuum_column_matches_coherent_series():
    d = FockDim(40)
    dm = displacement_operator(1.0, d).matrix
    for n in range(6):
        assert dm[n, 0] == pytest.approx(coherent_series(1.0, n), abs=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0 + 0.5j, 2.0, -1.3 + 1.2j])
def test_displacement_inverse(alpha):
    d = FockDim(40)
    fwd = displacement_operator(alpha, d).matrix
    back = displacement_operator(-alpha, d).matrix
    assert np.abs(back @ fwd - np.eye(d.dim)).max() < 1e-8


def test_displacement_is_tagged_unitary():
    assert displacement_operator(0.7j, FockDim(24)).tag == "unitary"


def test_displacement_warns_on_truncation_leak():
    with pytest.warns(TruncationLeakWarning):
        displacement_operator(3.5, FockDim(10))


@given(st.integers(2, 14), st.integers(0, 1000),
       st.lists(st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=12))
@settings(max_examples=40)
def test_batched_displacement_matches_per_point_matrix(d, seed, alphas):
    dim = FockDim(d)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    rows = displaced_amplitudes(psi, -np.array(alphas), dim)
    for row, alpha in zip(rows, alphas):
        assert np.abs(row - _displacement_matrix(-alpha, dim) @ psi).max() < 1e-12


# ---------------------------------------------------------------------------
# states


def test_fock_zero_is_vacuum():
    st0 = fock_state(FockDim(6), 0)
    expect = np.zeros(6)
    expect[0] = 1
    assert np.array_equal(st0.amplitudes, expect.astype(complex))


def test_fock_occupation_beyond_guard_band_rejected():
    with pytest.raises(ValueError):
        fock_state(FockDim(8), 6)  # guard band occupies 6, 7


@given(st.complex_numbers(max_magnitude=1.8, allow_nan=False, allow_infinity=False))
@settings(max_examples=40)
def test_coherent_mean_occupation(alpha):
    d = FockDim(40)
    state = coherent_state(d, alpha)
    n_op = np.arange(d.dim)
    mean = float(np.sum(n_op * state.populations()))
    assert mean == pytest.approx(abs(alpha) ** 2, abs=1e-8)


def test_coherent_amplitudes_match_series():
    state = coherent_state(FockDim(40), 1.3 - 0.4j)
    for n in range(8):
        assert state.amplitudes[n] == pytest.approx(
            coherent_series(1.3 - 0.4j, n), abs=1e-10
        )


def test_odd_cat_has_no_even_components():
    # independent check: expand both coherent series and cancel numerically
    alpha = 1.1
    d = FockDim(30)
    series = np.array([coherent_series(alpha, n) - coherent_series(-alpha, n)
                       for n in range(d.dim)])
    assert np.abs(series[::2]).max() < 1e-12  # oracle: even terms cancel

    state = cat_state(d, alpha, math.pi, -1)
    assert np.abs(state.amplitudes[::2]).max() < 1e-12


def test_cat_normalization_matches_overlap_formula():
    # N = [2 (1 + s Re<alpha|alpha e^{i phi}>)]^{-1/2} with
    # <alpha|beta> = exp(-|alpha|^2/2 - |beta|^2/2 + conj(alpha) beta)
    d = FockDim(40)
    for alpha, phi, sign in [(0.8, math.pi, +1), (1.3, math.pi / 2, -1),
                             (0.4, math.pi, -1)]:
        beta = alpha * np.exp(1j * phi)
        ovl = np.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(alpha) * beta)
        norm = 1.0 / math.sqrt(2 * (1 + sign * ovl.real))
        state = cat_state(d, alpha, phi, sign)
        expect = norm * (np.array([coherent_series(alpha, n) for n in range(d.dim)])
                         + sign * np.array([coherent_series(beta, n) for n in range(d.dim)]))
        # global phase fixed by construction; compare directly
        assert np.abs(state.amplitudes - expect).max() < 1e-9


def test_cat_zero_norm_rejected():
    with pytest.raises(ValueError):
        cat_state(FockDim(20), 0.0, math.pi, -1)


@pytest.mark.parametrize("build", [coherent_state, cat_state])
def test_overflowing_amplitude_rejected(build):
    # |alpha|^2 of 1e200 is past the largest float
    with pytest.raises(ValueError, match=r"amplitude \(1e\+200\+0j\)"):
        build(FockDim(8), 1e200)


def test_product_state_and_marginals():
    space = TwoModeSpace(FockDim(6), FockDim(5))
    state = product_state(space, 2, 1)
    assert state.amplitudes[space.index(2, 1)] == 1.0
    assert radial_marginal(state)[2] == 1.0
    assert axial_marginal(state)[1] == 1.0
    with pytest.raises(ValueError):
        product_state(space, 5, 0)  # radial guard band


def test_embed_radial_places_axial_vacuum():
    space = TwoModeSpace(FockDim(6), FockDim(4))
    state = embed_radial(fock_state(space.radial, 3), space)
    assert state.amplitudes[space.index(3, 0)] == 1.0
    assert axial_marginal(state)[0] == 1.0


def test_state_norm_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0], dtype=complex), FockDim(2))


def test_guard_leak_reports_top_levels():
    d = FockDim(6)
    amp = np.zeros(6, dtype=complex)
    amp[5] = 1.0
    assert guard_leak(amp, d) == 1.0
    assert guard_leak(fock_state(d, 1).amplitudes, d) == 0.0


# ---------------------------------------------------------------------------
# Wigner oracles


def test_wigner_vacuum_origin():
    assert wigner_oracle(fock_state(FockDim(40), 0), 0.0) == pytest.approx(
        TWO_OVER_PI, abs=1e-12
    )


def test_wigner_coherent_matches_gaussian_closed_form():
    # oracle: displaced vacuum has W(alpha) = (2/pi) exp(-2 |alpha - a0|^2)
    d = FockDim(40)
    a0 = 0.9 + 0.3j
    state = coherent_state(d, a0)
    assert wigner_oracle(state, a0) == pytest.approx(TWO_OVER_PI, abs=1e-9)
    for alpha in (0.0, 0.5 - 0.2j, 1.5j, -1.0):
        expect = TWO_OVER_PI * math.exp(-2 * abs(alpha - a0) ** 2)
        assert wigner_oracle(state, alpha) == pytest.approx(expect, abs=1e-9)


def test_wigner_fock1_origin_is_minus_two_over_pi():
    assert wigner_oracle(fock_state(FockDim(40), 1), 0.0) == pytest.approx(
        -TWO_OVER_PI, abs=1e-12
    )


def test_fock_wigner_closed_form_values():
    assert fock_wigner_closed_form(0, 0.0) == pytest.approx(TWO_OVER_PI, abs=1e-15)
    assert fock_wigner_closed_form(2, 0.0) == pytest.approx(TWO_OVER_PI, abs=1e-15)
    # L1(4 r^2) = 1 - 4 r^2 crosses zero at r = 1/2
    assert fock_wigner_closed_form(1, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert fock_wigner_closed_form(1, 0.49) < 0 < fock_wigner_closed_form(1, 0.51)


@pytest.mark.parametrize("n", range(7))
def test_wigner_oracle_matches_closed_form(n):
    d = FockDim(40)
    state = fock_state(d, n)
    for r in (0.0, 0.3, 0.8, 1.4, 2.0):
        for phase in (1.0, 1j, np.exp(0.7j)):
            alpha = r * phase
            assert wigner_oracle(state, alpha) == pytest.approx(
                fock_wigner_closed_form(n, r), abs=1e-6
            )


def test_odd_cat_wigner_origin():
    d = FockDim(50)
    for alpha in (0.6, 1.0, 1.73):
        state = cat_state(d, alpha, math.pi, -1)
        assert wigner_oracle(state, 0.0) == pytest.approx(-TWO_OVER_PI, abs=1e-8)


def test_wigner_normalization_grid_integral():
    # integral of W over the |alpha| <= 4 region equals 1 (d^2 alpha measure)
    d = FockDim(80)
    axis = np.linspace(-4, 4, 81)
    h = axis[1] - axis[0]
    for state in (fock_state(d, 0), coherent_state(d, 1.0)):
        grid = pinned_grid_wigner(state, axis[:, None] + 1j * axis[None, :])
        integral = np.trapezoid(np.trapezoid(grid, dx=h, axis=1), dx=h)
        assert integral == pytest.approx(1.0, abs=1e-3)


def test_wigner_oracle_warns_on_truncation_leak():
    with pytest.warns(TruncationLeakWarning):
        wigner_oracle(fock_state(FockDim(12), 2), 2.5)


quadrature = st.floats(-2.0, 2.0)


@given(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=8),
       st.lists(st.builds(complex, quadrature, quadrature), min_size=1,
                max_size=5))
@settings(max_examples=60, deadline=None)
def test_grid_wigner_matches_the_oracle(coeffs, alphas):
    # the test-side grid oracle, pinned to the per-point definition on
    # random states of up to 8 levels, far enough from the cutoff of 60
    # that truncation changes no digit
    amp = np.zeros(60, dtype=complex)
    amp[:len(coeffs)] = coeffs
    assume(np.linalg.norm(amp) > 0.1)
    state = StateVector(amp / np.linalg.norm(amp), FockDim(60))
    expected = [wigner_oracle(state, a) for a in alphas]
    assert np.allclose(grid_wigner(state, alphas), expected, rtol=0, atol=1e-12)


def test_grid_wigner_refuses_a_leaking_grid():
    # where wigner_oracle warns of a leak, the infinite-space kernel does
    # not stand in for it
    state = fock_state(FockDim(12), 2)
    with pytest.raises(AssertionError, match="leaks"):
        grid_wigner(state, np.array([0.0, 2.5]))
