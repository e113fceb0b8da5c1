"""Ladder operators, vectorization, and the master-equation generators."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vactrap.errors import ConfigurationError, DimensionMismatch, DimensionTooSmall, GuardExceeded
from vactrap.liouville import (
    DensityMatrix,
    FockSpace,
    Superoperator,
    _dense_blocks,
    _hermitian_coordinates,
    _invariant_blocks,
    build_2d_generator,
    build_fock_operators,
    build_lindblad_generator,
    build_redfield_generator,
    build_xp_generator,
    sandwich,
    sigma02_rhs,
    spectral_abscissa,
    spost,
    spre,
    unvec,
    vec,
)
from vactrap.params import reference_config
from vactrap.rates import RateSet, build_rate_set

RATES = RateSet.scaled(1e-2, 5e-3, 8e-3)


# ---------------------------------------------------------------- operators


def test_fock_space_validation():
    with pytest.raises(DimensionTooSmall):
        FockSpace(dim=1)


def test_ladder_matrix_elements():
    ops = build_fock_operators(FockSpace(dim=6))
    for n in range(1, 6):
        assert ops.b[n - 1, n] == pytest.approx(math.sqrt(n))
    assert np.count_nonzero(ops.b) == 5
    assert np.array_equal(ops.bdag, ops.b.conj().T)
    assert np.allclose(np.diag(ops.n), np.arange(6))


def test_truncated_commutator_corner():
    dim = 7
    ops = build_fock_operators(FockSpace(dim=dim))
    comm = ops.b @ ops.bdag - ops.bdag @ ops.b
    expected = np.eye(dim)
    expected[-1, -1] = 1 - dim
    assert np.allclose(comm, expected, atol=1e-14)


def test_quadrature_scalings():
    # trap units: x = sqrt(1/2) (b + b+), p = -i sqrt(1/2) (b - b+)
    ops = build_fock_operators(FockSpace(dim=5))
    scale = math.sqrt(0.5)
    assert np.array_equal(ops.x, scale * (ops.b + ops.bdag))
    assert np.array_equal(ops.p, -1j * scale * (ops.b - ops.bdag))
    # canonical pair [x, p] = i up to the truncation corner
    comm = ops.x @ ops.p - ops.p @ ops.x
    expected = 1j * np.eye(5)
    expected[-1, -1] = 1j * (1 - 5)
    assert np.allclose(comm, expected, atol=1e-14)


# ---------------------------------------------------------- vectorization


def test_vec_unvec_roundtrip(rng):
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert np.array_equal(unvec(vec(m), 5), m)


def test_vec_is_column_major():
    m = np.arange(4.0).reshape(2, 2)  # [[0, 1], [2, 3]]
    assert np.array_equal(vec(m), [0.0, 2.0, 1.0, 3.0])


def test_spre_spost_sandwich_actions(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(unvec(spre(a) @ vec(s), 4), a @ s)
    assert np.allclose(unvec(spost(b) @ vec(s), 4), s @ b)
    assert np.allclose(unvec(sandwich(a, b) @ vec(s), 4), a @ s @ b)


# ------------------------------------------------------------ DensityMatrix


def test_density_matrix_validation():
    good = np.diag([0.5, 0.5]).astype(complex)
    assert DensityMatrix(good).dim == 2
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    # unvalidated snapshots may carry anything
    DensityMatrix(np.diag([1.5, -0.5]).astype(complex), validate=False)


def test_density_matrix_must_be_square():
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.zeros((2, 3)))


# -------------------------------------------------------------- generators


def test_superoperator_dim_comes_from_its_matrix():
    gen = build_lindblad_generator(FockSpace(dim=4), RATES)
    assert Superoperator(matrix=gen.matrix, mode=gen.mode).dim == 4
    assert build_2d_generator(FockSpace(dim=2), FockSpace(dim=3), RATES).dim == 6
    for shape in [(16, 9), (15, 15), (16,)]:
        with pytest.raises(DimensionMismatch):
            Superoperator(matrix=np.zeros(shape), mode=gen.mode)


def test_generator_annihilates_trace_and_preserves_hermiticity(herm_factory):
    space = FockSpace(dim=8)
    for build in (build_redfield_generator, build_lindblad_generator):
        gen = build(space, RATES)
        for _ in range(20):
            h = herm_factory(8)
            image = gen.apply(h)
            assert abs(np.trace(image)) < 1e-12
            assert np.max(np.abs(image - image.conj().T)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    gamma=st.floats(0.0, 0.5),
    dp=st.floats(-0.1, 0.1),
    dm=st.floats(-0.1, 0.1),
)
def test_trace_annihilation_over_rate_space(gamma, dp, dm):
    gen = build_redfield_generator(FockSpace(dim=5), RateSet.scaled(gamma, dp, dm))
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = (a + a.conj().T) / 2.0
    assert abs(np.trace(gen.apply(h))) < 1e-12


def test_vacuum_is_stationary_under_lindblad():
    space = FockSpace(dim=6)
    gen = build_lindblad_generator(space, RATES)
    vac = np.zeros((6, 6), dtype=complex)
    vac[0, 0] = 1.0
    assert np.max(np.abs(gen.apply(vac))) < 1e-15


def test_vacuum_is_not_stationary_beyond_rwa():
    # the counter-rotating channels push the ground state toward a dressed
    # vacuum: the (0, 2) coherence acquires a nonzero derivative
    space = FockSpace(dim=6)
    gen = build_redfield_generator(space, RATES)
    vac = np.zeros((6, 6), dtype=complex)
    vac[0, 0] = 1.0
    image = gen.apply(vac)
    assert abs(image[0, 2]) > 1e-4
    assert abs(image[0, 0]) < 1e-15


def test_population_sector_matches_rwa_on_diagonal_states(rng):
    # on a populations-only state the two-quantum channels feed coherences
    # exclusively: the diagonal of the derivative is identical between the
    # two treatments, and the difference lives entirely on the n <-> n+-2
    # lines.  This is the structural reason witness growth separates them.
    space = FockSpace(dim=9)
    gen_b = build_redfield_generator(space, RATES)
    gen_l = build_lindblad_generator(space, RATES)
    weights = rng.random(9)
    weights /= weights.sum()
    sigma = np.diag(weights.astype(complex))
    image_b = gen_b.apply(sigma)
    image_l = gen_l.apply(sigma)
    assert np.max(np.abs(np.diag(image_b) - np.diag(image_l))) < 1e-15
    assert abs(image_b[0, 2]) > 1e-5  # coherence actually being generated
    diff = image_b - image_l
    off = np.abs(diff) > 1e-14
    rows, cols = np.nonzero(off)
    assert np.all(np.abs(rows - cols) == 2)


def test_redfield_with_zero_shifts_keeps_anomalous_damping_blocks():
    # setting both shifts to zero does NOT collapse the generator to the
    # excitation-conserving form: the two-quantum channels keep their
    # gamma/2 weights.  Pinned here so the difference is a documented
    # feature, not a surprise.
    space = FockSpace(dim=6)
    zero_shift = RateSet.scaled(1e-2, 0.0, 0.0)
    gen_b = build_redfield_generator(space, zero_shift)
    gen_l = build_lindblad_generator(space, zero_shift)
    diff = gen_b.matrix - gen_l.matrix
    # the largest surviving entry is the anomalous-damping coupling of the
    # topmost two-quantum coherence pair, weight gamma/2 * sqrt(n) * sqrt(n)
    # with n = dim - 1
    assert np.max(np.abs(diff)) == pytest.approx(
        0.5 * zero_shift.gamma * (space.dim - 1), rel=1e-12
    )
    row = (space.dim - 2) * space.dim + (space.dim - 1)  # sigma[dim-1, dim-2]
    col = (space.dim - 1) * space.dim + (space.dim - 2)  # sigma[dim-2, dim-1]
    assert diff[row, col] == pytest.approx(
        -0.5 * zero_shift.gamma * (space.dim - 1), rel=1e-12
    )


def _hand_ladder(dim):
    b = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    return b, b.conj().T


def test_lindblad_generator_action_is_the_damped_oscillator(herm_factory):
    # the whole RWA action, written out with plain matrix products:
    # -i w [n, s] + gamma (b s b+ - {n, s}/2) with w = 1 + delta_minus
    g, dm = RATES.gamma, RATES.delta_minus
    for dim in (6, 9):
        gen = build_lindblad_generator(FockSpace(dim=dim), RATES)
        gate = 1e-12 * np.max(np.abs(gen.matrix))
        b, bd = _hand_ladder(dim)
        n = bd @ b
        w = 1.0 + dm
        for _ in range(5):
            s = herm_factory(dim)
            want = -1j * w * (n @ s - s @ n) + g * (
                b @ s @ bd - 0.5 * (n @ s + s @ n)
            )
            assert np.max(np.abs(gen.apply(s) - want)) <= gate


def test_redfield_generator_action_matches_hand_written_formula(herm_factory):
    # the whole beyond-RWA action, written out with plain matrix products:
    # the oscillator at w = 1 + delta_minus - delta_plus, the damping channel
    # and the four two-quantum blocks with their shift and gamma/2 weights
    g, dp, dm = RATES.gamma, RATES.delta_plus, RATES.delta_minus
    for dim in (6, 9):
        gen = build_redfield_generator(FockSpace(dim=dim), RATES)
        gate = 1e-12 * np.max(np.abs(gen.matrix))
        b, bd = _hand_ladder(dim)
        n, b2, bd2 = bd @ b, b @ b, bd @ bd
        w = 1.0 + dm - dp
        for _ in range(5):
            s = herm_factory(dim)
            want = (
                -1j * w * (n @ s - s @ n)
                + g * (b @ s @ bd - 0.5 * (n @ s + s @ n))
                - 1j * dp * (b @ s @ b - s @ b2)
                - (0.5 * g + 1j * dm) * (b @ s @ b - b2 @ s)
                + 1j * dp * (bd @ s @ bd - bd2 @ s)
                - (0.5 * g - 1j * dm) * (bd @ s @ bd - s @ bd2)
            )
            assert np.max(np.abs(gen.apply(s) - want)) <= gate


def test_sigma02_rhs_matches_generator_row(rng):
    space = FockSpace(dim=7)
    gen = build_redfield_generator(space, RATES)
    for _ in range(100):
        a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        sigma = (a + a.conj().T) / 2.0
        sigma /= np.trace(sigma).real
        expected = gen.apply(sigma)[0, 2]
        got = sigma02_rhs(sigma, RATES)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_sigma02_rhs_single_excitation_coefficient():
    # |1><1| probes the single term -(i sqrt2 (dp + dm) + gamma/sqrt2)
    m = np.zeros((9, 9), dtype=complex)
    m[1, 1] = 1.0
    got = sigma02_rhs(m, RATES)
    want = -(
        1j * math.sqrt(2.0) * (RATES.delta_plus + RATES.delta_minus)
        + RATES.gamma / math.sqrt(2.0)
    )
    assert got == pytest.approx(want, rel=1e-14)


def test_sigma02_rhs_needs_five_levels():
    with pytest.raises(DimensionTooSmall):
        sigma02_rhs(np.eye(4) / 4.0, RATES)


def test_xp_generator_equals_ladder_generator():
    for dim in (4, 8, 12):
        space = FockSpace(dim=dim)
        g_xp = build_xp_generator(space, RATES).matrix
        g_b = build_redfield_generator(space, RATES).matrix
        scale = np.max(np.abs(g_b))
        assert np.max(np.abs(g_xp - g_b)) < 1e-10 * scale


@pytest.mark.parametrize(
    "build",
    [
        build_redfield_generator,
        build_lindblad_generator,
        build_xp_generator,
        lambda space, rates: build_2d_generator(space, space, rates),
        lambda space, rates: sigma02_rhs(np.eye(space.dim) / space.dim, rates),
    ],
    ids=["redfield", "lindblad", "xp", "2d", "sigma02_rhs"],
)
def test_si_rate_set_is_refused(build):
    # an SI set would be read against a trap frequency of 1 rad/s
    with pytest.raises(ConfigurationError, match="trap units"):
        build(FockSpace(dim=6), build_rate_set(reference_config()))


def _reduce_to_1d_by_basis_inputs(nx, ny):
    # apply the planar generator to sigma_x (x) |0><0|_y for each basis
    # sigma_x and partial-trace the y axis: the axes do not couple and each
    # axis generator annihilates the trace, so this is the x-axis generator
    g2 = build_2d_generator(FockSpace(dim=nx), FockSpace(dim=ny), RATES)
    tau = np.zeros((ny, ny), dtype=complex)
    tau[0, 0] = 1.0
    reduced = np.zeros((nx * nx, nx * nx), dtype=complex)
    for j in range(nx):
        for i in range(nx):
            basis = np.zeros((nx, nx), dtype=complex)
            basis[i, j] = 1.0
            image = g2.apply(np.kron(basis, tau)).reshape(nx, ny, nx, ny)
            reduced[:, i + j * nx] = vec(np.einsum("ikjk->ij", image))
    return reduced


def test_planar_generator_reduces_to_single_axis():
    reduced = _reduce_to_1d_by_basis_inputs(6, 5)
    ref = build_redfield_generator(FockSpace(dim=6), RATES)
    assert np.max(np.abs(reduced - ref.matrix)) < 1e-12


def test_reduce_to_1d_matches_basis_input_loop():
    # unequal axis sizes, either axis the larger one
    for nx, ny in ((4, 5), (5, 3)):
        reduced = _reduce_to_1d_by_basis_inputs(nx, ny)
        ref = build_redfield_generator(FockSpace(dim=nx), RATES)
        assert np.max(np.abs(reduced - ref.matrix)) < 1e-12


def test_apply_checks_state_shape():
    gen = build_redfield_generator(FockSpace(dim=5), RATES)
    with pytest.raises(DimensionMismatch):
        gen.apply(np.eye(4) / 4.0)


# ---------------------------------------------------------------- spectrum


def test_spectral_abscissa_zero_for_dissipative_generators():
    assert abs(spectral_abscissa(
        build_lindblad_generator(FockSpace(dim=20), RateSet.scaled(1e-2, 2e-2, 3e-2))
    )) < 1e-10
    assert abs(spectral_abscissa(
        build_redfield_generator(FockSpace(dim=20), RATES)
    )) < 1e-10


def test_spectral_abscissa_flags_truncation_instability():
    # with shifts large enough that dim * delta competes with omega_c the
    # truncated generator acquires genuinely growing modes; this pins the
    # regression that motivated the probe
    gen = build_redfield_generator(
        FockSpace(dim=20), RateSet.scaled(1e-2, 2e-2, 3e-2)
    )
    assert spectral_abscissa(gen) > 0.1


def _planar(space, rates):
    return build_2d_generator(space, space, rates)


@pytest.mark.parametrize(
    "build", [build_redfield_generator, build_lindblad_generator, build_xp_generator, _planar]
)
@pytest.mark.parametrize("rates", [RATES, RateSet.scaled(1e-2, 2e-2, 3e-2)])
def test_blocked_spectral_abscissa_is_the_dense_one(build, rates):
    gen = build(FockSpace(dim=4 if build is _planar else 12), rates)
    dense = np.linalg.eigvals(gen.matrix).real.max()
    assert abs(spectral_abscissa(gen) - dense) <= 1e-12


def _blocks_of(matrix: np.ndarray) -> list[np.ndarray]:
    return _invariant_blocks(*np.nonzero(matrix), len(matrix))


def test_invariant_blocks_follow_the_conserved_quantity():
    dim = 8
    space = FockSpace(dim=dim)
    # vector position i + j*dim holds the entry (i, j)
    i, j = np.divmod(np.arange(dim * dim), dim)[::-1]
    beyond = _blocks_of(build_redfield_generator(space, RATES).matrix)
    assert [len(idx) for idx in beyond] == [dim * dim // 2] * 2
    for idx in beyond:
        assert len(set((i - j)[idx] % 2)) == 1
    rwa = _blocks_of(build_lindblad_generator(space, RATES).matrix)
    assert len(rwa) == 2 * dim - 1
    assert sorted(len(idx) for idx in rwa) == sorted([*range(1, dim + 1), *range(1, dim)])
    for idx in rwa:
        assert len(set((i - j)[idx])) == 1
    xp = _blocks_of(build_xp_generator(space, RATES).matrix)
    assert [len(idx) for idx in xp] == [dim * dim // 2] * 2
    planar = _blocks_of(_planar(FockSpace(dim=6), RATES).matrix)
    assert [len(idx) for idx in planar] == [324] * 4
    # G of Hermitian coordinates also joins each entry to its transpose: with
    # the RWA its blocks are the dim sets of fixed |i - j|, beyond it the two
    # parities of i - j
    rwa_g = _g_blocks(build_lindblad_generator(space, RATES))
    assert sorted(len(idx) for idx in rwa_g) == [2, 4, 6, 8, 8, 10, 12, 14]
    for idx in rwa_g:
        assert len(set(np.abs(i - j)[idx])) == 1
    beyond_g = _g_blocks(build_redfield_generator(space, RATES))
    assert [len(idx) for idx in beyond_g] == [dim * dim // 2] * 2
    for idx in beyond_g:
        assert len(set((i - j)[idx] % 2)) == 1
    assert [len(idx) for idx in _g_blocks(build_xp_generator(space, RATES))] == [dim * dim // 2] * 2
    assert [len(idx) for idx in _g_blocks(_planar(FockSpace(dim=6), RATES))] == [324] * 4
    for blocks in (beyond, rwa, xp, planar, rwa_g, beyond_g):
        every = np.concatenate(blocks)
        assert np.array_equal(np.sort(every), np.arange(len(every)))


def _g_blocks(gen: Superoperator) -> list[np.ndarray]:
    """The invariant blocks of ``gen``'s real generator ``G``, once its dense
    blocks put back at ``(idx, idx)`` are checked to give ``G`` exactly, with
    nothing outside them."""
    coords = (rows, cols, vals), blocks, _ = _hermitian_coordinates(gen.matrix)
    size = len(gen.matrix)
    assert all(map(np.array_equal, blocks, _invariant_blocks(rows, cols, size)))
    dense = np.zeros((size, size))
    dense[rows, cols] = vals
    rebuilt = np.zeros_like(dense)
    for idx, block in _dense_blocks(coords):
        rebuilt[np.ix_(idx, idx)] = block
    assert np.array_equal(rebuilt, dense)
    return blocks


def _assert_scipy_components(rows: np.ndarray, cols: np.ndarray, size: int) -> None:
    # the same sets as SciPy's undirected components, each ascending, in
    # SciPy's order, which is by smallest index
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    pattern = coo_array((np.ones(len(rows)), (rows, cols)), shape=(size, size))
    n_blocks, labels = connected_components(pattern, directed=False)
    blocks = _invariant_blocks(rows, cols, size)
    assert len(blocks) == n_blocks
    for k, idx in enumerate(blocks):
        assert np.array_equal(idx, np.flatnonzero(labels == k))


@st.composite
def _edge_lists(draw):
    size = draw(st.integers(1, 60))
    index = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(index, index), max_size=2 * size))
    rows = np.array([u for u, _ in edges], dtype=int)
    cols = np.array([v for _, v in edges], dtype=int)
    if draw(st.booleans()):
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    return rows, cols, size


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
def test_invariant_blocks_are_scipys_components(pattern):
    # symmetric and asymmetric patterns, with isolated indices and loops
    _assert_scipy_components(*pattern)


@pytest.mark.parametrize("shuffled", [False, True])
def test_invariant_blocks_of_a_long_chain(shuffled):
    # a chain is the longest path a label has to travel
    size = 20000
    nodes = np.random.default_rng(3).permutation(size) if shuffled else np.arange(size)
    rows, cols = nodes[:-1], nodes[1:]
    _assert_scipy_components(rows, cols, size)
    # and a chain cut in two, with an isolated index after it
    _assert_scipy_components(np.delete(rows, 5000), np.delete(cols, 5000), size + 1)


@pytest.mark.parametrize(
    "build", [build_redfield_generator, build_lindblad_generator, build_xp_generator, _planar]
)
def test_invariant_blocks_of_every_builder_are_scipys_components(build):
    gen = build(FockSpace(dim=4 if build is _planar else 12), RATES)
    _assert_scipy_components(*np.nonzero(gen.matrix), len(gen.matrix))
    (rows, cols, _), _, _ = _hermitian_coordinates(gen.matrix)
    _assert_scipy_components(rows, cols, len(gen.matrix))


@pytest.mark.parametrize(
    "build", [build_redfield_generator, build_lindblad_generator, build_xp_generator, _planar]
)
def test_trace_verdict_of_the_generator_reader(build):
    # every builder conserves the trace, so integrate gates trace drift and
    # the norm; a shift of the spectrum by 1e3 does not, and is not gated
    gen = build(FockSpace(dim=3 if build is _planar else 8), RATES)
    _, _, conserving = _hermitian_coordinates(gen.matrix)
    assert conserving is True
    _, _, conserving = _hermitian_coordinates(gen.matrix + 1e3 * np.eye(len(gen.matrix)))
    assert conserving is False


def test_generator_build_past_physical_memory_is_refused(monkeypatch):
    # the build's peak, three (d**2, d**2) complex arrays, is checked against
    # physical memory before anything is allocated; 16 pages of 1 KiB hold a
    # dim-4 build (12 KiB) and refuse a dim-5 one (29 KiB)
    monkeypatch.setattr("vactrap.liouville.os.sysconf", lambda name: {"SC_PAGE_SIZE": 1024}.get(name, 16))
    assert build_redfield_generator(FockSpace(dim=4), RATES).dim == 4
    with pytest.raises(GuardExceeded, match="physical memory"):
        build_redfield_generator(FockSpace(dim=5), RATES)
