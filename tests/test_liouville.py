"""Ladder operators, vectorization, and the master-equation generators."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vactrap.cli import run_cli
from vactrap.errors import (
    ConfigurationError,
    DimensionMismatch,
    DimensionTooSmall,
    GuardExceeded,
    ToleranceFailure,
)
from vactrap.liouville import (
    DensityMatrix,
    FockSpace,
    Superoperator,
    _dense_blocks,
    _hermitian_coordinates,
    _invariant_blocks,
    _pack,
    _swap,
    _unpack,
    build_2d_generator,
    build_fock_operators,
    build_lindblad_generator,
    build_redfield_generator,
    build_xp_generator,
    spectral_abscissa,
)
from vactrap.evolve import integrate
from vactrap.observables import make_state
from vactrap.params import reference_config
from vactrap.rates import RateSet, build_rate_set

from conftest import sigma02_rhs, unvec, vec

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


def test_pack_unpack_roundtrip(herm_factory):
    h = herm_factory(5)
    back = _unpack(_pack(h)[None])[0]
    assert np.array_equal(back, back.conj().T)
    assert np.abs(back - h).max() <= 1e-15


def test_vec_is_column_major():
    # the Hermitian coordinates Re vec A + Im vec A, in column-major order
    m = np.arange(4.0).reshape(2, 2)  # [[0, 1], [2, 3]]
    assert np.array_equal(_pack(m), [0.0, 2.0, 1.0, 3.0])
    assert np.array_equal(_pack(1j * m), [0.0, 2.0, 1.0, 3.0])


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


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_density_matrix_refuses_non_finite_entries(entry):
    # a nan compares false against every gate and reaches eigvalsh as a
    # LinAlgError; an unvalidated snapshot still carries anything
    diagonal = np.diag([entry, 0.0, 0.0])
    pair = np.diag([1.0, 0.0, 0.0]).astype(complex)
    pair[0, 1] = pair[1, 0] = entry
    for mat in (diagonal, pair, np.full((3, 3), entry)):
        with pytest.raises(DimensionMismatch, match="non-finite"):
            DensityMatrix(mat)
        DensityMatrix(mat, validate=False)


def test_density_matrix_must_be_square():
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.zeros((2, 3)))


# -------------------------------------------------------------- generators


def test_superoperator_dim_comes_from_its_matrix():
    gen = build_lindblad_generator(FockSpace(dim=4), RATES)
    assert Superoperator(*gen._triple, gen.mode).dim == 4
    assert build_2d_generator(FockSpace(dim=2), FockSpace(dim=3), RATES).dim == 6
    # a triple whose matrices are not all (d, d) for one d is refused
    left, right, jumps = gen._triple
    (coeff, op_left, op_right), *rest = jumps
    for triple in [
        (left[:3], right, jumps),
        (left, right[:, :3], jumps),
        (left, np.eye(5), jumps),
        (np.diag(left), right, jumps),
        (left, right, [(coeff, op_left[:3, :3], op_right), *rest]),
        (left, right, [(coeff, op_left, np.eye(3)), *rest]),
    ]:
        with pytest.raises(DimensionMismatch, match=r"not one \(dim, dim\)"):
            Superoperator(*triple, gen.mode)


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
    ],
    ids=["redfield", "lindblad", "xp", "2d"],
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
    coords = (rows, cols, vals), blocks, _ = _hermitian_coordinates(gen)
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
    (rows, cols, _), _, _ = _hermitian_coordinates(gen)
    _assert_scipy_components(rows, cols, len(gen.matrix))


@pytest.mark.parametrize(
    "build", [build_redfield_generator, build_lindblad_generator, build_xp_generator, _planar]
)
def test_trace_verdict_of_the_generator_reader(build):
    # every builder conserves the trace, so integrate gates trace drift and
    # the norm; a shift of the spectrum by 1e3 does not, and is not gated
    gen = build(FockSpace(dim=3 if build is _planar else 8), RATES)
    _, _, conserving = _hermitian_coordinates(gen)
    assert conserving is True
    left, right, jumps = gen._triple
    eye = np.eye(gen.dim)
    shifted = Superoperator(left + 500.0 * eye, right + 500.0 * eye, jumps, gen.mode)
    _, _, conserving = _hermitian_coordinates(shifted)
    assert conserving is False


def _memory_pages(monkeypatch, pages):
    """Make physical memory ``pages`` pages of 1 KiB."""
    monkeypatch.setattr(
        "vactrap.errors.os.sysconf", lambda name: {"SC_PAGE_SIZE": 1024}.get(name, pages)
    )


def test_generator_build_past_physical_memory_is_refused(monkeypatch):
    # the build is checked against physical memory before its COO is made,
    # at 256 bytes for each product of a nonzero of A with one of B over the
    # terms kron(B.T, A), 9 d**2 - 16 d + 3 of them beyond the RWA: 32 pages
    # of 1 KiB hold the 83 at dim 4 (21.2 kB) and refuse the 148 at dim 5
    # (37.9 kB)
    _memory_pages(monkeypatch, 32)
    assert build_redfield_generator(FockSpace(dim=4), RATES).dim == 4
    refused = "a generator on 5 levels needs .* to build its sparse matrix, more than .* physical"
    with pytest.raises(GuardExceeded, match=refused):
        build_redfield_generator(FockSpace(dim=5), RATES)


@pytest.mark.parametrize(
    "pages, make, refused",
    [
        # five complex ladder arrays at dim 8, 5.1 kB
        (4, lambda: build_fock_operators(FockSpace(dim=8)), "a ladder on 8 levels .* operators"),
        # the ladder at dim 10 (8 kB) fits, the beyond-RWA triple's eight
        # arrays past it (12.8 kB) do not
        (10, lambda: build_redfield_generator(FockSpace(dim=10), RATES),
         "a generator on 10 levels .* to build its triple"),
        # a state and the two copies its validation takes, 4.8 kB at dim 10
        (4, lambda: make_state("thermal", FockSpace(dim=10), nbar=0.5),
         "a state on 10 levels .* to be made"),
    ],
    ids=["ladder", "triple", "state"],
)
def test_dense_ladders_triples_and_states_are_refused_before_they_exist(
    monkeypatch, pages, make, refused
):
    _memory_pages(monkeypatch, pages)
    with pytest.raises(GuardExceeded, match=refused):
        make()


@pytest.mark.parametrize(
    "build", [build_redfield_generator, build_lindblad_generator, build_xp_generator,
              build_2d_generator]
)
def test_build_and_its_reading_stay_within_the_build_guard(build, monkeypatch):
    # from the triple on, the COO and the one reader of it peak at or under
    # the bytes the build guard checks
    gen = _generator_on(build, 24)
    checked = {}
    monkeypatch.setattr(
        "vactrap.liouville._refuse_past_memory",
        lambda peak, what, task: checked.setdefault(task, peak),
    )
    tracemalloc.start()
    try:
        _hermitian_coordinates(Superoperator(*gen._triple, gen.mode))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= checked["build its sparse matrix"]


def test_a_generator_past_its_dense_matrix_builds_and_integrates(monkeypatch):
    # 512 pages of 1 KiB hold the dim-16 RWA generator's build (705
    # products, 180 kB) and an 11-point run, but not its dense L (1 MiB),
    # whose first read is refused
    _memory_pages(monkeypatch, 512)
    space = FockSpace(dim=16)
    gen = build_lindblad_generator(space, RATES)
    record = integrate(gen, make_state("coherent", space, alpha=1.0), (0.0, 1.0), n_points=11)
    assert record.w.shape == (11, 256)
    with pytest.raises(GuardExceeded, match="a generator on 16 levels .* scatter its dense matrix"):
        gen.matrix
    assert "matrix" not in vars(gen)


def test_spectral_abscissa_past_physical_memory_is_refused(monkeypatch):
    # three copies of the largest dense block, 24 m**2 bytes: 1536 pages of
    # 1 KiB hold the dim-24 beyond-RWA build (4803 products, 1.23 MB) but
    # not its 288-entry blocks (1.99 MB), refused before either is filled
    _memory_pages(monkeypatch, 1536)
    gen = build_redfield_generator(FockSpace(dim=24), RATES)
    with pytest.raises(GuardExceeded, match="an invariant block of 288 entries .* fill densely"):
        spectral_abscissa(gen)


def test_an_overflowing_generator_is_refused_when_built(capsys):
    # 1e308 times a ladder entry overflows; the build warned, and the span
    # guard then blamed a nan norm of ||G||_1 (a RuntimeWarning fails the test)
    space, rates = FockSpace(dim=6), RateSet.scaled(1e-2, 1e308, 0.0)
    for build in (build_redfield_generator, build_xp_generator,
                  lambda space, rates: build_2d_generator(space, space, rates)):
        with pytest.raises(ToleranceFailure, match="levels overflows the float range"):
            build(space, rates)
    assert run_cli(["evolve", "--dim", "6", "--points", "11", "--delta-plus", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    words = "the generator on 6 levels overflows the float range"
    assert captured.err == f"vactrap: numerical guard: {words}\n"


def _generator_on(build, levels):
    """``build``'s generator on ``levels`` levels in all; the planar one on
    2 x 4 or 4 x 6 levels."""
    if build is build_2d_generator:
        per_axis = {8: 2, 24: 4}[levels]
        return build_2d_generator(FockSpace(dim=per_axis), FockSpace(dim=levels // per_axis), RATES)
    return build(FockSpace(dim=levels), RATES)


@pytest.mark.parametrize(
    "build, levels",
    [
        *((build, levels)
          for build in (build_redfield_generator, build_lindblad_generator, build_xp_generator,
                        build_2d_generator)
          for levels in (8, 24)),
        (build_redfield_generator, 20),
        (build_redfield_generator, 40),
    ],
)
def test_coo_is_the_nonzeros_of_the_assembled_matrix(build, levels, kron_sum):
    # the COO computed from the triple is, bit for bit, the nonzeros of the
    # dense L that the Kronecker products add up term by term, and .matrix,
    # the COO scattered on first read only, is that L, sign bits included
    gen = _generator_on(build, levels)
    assert "matrix" not in vars(gen)
    dense = kron_sum(*gen._triple)
    rows, cols = np.nonzero(dense)
    assert np.array_equal(gen.coo[0], rows) and np.array_equal(gen.coo[1], cols)
    assert np.array_equal(gen.coo[2].view(float), dense[rows, cols].view(float))
    assert np.array_equal(gen.matrix.view(float), dense.view(float))
    assert np.array_equal(np.signbit(gen.matrix.view(float)), np.signbit(dense.view(float)))
    assert gen.matrix is gen.matrix


@pytest.mark.parametrize("levels", [20, 32])
def test_dense_matrix_is_one_array(levels):
    # reading .matrix allocates the one (d**2, d**2) complex array its
    # guard is sized for, 16 d**4 bytes, and no Kronecker term
    gen = build_redfield_generator(FockSpace(dim=levels), RATES)
    tracemalloc.start()
    try:
        gen.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 16 * levels**4


@pytest.mark.parametrize(
    "build", [build_redfield_generator, build_lindblad_generator, build_xp_generator,
              build_2d_generator]
)
def test_apply_reads_the_triple(rng, build, kron_sum):
    # apply is the triple's action, and agrees with the Kronecker sum's
    # dense L without .matrix being read
    gen = _generator_on(build, 24)
    sigma = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    want = unvec(kron_sum(*gen._triple) @ vec(sigma), 24)
    for state in (sigma, DensityMatrix(sigma, validate=False)):
        assert np.abs(gen.apply(state) - want).max() <= 1e-14 * np.abs(want).max()
    assert "matrix" not in vars(gen)


@pytest.mark.parametrize("consumer", ["spectral_abscissa", "integrate"])
def test_numeric_path_builds_no_dense_generator(consumer):
    # one dense L at dim 48 is 16 * 48**4 bytes (85 MB); the build, the
    # reader and either consumer of it peak below that
    space = FockSpace(dim=48)
    tracemalloc.start()
    try:
        gen = build_redfield_generator(space, RATES)
        if consumer == "spectral_abscissa":
            spectral_abscissa(gen)
        else:
            integrate(gen, make_state("coherent", space, alpha=1.0), (0.0, 1.0), n_points=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 48**4


def test_hermiticity_gap_reads_a_missing_mirror_as_zero(entry_jump):
    # an entry of L whose mirror L[swap[r], swap[c]] is not among the
    # nonzeros leaks its whole magnitude
    gen = build_lindblad_generator(FockSpace(dim=4), RATES)
    dense = gen.matrix
    swap = _swap(4)
    r, c = next(
        (r, c) for r, c in zip(*np.nonzero(dense == 0))
        if dense[swap[r], swap[c]] == 0 and (swap[r], swap[c]) != (r, c)
    )
    left, right, jumps = gen._triple
    broken = Superoperator(left, right, [*jumps, entry_jump(4, r, c)], gen.mode)
    assert np.count_nonzero(broken.matrix - dense) == 1 and broken.matrix[r, c] == 1e-9
    with pytest.raises(ConfigurationError, match=r"= 1\.000e-09 against"):
        _hermitian_coordinates(broken)
