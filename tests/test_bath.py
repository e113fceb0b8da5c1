"""Brute-force discretized-bath oracle: exact evolution vs discrete-sum rates."""
import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import vactrap.bath
from vactrap.bath import (
    BathModel,
    _fit_decay,
    _fit_phase_drift,
    _hamiltonian,
    bath_brute_force,
    discrete_golden_rule,
    discrete_second_order_shift,
    make_flat_bath,
)
from vactrap.cli import _oracle_report_csv, run_cli
from vactrap.errors import ConfigurationError, DimensionMismatch, FitFailure, GuardExceeded


# ------------------------------------------------------------ construction


def test_flat_bath_coupling_matches_golden_rule_inversion():
    bath = make_flat_bath(64, 0.2, 5.0, gamma_target=5e-3)
    dw = (5.0 - 0.2) / 63
    kappa = math.sqrt(5e-3 * dw / (2.0 * math.pi))
    assert np.allclose(bath.couplings, kappa, rtol=1e-14)
    assert discrete_golden_rule(bath) == pytest.approx(5e-3, rel=1e-12)


def test_flat_bath_needs_a_spacing():
    with pytest.raises(DimensionMismatch, match="n_modes must be at least 2, got 1"):
        make_flat_bath(1, 0.5, 1.5, gamma_target=1e-3)


@pytest.mark.parametrize(
    "omega_min, omega_max, gamma_target",
    [(5.0, 0.2, 5e-3), (1.0, 1.0, 5e-3), (0.2, 5.0, 0.0), (0.2, 5.0, math.inf),
     (-1.0, 0.5, 5e-3), (0.0, 0.5, 5e-3), (0.2, math.inf, 5e-3),
     # gamma_target * dw overflows to inf, with no RuntimeWarning first
     (0.2, 15.0, 1e308)],
)
def test_flat_bath_needs_an_ordered_band_and_a_positive_rate(
    omega_min, omega_max, gamma_target
):
    with pytest.raises(DimensionMismatch):
        make_flat_bath(8, omega_min, omega_max, gamma_target=gamma_target)


def test_bath_model_validation():
    with pytest.raises(DimensionMismatch, match="at least one bath mode"):
        BathModel(mode_frequencies=[], couplings=[])
    with pytest.raises(DimensionMismatch):
        BathModel(mode_frequencies=[1.0, 2.0], couplings=[0.1])
    with pytest.raises(DimensionMismatch, match="particle_levels must be at least 2, got 1"):
        BathModel(mode_frequencies=[1.0], couplings=[0.1], particle_levels=1)
    with pytest.raises(DimensionMismatch, match="photons_per_mode must be at least 1, got 0"):
        BathModel(mode_frequencies=[1.0], couplings=[0.1], photons_per_mode=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("counter_rotating", [False, True])
def test_bath_model_refuses_non_finite_modes(bad, counter_rotating):
    # a nan or infinite frequency or coupling would reach the golden rule as
    # nan or inf and eigh as a LinAlgError; it is refused when the model is made
    for field in ("mode_frequencies", "couplings"):
        arrays = dict(mode_frequencies=[0.8, 1.2], couplings=[0.01, 0.01])
        arrays[field] = [bad, arrays[field][1]]
        with pytest.raises(DimensionMismatch, match="finite"):
            BathModel(**arrays, counter_rotating=counter_rotating)


def test_dimension_guard_trips_on_large_product_space():
    freqs = np.linspace(0.5, 1.5, 17)
    with pytest.raises(GuardExceeded):
        BathModel(
            mode_frequencies=freqs,
            couplings=np.full(17, 1e-3),
            counter_rotating=True,  # 2 * 2^17 states > 2^16 guard
        )


@pytest.mark.parametrize(
    "make, admitted, refused",
    [(dict(omega_min=0.2, omega_max=5.0), 15, 16),
     (dict(omega_min=0.5, omega_max=1.5, counter_rotating=True), 3, 4)],
    ids=["sector", "product"],
)
def test_bath_past_physical_memory_is_refused(monkeypatch, capsys, make, admitted, refused):
    # the oracle's peak, (40 d + 128 * 128) d bytes in the sector and
    # (16 d + 128 * 128) d in the product space, is checked against physical
    # memory when the model is made; 300 pages of 1 KiB hold the sector at
    # 17 states and the product space at 16, and refuse 18 and 32
    monkeypatch.setattr("vactrap.errors.os.sysconf",
                        lambda name: {"SC_PAGE_SIZE": 1024}.get(name, 300))
    make_flat_bath(admitted, gamma_target=1e-3, **make)
    with pytest.raises(GuardExceeded, match="physical memory"):
        make_flat_bath(refused, gamma_target=1e-3, **make)
    if not make.get("counter_rotating"):
        assert run_cli(["bath-oracle", "--modes", str(refused)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "physical memory" in err


def test_dimension_both_paths():
    sector = BathModel(mode_frequencies=[0.9, 1.0, 1.1], couplings=[0.01] * 3)
    assert sector.dimension() == 5
    full = BathModel(
        mode_frequencies=[0.9, 1.1],
        couplings=[0.01] * 2,
        particle_levels=3,
        photons_per_mode=2,
        counter_rotating=True,
    )
    assert full.dimension() == 27


# -------------------------------------------------------------- references


def test_second_order_shift_rejects_resonant_mode():
    bath = BathModel(mode_frequencies=[1.0, 2.0], couplings=[0.01, 0.01])
    with pytest.raises(FitFailure, match="resonance"):
        discrete_second_order_shift(bath)


def test_sector_second_order_shift_is_the_plain_mode_sum():
    # the conserving path reads the sum off the coupling's column; it must
    # be the textbook sum over the modes itself, to the last bit
    bath = make_flat_bath(64, 0.2, 5.0, gamma_target=5e-3)
    kappa2 = bath.couplings**2
    expected = np.sum(kappa2 / (1.0 - bath.mode_frequencies))
    assert discrete_second_order_shift(bath) == expected


def test_golden_rule_needs_two_modes():
    bath = BathModel(mode_frequencies=[1.3], couplings=[0.01])
    with pytest.raises(FitFailure):
        discrete_golden_rule(bath)
    # and a local spacing: modes that do not increase through resonance
    bath = BathModel(mode_frequencies=[1.2, 1.0, 0.8], couplings=[0.01] * 3)
    with pytest.raises(FitFailure, match="strictly increasing"):
        discrete_golden_rule(bath)


# ------------------------------------------------------------- brute force


def test_flat_bath_fit_reproduces_discrete_references():
    bath = make_flat_bath(64, 0.2, 5.0, gamma_target=5e-3)
    golden = discrete_golden_rule(bath)
    shift_sum = discrete_second_order_shift(bath)
    result = bath_brute_force(bath, rates_expected=(golden, shift_sum))
    assert abs(result.gamma_fit - golden) / golden < 0.10
    assert abs(result.shift_fit - shift_sum) / abs(shift_sum) < 0.05
    assert result.norm_drift < 1e-10
    # regression freeze of the fitted values themselves
    assert result.gamma_fit == pytest.approx(0.005005450453334704, rel=1e-6)
    assert result.shift_fit == pytest.approx(-0.0012527337522664217, rel=1e-6)
    assert result.gamma_expected == golden
    assert result.shift_expected == shift_sum


def test_sector_and_product_space_paths_agree():
    # the same physical bath evolved exactly in the one-excitation sector
    # and in the full truncated product space with the complete coupling:
    # at weak coupling the counter-rotating terms move the decay rate only
    # at second order, so the two fitted rates must sit together far inside
    # the oracle's 10% gate
    kwargs = dict(duration=40.0, n_points=801)
    sector_bath = make_flat_bath(8, 0.5, 1.5, gamma_target=2e-3)
    full_bath = make_flat_bath(8, 0.5, 1.5, gamma_target=2e-3, counter_rotating=True)
    sector = bath_brute_force(sector_bath, **kwargs)
    full = bath_brute_force(full_bath, **kwargs)
    assert sector.norm_drift < 1e-10
    assert full.norm_drift < 1e-10
    assert abs(sector.gamma_fit - full.gamma_fit) / sector.gamma_fit < 0.02
    assert sector.gamma_fit == pytest.approx(2e-3, rel=0.05)
    # regression freeze of the product-space fit itself
    assert full.gamma_fit == pytest.approx(0.0020078926272005552, rel=1e-6)
    assert full.shift_fit == pytest.approx(0.00018845402370337716, rel=1e-6)


def test_detuned_mode_gives_pure_shift_and_honest_zero_decay():
    # one mode a full trap frequency above resonance: no energy-conserving
    # channel, so survival stays flat (the fit reports an exact 0.0 rather
    # than fabricating a tiny rate) while the phase drift reproduces the
    # second-order product-space sum
    bath = BathModel(
        mode_frequencies=[2.0],
        couplings=[0.01],
        particle_levels=3,
        photons_per_mode=2,
        counter_rotating=True,
    )
    pt2 = discrete_second_order_shift(bath)
    assert pt2 == pytest.approx(-0.00013333333333333334, rel=1e-10)
    result = bath_brute_force(
        bath, rates_expected=(0.0, pt2), duration=2000.0, n_points=4001
    )
    assert result.gamma_fit == 0.0
    assert abs(result.shift_fit - pt2) / abs(pt2) < 0.05
    assert result.norm_drift < 1e-10


def test_three_level_two_photon_observables_match_hand_built_evolution():
    # P_1 and <b> against psi+ O psi with O = |1><1| x I and b x I, where
    # psi evolves under a Hamiltonian written out from sqrt(n) ladders; the
    # superposition state reaches level 2, so this checks the sqrt(2)
    # weight of the 2 -> 1 term in <b>
    omega, kappa = 2.0, 0.01
    bath = BathModel(
        mode_frequencies=[omega],
        couplings=[kappa],
        particle_levels=3,
        photons_per_mode=2,
        counter_rotating=True,
    )
    result = bath_brute_force(bath, duration=2000.0, n_points=4001)

    b = np.diag(np.sqrt([1.0, 2.0]), 1)
    a = np.diag(np.sqrt([1.0, 2.0]), 1)
    eye = np.eye(3)
    h = (
        np.kron(b.T @ b, eye)
        + omega * np.kron(eye, a.T @ a)
        + 1j * kappa * np.kron(b - b.T, a + a.T)
    )
    excited = np.kron(np.diag([0.0, 1.0, 0.0]), eye)
    lowering = np.kron(b, eye)
    vac = np.eye(3)[0]
    psi_decay = np.kron(np.eye(3)[1], vac).astype(complex)
    psi_super = np.kron(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0), vac)

    worst = 0.0
    for k in range(0, len(result.times), 10):
        step = expm(-1j * h * result.times[k])
        decay = step @ psi_decay
        sup = step @ psi_super
        worst = max(
            worst,
            abs(decay.conj() @ excited @ decay - result.excited_population[k]),
            abs(sup.conj() @ lowering @ sup - result.mean_lowering[k]),
        )
    assert worst < 1e-10


def test_trap_energies_are_exact_multiples_of_omega_c():
    # H0's trap part is the integer level (omega_c = 1), so |2> x |vac> sits
    # at exactly 2 (diag(b+ b) squares the sqrt(2) ladder entry: 2.0000000000000004)
    bath = BathModel(
        mode_frequencies=[2.0, 3.0],
        couplings=[0.01, 0.01],
        particle_levels=3,
        counter_rotating=True,
    )
    h0 = _hamiltonian(bath)[0]
    assert h0[2 * 4] == 2.0  # |2> x |vac>; two modes give 4 field states


@pytest.mark.parametrize("counter_rotating", [False, True])
def test_one_diagonalization_per_run(monkeypatch, counter_rotating):
    # one eigh per invariant block, shared by both initial states, each real
    # in the i**level gauge: the product space per parity sector, the
    # sector as one block
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(matrix, *args, **kwargs):
        calls.append((matrix.shape, matrix.dtype))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    bath = make_flat_bath(
        8, 0.5, 1.5, gamma_target=2e-3, counter_rotating=counter_rotating
    )
    bath_brute_force(bath, duration=40.0, n_points=801)
    dim = bath.dimension()
    if counter_rotating:
        half = (dim // 2, dim // 2)
        assert calls == [(half, np.dtype(np.float64))] * 2
    else:
        assert calls == [((dim, dim), np.dtype(np.float64))]


@pytest.mark.parametrize(
    "bath, kwargs, block, count",
    [(make_flat_bath(8, 0.5, 1.5, gamma_target=2e-3, counter_rotating=True),
      dict(duration=40.0, n_points=801), 256, 14),
     (make_flat_bath(64, 0.2, 5.0, gamma_target=5e-3), dict(n_points=2001), 66, 32)],
    ids=["product 8 modes", "sector 64 modes"],
)
def test_two_eigenvector_products_per_chunk(monkeypatch, bath, kwargs, block, count):
    # 7 and 16 chunks.  The product space multiplies each parity sector's
    # eigenvectors once a chunk, since the superposition's odd-sector
    # columns are the decay run's over sqrt 2 (running both starts there
    # took 21 products); the sector's one block holds both starts
    products = []
    matmul = np.matmul

    def counting_matmul(a, b, *args, **kwargs):
        if a.ndim == 2 and a.shape[0] == a.shape[1]:
            products.append(a.shape)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    bath_brute_force(bath, **kwargs)
    assert products == [(block, block)] * count


# (bath, bath_brute_force arguments): modes far from resonance, or enough
# of them for a clean decay within the recurrence time, so that both fits
# succeed; the spans stay short because two diagonalizations agree in
# the phases E t only to about eps |E| t
_SPLIT_BATHS = {
    "8 modes x 1 photon": (
        make_flat_bath(8, 0.5, 1.5, gamma_target=2e-3, counter_rotating=True),
        dict(duration=40.0, n_points=801),
    ),
    "1 mode x 2 photons x 3 levels": (
        BathModel(mode_frequencies=[2.0], couplings=[0.01], particle_levels=3,
                  photons_per_mode=2, counter_rotating=True),
        dict(duration=200.0, n_points=401),
    ),
    "2 modes x 3 levels": (
        BathModel(mode_frequencies=[2.0, 3.0], couplings=[0.01, 0.02],
                  particle_levels=3, counter_rotating=True),
        dict(duration=200.0, n_points=401),
    ),
}


def _kron_hamiltonian(bath):
    """The gauged product-space ``(diag(H0), V)`` written out whole:
    ``H0 = b+ b x I + sum_k Omega_k n_k`` and
    ``V = -(b + b+) x sum_k kappa_k (a_k + a_k+)``, from sqrt(n) ladders in
    kron order (mode 0 leading).  At most one mode joins two field states,
    so each entry of the field quadrature is written once or stays +0.0.
    """
    n_ph = bath.photons_per_mode + 1
    b = np.diag(np.sqrt(np.arange(1.0, bath.particle_levels)), 1)
    a = np.diag(np.sqrt(np.arange(1.0, n_ph)), 1)
    eye = np.eye(n_ph)

    def on_mode(k, op):
        return functools.reduce(np.kron, [eye] * k + [op] + [eye] * (bath.n_modes - k - 1))

    n_field = n_ph**bath.n_modes
    h0 = np.repeat(np.arange(float(bath.particle_levels)), n_field)
    quadrature = np.zeros((n_field, n_field))
    for k, (omega, kappa) in enumerate(zip(bath.mode_frequencies, bath.couplings)):
        photons = np.diag(on_mode(k, np.diag(np.arange(float(n_ph)))))
        h0 += omega * np.tile(photons, bath.particle_levels)
        ladder = on_mode(k, a + a.T)
        quadrature[ladder != 0] = kappa * ladder[ladder != 0]
    return h0, -np.kron(b + b.T, quadrature)


def _dense_second_order_shift(h0, v, lower):
    """``discrete_second_order_shift`` read off the whole V's columns; None
    where a coupled state sits on resonance."""
    shifts = []
    for target in (int(np.flatnonzero(lower == 0)[0]), 0):
        amp2 = np.abs(v[:, target]) ** 2
        keep = amp2 > 0
        denom = h0[target] - h0[keep]
        if np.any(np.abs(denom) <= 1e-12):
            return None
        shifts.append(float(np.sum(amp2[keep] / denom)))
    return shifts[0] - shifts[1]


@settings(max_examples=40, deadline=None)
@given(
    n_modes=st.integers(1, 4),
    particle_levels=st.integers(2, 4),
    photons_per_mode=st.integers(1, 2),
    freqs=st.lists(st.floats(0.1, 5.0), min_size=4, max_size=4),
    couplings=st.lists(st.one_of(st.just(0.0), st.floats(-0.05, 0.05)), min_size=4, max_size=4),
)
def test_blocks_are_the_kron_hamiltonian_cut_by_parity(
    n_modes, particle_levels, photons_per_mode, freqs, couplings
):
    # the blocks partition the states, the whole kron-built H has no entry
    # between them, and each block is its cut of V to the bit, signed zeros
    # included; the second-order sum read inside its target's block equals
    # the one read off the whole column
    bath = BathModel(freqs[:n_modes], couplings[:n_modes], particle_levels=particle_levels,
                     photons_per_mode=photons_per_mode, counter_rotating=True)
    h0_ref, v_ref = _kron_hamiltonian(bath)
    h0, _, lower, blocks = _hamiltonian(bath)
    assert np.array_equal(h0, h0_ref)
    assert sorted(np.concatenate([idx for idx, _ in blocks])) == list(range(bath.dimension()))
    outside = np.ones(v_ref.shape, dtype=bool)
    for idx, v in blocks:
        cut = v_ref[np.ix_(idx, idx)]
        assert np.array_equal(v, cut)
        assert np.array_equal(np.signbit(v), np.signbit(cut))
        outside[np.ix_(idx, idx)] = False
    assert np.count_nonzero((v_ref + np.diag(h0_ref))[outside]) == 0
    try:
        shift = discrete_second_order_shift(bath)
    except FitFailure:
        shift = None
    # repr tells -0.0 from 0.0 and None from a number
    assert repr(shift) == repr(_dense_second_order_shift(h0_ref, v_ref, lower))


def _block_second_order_shift(bath):
    """``discrete_second_order_shift`` read inside its targets' blocks of
    ``_hamiltonian``: each column's nonzero entries in ascending state order."""
    h0, _, lower, blocks = _hamiltonian(bath)
    shifts = []
    for target in (int(np.flatnonzero(lower == 0)[0]), 0):
        idx, v = next(block for block in blocks if target in block[0])
        amp2 = np.abs(v[:, np.searchsorted(idx, target)]) ** 2
        keep = amp2 > 0
        shifts.append(float(np.sum(amp2[keep] / (h0[target] - h0[idx[keep]]))))
    return shifts[0] - shifts[1]


@pytest.mark.parametrize(
    "bath",
    [bath for bath, _ in _SPLIT_BATHS.values()] + [make_flat_bath(64, 0.2, 5.0, gamma_target=5e-3)],
    ids=[*_SPLIT_BATHS, "sector 64 modes"],
)
def test_second_order_shift_is_the_block_sum(bath):
    # the references read the two coupling columns from V's factors; the
    # sum must be the one read off the blocks, to the bit
    assert discrete_second_order_shift(bath) == _block_second_order_shift(bath)


def test_second_order_shift_builds_no_block():
    # at 12 product modes (8192 states) the two parity sectors alone would
    # take 2 * 4096**2 * 8 B = 256 MiB; the two columns need a few kB
    bath = make_flat_bath(12, 0.5, 1.5, gamma_target=2e-3, counter_rotating=True)
    tracemalloc.start()
    try:
        discrete_second_order_shift(bath)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("bath", [bath for bath, _ in _SPLIT_BATHS.values()], ids=_SPLIT_BATHS)
def test_product_space_splits_into_parity_sectors(bath):
    _, level, _, blocks = _hamiltonian(bath)
    # the parity classes of level + total photons, counted by hand
    n_ph = bath.photons_per_mode + 1
    n_field = n_ph**bath.n_modes
    photons = [sum(int(d) for d in np.base_repr(x, n_ph)) for x in range(n_field)]
    parity = np.array([(lvl + photons[j % n_field]) % 2 for j, lvl in enumerate(level)])
    (even, _), (odd, _) = blocks
    assert [even.tolist(), odd.tolist()] == [
        np.flatnonzero(parity == 0).tolist(), np.flatnonzero(parity == 1).tolist()
    ]
    h0, v = _kron_hamiltonian(bath)
    h = v + np.diag(h0)
    assert np.count_nonzero(h[np.ix_(even, odd)]) == 0
    assert np.count_nonzero(h[np.ix_(odd, even)]) == 0


@pytest.mark.parametrize("bath, kwargs", _SPLIT_BATHS.values(), ids=_SPLIT_BATHS)
def test_blocked_evolution_matches_one_dense_diagonalization(bath, kwargs):
    # the reference diagonalizes the whole gauged kron-built H at once and
    # evolves both initial states through it, with the gauge psi_j ->
    # i**level_j psi_j written out as a table of its own
    result = bath_brute_force(bath, **kwargs)
    _, level, lower, _ = _hamiltonian(bath)
    phase = np.array([1, 1j, -1, -1j])[level % 4]
    h0, v = _kron_hamiltonian(bath)
    energies, u = np.linalg.eigh(v + np.diag(h0))
    times = np.linspace(0.0, kwargs["duration"], kwargs["n_points"])
    i1 = int(np.flatnonzero(lower == 0)[0])

    def evolve(occupied):
        psi = np.zeros(len(level), dtype=complex)
        psi[occupied] = phase[occupied].conj() / math.sqrt(len(occupied))
        coeffs = u.conj().T @ psi
        return phase[:, None] * (u @ (np.exp(-1j * np.outer(energies, times)) * coeffs[:, None]))

    decay, sup = evolve([i1]), evolve([0, i1])
    pop = np.sum(np.abs(decay[level == 1]) ** 2, axis=0)
    norm_drift = np.max(np.abs(np.sum(np.abs(decay) ** 2, axis=0) - 1.0))
    up = lower >= 0
    mean_b = np.sum(sup[lower[up]].conj() * np.sqrt(level[up])[:, None] * sup[up], axis=0)
    assert np.abs(result.excited_population - pop).max() <= 1e-12
    assert np.abs(result.mean_lowering - mean_b).max() <= 1e-12
    assert result.norm_drift < 1e-10
    assert norm_drift < 1e-10


# (bath, bath_brute_force arguments) walked in several chunks: 7 of the
# product space, 16 of the sector
_CHUNKED_RUNS = pytest.mark.parametrize(
    "bath, kwargs",
    [(make_flat_bath(8, 0.5, 1.5, gamma_target=2e-3, counter_rotating=True),
      dict(duration=40.0, n_points=801)),
     (make_flat_bath(64, 0.2, 5.0, gamma_target=5e-3), dict(n_points=2001))],
    ids=["product 8 modes", "sector 64 modes"],
)


@_CHUNKED_RUNS
def test_time_chunks_do_not_move_the_results(monkeypatch, bath, kwargs):
    # the time grid is walked in chunks of columns; one column at a time,
    # seven, and the whole grid at once must give the same trajectory to
    # rounding and the same verdicts
    references = (discrete_golden_rule(bath), discrete_second_order_shift(bath))
    runs = []
    for width in (1, 7, kwargs["n_points"]):
        monkeypatch.setattr(vactrap.bath, "_CHUNK", width)
        runs.append(bath_brute_force(bath, rates_expected=references, **kwargs))
    whole = runs[-1]
    verdicts = _oracle_report_csv(whole)
    for run in runs[:-1]:
        np.testing.assert_allclose(run.excited_population, whole.excited_population,
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(np.abs(run.mean_lowering), np.abs(whole.mean_lowering),
                                   rtol=1e-14, atol=0.0)
        assert run.norm_drift < 1e-10
        assert [row.split(",")[4] for row in _oracle_report_csv(run).splitlines()[1:]] == [
            row.split(",")[4] for row in verdicts.splitlines()[1:]
        ]


@_CHUNKED_RUNS
def test_walk_phases_match_the_direct_exponential(monkeypatch, bath, kwargs):
    # each later chunk's phases are the first chunk's table rotated to its
    # first time; a walk that takes exp(-i E t) of every column, from the
    # same eigendecomposition, must agree to rounding up to t = duration
    decompositions = []
    eigh = np.linalg.eigh

    def recording_eigh(matrix, *args, **kwargs):
        decompositions.append(eigh(matrix, *args, **kwargs))
        return decompositions[-1]

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    result = bath_brute_force(bath, **kwargs)
    _, level, lower, blocks = _hamiltonian(bath)
    step = 1j  # <b>'s phase in the gauge psi_j -> i**level_j psi_j
    times = np.linspace(0.0, kwargs.get("duration", 80.0), kwargs["n_points"])
    assert times[-1] == result.times[-1]
    i1 = int(np.flatnonzero(lower == 0)[0])

    def evolve(amplitudes):  # the gauged initial amplitudes, by basis state
        start = np.zeros(len(level), dtype=complex)
        start[list(amplitudes)] = list(amplitudes.values())
        psi = np.zeros((len(level), len(times)), dtype=complex)
        for (idx, _), (energies, u) in zip(blocks, decompositions, strict=True):
            psi[idx] = u @ (np.exp(-1j * np.outer(energies, times)) * (u.T @ start[idx])[:, None])
        return psi

    decay = evolve({i1: np.conj(step)})
    sup = evolve({0: 1 / math.sqrt(2.0), i1: np.conj(step) / math.sqrt(2.0)})
    pop = np.sum(np.abs(decay[level == 1]) ** 2, axis=0)
    up = lower >= 0
    mean_b = step * np.sum(sup[lower[up]].conj() * np.sqrt(level[up])[:, None] * sup[up], axis=0)
    assert np.abs(result.excited_population - pop).max() <= 1e-12
    assert np.abs(result.mean_lowering - mean_b).max() <= 1e-12


def test_product_run_holds_no_trajectory_sized_array():
    # the 8-mode product space has 512 states; a ten times longer time grid
    # adds only the per-time vectors (a (512, 8001) float64 array alone
    # would add 31 MiB)
    bath = make_flat_bath(8, 0.5, 1.5, gamma_target=2e-3, counter_rotating=True)
    peaks = []
    tracemalloc.start()
    try:
        for n_points in (801, 8001):
            tracemalloc.reset_peak()
            bath_brute_force(bath, duration=40.0, n_points=n_points)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 8 * 2**20
    assert peaks[1] - peaks[0] < 2**20


def test_product_hamiltonian_is_built_by_sector():
    # the 10-mode product space has 2048 states, two float64 sectors of
    # 1024**2 entries (8 MiB each).  Built sector by sector and each sector
    # dropped once diagonalized, the run peaks near four of them (about
    # 32 MiB); the whole 32 MiB V, its kron temporary and the cut copies
    # peaked at 72 MiB
    bath = make_flat_bath(10, 0.5, 1.5, gamma_target=2e-3, counter_rotating=True)
    tracemalloc.start()
    try:
        bath_brute_force(bath, duration=40.0, n_points=801)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20


def test_resonant_single_mode_is_reported_as_rabi_not_decay():
    bath = BathModel(mode_frequencies=[1.0], couplings=[0.05])
    with pytest.raises(FitFailure, match="not a clean exponential"):
        bath_brute_force(bath, duration=200.0)


@pytest.mark.parametrize("fit, words", [(_fit_decay, "collapsed"), (_fit_phase_drift, "vanished")])
def test_fits_refuse_a_vanished_signal(fit, words):
    # fewer than 8 usable points: no survival above 1e-12, no <b> above
    # 1e-12 of its largest magnitude (here zero, so of 1)
    times = np.linspace(0.0, 10.0, 50)
    with pytest.raises(FitFailure, match=words):
        fit(times, np.zeros(50))


def test_brute_force_needs_two_time_points():
    # the CLI fixes the grid, so only the library reaches this refusal
    bath = make_flat_bath(8, 0.5, 1.5, gamma_target=2e-3)
    with pytest.raises(ConfigurationError, match="n_points must be at least 2"):
        bath_brute_force(bath, n_points=1)


def test_conserving_path_requires_two_level_sector():
    with pytest.raises(DimensionMismatch, match="one-excitation"):
        BathModel(
            mode_frequencies=[0.9, 1.1], couplings=[0.01] * 2, particle_levels=3
        )


# ------------------------------------------------------------------ report


def test_oracle_report_csv_layout():
    bath = make_flat_bath(64, 0.2, 5.0, gamma_target=5e-3)
    golden = discrete_golden_rule(bath)
    shift_sum = discrete_second_order_shift(bath)
    result = bath_brute_force(bath, rates_expected=(golden, shift_sum))
    lines = _oracle_report_csv(result).strip().splitlines()
    assert lines[0] == "quantity,expected,fitted,relative_error,pass"
    gamma_fields = lines[1].split(",")
    assert gamma_fields[0] == "gamma"
    assert float(gamma_fields[1]) == pytest.approx(5e-3, rel=1e-12)
    assert float(gamma_fields[3]) < 0.10
    assert gamma_fields[4] == "pass"
    shift_fields = lines[2].split(",")
    assert shift_fields[0] == "shift"
    assert shift_fields[4] == "pass"
    # an expected value far from the fit flips the verdict
    far = replace(result, gamma_expected=2.0 * result.gamma_fit,
                  shift_expected=2.0 * result.shift_fit)
    for line in _oracle_report_csv(far).strip().splitlines()[1:]:
        fields = line.split(",")
        assert float(fields[3]) == 0.5
        assert fields[4] == "fail"
    # the verdict turns between 9 and 11 % (gamma) and 4 and 6 % (shift)
    for rel, verdicts in ((0.09, ("pass", "fail")), (0.04, ("pass", "pass")),
                          (0.11, ("fail", "fail")), (0.06, ("pass", "fail"))):
        near = replace(result, gamma_expected=result.gamma_fit / (1.0 + rel),
                       shift_expected=result.shift_fit / (1.0 + rel))
        rows = _oracle_report_csv(near).strip().splitlines()[1:]
        assert tuple(row.split(",")[4] for row in rows) == verdicts
