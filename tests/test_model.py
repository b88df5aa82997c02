import math
import warnings

import numpy as np
import pytest

from excount.bath import BathSpec
from excount.generator import DegenerateGapError, transport_rates
from excount.model import (
    ModelError,
    SiteModel,
    diagonalize,
    dominant_exciton,
    load_model,
    preset,
    preset_names,
    site_hamiltonian,
)

# Closed-form 2x2 diagonalization of the strongly coupled pair:
#   gap = sqrt((e2-e1)^2 + 4 J^2),  I(0,1) = sin^2(2 theta)/2 with
#   sin(2 theta) = 2|J|/gap.
FMO2_GAP = math.sqrt(120.0**2 + 4.0 * 87.7**2)
FMO2_I01 = (2.0 * 87.7 / FMO2_GAP) ** 2 / 2.0


def random_model(seed, n=None):
    rng = np.random.default_rng(seed)
    n = n or rng.integers(2, 7)
    j = rng.normal(scale=60.0, size=(n, n))
    j = np.triu(j, 1)
    j = j + j.T
    return SiteModel(energies=rng.uniform(0.0, 500.0, size=n), couplings=j)


def test_fmo2_gap_matches_closed_form():
    basis = diagonalize(preset("fmo2"))
    assert basis.gaps[0, 1] == pytest.approx(FMO2_GAP, abs=1e-10)
    assert basis.energies[0] + basis.energies[1] == pytest.approx(520.0, abs=1e-10)


def test_uncoupled_sites_stay_localized():
    model = SiteModel(energies=[100.0, 250.0, 400.0], couplings=np.zeros((3, 3)))
    basis = diagonalize(model)
    np.testing.assert_allclose(basis.energies, [100.0, 250.0, 400.0], atol=1e-12)
    np.testing.assert_allclose(basis.amplitudes, np.eye(3), atol=1e-12)


def test_uncoupled_unsorted_energies_yield_permutation():
    model = SiteModel(energies=[400.0, 100.0], couplings=np.zeros((2, 2)))
    basis = diagonalize(model)
    np.testing.assert_allclose(basis.energies, [100.0, 400.0], atol=1e-12)
    np.testing.assert_allclose(basis.amplitudes, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_fmo3_trace_invariance():
    basis = diagonalize(preset("fmo3"))
    assert basis.energies.sum() == pytest.approx(520.0, abs=1e-9)


def test_intensity_factor_two_site_closed_form():
    basis = diagonalize(preset("fmo2"))
    assert basis.intensity_factors[0, 1] == pytest.approx(FMO2_I01, abs=1e-12)


def test_intensity_factor_limits():
    basis = diagonalize(
        SiteModel(energies=[0.0, 200.0], couplings=np.zeros((2, 2)))
    )
    assert basis.intensity_factors[0, 1] == 0.0
    assert basis.intensity_factors[0, 0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_amplitude_orthonormality(seed):
    basis = diagonalize(random_model(seed))
    gram = basis.amplitudes.T @ basis.amplitudes
    np.testing.assert_allclose(gram, np.eye(basis.n_excitons), atol=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_trace_preservation(seed):
    model = random_model(seed)
    basis = diagonalize(model)
    assert basis.energies.sum() == pytest.approx(model.energies.sum(), rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_intensity_factor_symmetry_and_row_sum(seed):
    basis = diagonalize(random_model(seed))
    n = basis.n_excitons
    mat = basis.intensity_factors
    np.testing.assert_allclose(mat, mat.T, atol=1e-14)
    assert np.all(mat >= 0.0) and np.all(mat <= 1.0 + 1e-12)
    # summing the interference weights over the partner index resolves unity
    np.testing.assert_allclose(mat.sum(axis=1), np.ones(n), atol=1e-10)


@pytest.mark.parametrize("n", [3, 9, 80])
def test_intensity_factor_matrix_rounds_like_single_pair(n):
    # the matrix sums each pair in the order of the single-pair product, so
    # rates, and the files written from them, round as for one pair at a
    # time; n = 80 sums more than 8 sites and splits the rows into blocks
    basis = diagonalize(random_model(n, n))
    amps = basis.amplitudes
    expected = np.array(
        [[np.sum(amps[:, a] * amps[:, a] * amps[:, b] * amps[:, b]) for b in range(n)]
         for a in range(n)]
    )
    assert np.array_equal(basis.intensity_factors, expected)
    assert basis.intensity_factors is basis.intensity_factors  # computed once


@pytest.mark.parametrize("seed", range(4))
def test_rediagonalization_idempotent(seed):
    model = random_model(seed)
    basis = diagonalize(model)
    h = basis.amplitudes @ np.diag(basis.energies) @ basis.amplitudes.T
    np.testing.assert_allclose(h, site_hamiltonian(model), atol=1e-8)
    off = -(h - np.diag(np.diag(h)))
    again = diagonalize(
        SiteModel(
            energies=np.diag(h).copy(),
            couplings=(off + off.T) / 2.0,  # kill float asymmetry from the product
        )
    )
    np.testing.assert_allclose(again.energies, basis.energies, atol=1e-8)
    np.testing.assert_allclose(again.amplitudes, basis.amplitudes, atol=1e-8)


def test_eigenvector_sign_convention():
    basis = diagonalize(preset("fmo4"))
    for col in basis.amplitudes.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_presets_available():
    assert preset_names() == ("fmo2", "fmo3", "fmo4")
    m2, m3, m4 = preset("fmo2"), preset("fmo3"), preset("fmo4")
    assert m2.n_sites == 2 and m3.n_sites == 3 and m4.n_sites == 4
    np.testing.assert_allclose(m4.energies, [200.0, 320.0, 0.0, 110.0])
    assert m4.couplings[0, 1] == -87.7
    assert m4.couplings[2, 3] == -53.5
    assert m4.couplings[0, 3] == -5.9
    assert m4.couplings[1, 3] == 8.2


def test_unknown_preset_lists_available():
    with pytest.raises(ModelError, match="fmo2, fmo3, fmo4"):
        preset("fmo7")


@pytest.mark.parametrize(
    "energies, couplings, message",
    [
        ([0.0, math.nan], [[0.0, 1.0], [1.0, 0.0]], "site energies must be finite"),
        ([0.0, math.inf], [[0.0, 1.0], [1.0, 0.0]], "site energies must be finite"),
        ([0.0, 1.0], [[0.0, math.nan], [math.nan, 0.0]], "couplings must be finite"),
        ([0.0, 1.0], [[0.0, -math.inf], [-math.inf, 0.0]], "couplings must be finite"),
    ],
    ids=["nan-energy", "inf-energy", "nan-coupling", "inf-coupling"],
)
def test_non_finite_site_values_rejected(energies, couplings, message):
    # eigh ignores a NaN on the diagonal and returns finite energies
    with pytest.raises(ModelError, match=f"^{message}$"):
        SiteModel(energies=energies, couplings=couplings)


def test_model_validation():
    with pytest.raises(ModelError):
        SiteModel(energies=[1.0], couplings=np.zeros((1, 1)))
    j = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ModelError, match="symmetric"):
        SiteModel(energies=[0.0, 1.0], couplings=j)
    j = np.array([[1.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ModelError, match="diagonal"):
        SiteModel(energies=[0.0, 1.0], couplings=j)
    with pytest.raises(ModelError, match=r"^couplings must be 3x3, got \(2, 2\)$"):
        SiteModel(energies=[0.0, 1.0, 2.0], couplings=np.zeros((2, 2)))


def test_degenerate_spectrum_policy():
    # diagonalize accepts degenerate energies silently; the rate build is the
    # one place that rejects them
    model = SiteModel(energies=[100.0, 100.0], couplings=np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = diagonalize(model)
    with pytest.raises(DegenerateGapError, match="zero frequency"):
        transport_rates(basis, BathSpec(35.0, 150.0, 300.0))


def test_dominant_exciton_assignments():
    basis = diagonalize(preset("fmo3"))
    # site 3 hosts the lowest exciton; sites 1 and 2 split the coupled pair
    assert dominant_exciton(basis, 2) == 0
    assert dominant_exciton(basis, 0) == 1
    assert dominant_exciton(basis, 1) == 2
    for site in (-1, 3):
        with pytest.raises(IndexError, match=f"^site index out of range: {site}$"):
            dominant_exciton(basis, site)


def test_load_model_roundtrip(tmp_path):
    path = tmp_path / "dimer.json"
    path.write_text(
        '{"energies": [200.0, 320.0], '
        '"couplings": [[0.0, -87.7], [-87.7, 0.0]], '
        '"labels": ["bchl1", "bchl2"]}'
    )
    model, bath = load_model(path)
    assert bath is None
    basis = diagonalize(model)
    assert basis.gaps[0, 1] == pytest.approx(FMO2_GAP, abs=1e-10)
    with pytest.raises(ModelError, match="missing key"):
        bad = tmp_path / "bad.json"
        bad.write_text('{"energies": [1.0, 2.0]}')
        load_model(bad)


@pytest.mark.parametrize("key", ["temprature_K", "baht"])
def test_load_model_refuses_an_unknown_key(tmp_path, key):
    # a misspelt key would otherwise run with the defaults it meant to change
    path = tmp_path / "dimer.json"
    path.write_text(
        '{"energies": [200.0, 320.0], "couplings": [[0.0, -87.7], [-87.7, 0.0]], '
        f'"{key}": 77}}'
    )
    with pytest.raises(ModelError, match=f"^unknown model file key '{key}'$"):
        load_model(path)


def test_load_model_returns_the_bath_section_as_it_stands(tmp_path):
    path = tmp_path / "dimer.json"
    path.write_text(
        '{"energies": [200, 320], "couplings": [[0, -87.7], [-87.7, 0]], '
        '"bath": {"temperature_K": 77, "extra": "kept"}}'
    )
    model, bath = load_model(path)
    assert model.energies.dtype == float and list(model.energies) == [200.0, 320.0]
    assert bath == {"temperature_K": 77, "extra": "kept"}


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "model file {path} must hold a JSON object"),
        ('"dimer"', "model file {path} must hold a JSON object"),
        ('{"energies": "ab", "couplings": [[0, 1], [1, 0]]}',
         "model file key 'energies' must hold numbers"),
        ('{"energies": ["200", "320"], "couplings": [[0, 1], [1, 0]]}',
         "model file key 'energies' must hold numbers"),
        ('{"energies": [0, 1], "couplings": [[0, 1], [1]]}',
         "model file key 'couplings' must hold numbers"),
        ('{"energies": [0, 1], "couplings": [[0, null], [null, 0]]}',
         "model file key 'couplings' must hold numbers"),
        ('{"energies": [true, false], "couplings": [[0, 1], [1, 0]]}',
         "model file key 'energies' must hold numbers"),
        ('{"energies": [200, true], "couplings": [[0, 1], [1, 0]]}',
         "model file key 'energies' must hold numbers"),
        ('{"energies": [0, NaN], "couplings": [[0, 1], [1, 0]]}',
         "site energies must be finite"),
        ('{"energies": [0, 1], "couplings": [[0, Infinity], [Infinity, 0]]}',
         "couplings must be finite"),
    ],
    ids=["list", "string", "string-energies", "numeric-strings", "ragged-couplings",
         "null-couplings", "bool-energies", "number-and-bool", "nan-energy", "inf-coupling"],
)
def test_load_model_names_a_malformed_document(tmp_path, text, message):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert str(info.value) == message.format(path=path)
