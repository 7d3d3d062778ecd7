"""Ulam matrices, spectra, random ensembles, orbit statistics."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from lorentzgas import ScattererConfig, ClassicalMap, transfer_spectrum
from lorentzgas.cli import _capped_map, fixture_path, load_config
from lorentzgas.transfer_spectrum import (build_ulam, spectrum, random_operator,
                                          operator_distance, sample_invariant,
                                          correlations, limit_stats,
                                          track_path, _Partition)
from lorentzgas.errors import InfiniteHorizon, WeightNotNormalized


def four_disk(shift=0.0):
    return ScattererConfig.from_dict({"scatterers": [
        {"R": 0.30, "center": [0.0, 0.0]},
        {"R": 0.30, "center": [0.5, 0.5]},
        {"R": 0.15, "center": [0.0 + shift, 0.5]},
        {"R": 0.15, "center": [0.5, 0.0]}]})


class _IdentityMap:
    """Fake map sending every phase point to itself."""

    def __init__(self, config):
        self.config = config
        self.flight_cap = 1.0

    def forward_batch(self, idx, r, phi):
        n = len(np.asarray(r))
        return (np.asarray(idx), np.asarray(r), np.asarray(phi),
                np.ones(n), np.ones(n, dtype=bool))


@pytest.fixture(scope="module")
def op16():
    T = ClassicalMap(four_disk(), flight_cap=2.5)
    return build_ulam(T, N=16, S=60, seed=0)


def _unit_weight_ulam(map_def, N, S, seed):
    """The single-map Ulam assembly as build_ulam wrote it before it became
    the one-map ensemble: unit weights, empty rows set to the identity."""
    part = _Partition(map_def.config, N)
    b, j, r, phi = part.sample_boxes(S, np.random.default_rng(seed))
    jj, r1, p1, _, ok = map_def.forward_batch(j, r, phi)
    P = sp.coo_matrix((np.ones(ok.sum()),
                       (b[ok], part.box_of(jj[ok], r1[ok], p1[ok]))),
                      shape=(part.size, part.size)).tocsr()
    counts = np.asarray(P.sum(axis=1)).ravel()
    empty = np.flatnonzero(counts == 0)
    P = P + sp.coo_matrix((np.ones(empty.size), (empty, empty)),
                          shape=P.shape).tocsr()
    counts[empty] = 1.0
    return (sp.diags(1.0 / counts) @ P).tocsr(), float(1.0 - ok.mean())


@pytest.mark.parametrize("cap, N, S, seed", [(2.5, 16, 60, 0),
                                          (0.2, 8, 40, 2)])
def test_build_ulam_is_the_unit_weight_assembly(cap, N, S, seed):
    """op16's inputs, and a cap short enough to drop samples and rows."""
    T = ClassicalMap(four_disk(), flight_cap=cap)
    op = build_ulam(T, N=N, S=S, seed=seed)
    P, drop = _unit_weight_ulam(T, N, S, seed)
    for a in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(op.P, a), getattr(P, a)), a
    assert op.drop_rate == drop
    assert (drop > 0) == (cap < 1.0)


def test_identity_map_gives_identity_matrix():
    op = build_ulam(_IdentityMap(four_disk()), N=8, S=10, seed=0)
    assert (op.P != sp.eye(op.size, format="csr")).nnz == 0
    assert op.drop_rate == 0.0


def test_rows_are_stochastic(op16):
    assert op16.row_sum_defect() < 1e-12
    assert op16.drop_rate < 1e-9
    assert op16.P.min() >= 0


def test_build_validation():
    T = ClassicalMap(four_disk())
    with pytest.raises(ValueError):
        build_ulam(T, N=48)
    corridor = ScattererConfig.from_dict({"scatterers": [
        {"R": 0.35, "center": [0.0, 0.0]},
        {"R": 0.35, "center": [0.5, 0.5]}]})
    with pytest.raises(InfiniteHorizon):
        build_ulam(ClassicalMap(corridor), N=8)


def test_leading_eigenvalue_and_density(op16):
    s = spectrum(op16, k=5)
    assert abs(s.eigenvalues[0]) == pytest.approx(1.0, abs=1e-10)
    assert 0 < s.gap < 1
    assert s.density.min() >= 0
    assert s.density.sum() == pytest.approx(1.0, rel=1e-9)
    assert s.residuals.max() < 1e-8
    assert s.leading_cluster_rank() >= 1


def test_arnoldi_matches_dense(op16):
    """Cross-check the sparse eigensolver against a dense solve."""
    s = spectrum(op16, k=5)
    lam_dense = np.linalg.eigvals(op16.transfer_matrix().toarray())
    lam_dense = lam_dense[np.argsort(-np.abs(lam_dense))][:5]
    assert np.allclose(np.abs(s.eigenvalues), np.abs(lam_dense), atol=1e-8)


def test_density_matches_invariant_weights(op16):
    """The leading Ulam density approximates the invariant box masses."""
    s = spectrum(op16, k=2)
    w = _Partition(four_disk(), op16.N).mu_weights()
    assert np.abs(s.density - w).sum() < 0.2


def test_dirac_ensemble_equals_single_map():
    T = ClassicalMap(four_disk(), flight_cap=2.5)
    op1 = build_ulam(T, N=8, S=40, seed=3)
    op2 = random_operator([T], nu=[1.0], N=8, S=40, seed=3)
    assert (op1.P != op2.P).nnz == 0
    assert op1.drop_rate == op2.drop_rate


def test_ensemble_weight_validation():
    T = ClassicalMap(four_disk(), flight_cap=2.5)
    with pytest.raises(WeightNotNormalized):
        random_operator([T, T], nu=[0.7, 0.7], N=8, S=5)
    with pytest.raises(WeightNotNormalized):
        random_operator([T, T], g=lambda k, i, r, p: np.full(len(r), 2.0),
                        N=8, S=5)


# track_path on the `spectrum --path` family (scatterer 0 of the four_disk
# fixture shifted by gamma, flight cap 50) at N=32, S=100, seed 0: the
# records the earlier per-eigenvalue matcher gave, which the assignment
# must reproduce
PATH_EIGENVALUES = [
    [1.0000000000000024, 0.8462099573137991, 0.8433052350428689,
     0.7280605603783171, -0.6738968318195184, -0.6696101151471217],
    [1.0000000000000029, 0.8461992978645396, 0.8433309484797277,
     0.7279800254421434, -0.673761715006798, -0.6695840171084084],
    [1.0000000000000018, 0.8460666484175212, 0.8433860372856812,
     0.7270413447149003, -0.6729074006703444, -0.6706666767797868]]
PATH_DRIFT = [
    [0.0] * 6,
    [4.440892098500626e-16, 1.065944925948692e-05, 2.5713436858754157e-05,
     8.053493617377061e-05, 0.00013511681272038167, 2.6098038713229244e-05],
    [6.661338147750939e-16, 0.0001433088962778939, 8.080224281226123e-05,
     0.0010192156634167837, 0.000989431149174047, 0.0010565616326650984]]
PATH_GAP = [0.1537900426862009, 0.15380070213546038, 0.15393335158247878]
PATH_SIN = [0.0, 0.01698364068370972, 0.029512934971605502]


def test_track_path_pinned_one_spectrum_per_gamma(monkeypatch):
    cfg = load_config(fixture_path("four_disk"))

    def family(g):
        d = cfg.to_dict()
        d["scatterers"][0]["center"][0] += g
        return _capped_map(ScattererConfig.from_dict(d), 50.0)[0]

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return spectrum(*args, **kwargs)

    monkeypatch.setattr(transfer_spectrum, "spectrum", counted)
    gammas = [0.0, 3e-4, 1e-3]
    recs = track_path(family, gammas, N=32, S=100, seed=0)
    assert len(calls) == len(gammas)
    assert [rec["gamma"] for rec in recs] == gammas
    for i, rec in enumerate(recs):
        assert rec["eigenvalues"].tolist() == PATH_EIGENVALUES[i]
        assert rec["drift"].tolist() == PATH_DRIFT[i]
        assert rec["gap"] == PATH_GAP[i]
        assert rec["leading_cluster_rank"] == 1
        assert abs(rec["principal_angle_sin"] - PATH_SIN[i]) <= 1e-12


def test_operator_distance_zero_and_positive():
    T0 = ClassicalMap(four_disk(), flight_cap=2.5)
    Tg = ClassicalMap(four_disk(2e-2), flight_cap=2.5)
    a = build_ulam(T0, N=8, S=40, seed=1)
    b = build_ulam(Tg, N=8, S=40, seed=1)
    same = operator_distance(a, a)
    assert same["linf_row"] == 0.0 and same["weighted_l1"] == 0.0
    diff = operator_distance(a, b)
    assert diff["weighted_l1"] > 0
    assert diff["linf_row"] <= 2.0 + 1e-12


def test_sample_invariant_distribution():
    rng = np.random.default_rng(0)
    cfg = four_disk()
    idx, r, phi = sample_invariant(cfg, 200000, rng)
    s = np.sin(phi)
    assert abs(s.mean()) < 0.01
    assert np.var(s) == pytest.approx(1.0 / 3.0, rel=0.02)
    Ls = np.array([sc.L for sc in cfg.scatterers])
    assert np.all(r >= 0) and np.all(r <= Ls[idx])
    # scatterers drawn proportionally to boundary length
    frac = np.bincount(idx, minlength=4) / idx.size
    assert np.allclose(frac, Ls / Ls.sum(), atol=0.01)


def test_correlations_vanish_for_constants():
    T = ClassicalMap(four_disk(), flight_cap=2.5)
    one = lambda i, r, p: np.ones(len(np.atleast_1d(r)))
    out = correlations(T, one, one, n_max=3, n_points=20000, n_batches=10)
    assert np.abs(out["C_n"]).max() < 1e-12
    assert out["alive_fraction"] > 0.99


def test_correlations_decay():
    T = ClassicalMap(four_disk(), flight_cap=2.5)
    f = lambda i, r, p: np.sin(p)
    out = correlations(T, f, f, n_max=12, n_points=100000, n_batches=20)
    assert out["C_n"][0] == pytest.approx(1.0 / 3.0, rel=0.05)
    assert abs(out["C_n"][8]) < 0.05 * out["C_n"][0]


def test_limit_stats_zero_observable():
    T = ClassicalMap(four_disk(), flight_cap=2.5)
    zero = lambda i, r, p: np.zeros(len(np.atleast_1d(r)))
    out = limit_stats(T, zero, n_points=300, n_steps=64,
                      batch_scales=(16, 64), ld_ns=(8, 16))
    for v in out["sigma2"].values():
        assert v == pytest.approx(0.0, abs=1e-15)
    assert out["mean"] == 0.0


class _DyingIdentityMap(_IdentityMap):
    """Identity map under which every orbit on scatterer 0 dies at once."""

    def forward_batch(self, idx, r, phi):
        jj, r1, p1, tau, _ = super().forward_batch(idx, r, phi)
        return jj, r1, p1, tau, np.asarray(idx) != 0


def test_limit_stats_mean_counts_steps_of_dying_orbits():
    one = lambda i, r, p: np.ones(len(np.atleast_1d(r)))
    out = limit_stats(_DyingIdentityMap(four_disk()), one, n_points=300,
                      n_steps=16, batch_scales=(16,), ld_ns=(8,))
    assert 0.0 < out["alive_fraction"] < 1.0
    assert out["mean"] == 1.0
    assert out["sigma2"][16] == 0.0


def test_random_operator_drop_rate_is_nu_weighted():
    cfg = four_disk()
    op = random_operator([_IdentityMap(cfg), _DyingIdentityMap(cfg)],
                         nu=[0.5, 0.5], N=8, S=10, seed=0)
    # every box holds S samples and a quarter of the boxes lie on
    # scatterer 0, whose samples the second map drops
    assert op.drop_rate == 0.5 * 0.25


def test_correlations_rate_from_leading_run():
    T = ClassicalMap(four_disk())
    f = lambda i, r, p: np.sin(p)
    out = correlations(T, f, f, n_max=20, n_points=5000, seed=3)
    assert out["n_below_noise"] >= 2
    assert math.isfinite(out["rate"]) and out["rate"] > 0


def test_limit_stats_variance_stabilizes():
    T = ClassicalMap(four_disk(), flight_cap=2.5)
    f = lambda i, r, p: np.sin(p)
    out = limit_stats(T, f, n_points=2000, n_steps=256,
                      batch_scales=(64, 256), ld_ns=(16, 64))
    v = list(out["sigma2"].values())
    assert len(v) == 2
    assert v[0] > 0
    assert abs(v[1] - v[0]) < 0.5 * v[0]
    for curve in out["rate_curves"].values():
        I = curve["I"]
        assert np.nanmin(I) >= 0
