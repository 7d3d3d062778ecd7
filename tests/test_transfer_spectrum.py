"""Ulam matrices, spectra, random ensembles, orbit statistics."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from lorentzgas import ScattererConfig, ClassicalMap
from lorentzgas.transfer_spectrum import (build_ulam, spectrum, random_operator,
                                          operator_distance, sample_invariant,
                                          correlations, limit_stats,
                                          _Partition)
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
