import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowopt import toyset
from flowopt.errors import (ContractViolation, DegenerateRangeError,
                            UnsupportedDimensionError)
from flowopt.moeval import (DESCRIPTOR_NAMES, EvalReport, MAXIMIZE, MINIMIZE,
                            auto_reference, bootstrap_ci, descriptor_kl,
                            descriptor_values, dominates, embedding_projection,
                            feature_matrix, frechet_distance, histogram_kl,
                            hypervolume_2d, hypervolume_2d_with_warnings, hvi,
                            pareto_front, set_metrics, structure_embeddings)
from flowopt.rng import Rng


def brute_force_front(points, directions):
    """O(n^2) dominance filter with duplicate removal; reference oracle."""
    pts = np.asarray(points, dtype=np.float64)
    t = pts.copy()
    for j, d in enumerate(directions):
        if d == MINIMIZE:
            t[:, j] = -t[:, j]
    keep = []
    seen = set()
    for i in range(len(t)):
        dominated = any(np.all(t[j] >= t[i]) and np.any(t[j] > t[i])
                        for j in range(len(t)))
        key = tuple(t[i])
        if not dominated and key not in seen:
            seen.add(key)
            keep.append(i)
    return {tuple(pts[i]) for i in keep}


# -- dominance ------------------------------------------------------------

def test_dominates_basics():
    # directions: maximize p1, minimize p2
    assert dominates([0.9, 2.0], [0.5, 3.0])
    assert dominates([0.9, 2.0], [0.9, 3.0])
    assert not dominates([0.9, 2.0], [0.9, 2.0])  # irreflexive
    assert not dominates([0.5, 3.0], [0.9, 2.0])
    assert not dominates([0.9, 5.0], [0.5, 2.0])  # incomparable


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_dominates_antisymmetric(seed):
    r = Rng(seed)
    a, b = r.normal(2), r.normal(2)
    assert not (dominates(a, b) and dominates(b, a))


# -- pareto front ---------------------------------------------------------

def test_pareto_matches_brute_force_random_instances(rng):
    for case in range(300):
        r = rng.split(case)
        n = int(r.integers(1, 120))
        pts = r.normal((n, 2))
        if case % 3 == 0:  # force ties and duplicates
            pts = np.round(pts, 1)
        directions = [(MAXIMIZE, MINIMIZE), (MAXIMIZE, MAXIMIZE),
                      (MINIMIZE, MINIMIZE)][case % 3]
        front = pareto_front(pts, directions)
        assert {tuple(p) for p in front.points} == brute_force_front(pts, directions)
        # back-references are consistent
        assert all(np.array_equal(pts[i], p)
                   for i, p in zip(front.indices, front.points))


def test_pareto_single_point_and_empty():
    f = pareto_front([[0.5, 3.0]])
    assert len(f.points) == 1
    with pytest.raises(ContractViolation):
        pareto_front(np.zeros((0, 2)))


def test_pareto_three_objectives_rejected(rng):
    with pytest.raises(UnsupportedDimensionError):
        pareto_front(rng.normal((40, 3)), (MAXIMIZE, MAXIMIZE, MAXIMIZE))


# -- hypervolume ----------------------------------------------------------

def test_hypervolume_known_rectangle():
    # single point (1, 1) vs ref (0, 2) with (max, min): area = 1*1
    assert hypervolume_2d([[1.0, 1.0]], [0.0, 2.0]) == pytest.approx(1.0)
    # add a dominated point: no change
    assert hypervolume_2d([[1.0, 1.0], [0.5, 1.5]], [0.0, 2.0]) == pytest.approx(1.0)


def test_hypervolume_excludes_points_outside_reference():
    hv, warn = hypervolume_2d_with_warnings([[1.0, 1.0], [-1.0, 1.0]], [0.0, 2.0])
    assert hv == pytest.approx(1.0)
    assert warn == 1


def test_hypervolume_rejects_higher_dimensions():
    with pytest.raises(UnsupportedDimensionError):
        hypervolume_2d(np.ones((3, 3)), np.zeros(3))


def test_hypervolume_matches_monte_carlo(rng):
    for case in range(30):
        r = rng.split(case)
        pts = np.stack([r.uniform(0, 1, (30,)), r.uniform(1, 10, (30,))], axis=1)
        ref = auto_reference(pts)
        hv = hypervolume_2d(pts, ref)
        # MC oracle: sample the bounding box from ref to the ideal corner
        lo = np.array([ref[0], pts[:, 1].min()])
        hi = np.array([pts[:, 0].max(), ref[1]])
        area = (hi[0] - lo[0]) * (hi[1] - lo[1])
        n_mc = 200_000
        g = r.split("mc").gen
        xs = g.uniform(lo[0], hi[0], n_mc)
        ys = g.uniform(lo[1], hi[1], n_mc)
        dominated = np.zeros(n_mc, dtype=bool)
        for p1, p2 in pareto_front(pts).points:
            dominated |= (xs <= p1) & (ys >= p2)
        p_hat = dominated.mean()
        se = float(np.sqrt(p_hat * (1 - p_hat) / n_mc)) * area
        assert abs(hv - p_hat * area) <= 3.0 * se + 1e-9


def test_hvi_properties(rng):
    base = np.array([[0.4, 4.0], [0.6, 6.0]])
    ref = np.array([0.0, 10.0])
    # dominated addition gains nothing
    assert hvi(base, [[0.3, 5.0]], ref) == 0.0
    # a strictly better point gains area
    assert hvi(base, [[0.8, 2.0]], ref) > 0.0
    # hvi is never negative, and a precomputed baseline volume changes nothing
    hv_base = hypervolume_2d(base, ref)
    for _ in range(20):
        opt = rng.normal((3, 2))
        assert hvi(base, opt, ref) >= 0.0
        assert hvi(base, opt, ref, hv_base=hv_base) == hvi(base, opt, ref)


# -- reference points -----------------------------------------------------

def test_auto_reference_margin_math():
    pts = np.array([[0.2, 2.0], [0.8, 6.0]])
    ref = auto_reference(pts, margin=0.1)
    assert ref[0] == pytest.approx(0.2 - 0.1 * 0.6)   # below worst p1 (maximized)
    assert ref[1] == pytest.approx(6.0 + 0.1 * 4.0)   # above worst p2 (minimized)


def test_auto_reference_degenerate_range():
    with pytest.raises(DegenerateRangeError):
        auto_reference(np.array([[0.5, 2.0], [0.5, 6.0]]))
    with pytest.raises(ContractViolation):
        auto_reference(np.array([[0.5, 2.0]]), margin=-0.1)


# -- bootstrap ------------------------------------------------------------

def row_means(xs):
    """Batched metric: the mean of each resample row of ``xs``."""
    xs = np.asarray(xs, dtype=np.float64)
    return lambda idx: xs[idx].mean(axis=1)


def test_bootstrap_ci_constant_samples():
    lo, hi = bootstrap_ci(row_means([2.0] * 10), 10, 200, 0.9, Rng(0))
    assert lo == hi == 2.0


def test_bootstrap_ci_deterministic_and_ordered(rng):
    xs = rng.normal(40)
    a = bootstrap_ci(row_means(xs), len(xs), 500, 0.95, Rng(5))
    b = bootstrap_ci(row_means(xs), len(xs), 500, 0.95, Rng(5))
    assert a == b
    assert a[0] <= np.mean(xs) <= a[1]
    with pytest.raises(ContractViolation):
        bootstrap_ci(row_means([]), 0, 100, 0.9, Rng(0))
    with pytest.raises(ContractViolation):
        bootstrap_ci(row_means(xs), len(xs), 0, 0.9, Rng(0))
    with pytest.raises(ContractViolation):
        bootstrap_ci(row_means(xs), len(xs), 100, 1.0, Rng(0))


# -- set metrics ----------------------------------------------------------

def test_set_metrics_hand_case():
    structures = [toyset.decode(t) for t in
                  [("A", "B"), ("A", "B"), ("C", "R"), ("D",)]]
    train = {toyset.decode(("D",)).canonical_key}
    m = set_metrics(structures, train)
    assert m["validity"] == 1.0
    assert m["uniqueness"] == 3 / 4
    assert m["novelty"] == 2 / 3   # D is known
    assert m["skeleton_diversity"] == 3 / 4
    empty = set_metrics([], train)
    assert empty["validity"] == 0.0


# -- distributional metrics ----------------------------------------------

def test_frechet_identity(rng):
    a = rng.normal((50, 4))
    assert frechet_distance(a, a.copy()) <= 1e-8


def test_frechet_1d_gaussian_mean_shift():
    # equal covariance, mean shift 1 => FD = 1 exactly
    a = Rng(3).normal((200, 1))
    assert frechet_distance(a, a + 1.0) == pytest.approx(1.0, abs=1e-6)


def test_frechet_contracts(rng):
    with pytest.raises(ContractViolation):
        frechet_distance(rng.normal((1, 3)), rng.normal((5, 3)))
    with pytest.raises(ContractViolation):
        frechet_distance(rng.normal((5, 3)), rng.normal((5, 4)))


def test_frechet_symmetric_nonnegative(rng):
    a, b = rng.normal((40, 3)), rng.normal((40, 3)) + 0.5
    assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), rel=1e-8)
    assert frechet_distance(a, b) >= 0.0


def test_histogram_kl_identity_and_positivity(rng):
    x = rng.normal(500)
    assert histogram_kl(x, x.copy()) <= 1e-6
    y = rng.normal(500) + 2.0
    assert histogram_kl(y, x) > 0.0


def test_descriptor_kl_self_and_names(rng):
    structures = [toyset.decode(tuple("AB" * int(rng.split(i).integers(1, 5))))
                  for i in range(30)]
    values = descriptor_values(structures, feature_matrix(structures))
    kl = descriptor_kl(values, values)
    assert set(kl) == set(DESCRIPTOR_NAMES) | {"average"}
    assert all(v <= 1e-6 for v in kl.values())
    with pytest.raises(ContractViolation):
        descriptor_kl({name: np.zeros(0) for name in DESCRIPTOR_NAMES}, values)


def test_descriptor_values_schema():
    s = toyset.decode(("A", "R", "i", "B"))
    vals = descriptor_values([s], feature_matrix([s]))
    assert set(vals) == set(DESCRIPTOR_NAMES)
    assert vals["length"][0] == 4.0
    assert vals["popcount"][0] == s.features.sum()
    assert vals["p1"][0] == pytest.approx(
        toyset.oracle_properties(toyset.decode(("A", "R", "i", "B"))).p1)


# -- embeddings -----------------------------------------------------------

def test_embedding_projection_deterministic():
    a = embedding_projection(1234)
    b = embedding_projection(1234)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, embedding_projection(99))


def test_structure_embeddings_shape():
    proj = embedding_projection(7)
    structures = [toyset.decode(("A", "B")), toyset.decode(("C",))]
    emb = structure_embeddings(feature_matrix(structures), proj)
    assert emb.shape == (2, proj.shape[1])


# -- report serialization -------------------------------------------------

def test_eval_report_json_round_trip():
    report = EvalReport(seed=3, hv=1.25, hvi=0.5, hvi_pct=40.0,
                        hv_ci=(1.1, 1.4), reference_point=(0.0, 10.0),
                        excluded_points=2, validity=1.0, uniqueness=0.9,
                        novelty=0.8, skeleton_diversity=0.7, frechet=2.5,
                        descriptor_kl={"length": 0.1, "average": 0.1},
                        surrogate_mse=[0.01, 0.02], surrogate_r2=[0.8, 0.9],
                        projection_seed=1234, config_echo={"gamma": 10.0})
    back = EvalReport.from_json(report.to_json())
    assert back == report
    # serialization is stable (byte-identical on re-serialize)
    assert back.to_json() == report.to_json()

