import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowopt import toyset
from flowopt.errors import (ContractViolation, DegenerateRangeError,
                            UnsupportedDimensionError)
from flowopt.moeval import (DESCRIPTOR_NAMES, REFERENCE_MARGIN, EvalReport, adds_hypervolume,
                            auto_reference, bootstrap_ci, descriptor_kl, descriptor_values,
                            embedding_projection, feature_matrix,
                            frechet_distance, gaussian_fit, histogram_kl, hypervolume_2d,
                            hypervolume_2d_with_warnings, pareto_front,
                            set_metrics, structure_embeddings)
from flowopt.rng import Rng


def brute_force_front(points):
    """O(n^2) dominance filter with duplicate removal; reference oracle."""
    pts = np.asarray(points, dtype=np.float64)
    t = pts * [1.0, -1.0]  # p1 maximized, p2 minimized
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


# -- pareto front ---------------------------------------------------------

def test_pareto_matches_brute_force_random_instances(rng):
    for case in range(300):
        r = rng.split(case)
        n = int(r.integers(1, 120))
        pts = r.normal((n, 2))
        if case % 3 == 0:  # force ties and duplicates
            pts = np.round(pts, 1)
        front = pareto_front(pts)
        assert {tuple(p) for p in front.points} == brute_force_front(pts)
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
        pareto_front(rng.normal((40, 3)))


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


def test_hypervolume_never_drops_when_points_are_added(rng):
    """The budgeted trace's HVI is the volume gained by adding points to the baseline."""
    base = np.array([[0.4, 4.0], [0.6, 6.0]])
    ref = np.array([0.0, 10.0])
    hv_base = hypervolume_2d(base, ref)
    # a dominated addition gains nothing
    assert hypervolume_2d(np.vstack([base, [[0.3, 5.0]]]), ref) == hv_base
    # a strictly better point gains area
    assert hypervolume_2d(np.vstack([base, [[0.8, 2.0]]]), ref) > hv_base
    for _ in range(20):
        assert hypervolume_2d(np.vstack([base, rng.normal((3, 2))]), ref) >= hv_base


def test_adds_hypervolume_hand_cases():
    pool = np.array([[0.4, 4.0], [0.6, 6.0]])
    ref = np.array([0.0, 10.0])
    assert not adds_hypervolume(pool, [0.4, 4.0], ref)    # a duplicate
    assert not adds_hypervolume(pool, [0.4, 5.0], ref)    # tied in p1, worse in p2
    assert not adds_hypervolume(pool, [0.3, 4.0], ref)    # tied in p2, worse in p1
    assert not adds_hypervolume(pool, [0.9, 10.0], ref)   # on the reference's edge
    assert not adds_hypervolume(pool, [-0.1, 1.0], ref)   # outside the box
    assert not adds_hypervolume(pool, [0.5, np.nan], ref)
    assert adds_hypervolume(pool, [0.5, 4.0], ref)        # tied in p2, better in p1
    assert adds_hypervolume(pool, [0.1, 1.0], ref)        # a new front point
    assert adds_hypervolume(np.zeros((0, 2)), [0.1, 1.0], ref)


# Coordinates from a coarse grid give duplicates, ties in one coordinate and
# points on or outside the reference's edges; the floats give everything else.
GRID_P1 = (-0.2, 0.0, 0.2, 0.5, 0.8, 1.0)
GRID_P2 = (1.0, 2.0, 5.0, 8.0, 10.0, 12.0)
grid_points = st.tuples(st.sampled_from(GRID_P1) | st.floats(-0.2, 1.0),
                        st.sampled_from(GRID_P2) | st.floats(1.0, 12.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(grid_points, min_size=1, max_size=40), st.integers(1, 5),
       st.sampled_from(GRID_P1), st.sampled_from(GRID_P2))
def test_carried_hypervolume_equals_from_scratch(points, n_init, r1, r2):
    """A pool's hypervolume, recomputed only when ``adds_hypervolume`` says the
    new point may move it, equals the from-scratch value ``==`` at every step."""
    points, ref = np.array(points), np.array([r1, r2])
    hv = hypervolume_2d(points[:n_init], ref)
    for n in range(n_init, len(points)):
        if adds_hypervolume(points[:n], points[n], ref):
            hv = hypervolume_2d(points[:n + 1], ref)
        assert hv == hypervolume_2d(points[:n + 1], ref), n


# -- reference points -----------------------------------------------------

def test_auto_reference_margin_math():
    pts = np.array([[0.2, 2.0], [0.8, 6.0]])
    ref = auto_reference(pts)
    assert REFERENCE_MARGIN == 0.1
    assert ref[0] == pytest.approx(0.2 - 0.1 * 0.6)   # below worst p1 (maximized)
    assert ref[1] == pytest.approx(6.0 + 0.1 * 4.0)   # above worst p2 (minimized)


def test_auto_reference_degenerate_range():
    with pytest.raises(DegenerateRangeError):
        auto_reference(np.array([[0.5, 2.0], [0.5, 6.0]]))
    with pytest.raises(ContractViolation):
        auto_reference(np.zeros((0, 2)))


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


def _frechet_of_arrays(a, b):
    """The distance written out on the raw embedding sets, fits not kept."""
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    sa = np.atleast_2d(np.cov(a, rowvar=False))
    sb = np.atleast_2d(np.cov(b, rowvar=False))
    wa, va = np.linalg.eigh(sa)
    sa_half = (va * np.sqrt(np.clip(wa, 0.0, None))) @ va.T
    m = sa_half @ sb @ sa_half
    tr_sqrt = 2.0 * np.sqrt(np.clip(np.linalg.eigh(0.5 * (m + m.T))[0], 0.0, None)).sum()
    diff = mu_a - mu_b
    return max(0.0, float(diff @ diff + np.trace(sa) + np.trace(sb) - tr_sqrt))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(2, 30), st.integers(1, 6), st.integers(0, 2 ** 16),
       st.sampled_from([0.0, 0.5, 3.0]))
def test_frechet_from_fit_equals_from_arrays(n_a, n_b, d, seed, shift):
    r = Rng(seed)
    a = r.split("a").normal((n_a, d))
    b = 0.5 * r.split("b").normal((n_b, d)) + shift
    expected = _frechet_of_arrays(a, b)
    assert frechet_distance(gaussian_fit(a), gaussian_fit(b)) == expected
    assert frechet_distance(a, gaussian_fit(b)) == expected
    assert frechet_distance(a, b) == expected


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

