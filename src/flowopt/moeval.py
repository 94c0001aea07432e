"""Multi-objective and distributional evaluation metrics.

All metrics here are pure functions of their inputs plus explicit seeds (the
random projection matrix and the bootstrap resampler). Hypervolume is exact
and restricted to 2 objectives; higher dimensions are deliberately
unsupported rather than approximated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import toyset
from .errors import (ContractViolation, DegenerateRangeError, NumericFailure,
                     UnsupportedDimensionError)
from .rng import Rng

EMBED_DIM = 32
REFERENCE_MARGIN = 0.1  # auto_reference pushes the worst point this share of the range out
KL_BINS = 50
CI_LEVEL = 0.95  # of the hypervolume bootstrap interval
PROJECTION_SEED = 1234  # of the Fréchet embedding projection
DESCRIPTOR_NAMES = ("length", "branch_depth", "side_groups", "skeleton_length",
                    "popcount", "p1", "p2")


def _to_max(points) -> np.ndarray:
    """(p1, p2) points with both properties maximized; applied twice, the identity."""
    return np.asarray(points, dtype=np.float64) * toyset.PROPERTY_SIGNS


@dataclass
class ParetoFront:
    """Non-dominated points with back-references into the source array."""

    points: np.ndarray       # (m, 2), as given
    indices: np.ndarray      # (m,) indices into the input point set


def _sweep_2d(t: np.ndarray, present: np.ndarray) -> tuple:
    """Front flags of each row of ``present`` (R, n) over maximized points ``t`` (n, 2).

    Points are sorted once, x descending and then y descending (stable). In
    that order a point is on its row's front iff it is present and its y
    beats the running max of the present points before it; the first of equal
    points wins. The running max skips NaN, as the comparison does. Returns
    the sort ``order``, the flags (R, n) and that running max (R, n; -inf
    before the first present point), both in sorted order.
    """
    order = np.lexsort((-t[:, 1], -t[:, 0]))
    y = t[order, 1]
    present = present[:, order]
    best = np.fmax.accumulate(np.where(present, y, -np.inf), axis=1)
    before = np.concatenate([np.full((len(present), 1), -np.inf), best[:, :-1]], axis=1)
    return order, present & (y > before), before


def pareto_front(points) -> ParetoFront:
    """Exact non-dominated subset of (p1, p2) points via a lexicographic sweep.

    Equal points are deduplicated; output order is canonical (p1 best-first,
    stable on ties).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(pts) == 0:
        raise ContractViolation("pareto_front requires at least one point")
    if pts.shape[1] != 2:
        raise UnsupportedDimensionError("pareto_front is implemented for exactly 2 objectives")
    order, front, _ = _sweep_2d(_to_max(pts), np.ones((1, len(pts)), dtype=bool))
    idx = order[front[0]]
    return ParetoFront(points=pts[idx], indices=idx)


def hypervolume_2d(points, ref):
    """Exact dominated area for 2 objectives, bounded by ``ref``.

    Accepts any point set (the non-dominated subset is taken internally).
    Points that do not dominate the reference are excluded; the number
    excluded is returned alongside in ``hypervolume_2d_with_warnings``.
    """
    hv, _ = hypervolume_2d_with_warnings(points, ref)
    return hv


def hypervolume_2d_with_warnings(points, ref):
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    (hv,) = hypervolume_2d_rows(pts, np.ones((1, len(pts)), dtype=bool), ref)
    inside = np.all(_to_max(pts) > _to_max(ref), axis=1)
    return float(hv), int(len(pts) - inside.sum())


def hypervolume_2d_rows(points, present, ref) -> np.ndarray:
    """Exact hypervolume of each row's subset: row r holds the points where ``present[r]``.

    ``points`` is (n, 2) and ``present`` an (R, n) mask. Each front point
    adds ``(x - r0) * (y - prev)``, prev being the y of the front point
    before it (r1 for the first). The terms are summed left to right along
    the row with an exact zero for every other point, so each value is
    bit-identical to the sequential sum over that row's front alone.

    With more than one row, the points no row's front can hold are dropped
    first: those outside the reference box, and those weakly dominated by, or
    equal to and listed after, a point every row holds. Such a point sorts
    after that point, so it never raises a row's running max of y, and its
    term is an exact zero; the sum has the same bits without it (Emmerich,
    Giannakoglou & Naujoks, 2006). A single row's front is found by the one
    sweep either way, so it skips the pruning.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[1] != 2:
        raise UnsupportedDimensionError("hypervolume is implemented for exactly 2 objectives")
    t, r = _to_max(pts), _to_max(ref)
    present = np.atleast_2d(np.asarray(present, dtype=bool)) & np.all(t > r, axis=1)
    if len(present) > 1:
        order, _, before = _sweep_2d(t, present.all(axis=0, keepdims=True))
        cols = order[present.any(axis=0)[order] & (t[order, 1] > before[0])]
        t, present = t[cols], present[:, cols]
    if len(t) == 0:
        return np.zeros(len(present))
    order, front, before = _sweep_2d(t, present)
    x, y = t[order, 0], t[order, 1]
    terms = np.where(front, (x - r[0]) * (y - np.maximum(before, r[1])), 0.0)
    return np.add.accumulate(terms, axis=1)[:, -1]


def adds_hypervolume(points, point, ref) -> bool:
    """Whether appending ``point`` to the (n, 2) ``points`` can move the bits
    of their hypervolume.

    It cannot when ``point`` lies outside the reference box, or when one of
    ``points`` weakly dominates or equals it: its hypervolume improvement is
    then zero (Emmerich, Giannakoglou & Naujoks, 2006). It is off the front and
    sorts after its dominator, so ``hypervolume_2d_rows`` sums an exact zero
    for it and every other term keeps its value.
    """
    p = _to_max(point)
    return bool(np.all(p > _to_max(ref)) and not np.all(_to_max(points) >= p, axis=1).any())


def auto_reference(points) -> np.ndarray:
    """Worst observed value per property pushed ``REFERENCE_MARGIN``*range further."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(pts) == 0:
        raise ContractViolation("auto_reference requires points")
    t = _to_max(pts)
    worst = t.min(axis=0)
    span = t.max(axis=0) - worst
    flat = np.flatnonzero(span == 0)
    if len(flat):
        raise DegenerateRangeError(
            f"objective {flat[0]} has zero range; supply an explicit reference")
    return _to_max(worst - REFERENCE_MARGIN * span)


def bootstrap_ci(metric_fn, n: int, resamples: int, level: float, rng: Rng) -> tuple:
    """Percentile bootstrap interval of a statistic over ``n`` samples.

    ``metric_fn`` maps an (R, n) matrix of resample indices, one resample per
    row, to the R statistics. The matrix is one draw of the ``bootstrap``
    stream, the same indices as R successive ``integers(0, n, n)`` draws.
    """
    if n == 0:
        raise ContractViolation("bootstrap over an empty sample")
    if resamples < 1 or not (0.0 < level < 1.0):
        raise ContractViolation("resamples >= 1 and level in (0, 1) required")
    idx = rng.split("bootstrap").gen.integers(0, n, (resamples, n))
    stats = np.asarray(metric_fn(idx), dtype=np.float64)
    alpha = (1.0 - level) / 2.0
    return (float(np.quantile(stats, alpha)), float(np.quantile(stats, 1.0 - alpha)))


def set_metrics(generated, train_keys) -> dict:
    """Validity / uniqueness / novelty / skeleton diversity fractions.

    ``generated`` is a list of decoded Structures; validity is 1.0 by
    grammar construction whenever the list is nonempty.
    """
    n = len(generated)
    if n == 0:
        return {"validity": 0.0, "uniqueness": 0.0, "novelty": 0.0, "skeleton_diversity": 0.0}
    keys = [s.canonical_key for s in generated]
    skels = [s.skeleton_key for s in generated]
    unique = set(keys)
    train_keys = set(train_keys)
    novel = {k for k in unique if k not in train_keys}
    return {
        "validity": 1.0,
        "uniqueness": len(unique) / n,
        "novelty": len(novel) / len(unique),
        "skeleton_diversity": len(set(skels)) / n,
    }


@dataclass(frozen=True)
class GaussianFit:
    """Mean (d,) and sample covariance (d, d) of an embedding set."""

    mean: np.ndarray
    cov: np.ndarray


def gaussian_fit(embeddings) -> GaussianFit:
    """The Gaussian fit ``frechet_distance`` compares; needs at least 2 points."""
    x = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if x.shape[0] < 2:
        raise ContractViolation("each embedding set needs at least 2 points")
    return GaussianFit(mean=x.mean(axis=0), cov=np.atleast_2d(np.cov(x, rowvar=False)))


def frechet_distance(a, b) -> float:
    """Gaussian-fit Fréchet (FID-style) distance between embedding sets.

    Each argument is an (n, d) embedding set or its ``gaussian_fit``.
    ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}); the matrix square
    root uses a symmetric eigendecomposition of S_a^{1/2} S_b S_a^{1/2}.
    Eigenvalues below -1e-8 raise; small negatives are clamped to zero.
    """
    fa, fb = (x if isinstance(x, GaussianFit) else gaussian_fit(x) for x in (a, b))
    if fa.mean.shape != fb.mean.shape:
        raise ContractViolation("embedding dimensions differ")
    mu_a, mu_b, sa, sb = fa.mean, fb.mean, fa.cov, fb.cov

    def _clamp(vals, what):
        if np.any(vals < -1e-8):
            raise NumericFailure(f"negative eigenvalue in {what}: {vals.min()}")
        return np.clip(vals, 0.0, None)

    wa, va = np.linalg.eigh(sa)
    wa = _clamp(wa, "covariance A")
    sa_half = (va * np.sqrt(wa)) @ va.T
    m = sa_half @ sb @ sa_half
    wm = _clamp(np.linalg.eigh(0.5 * (m + m.T))[0], "cross term")
    tr_sqrt = 2.0 * np.sqrt(wm).sum()
    diff = mu_a - mu_b
    fd = float(diff @ diff + np.trace(sa) + np.trace(sb) - tr_sqrt)
    return max(0.0, fd)


def embedding_projection(seed: int) -> np.ndarray:
    """Seeded random Gaussian (FEATURE_BITS, EMBED_DIM) projection for fingerprint embeddings."""
    return (Rng(seed).split("projection").normal((toyset.FEATURE_BITS, EMBED_DIM))
            / np.sqrt(EMBED_DIM))


def feature_matrix(structures) -> np.ndarray:
    """The (n, FEATURE_BITS) feature bitsets of ``structures``, one row each."""
    return np.stack([s.features for s in structures])


def structure_embeddings(features: np.ndarray, projection: np.ndarray) -> np.ndarray:
    """Project feature bitsets (n, FEATURE_BITS) to (n, EMBED_DIM) embeddings."""
    return features.astype(np.float64) @ projection


def descriptor_values(structures, features: np.ndarray) -> dict:
    """Seven toy descriptors per structure, mirroring the report schema.

    ``features`` holds the structures' bitsets (``feature_matrix``); their
    popcounts are one descriptor. No structure is parsed again: every value
    comes from the stats its decode counted, p1 and p2 through the oracle's
    own formula.
    """
    cols = {name: [] for name in DESCRIPTOR_NAMES}
    for s in structures:
        st = s.stats
        props = toyset.properties_from_stats(st)
        cols["length"].append(st.length)
        cols["branch_depth"].append(st.branch_depth)
        cols["side_groups"].append(st.side_groups)
        cols["skeleton_length"].append(st.skeleton_length)
        cols["p1"].append(props.p1)
        cols["p2"].append(props.p2)
    cols["popcount"] = features.sum(axis=1)
    return {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()}


def histogram_kl(gen_vals: np.ndarray, ref_vals: np.ndarray) -> float:
    """KL(gen || ref) over ``KL_BINS`` shared bins from the reference range.

    Generated values outside the reference range are clamped into the edge
    bins. Both histograms get additive smoothing of 1e-10.
    """
    eps = 1e-10
    lo, hi = float(ref_vals.min()), float(ref_vals.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, KL_BINS + 1)
    g = np.clip(gen_vals, lo, hi)
    r = np.clip(ref_vals, lo, hi)
    p = np.histogram(g, bins=edges)[0] / len(g) + eps
    q = np.histogram(r, bins=edges)[0] / len(r) + eps
    return float(np.sum(p * np.log(p / q)))


def descriptor_kl(generated: dict, reference: dict) -> dict:
    """Per-descriptor KL divergences plus their average.

    Both arguments are ``descriptor_values`` dicts.
    """
    if len(generated["length"]) == 0 or len(reference["length"]) == 0:
        raise ContractViolation("descriptor_kl requires nonempty sets")
    out = {name: histogram_kl(generated[name], reference[name])
           for name in DESCRIPTOR_NAMES}
    out["average"] = float(np.mean([out[n] for n in DESCRIPTOR_NAMES]))
    return out


@dataclass
class EvalReport:
    """Single-document evaluation summary; serialized as versioned JSON."""

    schema_version: int = 1
    seed: int = 0
    hv: float = 0.0
    hvi: float = 0.0
    hvi_pct: float = 0.0
    hv_ci: tuple = (0.0, 0.0)
    reference_point: tuple = (0.0, 0.0)
    excluded_points: int = 0
    validity: float = 0.0
    uniqueness: float = 0.0
    novelty: float = 0.0
    skeleton_diversity: float = 0.0
    frechet: float = 0.0
    descriptor_kl: dict = field(default_factory=dict)
    surrogate_mse: list = field(default_factory=list)
    surrogate_r2: list = field(default_factory=list)
    projection_seed: int = 0
    config_echo: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        doc = json.loads(text)
        doc["hv_ci"] = tuple(doc["hv_ci"])
        doc["reference_point"] = tuple(doc["reference_point"])
        return cls(**doc)

