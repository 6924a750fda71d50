"""Statistical atlases of root-tree collections.

The collection is equalized in lateral count, registered to an evolving mean
found by gradient descent, and analyzed in the (flat) tangent space at the
mean.  Tangent coordinates carry the metric weights and quadrature weights,
so ordinary Euclidean inner products reproduce the tree dissimilarity and
PCA is consistent with the metric.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .metric import DEFAULT_OPTIONS, PairOptions, parallel_map, prepare_trees
from .registration import apply_registration, register
from .srvf import (
    DEFAULT_WEIGHTS,
    SrvfTree,
    Weights,
    augment_srvfts,
    srvft_to_tree,
    trapezoid_weights,
)
from .tree_model import (RootTree, float_array, json_fields, json_int, json_text, read_json,
                         write_text)


def _dim(Q: SrvfTree) -> int:
    """The tangent-space dimension at Q: the block sizes are Q's array shapes."""
    return Q.q0.size + Q.q_lat.size + Q.s.size


def _layout(Q: SrvfTree) -> dict:
    """The block sizes at Q as an atlas file records them."""
    n_lateral = Q.q_lat.shape[1] if Q.n_laterals else 0
    return {"n_main": len(Q.q0), "n_lateral": n_lateral, "n_laterals": Q.n_laterals}


def _metric_scale(Q: SrvfTree, w: Weights) -> np.ndarray:
    """Per-coordinate scale making the Euclidean norm match the metric."""
    n = Q.n_laterals
    if not (w.lambda_m > 0 and (n == 0 or (w.lambda_s > 0 and w.lambda_p > 0))):
        raise ValueError("tangent-space operations need strictly positive weights")
    main = np.repeat(np.sqrt(w.lambda_m * trapezoid_weights(len(Q.q0))), 2)
    lat = np.repeat(np.sqrt(w.lambda_s * trapezoid_weights(Q.q_lat.shape[1])), 2)
    return np.concatenate([main, np.tile(lat, n), np.full(n, np.sqrt(w.lambda_p))])


def flatten_srvft(Q: SrvfTree) -> np.ndarray:
    return np.concatenate([Q.q0.ravel(), Q.q_lat.ravel(), Q.s])


def unflatten_srvft(vec: np.ndarray, like: SrvfTree) -> SrvfTree:
    """Inverse of ``flatten_srvft``, with the array shapes and the anchor of ``like``."""
    main_end = like.q0.size
    lat_end = main_end + like.q_lat.size
    return SrvfTree(vec[:main_end].reshape(like.q0.shape),
                    vec[main_end:lat_end].reshape(like.q_lat.shape), vec[lat_end:], like.anchor)


def log_map(mu: SrvfTree, x: SrvfTree, w: Weights) -> np.ndarray:
    """Tangent vector at mu pointing to x (x must be registered to mu).

    Coordinates are metric-scaled, so the squared Euclidean norm equals the
    dissimilarity between mu and x.
    """
    if (x.q0.shape, x.q_lat.shape) != (mu.q0.shape, mu.q_lat.shape):
        raise ValueError("layout mismatch between mean and sample")
    return (flatten_srvft(x) - flatten_srvft(mu)) * _metric_scale(mu, w)


def exp_map(mu: SrvfTree, v: np.ndarray, w: Weights) -> SrvfTree:
    """Inverse of ``log_map``; attachment positions are clamped to [0, 1]."""
    dim = _dim(mu)
    if len(v) != dim:
        raise ValueError(f"tangent dimension {len(v)} != layout dimension {dim}")
    vec = flatten_srvft(mu) + np.asarray(v, dtype=float) / _metric_scale(mu, w)
    if mu.n_laterals:
        s_start = dim - mu.n_laterals
        s = vec[s_start:]
        clamped = np.clip(s, 0.0, 1.0)
        if np.any(clamped != s):
            warnings.warn("attachment positions clamped to [0, 1]")
            vec = vec.copy()
            vec[s_start:] = clamped
    return unflatten_srvft(vec, mu)


# ---------------------------------------------------------------------------
# Karcher mean


@dataclass(frozen=True)
class KarcherResult:
    """The mean, the samples registered to it, the objective per accepted step,
    and why the descent stopped: ``gradient`` (the tangent mean fell below
    ``tol``), ``halving-exhausted`` (no halved step lowered the objective) or
    ``iteration-limit``; ``converged`` is false only for the last."""

    mean: SrvfTree
    registered: tuple[SrvfTree, ...]
    objective: tuple[float, ...]
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason != "iteration-limit"


def prepare_collection(
    trees: Sequence[RootTree], opts: PairOptions = DEFAULT_OPTIONS
) -> list[SrvfTree]:
    """Prepare every tree and augment the collection to equal lateral counts."""
    return augment_srvfts(prepare_trees(trees, opts))


def karcher_mean(
    trees: Sequence[RootTree],
    w: Weights = DEFAULT_WEIGHTS,
    step: float = 0.5,
    max_iter: int = 30,
    tol: float = 1e-6,
    opts: PairOptions = DEFAULT_OPTIONS,
    n_jobs: int = 1,
) -> KarcherResult:
    """Gradient-descent mean of a collection under the registered metric.

    Starts at the medoid (the sample with the smallest summed squared
    registered distance to all others), then repeatedly registers every
    sample to the current mean and moves the mean toward the tangent
    average.  A step that would increase the objective, or move an
    attachment position out of [0, 1], is halved until it does not, so the
    objective sequence is nonincreasing; when eight halvings do not, the
    descent stops with ``halving-exhausted``.  ``step`` must be finite and
    above 0, and ``max_iter`` at least 0.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and above 0, got {step!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter!r}")
    if not trees:
        raise ValueError("empty collection")
    samples = prepare_collection(trees, opts)
    m = len(samples)
    if m == 1:
        return KarcherResult(samples[0], (samples[0],), (0.0,), "gradient")

    def registered_to(mu: SrvfTree) -> tuple[list[SrvfTree], float]:
        """The samples registered to mu, and the objective: the sum of their
        registration costs, in sample order."""
        regs = parallel_map(register, [(mu, Q, w, opts.max_iter) for Q in samples], n_jobs)
        registered = [apply_registration(Q, reg) for Q, reg in zip(samples, regs)]
        return registered, float(sum(reg.cost for reg in regs))

    # medoid initialization
    upper = np.triu_indices(m, 1)
    pairs = [(samples[i], samples[j], w, opts.max_iter) for i, j in zip(*upper)]
    pair_cost = np.zeros((m, m))
    pair_cost[upper] = [reg.cost for reg in parallel_map(register, pairs, n_jobs)]
    medoid = int(np.argmin((pair_cost + pair_cost.T).sum(axis=1)))
    anchor = np.mean([Q.anchor for Q in samples], axis=0)
    mu = replace(samples[medoid], anchor=anchor)

    scale = _metric_scale(mu, w)
    registered, obj = registered_to(mu)
    objective = [obj]
    stop_reason = "iteration-limit"
    for _ in range(max_iter):
        flat_mu = flatten_srvft(mu)
        vbar = np.mean([flatten_srvft(Q) for Q in registered], axis=0) - flat_mu
        if float(np.linalg.norm(vbar * scale)) < tol:
            stop_reason = "gradient"
            break
        step_k = step
        for _ in range(8):
            try:
                candidate = unflatten_srvft(flat_mu + step_k * vbar, mu)
            except ValueError:  # a position left [0, 1]: not a tree
                cand_obj = math.inf
            else:
                cand_registered, cand_obj = registered_to(candidate)
            if cand_obj <= objective[-1] + 1e-15:
                mu = candidate
                registered = cand_registered
                objective.append(cand_obj)
                break
            step_k *= 0.5
        else:
            stop_reason = "halving-exhausted"
            break
    return KarcherResult(mu, tuple(registered), tuple(objective), stop_reason)


# ---------------------------------------------------------------------------
# tangent PCA


@dataclass(frozen=True)
class Atlas:
    """Mean, principal modes and training coefficients of a collection."""

    mean: SrvfTree
    eigenvalues: np.ndarray  # descending, nonnegative
    modes: np.ndarray  # (n_modes, dim), orthonormal rows
    retained: int
    training_coeffs: np.ndarray  # (n_samples, retained)
    weights: Weights
    ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        ev = np.array(self.eigenvalues, dtype=float)
        if ev.ndim != 1:
            raise ValueError("eigenvalues must be a 1-d array")
        ev.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)
        md = np.array(self.modes, dtype=float).reshape(len(ev), _dim(self.mean))
        md.flags.writeable = False
        object.__setattr__(self, "modes", md)
        tc = np.array(self.training_coeffs, dtype=float)
        tc = tc.reshape(tc.shape[0] if tc.size else 0, self.retained)
        tc.flags.writeable = False
        object.__setattr__(self, "training_coeffs", tc)
        if self.retained > len(ev):
            raise ValueError("retained exceeds available modes")

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def variance_ratio(self) -> np.ndarray:
        return _variance_ratio(self.eigenvalues)

    def tangent_from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        k = len(coeffs)
        scaled = coeffs * np.sqrt(self.eigenvalues[:k])
        return scaled @ self.modes[:k]

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.to_dict(),
            "eigenvalues": self.eigenvalues.tolist(),
            "modes": self.modes.tolist(),
            "retained": int(self.retained),
            "training_coeffs": self.training_coeffs.tolist(),
            "weights": list(self.weights.as_tuple()),
            "layout": _layout(self.mean),
            "ids": list(self.ids),
        }

    @classmethod
    def from_dict(cls, data) -> "Atlas":
        """Inverse of ``to_dict``; a missing field, a wrong JSON type or a
        layout that disagrees with the mean is a ValueError."""
        mean, evals, modes, retained, coeffs, weights, layout = json_fields(
            data, "atlas", "mean", "eigenvalues", "modes", "retained", "training_coeffs",
            "weights", "layout",
        )
        weights = float_array(weights, "atlas weights")
        if weights.shape != (3,):
            raise ValueError(f"atlas weights must be 3 numbers, got shape {weights.shape}")
        ids = data.get("ids", [])
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
            raise ValueError("atlas ids must be an array of strings")
        mean = SrvfTree.from_dict(mean, "atlas mean")
        expected = _layout(mean)
        sizes = json_fields(layout, "atlas layout", *expected)
        if [json_int(v, "atlas layout size") for v in sizes] != list(expected.values()):
            raise ValueError(f"atlas layout {layout} disagrees with its mean ({expected})")
        return cls(
            mean=mean,
            eigenvalues=float_array(evals, "atlas eigenvalues"),
            modes=float_array(modes, "atlas modes"),
            retained=json_int(retained, "atlas retained"),
            training_coeffs=float_array(coeffs, "atlas training_coeffs"),
            weights=Weights(*weights.tolist()),
            ids=tuple(ids),
        )

    def save(self, path: str | Path) -> None:
        write_text(path, json_text(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "Atlas":
        return cls.from_dict(read_json(path))


VARIANCE_TARGET = 0.99
# least standard-normal mass of a sampling range: rejection sampling takes
# ~1/mass draws per coefficient, about 1 s at this floor (~1 us a draw)
MIN_RANGE_MASS = 1e-6


def _variance_ratio(evals: np.ndarray) -> np.ndarray:
    """Cumulative share of the total variance held by the leading eigenvalues."""
    total = evals.sum()
    if total <= 0:
        return np.zeros_like(evals)
    return np.cumsum(evals) / total


def _gram_modes(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the sample covariance ``V.T @ V / (m - 1)`` from one thin
    SVD of ``V``.

    ``V`` holds one tangent vector per row.  Returns (eigenvalues desc,
    modes as orthonormal rows) restricted to the positive spectrum.  It never
    forms the Gram matrix ``V @ V.T``, whose eigenvalues would carry the
    square of V's condition number.  The name stays because
    ``bench/tracing.py`` times it and acceptance criterion 07 calls it.
    """
    _, sv, modes = np.linalg.svd(V, full_matrices=False)
    evals = sv**2 / (len(V) - 1)
    # relative rank cutoff plus an absolute floor: registration noise on
    # identical trees leaves eigenvalue dust around machine precision squared
    keep = evals > max(evals.max(initial=0.0) * 1e-12, 1e-20)
    return evals[keep], modes[keep]


def fit_atlas(
    trees: Sequence[RootTree],
    w: Weights = DEFAULT_WEIGHTS,
    step: float = 0.5,
    max_iter: int = 30,
    tol: float = 1e-6,
    opts: PairOptions = DEFAULT_OPTIONS,
    n_jobs: int = 1,
) -> Atlas:
    """Karcher mean plus tangent covariance eigenmodes of a collection.

    Modes come from one thin SVD of the tangent vectors (``_gram_modes``),
    the retained count is the smallest one whose cumulative variance ratio
    reaches ``VARIANCE_TARGET``, and per-sample coefficients are stored for
    regression.
    """
    if len(trees) < 2:
        raise ValueError("need at least 2 trees to fit an atlas")
    result = karcher_mean(trees, w, step=step, max_iter=max_iter, tol=tol, opts=opts, n_jobs=n_jobs)
    mu = result.mean
    V = np.array([log_map(mu, Q, w) for Q in result.registered])
    evals, modes = _gram_modes(V)
    retained = min(int(np.searchsorted(_variance_ratio(evals), VARIANCE_TARGET)) + 1, len(evals))
    return Atlas(
        mean=mu,
        eigenvalues=evals,
        modes=modes,
        retained=retained,
        training_coeffs=(V @ modes[:retained].T) / np.sqrt(evals[:retained]),
        weights=w,
        ids=tuple(t.id for t in trees),
    )


def mode_path(atlas: Atlas, mode: int, alpha: float, tree_id: str | None = None) -> RootTree:
    """Tree at ``alpha`` standard deviations along one principal mode."""
    if not (0 <= mode < atlas.retained):
        raise IndexError(f"mode {mode} out of range (retained={atlas.retained})")
    v = alpha * np.sqrt(atlas.eigenvalues[mode]) * atlas.modes[mode]
    Q = exp_map(atlas.mean, v, atlas.weights)
    return srvft_to_tree(Q, tree_id=tree_id or f"mode{mode}_alpha{alpha:+.2f}")


def sample_random(
    atlas: Atlas,
    rng: np.random.Generator | int,
    coeff_range: tuple[float, float] = (-1.0, 1.0),
    tree_id: str = "sample",
) -> RootTree:
    """Draw one tree from the Gaussian mode model.

    Coefficients are standard normal draws, redrawn until they fall inside
    ``coeff_range`` so implausibly remote trees are avoided.  Deterministic
    for a seeded generator.  A range with lo >= hi, or with a standard-normal
    mass below ``MIN_RANGE_MASS`` (which would take ~1/mass redraws), is a
    ValueError.
    """
    if atlas.retained < 1:
        raise ValueError("atlas has no retained modes to sample from")
    lo, hi = coeff_range
    if not lo < hi:
        raise ValueError(f"coefficient range needs lo < hi, got ({lo}, {hi})")
    # the standard normal CDF is 0.5 * erfc(-x / sqrt(2))
    mass = 0.5 * (math.erfc(-hi / math.sqrt(2)) - math.erfc(-lo / math.sqrt(2)))
    if mass < MIN_RANGE_MASS:
        raise ValueError(
            f"coefficient range ({lo}, {hi}) holds {mass:.3g} of the standard "
            f"normal mass, below {MIN_RANGE_MASS:g}"
        )
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    coeffs = np.empty(atlas.retained)
    for i in range(atlas.retained):
        b = rng.standard_normal()
        while not (lo <= b <= hi):
            b = rng.standard_normal()
        coeffs[i] = b
    Q = exp_map(atlas.mean, atlas.tangent_from_coeffs(coeffs), atlas.weights)
    return srvft_to_tree(Q, tree_id=tree_id)


# ---------------------------------------------------------------------------
# regression from biological parameters


@dataclass(frozen=True)
class RegressionModel:
    """Affine map from parameters to retained-mode coefficients."""

    M: np.ndarray  # (retained, n_params + 1)
    param_names: tuple[str, ...]
    atlas: Atlas

    def __post_init__(self) -> None:
        M = np.array(self.M, dtype=float)
        if M.ndim != 2 or M.shape[1] != len(self.param_names) + 1:
            raise ValueError("M must have one column per parameter plus an affine column")
        M.flags.writeable = False
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "param_names", tuple(self.param_names))

    def to_dict(self) -> dict:
        return {
            "M": self.M.tolist(),
            "param_names": list(self.param_names),
            "atlas": self.atlas.to_dict(),
        }

    @classmethod
    def from_dict(cls, data) -> "RegressionModel":
        """Inverse of ``to_dict``; a missing field or a wrong JSON type is a ValueError."""
        M, names, atlas = json_fields(data, "model", "M", "param_names", "atlas")
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ValueError("model param_names must be an array of strings")
        return cls(M=float_array(M, "model M"), param_names=tuple(names),
                   atlas=Atlas.from_dict(atlas))

    def save(self, path: str | Path) -> None:
        write_text(path, json_text(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "RegressionModel":
        return cls.from_dict(read_json(path))


def fit_regression(
    atlas: Atlas,
    params: np.ndarray,
    param_names: Sequence[str] | None = None,
) -> RegressionModel:
    """Least-squares affine map from per-sample parameters to coefficients.

    ``params`` has one row per training sample.  The map is B P^+ where B
    stacks coefficient columns and P stacks [p; 1] columns, from one SVD of
    P.  Singular values at or below 1e-10 of the largest are treated as
    zero; when fewer than l + 1 remain, P is reported rank deficient (the
    minimum-norm solution is still returned).  An atlas with no retained
    modes is a ValueError.
    """
    if atlas.retained < 1:
        raise ValueError("atlas has no retained modes to regress on")
    params = np.asarray(params, dtype=float)
    if params.ndim != 2:
        raise ValueError("params must be a 2D array (samples x parameters)")
    m, l = params.shape
    if m != len(atlas.training_coeffs):
        raise ValueError("one parameter row per training sample required")
    if l + 1 > m:
        raise ValueError(f"need at least {l + 1} samples for {l} parameters")
    if not np.all(np.isfinite(params)):
        raise ValueError("parameters must be finite")
    if param_names is None:
        param_names = tuple(f"p{i + 1}" for i in range(l))
    B = atlas.training_coeffs.T  # (retained, m)
    P = np.vstack([params.T, np.ones(m)])  # (l+1, m)
    U, sv, Wt = np.linalg.svd(P, full_matrices=False)
    keep = sv > 1e-10 * sv[0]
    if keep.sum() < l + 1:
        warnings.warn("parameter matrix is rank deficient; minimum-norm solution returned")
    M = (B @ Wt[keep].T / sv[keep]) @ U[:, keep].T
    return RegressionModel(M=M, param_names=tuple(param_names), atlas=atlas)


def predict(model: RegressionModel, params: Sequence[float], tree_id: str = "predicted") -> RootTree:
    """Synthesize the tree for one parameter vector."""
    p = np.asarray(params, dtype=float)
    if p.shape != (len(model.param_names),):
        raise ValueError(f"expected {len(model.param_names)} parameter values")
    if not np.all(np.isfinite(p)):
        raise ValueError("parameters must be finite")
    coeffs = model.M @ np.concatenate([p, [1.0]])
    atlas = model.atlas
    Q = exp_map(atlas.mean, atlas.tangent_from_coeffs(coeffs), atlas.weights)
    return srvft_to_tree(Q, tree_id=tree_id)
