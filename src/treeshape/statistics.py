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
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .metric import DEFAULT_OPTIONS, PairOptions, prepare_collection, worker_pool
from .registration import apply_registration, register
from .srvf import (
    DEFAULT_WEIGHTS,
    SYNTH_CHUNK,
    SrvfTree,
    Weights,
    srvft_to_tree,
    trapezoid_weights,
)
from .tree_model import (RootTree, float_array, json_fields, json_int, json_text, naming,
                         read_json, write_text)


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


def exp_map(mu: SrvfTree, v: np.ndarray, w: Weights) -> SrvfTree | list[SrvfTree]:
    """Inverse of ``log_map``; attachment positions are clamped to [0, 1].

    One tangent vector (dim,) gives one SRVF-tree; a (B, dim) stack gives
    the list of B, and the clamp warning is raised once if any position of
    the stack was clamped.
    """
    dim = _dim(mu)
    V = np.asarray(v, dtype=float)
    if V.ndim not in (1, 2) or V.shape[-1] != dim:
        raise ValueError(f"tangent shape {V.shape} does not match the layout dimension {dim}")
    flat = flatten_srvft(mu) + V / _metric_scale(mu, w)
    s = flat[..., dim - mu.n_laterals:]
    if np.any((s < 0.0) | (s > 1.0)):  # a NaN is not clamped: SrvfTree rejects it
        warnings.warn("attachment positions clamped to [0, 1]")
        np.clip(s, 0.0, 1.0, out=s)
    if V.ndim == 1:
        return unflatten_srvft(flat, mu)
    return [unflatten_srvft(vec, mu) for vec in flat]


# ---------------------------------------------------------------------------
# Karcher mean


# the descent stops once the metric norm of the tangent mean falls below this
GRADIENT_TOL = 1e-6


@dataclass(frozen=True)
class KarcherResult:
    """The mean, the samples registered to it, the objective per accepted step,
    why the descent stopped (``gradient``: the tangent mean fell below
    ``GRADIENT_TOL``; ``halving-exhausted``: no halved step lowered the
    objective; ``iteration-limit``, the only one that is not ``converged``),
    and the metric weights and tree ids the atlas needs."""

    mean: SrvfTree
    registered: tuple[SrvfTree, ...]
    objective: tuple[float, ...]
    stop_reason: str
    weights: Weights
    ids: tuple[str, ...]

    @property
    def converged(self) -> bool:
        return self.stop_reason != "iteration-limit"


def karcher_mean(
    trees: Sequence[RootTree],
    w: Weights = DEFAULT_WEIGHTS,
    step: float = 0.5,
    max_iter: int = 30,
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
    above 0, and ``max_iter`` at least 0.  All registrations of one call run
    over one ``worker_pool`` of at most ``n_jobs`` workers.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and above 0, got {step!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter!r}")
    if not trees:
        raise ValueError("empty collection")
    samples = prepare_collection(trees, opts)
    ids = tuple(t.id for t in trees)
    m = len(samples)
    if m == 1:
        return KarcherResult(samples[0], (samples[0],), (0.0,), "gradient", w, ids)

    upper = np.triu_indices(m, 1)
    pairs = [(samples[i], samples[j], w) for i, j in zip(*upper)]
    with worker_pool(n_jobs, max(len(pairs), m)) as run:
        def registered_to(mu: SrvfTree) -> tuple[list[SrvfTree], float]:
            """The samples registered to mu, and the objective: the sum of their
            registration costs, in sample order."""
            regs = run(register, [(mu, Q, w) for Q in samples])
            registered = [apply_registration(Q, reg) for Q, reg in zip(samples, regs)]
            return registered, float(sum(reg.cost for reg in regs))

        # medoid initialization
        pair_cost = np.zeros((m, m))
        pair_cost[upper] = [reg.cost for reg in run(register, pairs)]
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
            if float(np.linalg.norm(vbar * scale)) < GRADIENT_TOL:
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
        return KarcherResult(mu, tuple(registered), tuple(objective), stop_reason, w, ids)


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
        ev = float_array(self.eigenvalues, "atlas eigenvalues")
        if ev.ndim != 1:
            raise ValueError("eigenvalues must be a 1-d array")
        if not np.all(np.isfinite(ev) & (ev >= 0)):
            raise ValueError("eigenvalues must be finite and nonnegative")
        if not 0 <= self.retained <= len(ev):
            raise ValueError(f"retained must be in [0, {len(ev)}], got {self.retained}")
        ev.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)
        md = float_array(self.modes, "atlas modes")
        shape = (len(ev), _dim(self.mean))
        if md.size == 0 and not len(ev):  # an atlas file writes no modes as []
            md = md.reshape(shape)
        if md.shape != shape:
            raise ValueError(f"modes must have shape {shape}, got {md.shape}")
        if not np.isfinite(md).all():
            raise ValueError("atlas modes must be finite")
        md.flags.writeable = False
        object.__setattr__(self, "modes", md)
        tc = float_array(self.training_coeffs, "atlas training_coeffs")
        if tc.size == 0:  # no coefficients at all, as an empty list in a file
            tc = tc.reshape(0, self.retained)
        if tc.ndim != 2 or tc.shape[1] != self.retained:
            raise ValueError(
                f"training_coeffs must have shape (m, {self.retained}), got {tc.shape}")
        if not np.isfinite(tc).all():
            raise ValueError("atlas training_coeffs must be finite")
        tc.flags.writeable = False
        object.__setattr__(self, "training_coeffs", tc)

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
        return cls(mean=mean, eigenvalues=evals, modes=modes,
                   retained=json_int(retained, "atlas retained"), training_coeffs=coeffs,
                   weights=Weights(*weights.tolist()), ids=tuple(ids))

    def save(self, path: str | Path) -> None:
        write_text(path, json_text(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "Atlas":
        with naming(path):
            return cls.from_dict(read_json(path))


VARIANCE_TARGET = 0.99
# sampled mode coefficients are standard normals truncated to [-COEFF_BOUND, COEFF_BOUND]
COEFF_BOUND = 1.0


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


def fit_atlas(result: KarcherResult) -> Atlas:
    """Tangent covariance eigenmodes at a Karcher mean.

    Modes come from one thin SVD of the tangent vectors (``_gram_modes``),
    the retained count is the smallest one whose cumulative variance ratio
    reaches ``VARIANCE_TARGET``, and per-sample coefficients are stored for
    regression.
    """
    if len(result.registered) < 2:
        raise ValueError("need at least 2 trees to fit an atlas")
    mu, w = result.mean, result.weights
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
        ids=result.ids,
    )


def _synthesize(atlas: Atlas, tangents: Iterable[np.ndarray],
                ids: Iterable[str]) -> Iterator[RootTree]:
    """The trees at the tangent vectors, with one id each, drawn and built
    ``SYNTH_CHUNK`` at a time (each chunk of tangent rows goes through
    ``exp_map`` and ``srvft_to_tree`` as one stack); every tree equals the
    one built alone.  ``tangents`` is consumed one chunk ahead of the trees
    yielded."""
    tangents, ids = iter(tangents), iter(ids)
    while chunk := list(islice(tangents, SYNTH_CHUNK)):
        Qs = exp_map(atlas.mean, np.array(chunk), atlas.weights)
        yield from srvft_to_tree(Qs, list(islice(ids, len(chunk))))


def mode_path(atlas: Atlas, mode: int, alphas: Sequence[float]) -> list[RootTree]:
    """The trees at each of ``alphas`` standard deviations along one
    principal mode, built ``SYNTH_CHUNK`` at a time."""
    if not (0 <= mode < atlas.retained):
        raise IndexError(f"mode {mode} out of range (retained={atlas.retained})")
    alphas = [float(alpha) for alpha in alphas]
    sd = np.sqrt(atlas.eigenvalues[mode])
    tangents = ((alpha * sd) * atlas.modes[mode] for alpha in alphas)
    return list(_synthesize(atlas, tangents, [f"mode{mode}_alpha{alpha:+.2f}" for alpha in alphas]))


def _truncated_normals(rng: np.random.Generator, k: int) -> np.ndarray:
    """``k`` standard normal draws, each redrawn until it falls inside
    [-COEFF_BOUND, COEFF_BOUND]."""
    row = np.empty(k)
    for i in range(k):
        b = rng.standard_normal()
        while not (-COEFF_BOUND <= b <= COEFF_BOUND):
            b = rng.standard_normal()
        row[i] = b
    return row


def iter_samples(atlas: Atlas, rng: np.random.Generator | int, n: int = 1) -> Iterator[RootTree]:
    """The ``n`` trees of ``sample_random``, drawn, built and yielded
    ``SYNTH_CHUNK`` at a time, so memory does not grow with ``n``.  The
    arguments are checked when it is called, not when the first tree is
    taken."""
    if atlas.retained < 1:
        raise ValueError("atlas has no retained modes to sample from")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    # one (retained,) @ (retained, dim) product per tree: a stacked product
    # rounds differently
    tangents = (atlas.tangent_from_coeffs(_truncated_normals(rng, atlas.retained))
                for _ in range(n))
    return _synthesize(atlas, tangents, (f"sample-{i:03d}" for i in range(n)))


def sample_random(atlas: Atlas, rng: np.random.Generator | int, n: int = 1) -> list[RootTree]:
    """Draw ``n`` trees, ``sample-000``, ``sample-001``, ..., from the
    Gaussian mode model: ``list(iter_samples(atlas, rng, n))``.

    Coefficients are standard normal draws, redrawn until they fall inside
    [-COEFF_BOUND, COEFF_BOUND] so implausibly remote trees are avoided; they
    are drawn tree by tree, so the first k of n trees are the k trees of the
    same seed.  Deterministic for a seeded generator.
    """
    return list(iter_samples(atlas, rng, n))


# ---------------------------------------------------------------------------
# regression from biological parameters


@dataclass(frozen=True)
class RegressionModel:
    """Affine map from parameters to retained-mode coefficients."""

    M: np.ndarray  # (retained, n_params + 1)
    param_names: tuple[str, ...]
    atlas: Atlas

    def __post_init__(self) -> None:
        M = float_array(self.M, "model M")
        if M.ndim != 2 or M.shape[1] != len(self.param_names) + 1:
            raise ValueError("M must have one column per parameter plus an affine column")
        if len(M) != self.atlas.retained:
            raise ValueError(
                f"M has {len(M)} rows, but the atlas retains {self.atlas.retained} modes")
        if not np.isfinite(M).all():
            raise ValueError("model M must be finite")
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
        return cls(M=M, param_names=tuple(names), atlas=Atlas.from_dict(atlas))

    def save(self, path: str | Path) -> None:
        write_text(path, json_text(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "RegressionModel":
        with naming(path):
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
    return next(_synthesize(model.atlas, [model.atlas.tangent_from_coeffs(coeffs)], [tree_id]))
