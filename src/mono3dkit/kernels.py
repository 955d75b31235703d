"""Loss and gating kernels with analytic gradients.

Every kernel returns a :class:`LossReport` holding the scalar value and the
gradient with respect to each differentiable input.  There is no tape, and
callers compose gradients manually.  The costlier kernels build their
gradients from the forward pass's own arrays on the first read of
``LossReport.grads``, so a caller that reads only ``.value`` (each
finite-difference probe) never pays for them.  A kernel copies the caller
arrays its gradients need, and :class:`MaskPair` holds read-only copies, so
mutating an input after the call does not change the report.  The point of
this module is formula verification, not training, so every gradient is
checkable against :func:`finite_diff_check`.

Vector-valued operations (:func:`query_gate`, :func:`bin_centers`) report
the gradient of a cotangent-weighted sum of their outputs, which is what a
finite-difference probe can observe.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateQueryError,
    EmptyInputError,
    NonPositiveDepthError,
    ShapeMismatchError,
)

__all__ = [
    "LossReport",
    "GateParams",
    "BinSpec",
    "GaussianDepth",
    "MaskPair",
    "query_gate",
    "diversity_loss",
    "bin_centers",
    "depth_kl",
    "dice_loss",
    "bce_loss",
    "region_loss",
    "consistency_loss",
    "outlier_filter",
    "l2_reg",
    "finite_diff_check",
    "run_gradient_suite",
    "GRADIENT_ERROR_BOUND",
]

GRADIENT_ERROR_BOUND = 1e-4


class LossReport:
    """Scalar loss value plus named gradients, one per differentiable input.

    `grads` is the dict itself or a zero-argument function that returns it.
    A function runs once, on the first read of ``.grads``, and every later
    read returns the same dict.  A warning or error from the gradient
    arithmetic therefore surfaces at that first read, not at the kernel call.
    """

    __slots__ = ("value", "notes", "_grads")

    def __init__(self, value: float, grads=None, notes: tuple = ()):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "_grads", {} if grads is None else grads)

    @property
    def grads(self) -> dict:
        if callable(self._grads):
            object.__setattr__(self, "_grads", self._grads())
        return self._grads

    def __setattr__(self, name, value):
        raise AttributeError(f"LossReport is read-only: cannot set {name!r}")

    def __repr__(self):
        return f"LossReport(value={self.value!r}, notes={self.notes!r})"


@dataclass(frozen=True)
class GateParams:
    """Weights of the query gate: a (d, 2d) linear map over [query; context]."""

    weight: np.ndarray
    bias: Optional[np.ndarray] = None


@dataclass(frozen=True)
class BinSpec:
    """Raw depth-interval parameters and the target depth range."""

    delta: np.ndarray
    depth_min: float
    depth_max: float

    def __post_init__(self):
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=float))
        if self.delta.ndim != 1 or self.delta.size < 1:
            raise ValueError("delta must be a non-empty 1-d array")
        if not np.isfinite(self.delta).all():
            raise ValueError("delta must be finite")
        if not self.depth_min < self.depth_max:
            raise ValueError(f"depth range [{self.depth_min}, {self.depth_max}] is empty")


@dataclass(frozen=True)
class GaussianDepth:
    """Predicted depth Gaussian (mean, std) and target (target, target_std)."""

    mean: float
    std: float
    target: float
    target_std: float

    def __post_init__(self):
        # `not x > 0`, not `x <= 0`: NaN fails every comparison, so it fails
        # the guard too.  Every scalar guard in this module is written so.
        if not self.std > 0:
            raise ValueError(f"predicted std must be > 0, got {self.std}")
        if not self.target_std > 0:
            raise ValueError(f"target std must be > 0, got {self.target_std}")


@dataclass(frozen=True)
class MaskPair:
    """Predicted probability map and ground-truth map of identical shape."""

    pred: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        shape, other = np.shape(self.pred), np.shape(self.target)
        if shape != other:
            raise ShapeMismatchError(f"pred {shape} vs target {other}")
        # One read-only stacked copy: a kernel's deferred gradients read it
        # later, and one min and one max check both masks.
        both = np.array((self.pred, self.target), dtype=float)
        both.flags.writeable = False
        if both.size == 0:
            raise EmptyInputError("masks must be non-empty")
        # Written so that NaN, which fails every comparison, is rejected.
        if not (both.min() >= 0 and both.max() <= 1):
            pred_ok = both[0].min() >= 0 and both[0].max() <= 1
            raise ValueError(f"{'target' if pred_ok else 'pred'} values must lie in [0, 1]")
        object.__setattr__(self, "pred", both[0])
        object.__setattr__(self, "target", both[1])


def _sigmoid(x):
    # exp(-|x|) never overflows; it is exp(-x) where x >= 0 and exp(x) elsewhere.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def query_gate(queries, context, params: GateParams, grad_output=None):
    """Sigmoid-gated rescaling of query vectors by a learned map of
    [query; depth context].

    queries: (B, Q, d), context: (d,).  gate = sigmoid(W [query; context]
    + bias) and the output is gate * query elementwise.  Returns the gated
    queries and a :class:`LossReport` whose value is
    sum(grad_output * output) (grad_output defaults to ones) with gradients
    for 'queries', 'context', 'weight' and 'bias'.
    """
    # Copies, not views: the deferred gradients read them after the call.
    q = np.array(queries, dtype=float)
    g = np.array(context, dtype=float)
    if q.ndim != 3:
        raise ShapeMismatchError(f"queries must be (B, Q, d), got {q.shape}")
    d = q.shape[2]
    if g.shape != (d,):
        raise ShapeMismatchError(f"context must be ({d},), got {g.shape}")
    weight = np.array(params.weight, dtype=float)
    if weight.shape != (d, 2 * d):
        raise ShapeMismatchError(f"weight must be ({d}, {2 * d}), got {weight.shape}")
    bias = np.zeros(d) if params.bias is None else np.asarray(params.bias, dtype=float)
    if bias.shape != (d,):
        raise ShapeMismatchError(f"bias must be ({d},), got {bias.shape}")

    w_q = weight[:, :d]
    w_g = weight[:, d:]
    pre = q @ w_q.T + g @ w_g.T + bias
    gate = _sigmoid(pre)
    gated = gate * q

    cot = np.ones_like(gated) if grad_output is None else np.array(grad_output, dtype=float)
    if cot.shape != gated.shape:
        raise ShapeMismatchError(f"grad_output must be {gated.shape}, got {cot.shape}")
    value = float((cot * gated).sum())

    def grads():
        # e = d(value)/d(pre-activation)
        e = cot * q * gate * (1.0 - gate)
        grad_queries = cot * gate + e @ w_q
        e_flat = e.reshape(-1, d)
        q_flat = q.reshape(-1, d)
        e_sum = e_flat.sum(axis=0)
        grad_context = e_sum @ w_g
        grad_weight = np.concatenate((e_flat.T @ q_flat, np.outer(e_sum, g)), axis=1)
        return {"queries": grad_queries, "context": grad_context, "weight": grad_weight, "bias": e_sum}

    return gated, LossReport(value, grads)


def diversity_loss(queries) -> LossReport:
    """Mean pairwise cosine similarity among query embeddings.

    queries: (B, Q, d).  Averaged over all ordered pairs i != j and over
    the batch; 1.0 when all queries coincide, 0.0 when mutually orthogonal.
    Computed through the Gram identity sum_{i != j} u_i . u_j =
    |sum u|^2 - Q on unit-normalized rows, which matches the brute-force
    pairwise sum to rounding.
    """
    q = np.asarray(queries, dtype=float)
    if q.ndim != 3:
        raise ShapeMismatchError(f"queries must be (B, Q, d), got {q.shape}")
    b, n_q, _ = q.shape
    if n_q < 2:
        return LossReport(value=0.0, grads={"queries": np.zeros_like(q)}, notes=("single-query",))
    # np.linalg.norm's own arithmetic, without its per-call overhead
    norms = np.sqrt((q * q).sum(axis=2))
    if norms.min() < 1e-12:
        raise DegenerateQueryError("query with zero norm")
    unit = q / norms[..., None]
    total = unit.sum(axis=1)
    denom = b * n_q * (n_q - 1)
    value = float((np.einsum("bd,bd->b", total, total).sum() - b * n_q) / denom)

    def grads():
        # d/dq_i of |sum u|^2 is 2 (I - u_i u_i^T) s / |q_i|
        proj = np.einsum("bqd,bd->bq", unit, total)
        return {"queries": 2.0 * (total[:, None, :] - unit * proj[..., None]) / norms[..., None] / denom}

    return LossReport(value, grads)


def bin_centers(spec: BinSpec):
    """Monotone depth-bin centers from unconstrained interval parameters.

    Interval widths are softplus(delta) renormalized to cover exactly
    [depth_min, depth_max]; centers are depth_min plus the cumulative sum.
    The construction pins the last center to depth_max and keeps centers
    strictly increasing for any real delta.  Returns (centers, jacobian)
    with jacobian[k, j] = d centers[k] / d delta[j].
    """
    delta = spec.delta
    n = delta.size
    sp = _softplus(delta)
    sig = _sigmoid(delta)
    cum = np.cumsum(sp)
    total = cum[-1]
    span = spec.depth_max - spec.depth_min
    centers = spec.depth_min + span * cum / total
    lower = (np.arange(n)[None, :] <= np.arange(n)[:, None]).astype(float)
    jacobian = span * sig[None, :] * (lower * total - cum[:, None]) / (total * total)
    return centers, jacobian


def depth_kl(gd: GaussianDepth) -> LossReport:
    """KL-style penalty between the predicted depth Gaussian and a sharply
    peaked target Gaussian.

    value = log(std / target_std)
          + (target_std^2 + (target - mean)^2) / (2 std^2) - 1/2,
    which is >= 0 and vanishes exactly at mean == target, std == target_std.
    Gradients over 'mean' and 'std'.
    """
    diff = gd.target - gd.mean
    var = gd.std * gd.std
    value = math.log(gd.std / gd.target_std) + (gd.target_std**2 + diff * diff) / (2.0 * var) - 0.5
    grad_mean = (gd.mean - gd.target) / var
    grad_std = 1.0 / gd.std - (gd.target_std**2 + diff * diff) / (var * gd.std)
    return LossReport(value=float(value), grads={"mean": grad_mean, "std": grad_std})


def dice_loss(pair: MaskPair, smooth: float = 1e-6) -> LossReport:
    """Soft Dice loss 1 - (2 sum(p g) + smooth) / (sum p + sum g + smooth).

    Gradient over 'pred'.
    """
    if not smooth > 0:
        raise ValueError(f"smooth must be > 0, got {smooth}")
    p, g = pair.pred, pair.target
    num = 2.0 * float((p * g).sum()) + smooth
    den = float(p.sum() + g.sum()) + smooth
    value = 1.0 - num / den
    return LossReport(float(value), lambda: {"pred": -(2.0 * g * den - num) / (den * den)})


def bce_loss(pair: MaskPair, clip: float = 1e-7) -> LossReport:
    """Pixel-mean binary cross entropy with the prediction clipped into
    [clip, 1 - clip] before the logs (the raw formula is undefined at 0/1).

    The gradient is zero where the clip saturates.
    """
    if not (0 < clip < 0.5):
        raise ValueError(f"clip must be in (0, 0.5), got {clip}")
    p, g = pair.pred, pair.target
    pc = p.clip(clip, 1.0 - clip)
    value = float((-(g * np.log(pc) + (1.0 - g) * np.log1p(-pc))).sum() / p.size)

    def grads():
        grad = (-g / pc + (1.0 - g) / (1.0 - pc)) / p.size
        grad[(p <= clip) | (p >= 1.0 - clip)] = 0.0
        return {"pred": grad}

    return LossReport(value, grads)


def region_loss(
    pairs: Sequence[MaskPair],
    weight_dice: float = 0.7,
    weight_bce: float = 0.3,
    *,
    smooth: float = 1e-6,
    clip: float = 1e-7,
) -> LossReport:
    """Multi-scale segmentation loss: weight_dice * mean(dice) +
    weight_bce * mean(bce) over the scales.

    Gradients are keyed 'pred_0' .. 'pred_{N-1}'.
    """
    if len(pairs) == 0:
        raise EmptyInputError("region_loss needs at least one scale")
    n = len(pairs)
    value = 0.0
    parts = []
    for pair in pairs:
        d = dice_loss(pair, smooth=smooth)
        b = bce_loss(pair, clip=clip)
        value += (weight_dice * d.value + weight_bce * b.value) / n
        parts.append((d, b))

    def grads():
        return {
            f"pred_{i}": (weight_dice * d.grads["pred"] + weight_bce * b.grads["pred"]) / n
            for i, (d, b) in enumerate(parts)
        }

    return LossReport(value, grads)


def consistency_loss(
    dim3d: float,
    depth: float,
    fx: float,
    size2d: float,
    clamp_bound: float = 50.0,
    smooth_delta: float = 1.0,
) -> LossReport:
    """Penalty aligning the image-plane projection of a 3D dimension with
    the frozen 2D box size.

    The projected size is fx * dim3d / depth; the residual against size2d
    is clamped into [-clamp_bound, clamp_bound] and passed through a
    smooth-L1 with transition point smooth_delta (quadratic inside, linear
    beyond).  Gradients over 'dim3d' and 'depth' are zero wherever the
    clamp saturates.
    """
    if not depth > 0:
        raise NonPositiveDepthError(f"depth must be > 0, got {depth}")
    if not (clamp_bound > 0 and smooth_delta > 0):
        raise ValueError("clamp_bound and smooth_delta must be > 0")
    s_proj = fx * dim3d / depth
    raw = s_proj - size2d
    r = min(max(raw, -clamp_bound), clamp_bound)
    if abs(r) <= smooth_delta:
        value = r * r / (2.0 * smooth_delta)
        dv_dr = r / smooth_delta
    else:
        value = abs(r) - smooth_delta / 2.0
        dv_dr = math.copysign(1.0, r)
    chain = dv_dr if abs(raw) < clamp_bound else 0.0
    grad_dim = chain * fx / depth
    grad_depth = chain * (-fx * dim3d / (depth * depth))
    return LossReport(value=float(value), grads={"dim3d": grad_dim, "depth": grad_depth})


def outlier_filter(losses, k: float = 2.0):
    """Robust keep/drop mask over per-prediction losses.

    The threshold is median + k * population std of the loss set; an
    element is kept iff it does not exceed the threshold.  Returns
    (keep_mask, threshold).  The median element always survives.  A NaN
    or infinite loss raises ValueError: it would make the threshold NaN
    and drop every element.
    """
    arr = np.asarray(losses, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise EmptyInputError("outlier_filter needs at least one loss")
    if not (0 <= k < math.inf):
        raise ValueError(f"k must be finite and >= 0, got {k}")
    if not np.isfinite(arr).all():
        raise ValueError("losses must be finite")
    tau = float(np.median(arr) + k * arr.std())
    return arr <= tau, tau


def l2_reg(params: Sequence, weight: float) -> LossReport:
    """Weighted sum of squared parameters; gradient is 2 * weight * theta.

    Gradients are keyed 'param_0' .. 'param_{N-1}'.
    """
    if not weight >= 0:
        raise ValueError(f"weight must be >= 0, got {weight}")
    value = 0.0
    grads = {}
    for i, p in enumerate(params):
        arr = np.asarray(p, dtype=float)
        value += weight * float((arr * arr).sum())
        grads[f"param_{i}"] = 2.0 * weight * arr
    return LossReport(value=value, grads=grads)


def finite_diff_check(fn, inputs: dict, h: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    `fn(**inputs)` must return a :class:`LossReport`; every input named in
    its grads dict is probed coordinate by coordinate with step h.  The
    error is |analytic - numeric| / max(1, |analytic|, |numeric|), i.e.
    absolute near zero and relative for large gradients.  A non-finite
    analytic gradient, probe value or error makes the result inf.

    Each probed input is copied once; its coordinates are moved to v + h
    and v - h in place and restored, so the caller's inputs are untouched.
    Array inputs reach `fn` as float arrays, scalar inputs as floats.
    """
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h}")
    base = fn(**inputs)
    args = dict(inputs)
    worst = 0.0
    for name, x0 in inputs.items():
        if name not in base.grads:
            continue
        x = np.array(x0, dtype=float)
        scalar = x.ndim == 0
        analytic = np.asarray(base.grads[name], dtype=float).reshape(-1)
        args[name] = x
        for idx in range(x.size):
            v = float(x.flat[idx])
            values = []
            for probe in (v + h, v - h):
                x.flat[idx] = probe
                if scalar:
                    args[name] = probe
                values.append(fn(**args).value)
            x.flat[idx] = v
            numeric = (values[0] - values[1]) / (2.0 * h)
            a = float(analytic[idx])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if not math.isfinite(err):
                # max() would keep `worst` over a NaN; a NaN or inf anywhere fails.
                return math.inf
            worst = max(worst, err)
        args[name] = x0
    return float(worst)


def _normal(rng, *shape):
    """Float array of `shape` filled in C order with standard normal `rng.gauss` draws."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(math.prod(shape))]).reshape(shape)


def _uniform(rng, low, high, *shape):
    """Float array of `shape` filled in C order with `rng.uniform(low, high)` draws."""
    return np.array([rng.uniform(low, high) for _ in range(math.prod(shape))]).reshape(shape)


def _suite_query_gate(rng):
    b, q, d = 2, 3, 4
    queries = _normal(rng, b, q, d)
    context = _normal(rng, d)
    weight = _normal(rng, d, 2 * d) / math.sqrt(d)
    bias = _normal(rng, d) * 0.1
    cot = _normal(rng, b, q, d)

    def fn(queries, context, weight, bias):
        _, report = query_gate(queries, context, GateParams(weight, bias), grad_output=cot)
        return report

    return finite_diff_check(fn, {"queries": queries, "context": context, "weight": weight, "bias": bias})


def _suite_diversity(rng):
    queries = _normal(rng, 2, 4, 8)
    while np.sqrt((queries * queries).sum(axis=2)).min() < 0.5:
        queries = _normal(rng, 2, 4, 8)
    return finite_diff_check(lambda queries: diversity_loss(queries), {"queries": queries})


def _suite_bin_centers(rng):
    delta = _uniform(rng, -2.0, 2.0, 8)
    cot = _normal(rng, 8)

    def fn(delta):
        centers, jac = bin_centers(BinSpec(delta=delta, depth_min=2.0, depth_max=46.8))
        return LossReport(value=float(cot @ centers), grads={"delta": jac.T @ cot})

    return finite_diff_check(fn, {"delta": delta})


def _suite_depth_kl(rng):
    mean = rng.uniform(5.0, 30.0)
    std = rng.uniform(0.5, 3.0)
    target = rng.uniform(5.0, 30.0)

    def fn(mean, std):
        return depth_kl(GaussianDepth(mean=mean, std=std, target=target, target_std=0.1))

    return finite_diff_check(fn, {"mean": mean, "std": std})


def _suite_dice(rng):
    target = _uniform(rng, 0.0, 1.0, 6, 6)
    pred = _uniform(rng, 0.05, 0.95, 6, 6)
    return finite_diff_check(lambda pred: dice_loss(MaskPair(pred, target)), {"pred": pred})


def _suite_bce(rng):
    target = _uniform(rng, 0.0, 1.0, 6, 6)
    pred = _uniform(rng, 0.05, 0.95, 6, 6)
    return finite_diff_check(lambda pred: bce_loss(MaskPair(pred, target)), {"pred": pred})


def _suite_region(rng):
    targets = [_uniform(rng, 0.0, 1.0, 5, 5) for _ in range(2)]
    preds = [_uniform(rng, 0.05, 0.95, 5, 5) for _ in range(2)]

    def fn(pred_0, pred_1):
        return region_loss([MaskPair(pred_0, targets[0]), MaskPair(pred_1, targets[1])])

    return finite_diff_check(fn, {"pred_0": preds[0], "pred_1": preds[1]})


def _suite_consistency(rng):
    fx = 900.0
    clamp_bound, smooth_delta = 50.0, 1.0
    while True:
        dim3d = rng.uniform(0.5, 3.0)
        depth = rng.uniform(4.0, 40.0)
        residual = rng.uniform(-40.0, 40.0)
        # stay clear of the smooth-L1 and clamp kinks by >> 10 finite-difference steps
        if abs(abs(residual) - smooth_delta) > 1e-3 and abs(residual) < clamp_bound - 1.0:
            break
    size2d = fx * dim3d / depth - residual

    def fn(dim3d, depth):
        return consistency_loss(dim3d, depth, fx, size2d, clamp_bound=clamp_bound, smooth_delta=smooth_delta)

    return finite_diff_check(fn, {"dim3d": dim3d, "depth": depth})


def _suite_l2(rng):
    p0 = _normal(rng, 3)
    p1 = _normal(rng, 2, 2)
    return finite_diff_check(
        lambda param_0, param_1: l2_reg([param_0, param_1], weight=0.3),
        {"param_0": p0, "param_1": p1},
    )


_SUITE = {
    "query_gate": _suite_query_gate,
    "diversity_loss": _suite_diversity,
    "bin_centers": _suite_bin_centers,
    "depth_kl": _suite_depth_kl,
    "dice_loss": _suite_dice,
    "bce_loss": _suite_bce,
    "region_loss": _suite_region,
    "consistency_loss": _suite_consistency,
    "l2_reg": _suite_l2,
}


def _suite_rng(seed: int, name: str) -> random.Random:
    """The stream that draws kernel `name`'s instances under `seed`.

    It is keyed by name, so adding a kernel leaves the others' instances
    alone.  `random` hashes a str seed with sha512, not `hash()`, so the
    stream does not depend on PYTHONHASHSEED, and it is the same under every
    numpy version.
    """
    return random.Random(f"{seed}:{name}")


def run_gradient_suite(seed: int = 0, points: int = 100) -> dict:
    """Finite-difference sweep over every differentiable kernel.

    Each kernel is probed at `points` seeded random smooth instances (kink
    neighborhoods excluded), drawn from its :func:`_suite_rng` stream;
    returns {kernel: worst relative error}.  Raises ValueError when
    `points` < 1 (a sweep over no instances checks nothing) or `seed` < 0
    (`random` seeds an int by its absolute value, so -1 would alias 1
    wherever the seed is used as an int).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    results = {}
    for name, runner in _SUITE.items():
        rng = _suite_rng(seed, name)
        worst = 0.0
        for _ in range(points):
            worst = max(worst, runner(rng))
        results[name] = worst
    return results
