"""Independent oracles the tests check the library against.

Everything here is deliberately written the slow, obvious way (explicit
loops, Monte-Carlo sampling, per-prefix re-matching) and shares no
machinery with the implementations under test.
"""

import math

import numpy as np


# ------------------------------------------------------------ Monte-Carlo IoU


class McWorkspace:
    """Monte-Carlo IoU oracle with preallocated buffers.

    One shared block of uniform samples is rescaled into the overlap of the
    two boxes' bounding regions for every pair; in-place arithmetic keeps
    the 10^6-sample sweeps inside the acceptance-suite time budget.
    """

    def __init__(self, n=1_000_000, seed=20240917):
        rng = np.random.default_rng(seed)
        self.n = n
        self.u = rng.random((n, 3), dtype=np.float32)
        self.px = np.empty(n, np.float32)
        self.pz = np.empty(n, np.float32)
        self.py = np.empty(n, np.float32)
        self.t1 = np.empty(n, np.float32)
        self.t2 = np.empty(n, np.float32)
        self.t3 = np.empty(n, np.float32)
        self.t4 = np.empty(n, np.float32)
        self.b1 = np.empty(n, bool)
        self.b2 = np.empty(n, bool)
        self.b3 = np.empty(n, bool)

    def _points(self, x0, x1, z0, z1):
        np.multiply(self.u[:, 0], np.float32(x1 - x0), out=self.px)
        self.px += np.float32(x0)
        np.multiply(self.u[:, 1], np.float32(z1 - z0), out=self.pz)
        self.pz += np.float32(z0)

    def _footprint_hits(self, box, out):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        np.subtract(self.px, np.float32(box.x), out=self.t1)  # dx
        np.subtract(self.pz, np.float32(box.z), out=self.t2)  # dz
        np.multiply(self.t1, np.float32(c), out=self.t3)
        np.multiply(self.t2, np.float32(s), out=self.t4)
        self.t3 -= self.t4                                    # local x
        self.t1 *= np.float32(s)
        self.t2 *= np.float32(c)
        self.t1 += self.t2                                    # local z
        np.abs(self.t3, out=self.t3)
        np.abs(self.t1, out=self.t1)
        np.less_equal(self.t3, np.float32(box.l / 2.0), out=out)
        np.less_equal(self.t1, np.float32(box.w / 2.0), out=self.b3)
        out &= self.b3

    def ious(self, a, b):
        """(BEV IoU, 3D IoU) of `a` and `b` from one pass over the footprint samples."""
        ax0, ax1, az0, az1 = _footprint_bounds(a)
        bx0, bx1, bz0, bz1 = _footprint_bounds(b)
        x0, x1 = max(ax0, bx0), min(ax1, bx1)
        z0, z1 = max(az0, bz0), min(az1, bz1)
        if x1 <= x0 or z1 <= z0:
            return 0.0, 0.0
        self._points(x0, x1, z0, z1)
        self._footprint_hits(a, self.b1)
        self._footprint_hits(b, self.b2)
        self.b1 &= self.b2
        inter = np.count_nonzero(self.b1) / self.n * (x1 - x0) * (z1 - z0)
        union = a.w * a.l + b.w * b.l - inter
        bev = inter / union if union > 0 else 0.0
        y0 = max(a.y - a.h, b.y - b.h)
        y1 = min(a.y, b.y)
        if y1 <= y0:
            return bev, 0.0
        np.multiply(self.u[:, 2], np.float32(y1 - y0), out=self.py)
        self.py += np.float32(y0)
        for box in (a, b):
            np.greater_equal(self.py, np.float32(box.y - box.h), out=self.b2)
            self.b1 &= self.b2
            np.less_equal(self.py, np.float32(box.y), out=self.b2)
            self.b1 &= self.b2
        inter = np.count_nonzero(self.b1) / self.n * (x1 - x0) * (z1 - z0) * (y1 - y0)
        union = a.w * a.l * a.h + b.w * b.l * b.h - inter
        return bev, inter / union if union > 0 else 0.0

    def bev_iou(self, a, b):
        return self.ious(a, b)[0]

    def iou3d(self, a, b):
        return self.ious(a, b)[1]


def _footprint_bounds(box):
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.l / 2.0, box.w / 2.0
    xs, zs = [], []
    for lx, lz in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
        xs.append(box.x + lx * c + lz * s)
        zs.append(box.z - lx * s + lz * c)
    return min(xs), max(xs), min(zs), max(zs)


def _inside_footprint(px, pz, box):
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx = px - box.x
    dz = pz - box.z
    lx = c * dx - s * dz
    lz = s * dx + c * dz
    return (np.abs(lx) <= box.l / 2.0) & (np.abs(lz) <= box.w / 2.0)


def mc_bev_intersection(a, b, samples):
    """Monte-Carlo estimate of the ground-plane intersection area.

    `samples` is an (n, 2) block of uniforms in [0, 1), rescaled into the
    overlap of the two footprints' bounding boxes.
    """
    ax0, ax1, az0, az1 = _footprint_bounds(a)
    bx0, bx1, bz0, bz1 = _footprint_bounds(b)
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    z0, z1 = max(az0, bz0), min(az1, bz1)
    if x1 <= x0 or z1 <= z0:
        return 0.0
    px = x0 + samples[:, 0] * (x1 - x0)
    pz = z0 + samples[:, 1] * (z1 - z0)
    hits = _inside_footprint(px, pz, a) & _inside_footprint(px, pz, b)
    return float(hits.mean()) * (x1 - x0) * (z1 - z0)


def mc_bev_iou(a, b, samples):
    inter = mc_bev_intersection(a, b, samples)
    union = a.w * a.l + b.w * b.l - inter
    return inter / union if union > 0 else 0.0


def mc_iou3d(a, b, samples3):
    """Monte-Carlo volumetric IoU; boxes span [y - h, y] vertically."""
    ax0, ax1, az0, az1 = _footprint_bounds(a)
    bx0, bx1, bz0, bz1 = _footprint_bounds(b)
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    z0, z1 = max(az0, bz0), min(az1, bz1)
    y0 = max(a.y - a.h, b.y - b.h)
    y1 = min(a.y, b.y)
    if x1 <= x0 or z1 <= z0 or y1 <= y0:
        return 0.0
    px = x0 + samples3[:, 0] * (x1 - x0)
    pz = z0 + samples3[:, 1] * (z1 - z0)
    py = y0 + samples3[:, 2] * (y1 - y0)
    hits = (
        _inside_footprint(px, pz, a)
        & _inside_footprint(px, pz, b)
        & (py >= a.y - a.h)
        & (py <= a.y)
        & (py >= b.y - b.h)
        & (py <= b.y)
    )
    inter = float(hits.mean()) * (x1 - x0) * (z1 - z0) * (y1 - y0)
    union = a.w * a.l * a.h + b.w * b.l * b.h - inter
    return inter / union if union > 0 else 0.0


# --------------------------------------------------------- pairwise diversity


def brute_force_diversity(queries):
    """O(Q^2) mean pairwise cosine similarity, plain loops."""
    q = np.asarray(queries, dtype=float)
    b, n, _ = q.shape
    total = 0.0
    for bi in range(b):
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                qi, qj = q[bi, i], q[bi, j]
                total += float(np.dot(qi, qj) / (np.linalg.norm(qi) * np.linalg.norm(qj)))
    return total / (b * n * (n - 1))


# ----------------------------------------------------------------- AP oracle


def brute_force_ap_r40(preds, gts, iou_fn, threshold, recall_points=40):
    """Exhaustive AP: fresh greedy matching at every ranking prefix, then
    interpolated precision scanned point by point."""
    order = sorted(range(len(preds)), key=lambda i: -preds[i].score)
    precisions, recalls = [], []
    for k in range(1, len(order) + 1):
        taken = [False] * len(gts)
        tp = 0
        for i in order[:k]:
            best, best_j = -1.0, -1
            for j in range(len(gts)):
                if taken[j]:
                    continue
                v = iou_fn(preds[i], gts[j])
                if v > best:
                    best, best_j = v, j
            if best_j >= 0 and best >= threshold:
                taken[best_j] = True
                tp += 1
        precisions.append(tp / k)
        recalls.append(tp / len(gts))
    interp = []
    for i in range(1, recall_points + 1):
        r = i / recall_points
        candidates = [p for p, rec in zip(precisions, recalls) if rec >= r]
        interp.append(max(candidates) if candidates else 0.0)
    return 100.0 * sum(interp) / recall_points


# ---------------------------------------------------------- numeric gradients


def central_difference(fn, x, h=1e-5):
    """Plain central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for idx in range(x.size):
        xp = np.array(x)
        xm = np.array(x)
        xp.flat[idx] += h
        xm.flat[idx] -= h
        grad.flat[idx] = (fn(xp) - fn(xm)) / (2.0 * h)
    return grad


def copy_per_probe_finite_diff_check(fn, inputs, h=1e-5):
    """The finite-difference check as first written: two fresh copies of
    the probed input and two fresh argument dicts for every coordinate.

    The library's version perturbs one copy in place; both must return the
    same float for finite gradients and values.
    """
    base = fn(**inputs)
    worst = 0.0
    for name, x0 in inputs.items():
        if name not in base.grads:
            continue
        x = np.asarray(x0, dtype=float)
        scalar = np.ndim(x0) == 0
        analytic = np.asarray(base.grads[name], dtype=float).reshape(-1)
        for idx in range(x.size):
            xp = np.array(x, dtype=float)
            xm = np.array(x, dtype=float)
            xp.flat[idx] += h
            xm.flat[idx] -= h
            args_p = dict(inputs)
            args_m = dict(inputs)
            args_p[name] = float(xp) if scalar else xp
            args_m[name] = float(xm) if scalar else xm
            numeric = (fn(**args_p).value - fn(**args_m).value) / (2.0 * h)
            a = float(analytic[idx])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return float(worst)


def two_branch_sigmoid(x):
    """Logistic sigmoid evaluated separately on each sign, by boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
