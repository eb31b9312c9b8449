"""Shared generators and oracles for the test suite."""

import itertools

import numpy as np

from softalign import fit, weaktrain
from softalign.geometry import LATTICE_SNAP_EPS, Transform, make_tps, tps_control_points, transform_sampling_grid
from softalign.grids import FeatureGrid, cells_to_normalized, l2_normalize
from softalign.matching import correlate
from softalign.softinlier import FilteredScores, default_threshold, hard_inlier_count, score_breakdown


def random_normalized(rng, h, w, d):
    return l2_normalize(FeatureGrid(rng.normal(size=(h, w, d))))


def random_transform(rng, family, magnitude=1.0):
    """A random, comfortably nonsingular transform of the given family."""
    if family == "affine":
        ang = rng.uniform(-0.5, 0.5) * magnitude
        s = np.exp(rng.uniform(-0.2, 0.2) * magnitude)
        c, sn = s * np.cos(ang), s * np.sin(ang)
        tx, ty = rng.uniform(-0.3, 0.3, size=2) * magnitude
        return Transform.affine([c, -sn, tx, sn, c, ty])
    if family == "homography":
        base = random_transform(rng, "affine", magnitude).params
        proj = rng.uniform(-0.15, 0.15, size=2) * magnitude
        return Transform.homography(np.concatenate([base, proj]))
    if family == "tps":
        return make_tps(rng.uniform(-0.2, 0.2, size=(9, 2)) * magnitude)
    raise ValueError(family)


def _tps_system(pts, control_grid):
    """``(basis, L)`` of the TPS on an ``n x n`` control grid: ``basis`` has
    rows ``[U(|pt - c_p|^2) ..., 1, x, y]`` at ``pts``, ``L`` is the
    ``(n*n + 3)``-square interpolation system."""

    def kernel(q):
        return np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)

    control = tps_control_points(control_grid)
    n = len(control)
    L = np.zeros((n + 3, n + 3))
    L[:n, :n] = kernel(np.sum((control[:, None] - control[None]) ** 2, axis=2))
    L[:n, n:] = np.column_stack([np.ones(n), control])
    L[n:, :n] = L[:n, n:].T
    sq = np.sum((pts[:, None] - control[None]) ** 2, axis=2)
    return np.column_stack([kernel(sq), np.ones(len(pts)), pts]), L


def tps_apply_reference(displacements, pts, control_grid=3):
    """TPS map of ``pts`` by solving the interpolation system for this one
    displacement vector: the reference for ``geometry.apply`` on TPS."""
    pts = np.asarray(pts, dtype=np.float64)
    basis, L = _tps_system(pts, control_grid)
    n = control_grid * control_grid
    rhs = np.zeros((n + 3, 2))
    rhs[:n] = tps_control_points(control_grid) + np.reshape(displacements, (n, 2))
    return basis @ np.linalg.solve(L, rhs)


def tps_cardinal_reference(pts, control_grid=3):
    """``basis @ inv(L)[:, :n]``: the cardinal functions at ``pts``."""
    basis, L = _tps_system(np.asarray(pts, dtype=np.float64), control_grid)
    return basis @ np.linalg.inv(L)[:, : control_grid * control_grid]


def knot_clearance(T, h, w):
    """Distance of every warped grid coordinate to the integer lattice."""
    uv = transform_sampling_grid(T, (h, w))
    return np.abs(uv - np.round(uv)).min()


def clear_random_transform(rng, family, h, w, clearance=0.05, magnitude=1.0):
    """Rejection-sample a transform whose warp stays off sampling knots.

    Feasible only for small grids: every warped coordinate must clear the
    integer lattice, and the acceptance rate decays like 0.9^(2hw).
    """
    for _ in range(20000):
        T = random_transform(rng, family, magnitude)
        if knot_clearance(T, h, w) >= clearance:
            return T
    raise RuntimeError("could not find a knot-clear transform")


def candidate_matches_loop(s):
    """Per-column reference for ``fit.candidate_matches``."""
    h_s, w_s, h_t, w_t = s.data.shape
    global_max = float(s.data.max())
    out = []
    for k in range(h_t):
        for l in range(w_t):
            col = s.data[:, :, k, l]
            flat = int(np.argmax(col))
            score = float(col.flat[flat])
            if score <= 0.0 or score < 0.5 * global_max:
                continue
            i, j = np.unravel_index(flat, (h_s, w_s))
            out.append(((int(i), int(j)), (k, l)))
    return out


def collinear_sample(cells):
    """Whether some 3 of the integer ``(i, j)`` cells are collinear, a
    repeated cell included: the per-sample reference for the gate of
    ``fit.fit_ransac``, in Python integers."""
    for a, b, c in itertools.combinations([tuple(map(int, cell)) for cell in cells], 3):
        if (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0]):
            return True
    return False


def ransac_reference(s, family="affine", t=None, iters=500, seed=0):
    """``fit.fit_ransac`` as a per-hypothesis loop: sample, gate, solve, count.

    A sample with 3 collinear source or target cells is skipped, and the
    rest are solved one at a time by least squares.  When nothing survives
    the result is the identity with its own inliers.  Returns
    ``(transform, inlier_count, inliers, trace, c, no_signal)``.
    """
    h, w = s.source_shape
    t = default_threshold(h, w) if t is None else t
    matches = candidate_matches_loop(s)
    k = fit.MINIMAL_SAMPLE[family]
    if len(matches) < k:
        raise ValueError(f"insufficient matches: {len(matches)} candidates, need >= {k}")
    src = np.array([m[0] for m in matches], dtype=np.float64)
    tgt = np.array([m[1] for m in matches], dtype=np.float64)
    src_all = np.stack(cells_to_normalized(src[:, 0], src[:, 1], h, w), axis=1)
    tgt_all = np.stack(cells_to_normalized(tgt[:, 0], tgt[:, 1], h, w), axis=1)

    rng = np.random.default_rng(seed)
    best_T, best_count, best_inliers, trace = None, -1, [], []
    for _ in range(iters):
        pick = rng.choice(len(matches), size=k, replace=False)
        if collinear_sample(src[pick]) or collinear_sample(tgt[pick]):
            trace.append(float(max(best_count, 0)))
            continue
        try:
            T = fit._solve_transform(family, src_all[pick], tgt_all[pick])
        except (ValueError, np.linalg.LinAlgError):
            trace.append(float(max(best_count, 0)))
            continue
        count, inliers = hard_inlier_count(matches, T, t, h, w)
        if count > best_count:
            best_T, best_count, best_inliers = T, count, inliers
        trace.append(float(best_count))
    if best_T is None:
        T = Transform.identity(family)
        count, inliers = hard_inlier_count(matches, T, t, h, w)
        return T, count, tuple(inliers), tuple(trace), score_breakdown(s, T, t).c, True
    if len(best_inliers) >= k:
        idx = [matches.index(m) for m in best_inliers]
        try:
            refit = fit._solve_transform(family, src_all[idx], tgt_all[idx])
            count, inliers = hard_inlier_count(matches, refit, t, h, w)
            if count >= best_count:
                best_T, best_count, best_inliers = refit, count, inliers
        except (ValueError, np.linalg.LinAlgError):
            pass
    c = score_breakdown(s, best_T, t).c
    return best_T, best_count, tuple(best_inliers), tuple(trace), c, False


def _reference_corners(img, uv):
    """Per-corner gather with validity masks: the four corner values, their
    clipped indices and masks, and the fractions."""
    h, w = img.shape
    u, v = uv[..., 0], uv[..., 1]
    ru, rv = np.round(u), np.round(v)
    u = np.where(np.abs(u - ru) < LATTICE_SNAP_EPS, ru, u)
    v = np.where(np.abs(v - rv) < LATTICE_SNAP_EPS, rv, v)
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    vals, idx = [], []
    for oi in (0, 1):
        for oj in (0, 1):
            ui, vi = u0 + oi, v0 + oj
            ok = (ui >= 0) & (ui < h) & (vi >= 0) & (vi < w)
            uc, vc = np.clip(ui, 0, h - 1), np.clip(vi, 0, w - 1)
            vals.append(img[uc, vc] * ok)
            idx.append((uc, vc, ok))
    return vals, idx, u - u0, v - v0


def bilinear_sample_reference(img, uv):
    """Zero-padded bilinear sampling of a 2-D image at ``(..., 2)`` (u, v)
    points, masking each out-of-range corner: the reference for the padded
    gather of ``geometry.bilinear_sample``."""
    (c00, c01, c10, c11), _, du, dv = _reference_corners(img, np.asarray(uv, dtype=np.float64))
    return (
        c00 * (1.0 - du) * (1.0 - dv)
        + c01 * (1.0 - du) * dv
        + c10 * du * (1.0 - dv)
        + c11 * du * dv
    )


def bilinear_sample_backward_reference(img, uv, upstream):
    """``(grad_img, grad_coords)`` of ``sum(upstream * bilinear_sample_reference(img, uv))``,
    scattering with ``np.add.at``: the reference for ``geometry.bilinear_sample_backward``."""
    (c00, c01, c10, c11), idx, du, dv = _reference_corners(img, np.asarray(uv, dtype=np.float64))
    weights = ((1.0 - du) * (1.0 - dv), (1.0 - du) * dv, du * (1.0 - dv), du * dv)
    grad_img = np.zeros_like(img)
    for wgt, (uc, vc, ok) in zip(weights, idx):
        np.add.at(grad_img, (uc.ravel(), vc.ravel()), (upstream * wgt * ok).ravel())
    d_du = (1.0 - dv) * (c10 - c00) + dv * (c11 - c01)
    d_dv = (1.0 - du) * (c01 - c00) + du * (c11 - c10)
    return grad_img, np.stack([upstream * d_du, upstream * d_dv], axis=-1)


def _pair_loss_grad_reference(model, filtered):
    """Loss and parameter gradients of one pair: a matrix-vector forward
    pass, one gather, and outer-product gradients."""
    vec = filtered.scores[0].ravel()
    z = model.W1 @ vec + model.b1
    a = np.maximum(z, 0.0)
    g = model.W2 @ a + model.b2
    sample = filtered.gather(Transform(model.family, g))
    dloss_dg = -sample.dc_dg()
    dz = (model.W2.T @ dloss_dg) * (z > 0.0)
    grads = {"W1": np.outer(dz, vec), "b1": dz, "W2": np.outer(dloss_dg, a), "b2": dloss_dg}
    return -sample.c, grads


def train_reference(dataset, cfg):
    """``weaktrain.train`` as a per-pair loop: one ``FilteredScores`` per
    pair, gradients accumulated pair by pair, Adam on fresh arrays.

    Returns ``(model, trace)`` like ``train``.
    """
    pairs = [tuple(p) for p in dataset]
    h, w = pairs[0][0].h, pairs[0][0].w
    t = cfg.threshold if cfg.threshold is not None else default_threshold(h, w)
    cached = [FilteredScores(correlate(f_s, f_t), t) for f_s, f_t in pairs]

    model = weaktrain.init_model(h, w, cfg)
    params = model.parameters()
    m1 = {k: np.zeros_like(v) for k, v in params.items()}
    m2 = {k: np.zeros_like(v) for k, v in params.items()}
    b1d, b2d = cfg.betas
    rng = np.random.default_rng(cfg.seed)

    def mean_loss():
        return float(np.mean([_pair_loss_grad_reference(model, f)[0] for f in cached]))

    trace = [mean_loss()]
    step_count = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(cached))
        for start in range(0, len(cached), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            acc = {k: np.zeros_like(v) for k, v in params.items()}
            for idx in batch:
                _, grads = _pair_loss_grad_reference(model, cached[idx])
                for k in acc:
                    acc[k] += grads[k]
            step_count += 1
            for k in acc:
                gk = acc[k] / len(batch)
                m1[k] = b1d * m1[k] + (1 - b1d) * gk
                m2[k] = b2d * m2[k] + (1 - b2d) * gk * gk
                mh = m1[k] / (1 - b1d**step_count)
                vh = m2[k] / (1 - b2d**step_count)
                params[k] -= cfg.step * mh / (np.sqrt(vh) + weaktrain.ADAM_EPS)
        trace.append(mean_loss())
    return model, trace
