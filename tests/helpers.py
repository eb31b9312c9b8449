"""Shared generators and oracles for the test suite."""

import numpy as np

from softalign import fit
from softalign.geometry import LATTICE_SNAP_EPS, Transform, make_tps, transform_sampling_grid
from softalign.grids import FeatureGrid, cells_to_normalized, l2_normalize
from softalign.softinlier import default_threshold, hard_inlier_count, score_breakdown


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


def ransac_reference(s, family="affine", t=None, iters=500, seed=0):
    """``fit.fit_ransac`` as a per-hypothesis loop: sample, solve, count.

    Returns ``(transform, inlier_count, inliers, trace, c)``.
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
        raise ValueError("insufficient matches: no non-degenerate sample found")
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
    return best_T, best_count, tuple(best_inliers), tuple(trace), c


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
