#!/usr/bin/env python3
"""Hard RANSAC baseline vs direct soft-count maximization.

Both methods consume the same correlation volume.  RANSAC snaps it to
one argmax match per target cell and alternates sampling/counting;
the direct fitter ascends the smooth count.  On an easy synthetic pair
they should agree; the printout compares transforms, counts, and time.
"""

import time

import numpy as np

from softalign.evalkit import DEFAULT_ALPHA, evaluate_keypoints, keypoints_from_transform
from softalign.features import synth_pair, synthetic_image
from softalign.fit import FitConfig, candidate_matches, fit_direct, fit_ransac
from softalign.matching import correlate

img = synthetic_image(seed=23, h=64, w=64)
pair = synth_pair(img, "affine", magnitude=0.8, grid_h=16, grid_w=16, seed=23)
s = correlate(pair.source, pair.target)

matches = candidate_matches(s)
print(f"candidate matches (argmax per target cell): {len(matches)}")

t0 = time.perf_counter()
res_r = fit_ransac(s, family="affine", iters=500, seed=0)
dt_r = time.perf_counter() - t0
print(f"\nransac:  c={res_r.c:8.4f}  hard inliers={res_r.inlier_count}  "
      f"({dt_r:.2f}s)")

t0 = time.perf_counter()
res_d = fit_direct(pair.source, pair.target,
                   FitConfig(family="affine", seed=0, restarts=4, tol=1e-4))
dt_d = time.perf_counter() - t0
print(f"direct:  c={res_d.c:8.4f}  "
      f"({dt_d:.2f}s)")

kps = keypoints_from_transform(pair.gt, 20, seed=23)
alpha = DEFAULT_ALPHA["pfpascal"]
for name, res in (("ransac", res_r), ("direct", res_d)):
    rep = evaluate_keypoints(kps, res.transform, "pfpascal", alpha)
    print(f"{name}: PCK@{alpha}={rep.pck:.2f}  "
          f"median transfer error {np.median(rep.errors):.4f}")

diff = np.abs(res_r.transform.params - res_d.transform.params).max()
print(f"\nmax |param difference| between the two fits: {diff:.4f}")
print("ransac stands or falls with its argmax matches, which are noisy "
      "on smooth textures (see demo 01); the "
      "direct fitter never commits to matches and can still find the "
      "warp the correlation mass agrees on")
