"""softalign: differentiable geometric alignment of feature grids.

The package computes dense normalized correlations between two grids of
local descriptors, scores candidate geometric transforms by a *soft inlier
count* (correlation mass that lands inside a warped neighborhood-consensus
mask), and maximizes that score directly or through a small trainable
regressor.  Everything is plain numpy; gradients are hand-derived.

Layout
------
grids       feature-grid container, coordinate conventions, FGRID text I/O
matching    normalized correlation volumes and their backward pass
geometry    affine / homography / thin-plate-spline transforms, the one
            target-to-source cell map and the one (padded-gather) bilinear sampler
softinlier  inlier masks, soft/hard inlier counts, score gradients
fit         direct score ascent, RANSAC baseline, 2-D line-fitting demo
weaktrain   weakly-supervised transform regressor (matching pairs only)
features    gray images, PGM I/O, grid descriptors, synthetic pairs
evalkit     keypoint-transfer metrics (PCK variants) and mask IoU
cli         `softalign` command-line entry point
"""

from softalign.errors import InvariantError

__version__ = "0.1.0"

__all__ = ["InvariantError", "__version__"]
