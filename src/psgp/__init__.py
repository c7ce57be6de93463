"""psgp: self-supervised multimodal sleep-signal risk profiling.

Masked-reconstruction pretraining with a coding-rate anti-collapse penalty,
centroid-difference disease vectors, projection risk scores, and the
downstream statistics (adjusted odds ratios, AUC grids, report cards).
"""

__version__ = "0.1.0"
