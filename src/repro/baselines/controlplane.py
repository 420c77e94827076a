"""Section 3's memory comparison: control-plane rules against model weights.

Section 2.2: instead of per-packet inference, MATs "could cache inference
results computed in the control plane" and install the answers as flow
rules.  Covering the model's whole input space that way costs vastly more
switch memory than the model's weights (Section 3's 12 MB-vs-5.6 KB, a
~2135x ratio); :func:`weights_vs_rules_bytes` prices that comparison.
"""

from __future__ import annotations

__all__ = ["weights_vs_rules_bytes"]


def weights_vs_rules_bytes(
    model_weight_bytes: int,
    n_distinct_inputs: int,
    rule_bytes: int = 64,
) -> tuple[int, int, float]:
    """The Section 3 memory comparison.

    Matching a model's behaviour with flow rules needs one rule per
    distinct input (the full dataset); weights need only the parameters.
    Returns (weight_bytes, rule_bytes_total, ratio).  The paper's example:
    12 MB of rules vs 5.6 KB of weights, a 2135x reduction.
    """
    if model_weight_bytes <= 0 or n_distinct_inputs <= 0:
        raise ValueError("sizes must be positive")
    total_rules = n_distinct_inputs * rule_bytes
    return model_weight_bytes, total_rules, total_rules / model_weight_bytes
