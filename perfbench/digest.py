"""Reference digests: a small fingerprint of per-node mean/std statistics.

A digest keeps the mean voltage and std waveforms at the ``TOP_NODES``
worst-drop nodes plus whole-grid summary values, which is enough to catch a
wrong fast path without storing full ``(times, nodes)`` arrays.  The
references in ``references.json`` are regenerated with
``python3 perfbench/make_references.py`` (see that file).

Errors are absolute differences divided by a scale taken from the reference:

* ``scale="drop"`` (seed-state checks): the mean is scaled by the largest
  mean drop ``VDD - v``.  With ``SEED_STATE_RTOL`` this admits the <=1e-12
  relative reorderings of node voltages (~1e-12 V) a faster path may make,
  and rejects anything a wrong path produces (mV-scale differences).
* ``scale="voltage"`` (the ``mor`` accuracy gate): the mean is scaled by the
  largest mean voltage, exactly as ``benchmarks/bench_mor.py`` measures it
  against ``BENCH_mor.json``'s 1e-3 gate.

The std is always scaled by the largest std (the largest mean drop when the
analysis is deterministic and every std is 0).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

#: Worst-drop nodes whose full mean/std waveforms a digest keeps.
TOP_NODES = 3

#: Tolerance of checks against results of the program as it was when the
#: benchmark was defined (same engine, same inputs).
SEED_STATE_RTOL = 1e-7

#: Tolerance of the ``mor`` engine against an exact engine (``BENCH_mor.json``).
MOR_RTOL = 1e-3

_SUMMARY_KEYS = ("max_mean_drop", "max_std", "avg_mean_drop", "avg_std")


def make_digest(mean: np.ndarray, std: np.ndarray, vdd: float) -> Dict:
    """Digest of ``(times, nodes)`` mean-voltage and std arrays."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    drop = vdd - mean
    nodes = np.argsort(-np.max(drop, axis=0), kind="stable")[:TOP_NODES]
    return {
        "shape": list(mean.shape),
        "vdd": float(vdd),
        "nodes": [int(node) for node in nodes],
        "mean": mean[:, nodes].T.tolist(),
        "std": std[:, nodes].T.tolist(),
        "max_abs_mean": float(np.max(np.abs(mean))),
        "max_mean_drop": float(np.max(drop)),
        "max_std": float(np.max(std)),
        "avg_mean_drop": float(np.mean(drop)),
        "avg_std": float(np.mean(std)),
    }


def _scales(reference: Dict, scale: str):
    if scale not in ("drop", "voltage"):
        raise ValueError(f"unknown scale {scale!r}")
    mean_scale = reference["max_mean_drop"] if scale == "drop" else reference["max_abs_mean"]
    std_scale = reference["max_std"] if reference["max_std"] > 0 else reference["max_mean_drop"]
    return mean_scale, std_scale


def compare(reference: Dict, candidate: Dict, rtol: float, scale: str = "drop") -> List[str]:
    """Failures of ``candidate`` (a digest) against ``reference``; empty if it passes.

    The candidate is read at the *reference's* worst-drop nodes, so a path
    that moves the worst node fails on the waveforms, not just the ranking.
    """
    if list(candidate["shape"]) != list(reference["shape"]):
        return [f"shape {candidate['shape']} != reference {reference['shape']}"]
    mean_scale, std_scale = _scales(reference, scale)
    failures = []
    for key, part_scale in (("mean", mean_scale), ("std", std_scale)):
        error = np.max(np.abs(np.asarray(candidate[key]) - np.asarray(reference[key]))) / part_scale
        if not error <= rtol:
            failures.append(f"{key} at worst-drop nodes: relative error {error:.3e} > {rtol:.0e}")
    for key in _SUMMARY_KEYS:
        part_scale = std_scale if "std" in key else mean_scale
        error = abs(candidate[key] - reference[key]) / part_scale
        if not error <= rtol:
            failures.append(f"{key}: relative error {error:.3e} > {rtol:.0e}")
    return failures


def digest_at(reference: Dict, mean: np.ndarray, std: np.ndarray, vdd: float) -> Dict:
    """Digest of a candidate result, read at the reference's worst-drop nodes."""
    digest = make_digest(mean, std, vdd)
    nodes = reference["nodes"]
    if list(digest["shape"]) == list(reference["shape"]):
        digest["mean"] = np.asarray(mean)[:, nodes].T.tolist()
        digest["std"] = np.asarray(std)[:, nodes].T.tolist()
    return digest
