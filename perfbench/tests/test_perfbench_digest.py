"""The correctness gate: stored digests accept their own result, reject perturbations."""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import digest  # noqa: E402

REFERENCES = Path(__file__).resolve().parents[1] / "references.json"


def synthetic(seed=0, times=13, nodes=50, vdd=1.2):
    rng = np.random.default_rng(seed)
    mean = vdd - 0.05 * rng.random((times, nodes))
    std = 0.005 * rng.random((times, nodes))
    return mean, std, vdd


def test_a_result_matches_its_own_digest():
    mean, std, vdd = synthetic()
    reference = digest.make_digest(mean, std, vdd)
    candidate = digest.digest_at(reference, mean, std, vdd)
    assert digest.compare(reference, candidate, digest.SEED_STATE_RTOL) == []


def test_reordering_noise_passes_the_seed_state_tolerance():
    mean, std, vdd = synthetic()
    reference = digest.make_digest(mean, std, vdd)
    noisy = mean * (1 + 1e-12 * np.sign(np.sin(np.arange(mean.size)).reshape(mean.shape)))
    candidate = digest.digest_at(reference, noisy, std, vdd)
    assert digest.compare(reference, candidate, digest.SEED_STATE_RTOL) == []


@pytest.mark.parametrize("field", ["mean", "std"])
def test_a_perturbed_result_fails(field):
    mean, std, vdd = synthetic()
    reference = digest.make_digest(mean, std, vdd)
    worst = reference["nodes"][0]
    perturbed = {"mean": mean.copy(), "std": std.copy()}
    perturbed[field][5, worst] += 1e-6  # 1 uV: far below any real defect
    candidate = digest.digest_at(reference, perturbed["mean"], perturbed["std"], vdd)
    assert digest.compare(reference, candidate, digest.SEED_STATE_RTOL)


def test_shape_mismatch_fails():
    mean, std, vdd = synthetic()
    reference = digest.make_digest(mean, std, vdd)
    candidate = digest.digest_at(reference, mean[:-1], std[:-1], vdd)
    assert digest.compare(reference, candidate, digest.SEED_STATE_RTOL)


STORED = {
    f"{workload}/{index}/{label}": stored
    for workload, variants in json.loads(REFERENCES.read_text())["workloads"].items()
    for index, labelled in variants.items()
    for label, stored in labelled.items()
}


@pytest.mark.parametrize("name", sorted(STORED))
def test_every_stored_digest_rejects_a_perturbed_copy(name):
    stored = STORED[name]
    assert digest.compare(stored, stored, digest.SEED_STATE_RTOL) == []
    perturbed = copy.deepcopy(stored)
    perturbed["mean"][0][-1] += 1e-4 * stored["max_mean_drop"]
    assert digest.compare(stored, perturbed, digest.SEED_STATE_RTOL)
    assert digest.compare(stored, perturbed, digest.MOR_RTOL, "voltage") == []
    perturbed["avg_std"] += 2e-3 * (stored["max_std"] or stored["max_mean_drop"])
    assert digest.compare(stored, perturbed, digest.MOR_RTOL, "voltage")
