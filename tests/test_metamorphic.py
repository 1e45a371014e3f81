"""Check statuses must not move under exact symmetries of the problem.

Each relation maps the seeded instance of a config to an equivalent one:
X, Z and the grid translated together (the Gaussian kernel is
stationary), the targets scaled by 3 (every certified identity is linear
or quadratic in y), or the rows of (X, y) permuted with the same Z. The
moved problem is built by hand and run through `verify_problem` with the
config's seed, so the probe checks draw the same probes.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from sparsegp.data import Dataset
from sparsegp.harness import ExperimentConfig, make_problem, verify_problem
from sparsegp.nystrom import make_inducing

CONFIGS = {
    "defaults": {}, "d3": {"d": 3}, "n400": {"n": 400, "m": 24}, "n800": {"n": 800, "m": 40},
    "noise1e-4": {"n": 60, "m": 30, "noise_var": 1e-4}, "uniform": {"select": "uniform"},
}


def translate(prob, grid):
    shift = 0.37
    data = Dataset(prob.data.inputs + shift, prob.data.targets)
    return data, make_inducing(prob.kernel, prob.ind.points + shift), grid + shift


def scale_targets(prob, grid):
    return Dataset(prob.data.inputs, 3.0 * prob.data.targets), prob.ind, grid


def permute_rows(prob, grid):
    perm = np.random.default_rng(0).permutation(prob.n)
    return Dataset(prob.data.inputs[perm], prob.data.targets[perm]), prob.ind, grid


RELATIONS = {"translate": translate, "scale_y": scale_targets, "permute": permute_rows}


def statuses(checks):
    return {c.name: c.status for c in checks}


@functools.lru_cache(maxsize=1)  # the cases run config by config
def seeded(config_id):
    """The config, its seeded instance and the statuses `verify_problem`
    reports on it."""
    config = ExperimentConfig(**CONFIGS[config_id])
    instance = make_problem(config)
    return config, instance, statuses(verify_problem(*instance, config.seed))


# y x3 triples the equivalence and two-routes gaps, which the checks hold to
# an absolute 1e-8; at n=800, m=40 the raw normal equations of fit_nystrom
# leave gaps near that tolerance, so the tripled ones cross it.
SCALE_Y_N800 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1, cause 2: the raw-beta reference squares cond(K_ZZ), so "
           "svgp_nystrom_equivalence and nystrom_two_routes fail at y x3, n=800, m=40")


@pytest.mark.parametrize("config_id, relation", [
    pytest.param(c, r, marks=SCALE_Y_N800 if (c, r) == ("n800", "scale_y") else ())
    for c in CONFIGS for r in RELATIONS])
def test_statuses_do_not_move_under_an_exact_symmetry(config_id, relation):
    config, (prob, _, grid), expected = seeded(config_id)
    data, ind, moved_grid = RELATIONS[relation](prob, grid)
    moved = replace(prob, data=data, ind=ind, prior_kxx=None, prior_k_factor=None)
    checks = verify_problem(moved, moved.at_ridge(config.ridge_value()), moved_grid,
                            config.seed)
    assert statuses(checks) == expected
