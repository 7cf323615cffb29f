"""Seed sweep of every property suite: every check passes on seeds 0-99.

Marked slow and left out of the default run; select it with

    pytest -m slow -s tests/test_sweep.py

which also prints, per check, the worst margin over the seeds and the seed
it came from.  The margin is residual/tolerance for `<=` checks and
tolerance/residual for `>=` checks, so a check passes while it is <= 1.
"""

import math

import pytest

from vsolitons.cli import _SUITES, parse_run_config, run_property_suite

SEEDS = range(100)


def _margin(check) -> float:
    num, den = check.residual, check.tolerance
    if check.comparison == ">=":
        num, den = den, num
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


@pytest.mark.slow
@pytest.mark.parametrize("suite", list(_SUITES))
def test_suite_passes_every_seed(suite):
    worst = {}
    failed = []
    for seed in SEEDS:
        cfg = parse_run_config({"mode": "verify", "suite": {"name": suite, "seed": seed}})
        for check in run_property_suite(cfg).checks:
            if check.passed is None:
                continue
            if not check.passed:
                failed.append((seed, check.name, check.residual))
            margin = _margin(check)
            if margin >= worst.get(check.name, (-1.0, None))[0]:
                worst[check.name] = (margin, seed)
    for name, (margin, seed) in worst.items():
        print(f"{suite:20s} {name:45s} worst margin {margin:.3e} (seed {seed})")
    assert not failed
