"""Smoke and shape tests for every experiment module.

The benchmark suite (benchmarks/) asserts the full claim shapes; these
tests check that every experiment runs, renders, is deterministic under
a fixed seed, and preserves its headline direction at reduced scale.

Every experiment's outcome at seed 1 and ``FAST_PARAMS`` is pinned by
the sha256 of its canonical JSON in ``golden/experiments.json``; no
experiment reads the host clock, so none is left out.  A re-baseline is
an explicit diff to that file.
"""

import hashlib
import json
import pathlib

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    exp3_split_tcp,
    exp5_pii,
    exp9_auditing,
    fig1a,
    fig1c,
)

FAST_PARAMS = {
    "F1A": dict(packets_per_class=5),
    "E1": dict(subscriber_counts=(1, 10, 50)),
    "E2": dict(n_pages=3),
    "E3": dict(loss_rates=(0.001, 0.02), trials=4),
    "E5": dict(n_requests=80),
    "E6": dict(n_connections=120),
    "E7": dict(n_queries=100),
    "E8": dict(n_clicks=40),
    "F1C": dict(n_flows=100, fractions=(0.0, 0.5, 1.0)),
    "E19": dict(sweep=((40, 6.0), (80, 8.0)), flash_crowd_users=12,
                autoscale_ticks=6),
    "E21": dict(rule_counts=(50,)),
    "E22": dict(parity_users=32, parity_flash=8, parity_ticks=4,
                incident_users=48, surge_tick=5, surge_factor=8.0,
                incident_horizon=16),
}

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden"
                     / "experiments.json").read_text())


def outcome_digest(result) -> str:
    canonical = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_golden_covers_every_experiment():
    assert set(GOLDEN["digests"]) == set(ALL_EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_experiment_runs_and_renders(experiment_id):
    run = ALL_EXPERIMENTS[experiment_id]
    result = run(seed=1, **FAST_PARAMS.get(experiment_id, {}))
    assert result.experiment_id in (experiment_id, "ABL")
    assert result.rows, "experiment produced no rows"
    assert result.metrics, "experiment produced no metrics"
    rendered = result.render()
    assert result.title.split(":")[0] in rendered
    # Every row has one cell per column.
    for row in result.rows:
        assert len(row) == len(result.columns)
    assert outcome_digest(result) == GOLDEN["digests"][experiment_id]


@pytest.mark.parametrize("experiment_id", ["F1A", "E3", "E5", "E10"])
def test_experiments_deterministic(experiment_id):
    run = ALL_EXPERIMENTS[experiment_id]
    params = FAST_PARAMS.get(experiment_id, {})
    first = run(seed=7, **params)
    second = run(seed=7, **params)
    assert first.metrics == second.metrics
    assert first.rows == second.rows


def test_unknown_metric_lookup_raises():
    result = fig1c.run(seed=0, n_flows=20, fractions=(0.5,))
    with pytest.raises(KeyError, match="available"):
        result.metric("nonexistent")


class TestShapesAtReducedScale:
    def test_fig1a_always_fully_correct(self):
        result = fig1a.run(seed=3, packets_per_class=10)
        assert result.metric("correct_fraction") == 1.0

    def test_e3_bulk_speedup_grows_with_loss(self):
        result = exp3_split_tcp.run(seed=2, loss_rates=(0.001, 0.05),
                                    trials=6)
        assert (result.metric("speedup_bulk_loss_0.05")
                > result.metric("speedup_bulk_loss_0.001"))

    def test_e5_pvn_detects_everything(self):
        result = exp5_pii.run(seed=2, n_requests=100)
        assert result.metric("detection_pvn") == 1.0
        assert result.metric("leaked_values_pvn") == 0.0

    def test_e9_no_false_positives_other_seeds(self):
        for seed in (3, 4):
            result = exp9_auditing.run(seed=seed)
            assert result.metric("false_positive_rate_honest") == 0.0
            assert result.metric("all_cheaters_caught") == 1.0
