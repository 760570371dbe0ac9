"""Experiment modules, one per figure/claim (see DESIGN.md §3).

Each exposes ``run(seed=0, **params) -> ExperimentResult`` and is
runnable as ``python -m repro.experiments.<module>``.
"""

from repro.experiments import (  # noqa: F401 (re-exported modules)
    ablations,
    exp1_scalability,
    exp2_deployment_modes,
    exp3_split_tcp,
    exp4_video_policy,
    exp5_pii,
    exp6_tls,
    exp7_dns,
    exp8_prefetch,
    exp9_auditing,
    exp10_negotiation,
    exp11_harm,
    exp12_setup_time,
    exp13_mobility,
    exp14_chaos,
    exp15_migration,
    exp16_datapath,
    exp18_control_plane,
    exp19_orchestration,
    exp20_selfhealing,
    exp21_megaflow,
    exp22_closed_loop,
    exp23_population,
    fig1a,
    fig1b,
    fig1c,
)

ALL_EXPERIMENTS = {
    "F1A": fig1a.run,
    "F1B": fig1b.run,
    "F1C": fig1c.run,
    "E1": exp1_scalability.run,
    "E2": exp2_deployment_modes.run,
    "E3": exp3_split_tcp.run,
    "E4": exp4_video_policy.run,
    "E5": exp5_pii.run,
    "E6": exp6_tls.run,
    "E7": exp7_dns.run,
    "E8": exp8_prefetch.run,
    "E9": exp9_auditing.run,
    "E10": exp10_negotiation.run,
    "E11": exp11_harm.run,
    "E12": exp12_setup_time.run,
    "E13": exp13_mobility.run,
    "E14": exp14_chaos.run,
    "E15": exp15_migration.run,
    "ABL": ablations.run,
    "E16": exp16_datapath.run,
    "E18": exp18_control_plane.run,
    "E19": exp19_orchestration.run,
    "E20": exp20_selfhealing.run,
    "E21": exp21_megaflow.run,
    "E22": exp22_closed_loop.run,
    "E23": exp23_population.run,
}

__all__ = [
    "ALL_EXPERIMENTS",
]
