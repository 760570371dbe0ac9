"""The four workloads, by name, in the order the suite runs them."""

from bench.workloads import (
    attach_storm,
    churn_reconfig,
    population_fluid,
    steady_mix,
)

WORKLOADS = {
    module.NAME: module
    for module in (attach_storm, steady_mix, churn_reconfig, population_fluid)
}
