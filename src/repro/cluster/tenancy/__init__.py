"""Multi-tenant transient cluster: inter-job scheduling over one shared pool.

The paper evaluates one job at a time on a private mix of reserved and
transient containers (§5.1.1). This package models the production regime a
datacenter actually runs: many tenants submit jobs continuously, the jobs
contend for one shared container pool, and transient reclamation arrives as
*correlated eviction waves* that hit every co-located job in the same tick
— the batch/latency-critical co-location regime of the Alibaba trace
studies. Three pieces compose:

* :mod:`~repro.cluster.tenancy.arrivals` — a diurnal (non-homogeneous
  Poisson) job arrival process and the correlated eviction-wave process,
  both driven by the synthetic Google-trace load shape
  (:mod:`repro.trace.google_trace`);
* :mod:`~repro.cluster.tenancy.policies` — pluggable inter-job scheduling
  policies: FIFO, weighted fair-share over container-seconds, and
  reserved-quota (per-tenant reserved partitions, floating transient);
* :mod:`~repro.cluster.tenancy.cluster` — the cluster-level event loop
  (:class:`MultiTenantCluster`) that queues arrivals, leases containers
  from the namespaced :class:`~repro.cluster.manager.LeasePool`, executes
  each dispatched job as a real engine simulation whose eviction schedule
  is pinned to the cluster-wide wave times, and records per-job JCT,
  queueing delay, and accounting.

The package is engine-agnostic: job execution is injected as a batch
callback, so tests drive it with stub durations and
:mod:`repro.bench.multitenant` wires it to the cached
:class:`~repro.bench.runner.SweepRunner` (``python -m repro mtsweep``).
Per-tenant JCT distributions are summarized by :mod:`repro.metrics.jct`.
See docs/MULTITENANCY.md.
"""

from repro.cluster.tenancy.arrivals import (ArrivalConfig,
                                            DiurnalArrivalProcess,
                                            EvictionWaveProcess, JobRequest,
                                            JobTemplate, WAVE_RATE_PER_HOUR)
from repro.cluster.tenancy.cluster import (JobOutcome, JobRecord,
                                           MultiTenantCluster, TenancyConfig,
                                           TenancyResult)
from repro.cluster.tenancy.policies import (FairSharePolicy, FifoPolicy,
                                            InterJobPolicy, POLICY_NAMES,
                                            ReservedQuotaPolicy, make_policy,
                                            reserved_quotas)

__all__ = [
    "ArrivalConfig", "DiurnalArrivalProcess",
    "EvictionWaveProcess",
    "FairSharePolicy", "FifoPolicy", "InterJobPolicy", "JobOutcome",
    "JobRecord",
    "JobRequest", "JobTemplate", "MultiTenantCluster", "POLICY_NAMES",
    "ReservedQuotaPolicy",
    "TenancyConfig", "TenancyResult",
    "WAVE_RATE_PER_HOUR", "make_policy", "reserved_quotas",
]
