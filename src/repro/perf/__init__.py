"""High-throughput invocation machinery.

Three cooperating mechanisms raise sustained invocation throughput
without touching invocation semantics:

* :mod:`repro.perf.batching` — client-side coalescing of concurrent
  invocations to the same (node, protocol) path into one wire message;
* :mod:`repro.ndr.plancache` — memoised marshalling plans so repeated
  operations skip the generic envelope walk (lives in ``ndr`` because
  it is a codec concern; re-exported here for convenience);
* :mod:`repro.perf.admission` — server-side token-bucket admission with
  a bounded dispatch queue, shedding overload as retryable
  :class:`~repro.errors.ServerBusyError`; classless, or with a bound
  per priority class for :mod:`repro.overload`.

Benchmark C20 measures the three together; the ``perf`` section of
``TransparencyMonitor.domain_report()`` exposes the other two's counters.
"""

from repro.ndr.plancache import InvocationPlan, PlanCache, encode_batch
from repro.perf.admission import AdmissionController
from repro.perf.batching import BatchClient, BatchPolicy

__all__ = [
    "AdmissionController",
    "BatchClient",
    "BatchPolicy",
    "InvocationPlan",
    "PlanCache",
    "encode_batch",
]
