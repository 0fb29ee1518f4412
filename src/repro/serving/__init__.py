"""Online serving on top of FreeRide: open-loop traffic, admission
control, and SLO-aware dispatch.

The batch experiments submit a fixed task set and wait; this subsystem
drives the middleware the way a multi-user service would — requests
arrive on their own clock, pass admission control, queue, and get
scheduled into pipeline bubbles against per-class latency SLOs.

* :mod:`repro.serving.arrivals` — seeded open-loop arrival processes
  (Poisson, bursty/MMPP, diurnal, trace replay) over a workload mix;
* :mod:`repro.serving.slo` — latency classes, deadlines, and the queue
  dispatch disciplines (FIFO / EDF / starvation-aware);
* :mod:`repro.serving.frontend` — admission policies, the bounded queue,
  and per-request lifecycle tracking;
* :mod:`repro.metrics.latency` — streaming latency quantiles, goodput,
  and rejection accounting.
"""

from repro.serving.arrivals import (
    DEFAULT_MIX,
    NAMED_ARRIVALS,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    RequestTemplate,
    TaskRequest,
    TraceArrivals,
    make_arrivals,
)
from repro.serving.frontend import (
    NAMED_ADMISSION,
    AdmissionPolicy,
    AlwaysAdmit,
    PerJobTokenBucket,
    QueueBackpressure,
    RequestRecord,
    ServingFrontend,
    ServingResult,
    TokenBucket,
    make_admission,
    make_discipline,
)
from repro.serving.slo import (
    NAMED_DISCIPLINES,
    SLO_CLASSES,
    SLOClass,
    met_slo,
    slo_class,
)

__all__ = [
    "DEFAULT_MIX",
    "NAMED_ADMISSION",
    "NAMED_ARRIVALS",
    "NAMED_DISCIPLINES",
    "SLO_CLASSES",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "ArrivalProcess",
    "BurstyArrivals",
    "DiurnalArrivals",
    "PerJobTokenBucket",
    "PoissonArrivals",
    "QueueBackpressure",
    "RequestRecord",
    "RequestTemplate",
    "SLOClass",
    "ServingFrontend",
    "ServingResult",
    "TaskRequest",
    "TokenBucket",
    "TraceArrivals",
    "make_admission",
    "make_arrivals",
    "make_discipline",
    "met_slo",
    "slo_class",
]
