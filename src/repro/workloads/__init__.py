"""Synthetic workloads standing in for industrial telemetry data.

The paper's motivating applications are Chrome URL telemetry and iOS new-word
discovery; neither dataset is public, so the benchmarks use synthetic
equivalents, whose frequencies are known exactly, so recall and error
against the truth are measurable:

* :func:`zipf_workload` — Zipf-distributed values over a large domain, the
  standard model of URL/word popularity;
* :func:`planted_workload` — explicitly planted heavy hitters over a uniform
  or Zipfian background, so that recall at a known frequency is measurable;
* :mod:`repro.workloads.datasets` — generators producing string-keyed
  "URL"/"word" datasets together with the integer encoding the protocols use.
"""

from repro.workloads.datasets import (
    StringDomain,
    synthetic_url_dataset,
    synthetic_word_dataset,
)
from repro.workloads.distributions import (
    PlantedWorkload,
    planted_workload,
    uniform_workload,
    zipf_workload,
)

__all__ = [
    "zipf_workload",
    "uniform_workload",
    "planted_workload",
    "PlantedWorkload",
    "synthetic_url_dataset",
    "synthetic_word_dataset",
    "StringDomain",
]
