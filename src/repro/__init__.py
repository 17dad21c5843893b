"""repro — a reproduction of "Heavy Hitters and the Structure of Local Privacy".

Bun, Nelson and Stemmer (PODS 2018, arXiv:1711.04740) give a locally
differentially private heavy-hitters protocol with optimal worst-case error in
every parameter (including the failure probability), a matching lower bound,
and a collection of structural results about the local model: advanced
grouposition, max-information bounds, pure-DP composition for randomized
response, and a generic approximate-to-pure transformation.

This package implements all of it:

========================  =====================================================
``repro.protocol``        Client/server wire API: serializable ``PublicParams``,
                          stateless ``ClientEncoder``, mergeable
                          ``ServerAggregator`` for every protocol below
``repro.engine``          Multiprocess simulation engine over the wire API:
                          deterministic chunk plans, process-pool execution,
                          bit-identical for every worker count
``repro.core``            PrivateExpanderSketch (Section 3.3) and its parameters
``repro.frequency``       Hashtogram frequency oracles (Theorems 3.7/3.8)
``repro.randomizers``     Local randomizers (RR, unary, RAPPOR, Hadamard, ...)
``repro.codes``           Reed-Solomon + unique-list-recoverable codes (Thm 3.6)
``repro.graphs``          Spectral expanders and cluster-preserving clustering
``repro.hashing``         k-wise independent hash families
``repro.baselines``       Bassily et al. [3], Bassily-Smith-style, RAPPOR, and
                          non-private streaming baselines
``repro.accounting``      Composition, advanced grouposition (Thm 4.2/4.3),
                          max-information (Thm 4.5)
``repro.structure``       Composed randomized response (Thm 5.1), GenProt (Thm 6.1)
``repro.lowerbounds``     Anti-concentration and the Theorem 7.2 experiment
``repro.workloads``       Synthetic Zipf / planted / URL / word workloads
``repro.analysis``        Concentration bounds, Table 1 formulas, HH metrics
========================  =====================================================

Deployment model
----------------

The local model is client/server by construction, and the primary API mirrors
that.  A deployment has three roles:

1. **Server (setup).** Publish serializable public parameters — hash seeds,
   bucket counts, ε, the repetition-assignment policy::

       from repro import HashtogramParams
       params = HashtogramParams.create(domain_size=1 << 20, epsilon=1.0,
                                        num_buckets=256, rng=0)
       payload = params.to_dict()          # JSON-safe; ship to every client

2. **Clients (encode).** Each of the n users rebuilds the parameters, runs the
   stateless encoder on her own device, and ships one short report::

       encoder = HashtogramParams.from_dict(payload).make_encoder()
       report = encoder.encode(value, rng)          # a few bits on the wire

3. **Server (aggregate + estimate).** Any number of shard workers ``absorb``
   reports as they arrive; shard states ``merge`` commutatively and
   associatively (exact integer arithmetic, so K shards reproduce one server
   bit for bit); ``finalize()`` debiases into a fitted oracle::

       from repro import merge_aggregators
       shards = [params.make_aggregator() for _ in range(4)]
       ...                                           # shards absorb reports
       oracle = merge_aggregators(shards).finalize()
       oracle.estimate(x)

The one-shot ``FrequencyOracle.collect(values)`` and
``HeavyHitterProtocol.run(values)`` entry points remain as simulation
conveniences, implemented exactly as ``encode_batch → absorb_batch →
finalize`` on this wire API; ``repro.engine.run_simulation`` executes the
same loop across a process pool with bit-identical output.

Quickstart::

    import numpy as np
    from repro import PrivateExpanderSketch, planted_workload

    workload = planted_workload(num_users=50_000, domain_size=1 << 20,
                                heavy_fractions=[0.2, 0.15], rng=0)
    protocol = PrivateExpanderSketch(domain_size=1 << 20, epsilon=2.0)
    result = protocol.run(workload.values, rng=1)
    print(result.top(5))
"""

import importlib
from typing import Dict, List

#: where every public name lives; each module is imported on first access, so
#: ``import repro.cli`` or ``import repro.server`` never pays for the
#: accounting, structure or lower-bound layers (nor for scipy)
_SOURCES = {
    "repro.accounting": ("GroupPrivacyAnalyzer", "advanced_grouposition",
                         "advanced_grouposition_approximate",
                         "ldp_max_information"),
    "repro.analysis": ("score_heavy_hitters", "table1_rows"),
    "repro.applications": ("HierarchicalRangeOracle",
                           "PrivateQuantileEstimator"),
    "repro.baselines": ("DomainScanHeavyHitters", "RapporHeavyHitters",
                        "SingleHashHeavyHitters"),
    "repro.core": ("HeavyHitterProtocol", "HeavyHitterResult",
                   "PrivateExpanderSketch", "ProtocolParameters"),
    "repro.engine": ("EngineResult", "run_simulation"),
    "repro.frequency": ("CountMeanSketchOracle", "ExplicitHistogramOracle",
                        "FrequencyOracle", "HashtogramOracle"),
    "repro.lowerbounds": ("CountingLowerBoundExperiment",),
    "repro.protocol": ("ClientEncoder", "CountMeanSketchParams",
                       "ExpanderSketchParams", "ExplicitHistogramParams",
                       "HashtogramParams", "PublicParams", "RapporParams",
                       "Report", "ReportBatch", "ServerAggregator",
                       "SingleHashParams", "merge_aggregators"),
    "repro.structure": ("ApproximateComposedRandomizedResponse", "GenProt"),
    "repro.workloads": ("planted_workload", "synthetic_url_dataset",
                        "synthetic_word_dataset", "uniform_workload",
                        "zipf_workload"),
}
_EXPORTS: Dict[str, str] = {name: module for module, names in _SOURCES.items()
                            for name in names}

__version__ = "1.0.0"

__all__ = [
    "PrivateExpanderSketch",
    "ProtocolParameters",
    "HeavyHitterProtocol",
    "HeavyHitterResult",
    "PublicParams",
    "ClientEncoder",
    "ServerAggregator",
    "Report",
    "ReportBatch",
    "merge_aggregators",
    "EngineResult",
    "run_simulation",
    "ExplicitHistogramParams",
    "HashtogramParams",
    "CountMeanSketchParams",
    "RapporParams",
    "ExpanderSketchParams",
    "SingleHashParams",
    "ExplicitHistogramOracle",
    "HashtogramOracle",
    "CountMeanSketchOracle",
    "FrequencyOracle",
    "HierarchicalRangeOracle",
    "PrivateQuantileEstimator",
    "SingleHashHeavyHitters",
    "DomainScanHeavyHitters",
    "RapporHeavyHitters",
    "ApproximateComposedRandomizedResponse",
    "GenProt",
    "advanced_grouposition",
    "advanced_grouposition_approximate",
    "GroupPrivacyAnalyzer",
    "ldp_max_information",
    "CountingLowerBoundExperiment",
    "zipf_workload",
    "uniform_workload",
    "planted_workload",
    "synthetic_url_dataset",
    "synthetic_word_dataset",
    "score_heavy_hitters",
    "table1_rows",
    "__version__",
]


def __getattr__(name: str):
    """Resolve a public name, or a not-yet-imported subpackage, on first use.

    So ``repro.engine`` works after a bare ``import repro``, and
    ``from repro import *`` resolves every name in ``__all__``.
    """
    if name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    source = _EXPORTS.get(name)
    if source is not None:
        value = getattr(importlib.import_module(source), name)
    else:
        try:
            value = importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute "
                                 f"{name!r}") from None
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
