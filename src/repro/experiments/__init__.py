"""Experiment drivers: one module per table/figure reproduced from the paper.

Each module exposes a small configuration dataclass and a ``run_*`` function
returning plain dictionaries/lists of rows, so users can call them from
notebooks or scripts.  :mod:`repro.experiments.registry` declares each
experiment once (its tables, full and quick configurations, and the paper's
claims checked on them); ``python -m repro.cli run`` and the EXPERIMENTS.md
render (``matrix render experiments/configs/paper.yaml``) read it.

Experiment index (the registry names each one):

===========  ================================================================
``table1``   T1 — the resource/error comparison of Table 1
``error_curves``  E1-E3 — error vs β, n, ε for the heavy-hitters protocols
``frequency_oracle``  E4 — Hashtogram error vs its Theorem 3.7/3.8 bounds
``grouposition``      E5 — measured group privacy loss vs kε and √k·ε curves
``max_information``   E6 — max-information bounds, LDP vs central
``composed_rr``       E7 — Theorem 5.1: privacy and TV distance of M̃
``genprot``           E8 — Theorem 6.1: privacy/utility of the transformation
``lower_bound``       E9 — Theorem 7.2: measured error vs the lower bound
``list_recovery``     E10 — list-recovery success vs corrupted coordinates
``ablations``         A1/A2 — hashing-structure and Hashtogram ablations
===========  ================================================================
"""

import importlib
from typing import Dict, List

#: where every public name lives, imported on first access: a CLI verb that
#: only renders a table (``format_table``) loads no driver and no scipy
_SOURCES = {
    "ablations": ("HashingAblationConfig", "HashtogramAblationConfig",
                  "run_hashing_ablation", "run_hashtogram_ablation"),
    "composed_rr": ("ComposedRRConfig", "run_composed_rr"),
    "error_curves": ("ErrorCurveConfig", "run_error_vs_beta",
                     "run_error_vs_epsilon", "run_error_vs_n"),
    "frequency_oracle": ("FrequencyOracleConfig", "run_frequency_oracle"),
    "genprot": ("GenProtConfig", "run_genprot"),
    "grouposition": ("GroupositionConfig", "run_grouposition"),
    "list_recovery": ("ListRecoveryConfig", "run_list_recovery"),
    "lower_bound": ("LowerBoundConfig", "run_anti_concentration",
                    "run_counting_lower_bound"),
    "max_information": ("MaxInformationConfig", "run_max_information"),
    "reporting": ("format_markdown_table", "format_table"),
    "table1": ("Table1Config", "run_table1", "theoretical_rows"),
}
_EXPORTS: Dict[str, str] = {name: module for module, names in _SOURCES.items()
                            for name in names}

__all__ = [
    "format_table",
    "format_markdown_table",
    "Table1Config",
    "run_table1",
    "theoretical_rows",
    "ErrorCurveConfig",
    "run_error_vs_beta",
    "run_error_vs_n",
    "run_error_vs_epsilon",
    "FrequencyOracleConfig",
    "run_frequency_oracle",
    "GroupositionConfig",
    "run_grouposition",
    "MaxInformationConfig",
    "run_max_information",
    "ComposedRRConfig",
    "run_composed_rr",
    "GenProtConfig",
    "run_genprot",
    "LowerBoundConfig",
    "run_counting_lower_bound",
    "run_anti_concentration",
    "ListRecoveryConfig",
    "run_list_recovery",
    "HashingAblationConfig",
    "HashtogramAblationConfig",
    "run_hashing_ablation",
    "run_hashtogram_ablation",
]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
