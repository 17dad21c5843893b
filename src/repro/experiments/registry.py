"""The paper's experiments, each declared once.

The paper's reproducible content is Table 1 plus theorem-level shape claims
(√k grouposition, error growing like √n and 1/ε, the Theorem 7.2 lower
bound, ...).  One :class:`Experiment` per EXPERIMENTS.md section holds its
description, ``tables(config) -> [(subtitle, rows)]``, its ``full`` and
``quick`` configurations, and ``check(tables)``: the paper's claims the
tables break, empty when every claim holds.

``python -m repro.cli list``/``run`` (``run X`` runs ``full``, ``--quick``
runs ``quick``) and ``matrix render experiments/configs/paper.yaml`` read
:data:`EXPERIMENTS`; the render fails when a check does.  Checks compare
instead of asserting, so ``python -O`` keeps them, and read rows by value
(the row with the largest β, the f = 0 row), never by position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.experiments.ablations import (
    HashingAblationConfig,
    HashtogramAblationConfig,
    run_hashing_ablation,
    run_hashtogram_ablation,
)
from repro.experiments.composed_rr import ComposedRRConfig, run_composed_rr
from repro.experiments.error_curves import (
    ErrorCurveConfig,
    run_error_vs_beta,
    run_error_vs_epsilon,
    run_error_vs_n,
)
from repro.experiments.frequency_oracle import (
    FrequencyOracleConfig,
    run_frequency_oracle,
)
from repro.experiments.genprot import GenProtConfig, run_genprot
from repro.experiments.grouposition import GroupositionConfig, run_grouposition
from repro.experiments.list_recovery import ListRecoveryConfig, run_list_recovery
from repro.experiments.lower_bound import (
    LowerBoundConfig,
    run_anti_concentration,
    run_counting_lower_bound,
)
from repro.experiments.max_information import (
    MaxInformationConfig,
    run_max_information,
)
from repro.experiments.table1 import Table1Config, run_table1, theoretical_rows

Rows = List[Dict[str, Any]]
Tables = List[Tuple[str, Rows]]


@dataclass(frozen=True)
class Experiment:
    """One paper experiment: how to build its tables and what they must show."""

    description: str
    tables: Callable[[Any], Tables]
    full: Any
    quick: Any
    check: Callable[[Tables], List[str]]


def _table(subtitle: str, run: Callable[[Any], Rows]) -> Callable[[Any], Tables]:
    """``tables`` for an experiment with a single table."""
    return lambda config: [(subtitle, run(config))]


def _failed(claims: Sequence[Tuple[str, bool]]) -> List[str]:
    return [claim for claim, holds in claims if not holds]


def _rows(tables: Tables) -> Rows:
    """The rows of a one-table experiment."""
    ((_, rows),) = tables
    return rows


def _ends(rows: Rows, key: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The rows with the smallest and the largest ``key``."""
    return (min(rows, key=lambda row: row[key]),
            max(rows, key=lambda row: row[key]))


def _check_table1(tables: Tables) -> List[str]:
    (_, measured), (_, formulas) = tables
    by_protocol = {row["protocol"]: row for row in measured}
    ours = by_protocol["private_expander_sketch"]
    scan = by_protocol["domain_scan_bs"]
    errors = [row["error_value"] for row in formulas]
    return _failed([
        ("the measured rows are the expander sketch, the single-hash [3] "
         "baseline and the domain scan [4], in that order",
         [row["protocol"] for row in measured]
         == ["private_expander_sketch", "single_hash_bnst", "domain_scan_bs"]),
        ("the expander sketch recovers every planted heavy hitter (recall 1.0)",
         ours["recall"] == 1.0),
        ("the expander sketch sends fewer than 200 bits per user",
         ours["comm_bits_per_user"] < 200),
        ("the domain scan keeps at least |X| scalars",
         scan["server_memory_items"] >= scan["domain_size"]),
        ("Table 1 has three formula rows", len(formulas) == 3),
        ("the formula errors order this work < [3] < [4]",
         all(a < b for a, b in zip(errors, errors[1:]))),
    ])


def _check_error_vs_beta(tables: Tables) -> List[str]:
    smallest, largest = _ends(_rows(tables), "beta")

    def gap(row):
        return row["baseline_formula"] / row["ours_formula"]

    return _failed([
        ("the baseline's repetitions grow as β shrinks",
         smallest["baseline_repetitions"] > largest["baseline_repetitions"]),
        ("at the smallest β our detection threshold is no worse than the "
         "baseline's",
         smallest["ours_detection_fraction"]
         <= smallest["baseline_detection_fraction"] + 1e-9),
        ("the formula gap grows like sqrt(log(1/β))",
         gap(smallest) > gap(largest)),
    ])


def _check_error_envelope(key: str, grows: bool):
    """E2/E3: recovery and the error envelope across a sweep of ``key``."""

    def check(tables: Tables) -> List[str]:
        rows = _rows(tables)
        low, high = _ends(rows, key)
        return _failed([
            (f"the sweep covers at least two values of {key}",
             len({row[key] for row in rows}) >= 2),
            (f"every {key} recovers at least one planted element",
             all(row["recovered"] >= 1 for row in rows)),
            (f"the max error stays below 6x the formula at every {key}",
             all(row["max_error"] < 6 * row["formula"] for row in rows)),
            (f"the formula {'grows' if grows else 'shrinks'} with {key}",
             (high["formula"] > low["formula"]) if grows
             else (high["formula"] < low["formula"])),
        ])

    return check


def _check_frequency_oracle(tables: Tables) -> List[str]:
    rows = _rows(tables)
    hashtogram = [row for row in rows if row["oracle"] == "hashtogram"]
    smallest, largest = _ends(hashtogram, "domain_size")
    domains = {row["domain_size"] for row in rows}
    return _failed([
        ("the max error stays below 4x the Theorem 3.7/3.8 bound",
         all(row["max_error"] < 4 * row.get("bound_thm37", row.get("bound_thm38"))
             for row in rows)),
        ("Hashtogram's server memory does not grow with the domain",
         largest["server_memory_items"] == smallest["server_memory_items"]),
        ("every domain size has a Hashtogram row",
         {row["domain_size"] for row in hashtogram} == domains),
        ("the smallest domain has an explicit-oracle row",
         (min(domains), "explicit") in {(row["domain_size"], row["oracle"])
                                        for row in rows}),
    ])


def _check_grouposition(tables: Tables) -> List[str]:
    rows = _rows(tables)
    smallest, largest = _ends(rows, "group_size")
    return _failed([
        ("the measured loss quantile stays below the Theorem 4.2 bound at "
         "every k",
         all(row["measured_quantile"] <= row["advanced_grouposition_bound"]
             for row in rows)),
        ("the advantage over kε grows with k",
         largest["advantage"] > smallest["advantage"]),
        ("at the largest k the central kε bound exceeds 4x the measured "
         "quantile",
         largest["central_bound_k_epsilon"] > 4 * largest["measured_quantile"]),
    ])


def _check_max_information(tables: Tables) -> List[str]:
    rows = _rows(tables)
    empirical = [row for row in rows if "empirical_max_information_nats" in row]
    analytic = [row for row in rows if "empirical_max_information_nats" not in row]
    return _failed([
        ("the table holds an analytic sweep and one empirical row",
         bool(analytic) and len(empirical) == 1),
        ("the LDP bound beats the central bound at every n",
         all(row["ldp_bound_nats"] < row["central_bound_nats"]
             for row in analytic)),
        ("the empirical max-information stays below the Theorem 4.5 bound",
         all(row["empirical_max_information_nats"]
             <= row["ldp_bound_nats"] + 1e-9 for row in empirical)),
    ])


def _check_composed_rr(tables: Tables) -> List[str]:
    rows = _rows(tables)
    _, largest = _ends(rows, "num_bits")
    return _failed([
        ("the worst-case loss stays below the Theorem 5.1 bound at every k",
         all(row["worst_case_loss"] <= row["theorem_bound"] + 1e-9
             for row in rows)),
        ("the TV distance stays below β at every k",
         all(row["tv_distance"] <= row["beta"] for row in rows)),
        ("at the largest k the construction beats basic composition",
         largest["worst_case_loss"] < largest["basic_composition"]),
    ])


def _check_genprot(tables: Tables) -> List[str]:
    rows = _rows(tables)
    return _failed([
        ("both a pure RR base and an approximate Gaussian base are measured",
         {row["base"] for row in rows}
         == {"randomized_response", "gaussian_histogram"}),
        ("the audited index loss stays below 10ε",
         all(row["empirical_index_loss"] < row["transformed_epsilon"]
             for row in rows)),
        ("reports take at most 8 bits",
         all(row["report_bits"] <= 8 for row in rows)),
        ("the Theorem 6.1 TV bound stays below 0.2",
         all(row["tv_bound"] < 0.2 for row in rows)),
    ])


def _check_lower_bound(tables: Tables) -> List[str]:
    (_, counting), (_, anti) = tables
    smallest, largest = _ends(counting, "beta")
    return _failed([
        ("the measured error quantile is at least 0.4x the Theorem 7.2 "
         "lower bound",
         all(row["measured_quantile_error"] >= 0.4 * row["lower_bound"]
             for row in counting)),
        ("the measured error quantile is at most 1.5x the matching upper "
         "bound",
         all(row["measured_quantile_error"] <= 1.5 * row["upper_bound"]
             for row in counting)),
        ("the error quantile grows as β shrinks",
         smallest["measured_quantile_error"]
         > largest["measured_quantile_error"]),
        ("every Corollary 7.6 interval is escaped with probability at least β",
         all(row["escape_at_least_beta"] for row in anti)),
    ])


def _check_list_recovery(tables: Tables) -> List[str]:
    rows = _rows(tables)
    clean, most = _ends(rows, "corrupted_fraction")
    below_alpha = [row for row in rows
                   if 0 < row["corrupted_fraction"] < row["alpha"]]
    return _failed([
        ("with no corruption every planted codeword is recovered",
         clean["corrupted_fraction"] == 0 and clean["recovery_rate"] == 1.0),
        ("below α every recovery rate is at least 0.85",
         all(row["recovery_rate"] >= 0.85 for row in below_alpha)),
        ("at the largest corrupted fraction recovery collapses to at most 0.5",
         most["recovery_rate"] <= 0.5),
        ("recovery at the largest corrupted fraction is below recovery "
         "without corruption",
         most["recovery_rate"] < clean["recovery_rate"]),
    ])


def _check_ablation_hashing(tables: Tables) -> List[str]:
    rows = _rows(tables)
    smallest, largest = _ends(rows, "beta")
    return _failed([
        ("the sweep covers at least two values of β",
         len({row["beta"] for row in rows}) >= 2),
        ("our recall is 1.0 at every β",
         all(row["ours_recall"] == 1.0 for row in rows)),
        ("the baseline's repetitions grow as β shrinks",
         smallest["baseline_repetitions"] > largest["baseline_repetitions"]),
    ])


def _check_ablation_hashtogram(tables: Tables) -> List[str]:
    rows = _rows(tables)
    by_key = {(row["num_buckets"], row["num_repetitions"]): row for row in rows}
    smallest, largest = by_key[min(by_key)], by_key[max(by_key)]
    buckets = {key[0] for key in by_key}
    repetitions = {key[1] for key in by_key}
    rms = [row["rms_error"] for row in rows]
    return _failed([
        ("one row per (buckets, repetitions) pair",
         len(rows) == len(by_key) == len(buckets) * len(repetitions)),
        ("the most buckets and repetitions keep more server memory than the "
         "fewest",
         largest["server_memory_items"] > smallest["server_memory_items"]),
        ("the most buckets and repetitions use more public randomness than "
         "the fewest",
         largest["public_randomness_bits"] > smallest["public_randomness_bits"]),
        ("the best configuration beats the worst on RMS error",
         min(rms) < max(rms)),
    ])


#: experiment name (``repro.cli run <name>``, a paper.yaml section) -> entry
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        "Table 1 protocol comparison (T1)",
        lambda config: [("T1: Table 1 (measured)", run_table1(config)),
                        ("T1: Table 1 (asymptotic formulas)",
                         theoretical_rows(config))],
        full=Table1Config(),
        quick=Table1Config(num_users=15_000, domain_size=1 << 16,
                           scan_domain_size=1 << 10,
                           heavy_fractions=[0.35, 0.25]),
        check=_check_table1),
    "error-vs-beta": Experiment(
        "Detection threshold vs failure probability (E1)",
        _table("E1: detection threshold vs beta", run_error_vs_beta),
        full=ErrorCurveConfig(),
        quick=ErrorCurveConfig(num_users=15_000, domain_size=1 << 16,
                               betas=[0.2, 0.01],
                               probe_fractions=[0.12, 0.2, 0.3]),
        check=_check_error_vs_beta),
    "error-vs-n": Experiment(
        "Estimation error vs number of users (E2)",
        _table("E2: error vs n", run_error_vs_n),
        full=ErrorCurveConfig(rng=1),
        quick=ErrorCurveConfig(domain_size=1 << 16,
                               num_users_sweep=[8_000, 16_000]),
        check=_check_error_envelope("num_users", grows=True)),
    "error-vs-epsilon": Experiment(
        "Estimation error vs privacy parameter (E3)",
        _table("E3: error vs epsilon", run_error_vs_epsilon),
        full=ErrorCurveConfig(epsilon_sweep=[2.0, 4.0, 8.0], rng=2),
        quick=ErrorCurveConfig(num_users=15_000, domain_size=1 << 16,
                               epsilon_sweep=[2.0, 8.0]),
        check=_check_error_envelope("epsilon", grows=False)),
    "frequency-oracle": Experiment(
        "Frequency-oracle accuracy (E4)",
        _table("E4: frequency-oracle error", run_frequency_oracle),
        full=FrequencyOracleConfig(),
        quick=FrequencyOracleConfig(num_users=8_000,
                                    domain_sizes=[1 << 8, 1 << 14],
                                    num_queries=60),
        check=_check_frequency_oracle),
    "grouposition": Experiment(
        "Advanced grouposition (E5)",
        _table("E5: advanced grouposition", run_grouposition),
        full=GroupositionConfig(),
        quick=GroupositionConfig(group_sizes=[4, 64, 256], num_samples=8_000),
        check=_check_grouposition),
    "max-information": Experiment(
        "Max-information bounds (E6)",
        _table("E6: max-information", run_max_information),
        full=MaxInformationConfig(),
        quick=MaxInformationConfig(num_users_sweep=[100, 1_000],
                                   empirical_users=60, empirical_samples=500),
        check=_check_max_information),
    "composed-rr": Experiment(
        "Composition for randomized response (E7)",
        _table("E7: composed randomized response", run_composed_rr),
        full=ComposedRRConfig(num_bits_sweep=[4, 8, 16, 32, 64, 128, 256]),
        quick=ComposedRRConfig(num_bits_sweep=[8, 32, 128]),
        check=_check_composed_rr),
    "genprot": Experiment(
        "GenProt approximate-to-pure transformation (E8)",
        _table("E8: GenProt transformation", run_genprot),
        full=GenProtConfig(),
        quick=GenProtConfig(num_users=800, privacy_trials=800),
        check=_check_genprot),
    "lower-bound": Experiment(
        "Error lower bound and anti-concentration (E9)",
        lambda config: [("E9a: counting lower bound",
                         run_counting_lower_bound(config)),
                        ("E9b: anti-concentration",
                         run_anti_concentration(config))],
        full=LowerBoundConfig(),
        quick=LowerBoundConfig(num_users=3_000, num_trials=80,
                               betas=[0.3, 0.1], anticoncentration_bits=200),
        check=_check_lower_bound),
    "list-recovery": Experiment(
        "Unique list recovery under corruption (E10)",
        _table("E10: list recovery", run_list_recovery),
        full=ListRecoveryConfig(hash_range=128),
        quick=ListRecoveryConfig(num_coordinates=10, num_codewords=3,
                                 corrupted_fractions=[0.0, 0.2, 0.5],
                                 num_trials=2),
        check=_check_list_recovery),
    "ablation-hashing": Experiment(
        "Hashing-structure ablation (A1)",
        _table("A1: hashing-structure ablation", run_hashing_ablation),
        full=HashingAblationConfig(),
        quick=HashingAblationConfig(num_users=15_000, domain_size=1 << 16,
                                    betas=[0.2, 0.02],
                                    heavy_fractions=[0.35, 0.25]),
        check=_check_ablation_hashing),
    "ablation-hashtogram": Experiment(
        "Hashtogram bucket/repetition ablation (A2)",
        _table("A2: Hashtogram ablation", run_hashtogram_ablation),
        full=HashtogramAblationConfig(),
        quick=HashtogramAblationConfig(num_users=6_000, domain_size=1 << 14,
                                       bucket_counts=[32, 256],
                                       repetition_counts=[1, 5],
                                       num_queries=40),
        check=_check_ablation_hashtogram),
}
