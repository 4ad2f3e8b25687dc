"""Microdata anonymization under the beta-likeness privacy model.

Given a table of quasi-identifier (QI) columns plus one categorical sensitive
attribute (SA), the model caps how much any SA value's frequency inside a
published equivalence class may exceed its table-wide frequency, in relative
terms: q <= p * (1 + min(beta, -ln p)). Two publication mechanisms enforce
it:

- `generalize`: group rows into classes with recoded QI descriptions, via a
  minimum bucket partition of the SA domain, recursive halving of bucket
  allocations, and Hilbert-curve-local retrieval;
- `build_model` / `perturb`: per-value randomized response on the SA column,
  published with its transition matrix for count reconstruction.

Auditors (`achieved_beta`, `nb_bound_audit`), information-loss metrics
(`ail`), and a query-workload evaluator measure what the privacy budget
costs.
"""

from .audit import NbAuditReport, achieved_beta, ec_audit_lines, nb_bound_audit
from .buckets import Bucket, BucketPartition, dp_partition, partition_spans
from .data import (
    Attribute,
    DataError,
    DatasetSchema,
    Table,
    census_like_profile,
    default_qi_spec,
    generate_synthetic,
    load_schema,
    load_table,
    parse_schema,
    sa_distribution,
    save_schema,
    save_table,
    table_from_rows,
)
from .ectree import bi_split
from .generalize import SortedBucket, generalize
from .hierarchy import Hierarchy, HierarchyError
from .hilbert import hilbert_indices, table_keys
from .infoloss import ail
from .likeness import (
    Distribution,
    LikenessError,
    check_basic,
    check_enhanced,
    frequency_bound,
)
from .perturb import (
    PerturbationError,
    PerturbationModel,
    build_model,
    load_perturbation,
    perturb,
    posterior,
    ratio_bound,
    reconstruct,
    reconstruct_nonnegative,
    save_perturbation,
)
from .queries import (
    AggregateQuery,
    WorkloadReport,
    estimate_perturbed,
    exact_count,
    gen_workload,
    perturbation_reports,
    save_report,
    workload_report_baseline,
    workload_report_generalized,
    workload_report_perturbed,
)
from .release import EquivalenceClass, Release, build_ec, load_release, save_release

__version__ = "0.1.0"

__all__ = [
    "AggregateQuery",
    "Attribute",
    "Bucket",
    "BucketPartition",
    "DataError",
    "DatasetSchema",
    "Distribution",
    "EquivalenceClass",
    "Hierarchy",
    "HierarchyError",
    "LikenessError",
    "NbAuditReport",
    "PerturbationError",
    "PerturbationModel",
    "Release",
    "SortedBucket",
    "Table",
    "WorkloadReport",
    "achieved_beta",
    "ail",
    "bi_split",
    "build_ec",
    "build_model",
    "census_like_profile",
    "check_basic",
    "check_enhanced",
    "default_qi_spec",
    "dp_partition",
    "ec_audit_lines",
    "estimate_perturbed",
    "exact_count",
    "frequency_bound",
    "gen_workload",
    "generalize",
    "generate_synthetic",
    "hilbert_indices",
    "load_perturbation",
    "load_release",
    "load_schema",
    "load_table",
    "nb_bound_audit",
    "parse_schema",
    "partition_spans",
    "perturb",
    "perturbation_reports",
    "posterior",
    "ratio_bound",
    "reconstruct",
    "reconstruct_nonnegative",
    "sa_distribution",
    "save_perturbation",
    "save_release",
    "save_report",
    "save_schema",
    "save_table",
    "table_from_rows",
    "table_keys",
    "workload_report_baseline",
    "workload_report_generalized",
    "workload_report_perturbed",
]
