"""Non-binary spatially-coupled QC-LDPC code construction and optimization.

Builds circulant-based block codes, couples them into spatially-coupled
codes, solves the optimal-overlap partitioning problem exactly, optimizes
circulant powers, and detects/removes general absorbing sets of type two
over GF(2^m).
"""

from .gf import FieldGF
from .qc import (
    PartitionMask,
    ProtoMatrix,
    SCCode,
    apply_edge_changes,
    build_ab_powers,
    code_from_json,
    code_to_json,
    couple,
    label_edges,
    protograph_of,
)
from .overlap import (
    CycleCensus,
    OverlapVector,
    count_partition_choices,
    cycle6_census,
    enumerate_valid_overlaps,
    realize_mask,
    solve_optimal_overlap,
)
from .cycles import (
    build_window,
    census_active_counts,
    count_ugast_3330,
    count_ugast_3330_for,
    girth_check,
)
from .cpo import CpoResult, cpo_optimize
from .baselines import cv_exhaustive_best, cv_mask, mo_best
from .gast import (
    GastInstance,
    RawTanner,
    UgastTopology,
    count_candidate_sets,
    enumerate_candidate_sets,
    gast_scan,
    is_gast,
    removal_budget,
)
from .pipeline import DesignConfig, DesignReport, run_pipeline, table1_report

__version__ = "0.1.0"
