"""Budget-capped spatial clustering of maintenance projects into
per-fiscal-year plans."""

from .costs import (
    ConservationReport,
    CostScenarioMatrix,
    apply_cost_matrix,
    conservation_report,
    flat_cost_table,
    matrix_from_segments,
    synthesize_cost_matrix,
)
from .geometry import (
    ClusterBalls,
    DistanceOrdering,
    furthest_point_from_cluster,
    order_by_distance,
)
from .io_formats import (
    CsvFormatError,
    PlanDocument,
    document_to_json,
    emit_plan,
    input_digest,
    load_budgets,
    load_cost_matrix,
    load_segments,
    parse_plan_document,
    plan_from_document,
    render_plan_svg,
)
from .metrics import (
    PlanComparison,
    PlanMetrics,
    compare_plans,
    compute_metrics,
    plan_from_schedule,
)
from .model import (
    BudgetEntry,
    BudgetSchedule,
    Cluster,
    Diagnostic,
    DimensionMismatchError,
    MismatchedInputsError,
    MissingCostError,
    PavePlanError,
    Plan,
    Segment,
    UnknownSegmentError,
    ValidationFailedError,
    cluster_cost,
    money,
    validate_dataset,
)
from .radial import (
    ClusterBuildTrace,
    landmark_based_radial_clustering,
    main_algorithm,
    radial_neighbor_clustering,
    select_initial_center,
)
from .refine import (
    ToleranceBand,
    band_order,
    build_tolerance_band,
    schedule_aware_cluster,
    schedule_aware_plan,
)
from .synth import synthesize_dataset

__version__ = "0.1.0"
