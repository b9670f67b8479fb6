"""edm-rulex: comprehensible IF-THEN rules from categorical student data.

The pipeline encodes categorical records as fixed-length bit strings, trains
a one-hidden-layer network on them, evolves chromosomes that maximize each
class output, and decodes the winners into refined IF-THEN rules.  Cohorts
can be generated synthetically from published summary statistics, and the
psychostats module recomputes the full statistical analysis (t, MANOVA,
partial correlation, reliability, factor rotation) on any cohort.
"""

from .errors import NumericError, ValidationError
from .evolver import EvolutionResult, GaConfig, evolve
from .neural import Network, TrainConfig, TrainResult, class_score, forward, init_network, train
from .rulekit import (
    Rule,
    RuleSet,
    decode_chromosome,
    extract_ruleset,
    format_rule,
    parse_rule,
    refine_rule,
)
from .schema import (
    Attribute,
    AttributeSchema,
    DatasetIndex,
    DiscretizationSpec,
    EncodedVector,
    StudentRecord,
    encode_dataset,
    encode_record,
    load_schema,
    parse_dataset_csv,
    read_index_csv,
)
from .studydata import default_population_spec, default_student_schema
from .synthgen import PlantedRuleSpec, PopulationSpec, plant_rules, sample_population

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "AttributeSchema",
    "DatasetIndex",
    "DiscretizationSpec",
    "EncodedVector",
    "EvolutionResult",
    "GaConfig",
    "Network",
    "NumericError",
    "PlantedRuleSpec",
    "PopulationSpec",
    "Rule",
    "RuleSet",
    "StudentRecord",
    "TrainConfig",
    "TrainResult",
    "ValidationError",
    "class_score",
    "decode_chromosome",
    "default_population_spec",
    "default_student_schema",
    "encode_dataset",
    "encode_record",
    "evolve",
    "extract_ruleset",
    "format_rule",
    "forward",
    "init_network",
    "load_schema",
    "parse_dataset_csv",
    "parse_rule",
    "plant_rules",
    "read_index_csv",
    "refine_rule",
    "sample_population",
    "train",
]
