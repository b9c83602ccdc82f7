"""Spectral clustering for mixed-type and categorical data.

The mixed pipeline augments a Gaussian similarity graph over the numeric
features with one extra node per category of each categorical variable and
runs normalized spectral clustering on the result. The categorical-only
pipeline exploits the exact bipartite structure of that augmentation to
solve the eigenproblem on the small category side and lift, in time linear
in the number of datapoints.
"""

from .baselines import PrototypeSet, kmodes, kprototypes
from .dataset import (ColumnSchema, MixedDataset, OneHotMatrix,
                      SyntheticParams, generate_synthetic, load_mixed_csv,
                      one_hot, standardize_numeric)
from .eigen import (EigenPairs, SymmetricOperator, generalized_smallest_eigs,
                    symmetric_smallest_eigs)
from .errors import (ConfigError, ConvergenceError, DataError, SchemaError,
                     SpecmixError, SpectralGapError)
from .graph import (AssignmentMatrix, AugmentedGraph, BaseWeights,
                    StackedEncoder, assemble_augmented, assignment_energy,
                    assignment_matrix, base_similarity, delta_counts)
from .kmeans import KMeansConfig, kmeans
from .metrics import (ContingencyTable, imbalance_ratio, label_agreement,
                      purity)
from .pipelines import (ClusteringResult, SpecMixConfig,
                        build_bipartite_reduction, build_stacked,
                        numeric_spectral, onlycat, specmix, transfer_cut)
from .sweep import ExperimentGrid, derive_seed, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AssignmentMatrix", "AugmentedGraph", "BaseWeights", "ClusteringResult",
    "ColumnSchema", "ConfigError", "ContingencyTable", "ConvergenceError",
    "DataError", "EigenPairs", "ExperimentGrid", "KMeansConfig",
    "MixedDataset", "OneHotMatrix", "PrototypeSet", "SchemaError",
    "SpecMixConfig", "SpecmixError", "SpectralGapError", "StackedEncoder",
    "SymmetricOperator", "SyntheticParams", "assemble_augmented",
    "assignment_energy", "assignment_matrix", "base_similarity",
    "build_bipartite_reduction", "build_stacked", "delta_counts",
    "derive_seed", "generalized_smallest_eigs", "generate_synthetic",
    "imbalance_ratio", "kmeans", "kmodes", "kprototypes", "label_agreement",
    "load_mixed_csv", "numeric_spectral", "one_hot", "onlycat", "purity",
    "run_sweep", "specmix", "standardize_numeric", "symmetric_smallest_eigs",
    "transfer_cut",
]
