"""Grammar-constrained temporal segmentation of activity sequences.

Per-frame features are scored by small left-to-right unit HMMs with GMM
observation models; a finite grammar of unit orderings drives a
token-passing decoder that labels every frame and reads off the unit
sequence.  The package also covers feature encoding, semi-supervised
bootstrapping from transcripts, synthetic benchmark data, and the usual
segmentation metrics.
"""

from .errors import BeamPrunedError, DataError, DecodeError, NoPathError
from .data import (
    ClipRecord,
    DatasetManifest,
    FeatureSequence,
    Segmentation,
    Transcript,
    UnitLexicon,
    frame_labels,
    load_features,
    load_manifest,
    save_features,
    save_manifest,
    segmentation_to_transcript,
)
from .gmm import Gmm, em_step, fit_em
from .hmm import (
    StatePath,
    UnitHmm,
    baum_welch,
    init_hmm,
    load_hmm_set,
    save_hmm_set,
    unit_log_priors,
    viterbi_align,
    viterbi_train,
)
from .features import (
    FrameEncoder,
    FvEncoderConfig,
    PcaModel,
    apply_pca,
    fit_fv_codebook,
    fit_pca,
    save_encoder,
)
from .grammar import (
    DecodingGraph,
    Grammar,
    build_grammar,
    compose,
    export_ebnf,
    graph_sentences,
    parse_ebnf,
    unconstrained_graph,
)
from .decoder import (
    DecodeResult,
    decode,
    force_align,
    majority_vote,
)
from .metrics import (
    accuracy,
    jaccard,
    mof,
    moc,
)
from .pipeline import (
    BalanceConfig,
    BootstrapConfig,
    ModelBundle,
    TrainConfig,
    bootstrap,
    load_bundle,
    save_bundle,
    train_supervised,
)
from .synth import SynthSpec, generate_dataset

__version__ = "0.1.0"

__all__ = [
    "BalanceConfig",
    "BeamPrunedError",
    "BootstrapConfig",
    "ClipRecord",
    "DataError",
    "DatasetManifest",
    "DecodeError",
    "DecodeResult",
    "DecodingGraph",
    "FeatureSequence",
    "FrameEncoder",
    "FvEncoderConfig",
    "Gmm",
    "Grammar",
    "ModelBundle",
    "NoPathError",
    "PcaModel",
    "Segmentation",
    "StatePath",
    "SynthSpec",
    "TrainConfig",
    "Transcript",
    "UnitHmm",
    "UnitLexicon",
    "accuracy",
    "apply_pca",
    "baum_welch",
    "bootstrap",
    "build_grammar",
    "compose",
    "decode",
    "em_step",
    "export_ebnf",
    "fit_em",
    "fit_fv_codebook",
    "fit_pca",
    "force_align",
    "frame_labels",
    "generate_dataset",
    "graph_sentences",
    "init_hmm",
    "jaccard",
    "load_bundle",
    "load_features",
    "load_hmm_set",
    "load_manifest",
    "majority_vote",
    "mof",
    "moc",
    "parse_ebnf",
    "save_bundle",
    "save_encoder",
    "save_features",
    "save_hmm_set",
    "save_manifest",
    "segmentation_to_transcript",
    "train_supervised",
    "unconstrained_graph",
    "unit_log_priors",
    "viterbi_align",
    "viterbi_train",
]
