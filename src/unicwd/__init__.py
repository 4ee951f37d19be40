"""Unigraph recognition and bounded clique-width expression synthesis.

The package recognizes unigraphs (graphs determined by their degree
sequence) through their canonical decomposition into indecomposable split
components over an indecomposable core, constructs clique-width
expressions with at most five labels for them, verifies the expressions
by evaluation, and solves independent set / vertex cover / dominating set
by dynamic programming over the expression trees. Brute-force oracles
certify every claim at small scale.
"""

from .graph import (
    Graph,
    GraphFormatError,
    SplittedGraph,
    complement,
    degree_sequence,
    find_isomorphism,
    induced,
    is_clique,
    is_independent,
    is_isomorphic,
    is_split_partition,
    read_edge_list,
    split_bipartition,
    splitted_isomorphic,
    to_edge_list,
)
from .kexpr import (
    DuplicateVertexError,
    ExprStats,
    Intro,
    Join,
    KExpr,
    KExprSyntaxError,
    LabeledGraph,
    Relabel,
    Union,
    evaluate,
    is_split_labeled,
    labels_of,
    parse,
    stats,
    to_text,
    width,
)
from .decomp import (
    CanonicalDecomposition,
    TopSplit,
    compose,
    decompose,
    find_top_split,
    recompose,
    splitted_decomposable,
)
from .catalog import (
    C5Spec,
    ComponentMatch,
    FamilySpec,
    K1Spec,
    MK2Spec,
    RecognizedDecomposition,
    S2Spec,
    S3Spec,
    S4Spec,
    U2Spec,
    U3Spec,
    VARIANTS,
    build_template,
    havel_hakimi,
    is_unigraph,
    match_nonsplit_component,
    match_split_component,
    random_unigraph,
)
from .synth import (
    NotUnigraphError,
    SynthesisError,
    SynthesisReport,
    glue_split,
    glue_tail,
    synth_nonsplit,
    synth_split,
    synthesize,
)
from .solve import (
    SizeGuardError,
    brute_mds,
    brute_mis,
    decompositions_equivalent,
    enumerate_decompositions,
    oracle_cwd_leq,
    oracle_unigraph,
    solve_mds,
    solve_mis,
    solve_vc,
)

__version__ = "0.1.0"
