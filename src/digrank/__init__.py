"""Exact ranks of weighted digraphs via block decomposition.

The adjacency rank of a digraph with rational arc weights is computed two
independent ways: dense fraction-free elimination (the oracle) and a
structural engine that splits the graph at cut-vertices, peels each block
at its border by the 0/1/2 rank-increment trichotomy, and applies
closed-form rules for trees and r2/r0 block structures; the simple-graph
families have closed forms of their own.
The engine emits a certificate recording every rule application.
"""

from .blocks import BlockDecomposition, block_subdigraph, breve, decompose
from .certificate import CertNode, RankCertificate, RuleTag, render_certificate
from .classify import (
    Classification,
    CutSplit,
    CutVertexCase,
    classify_bordered,
    classify_cut,
    make_split,
    side_components,
)
from .digraph import (
    EdgeKind,
    WeightedDigraph,
    build,
    format_digraph,
    oracle_rank,
    parse_digraph,
)
from .engine import is_r0_block, is_r0_digraph, is_r2_block, is_r2_digraph, rank_recursive
from .errors import (
    DigraphError,
    DimensionMismatch,
    DuplicateArc,
    InconsistentClassification,
    IndexOutOfRange,
    InternalMismatch,
    InvalidSpec,
    InvalidSplit,
    NotAForest,
    ParseError,
    PreconditionViolated,
    UnknownSuite,
    VertexOutOfRange,
    ZeroWeight,
)
from .generate import (
    DEFAULT_POOL,
    FAMILIES,
    GenSpec,
    extend_to_r2,
    gen,
    random_digraph,
)
from .linalg import (
    RankResult,
    RationalMatrix,
    bordered,
    dot,
    in_column_space,
    in_row_space,
    rank,
    vector,
)
from .theorems import (
    DigraphAttachment,
    EdgeAddition,
    apply_additions,
    build_genr2,
    check_lemma_2rin,
    is_r0_biblock_graph,
    is_r2_biblock_graph,
    is_r2_block_graph,
    loop_invariance_check,
    rank_case1_peel,
    rank_case2_peel,
    rank_case3_peel,
    rank_delta_cr2,
    rank_genr2,
    rank_mdt,
    rank_r0_biblock_graph,
    rank_r0_digraph,
    rank_r2_biblock_graph,
    rank_r2_block_graph,
    rank_r2_digraph,
)
from .trees import (
    MatchingResult,
    TreeKind,
    classify_tree,
    count_loop_attachments,
    is_forest,
    is_r2_tree_digraph,
    is_tree,
    max_matching,
    rank_r2_tree,
    rank_tree,
    tree_summary,
)
from .verify import SUITE_DEFAULTS, SuiteReport, run_suite, suite_names

__version__ = "0.1.0"
