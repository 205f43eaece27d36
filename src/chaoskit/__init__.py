"""Numerical toolkit for second and higher Wiener chaos.

Finite-dimensional symmetric tensors stand in for L2 kernels; multiple
integrals become Hermite polynomial forms in i.i.d. standard Gaussians.
On top of that sit exact moment/contraction formulas, grid embeddings of
fractional Brownian motion and the Brownian sheet, the classical
quadratic functionals of those processes, and trend diagnostics for
Gaussian-limit behavior of kernel sequences.
"""

__version__ = "0.1.0"

from .tensors import (
    Tensor,
    SymTensor,
    tensor,
    sym,
    basis_tensor,
    symmetrize,
    contract,
    inner,
    norm,
    norm_sq,
    add,
    scale,
    contraction_norm_sq,
)
from .chaos import (
    ChaosElement,
    hermite,
    eval_integral,
    eval_chaos_element,
    product_formula,
    second_moment_exact,
    fourth_moment_exact,
    excess_kurtosis_exact,
    contraction_profile,
    sample_integral,
    HSOperator,
    hs_operator,
    cumulant,
    char_function,
    sample_integral2_spectral,
)
from .embeddings import (
    FractionalBrownianMotion,
    BrownianSheet,
    GridEmbedding,
    PathSample,
    DegenerateModelError,
    brownian_motion,
    uniform_nodes,
    geometric_nodes,
    build_embedding,
    embed_kernel2,
    sample_path,
)
from .functionals import (
    FbmPowerVariation,
    FbmSingularVariation,
    SheetPowerVariation,
    SheetSingularVariation,
    EmbeddedFunctional,
    embed,
    embed_on_grid,
    direct_evaluate,
    sheet_power_variance_exact,
)
from .diagnostics import (
    KSResult,
    SampleSummary,
    KernelDiagnostics,
    SequenceReport,
    ks_against_std_normal,
    summarize,
    gaussian_limit_report,
    disjoint_pair_kernel,
    paired_product_kernel,
)
from .rng import stream

__all__ = [
    "__version__",
    # tensors
    "Tensor", "SymTensor", "tensor", "sym", "basis_tensor", "symmetrize",
    "contract", "inner", "norm", "norm_sq", "add", "scale",
    "contraction_norm_sq",
    # chaos
    "ChaosElement", "hermite", "eval_integral", "eval_chaos_element",
    "product_formula", "second_moment_exact", "fourth_moment_exact",
    "excess_kurtosis_exact", "contraction_profile", "sample_integral",
    "HSOperator", "hs_operator", "cumulant", "char_function",
    "sample_integral2_spectral",
    # embeddings
    "FractionalBrownianMotion", "BrownianSheet", "GridEmbedding",
    "PathSample", "DegenerateModelError", "brownian_motion",
    "uniform_nodes", "geometric_nodes", "build_embedding", "embed_kernel2",
    "sample_path",
    # functionals
    "FbmPowerVariation", "FbmSingularVariation", "SheetPowerVariation",
    "SheetSingularVariation", "EmbeddedFunctional", "embed", "embed_on_grid",
    "direct_evaluate", "sheet_power_variance_exact",
    # diagnostics
    "KSResult", "SampleSummary", "KernelDiagnostics", "SequenceReport",
    "ks_against_std_normal", "summarize", "gaussian_limit_report",
    "disjoint_pair_kernel", "paired_product_kernel",
    # rng
    "stream",
]
