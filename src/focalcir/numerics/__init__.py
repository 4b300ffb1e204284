"""Minimal reverse-mode autodiff over 2-D and batched 3-D float64 tensors,
plus the optimizer and the finite-difference oracle used to validate
gradients."""

from focalcir.numerics.tensor import (
    Tape,
    Tensor,
    add,
    add_bias,
    backward,
    concat_cols,
    concat_rows,
    constant,
    gelu,
    layer_norm_rows,
    linear,
    log_softmax_diag,
    l2_normalize_rows,
    matmul,
    mean_over_rows,
    mul,
    parameter,
    scale,
    scalar_times_const,
    slice_cols,
    slice_rows,
    softmax_rows,
    squeeze_rows,
    sum_all,
    transpose,
)
from focalcir.numerics.optim import AdamState, adam_step
from focalcir.numerics.gradcheck import finite_diff_grad, max_rel_error
from focalcir.numerics.similarity import cosine_sim, cosine_sim_matrix
