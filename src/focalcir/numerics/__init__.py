"""Minimal reverse-mode autodiff over 2-D and batched 3-D float64 tensors,
plus the optimizer and the finite-difference oracle used to validate
gradients."""

from focalcir.numerics.tensor import (
    Tape,
    Tensor,
    add,
    add_bias,
    attention,
    backward,
    concat_rows,
    constant,
    feed_forward,
    head_products,
    linear,
    log_softmax_diag,
    l2_normalize_rows,
    matmul,
    mean_over_rows,
    mul,
    parameter,
    residual_norm,
    scale,
    scalar_times_const,
    slice_rows,
    squeeze_rows,
    sum_all,
    transpose,
)
from focalcir.numerics.optim import AdamState, adam_step
from focalcir.numerics.gradcheck import finite_diff_grad, max_rel_error
from focalcir.numerics.similarity import cosine_sim, cosine_sim_matrix
