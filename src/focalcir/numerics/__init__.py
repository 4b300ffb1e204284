"""Minimal reverse-mode autodiff over 2-D and batched 3-D float64 tensors,
plus the optimizer and the finite-difference oracle used to validate
gradients."""
