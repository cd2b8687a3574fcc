"""distillnet: mentor-student knowledge distillation on a from-scratch CNN.

A small labeled split trains a mentor; the mentor's raw softmax rows become
the only training signal for students drawn from the remaining, unlabeled
pool. Its modules hold the numpy layer engine, the architecture string
parser, the split/perturbation tooling, binary artifact formats, CSV
reporting and a file-driven CLI (``distillnet --help``). The modules are the
API: import each name from its module, as the package root imports nothing.
"""
