"""Computed operation counts and bytes for the kernels the tracer sees.

These are derived from array shapes, not measured: flop counts only the
multiply-adds of each product (2 per multiply-add, elementwise activations
and bias adds excluded), and bytes count each float64 operand read or
written once (compulsory traffic; cache misses and temporaries ignored).
"""

from __future__ import annotations

F64 = 8

#: build_state_batch per graph: 3 directions x 16 kets products (48 multiplies)
#: summed over the 3 directions (32 adds); reads 24 weights, writes 16 amplitudes.
STATE_FLOP_PER_ROW = 48 + 32
STATE_BYTES_PER_ROW = (24 + 16) * F64


def build_state_batch(rows):
    return STATE_FLOP_PER_ROW * rows, STATE_BYTES_PER_ROW * rows


def gemm(m, k, n):
    """(m, k) @ (k, n): flop and compulsory bytes of both operands and result."""
    return 2.0 * m * k * n, float(F64 * (m * k + k * n + m * n))


def _layers(sizes):
    return list(zip(sizes[:-1], sizes[1:]))


def forward(sizes, rows):
    """One gemm per layer: activations (rows, in) @ W.T (in, out)."""
    flop = moved = 0.0
    for fan_in, fan_out in _layers(sizes):
        f, b = gemm(rows, fan_in, fan_out)
        flop, moved = flop + f, moved + b
    return flop, moved


def param_backward(sizes, rows):
    """Backward gemms of nn.param_gradients (its forward pass is a child span).

    Per layer: weight gradient delta.T (out, rows) @ a (rows, in); for every
    layer but the first, delta propagation delta (rows, out) @ W (out, in).
    """
    flop = moved = 0.0
    for layer, (fan_in, fan_out) in enumerate(_layers(sizes)):
        f, b = gemm(fan_out, rows, fan_in)
        flop, moved = flop + f, moved + b
        if layer > 0:
            f, b = gemm(rows, fan_out, fan_in)
            flop, moved = flop + f, moved + b
    return flop, moved


def input_backward(sizes, rows):
    """Backward gemms of nn.input_gradient: delta (rows, out) @ W (out, in) per layer."""
    flop = moved = 0.0
    for fan_in, fan_out in _layers(sizes):
        f, b = gemm(rows, fan_out, fan_in)
        flop, moved = flop + f, moved + b
    return flop, moved
