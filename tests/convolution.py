"""The schoolbook convolution of int sequences: the reference for packed series products."""

from operator import mul


def schoolbook_product(xs, ys) -> list[int]:
    """z_e = sum_k xs[k] * ys[e-k] for e = 0 .. len(xs) - 1, one sum per power."""
    return [sum(map(mul, xs[: e + 1], ys[e::-1])) for e in range(len(xs))]
