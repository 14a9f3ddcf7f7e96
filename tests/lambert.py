"""The k-fold nested Lambert sum from scratch: the reference for dilcher's construction (c)."""


def nested_lambert(k: int, order: int) -> list[int]:
    """The coefficients of q^0 .. q^order of the sum over j_1 >= ... >= j_k >= 1
    of prod_i q^(j_i) / (1 - q^(j_i)), one level per fold, each level built
    anew from the one below it on plain lists."""
    # level[j]: the sum over chains whose top index is at most j
    level = [[1] + [0] * order for _j in range(order + 1)]
    for _ in range(k):
        nxt = [[0] * (order + 1)]
        for j in range(1, order + 1):
            row = list(nxt[-1])
            # q^j / (1 - q^j) = q^j + q^(2j) + ... times the level below at j
            for t in range(j, order + 1, j):
                for e in range(order + 1 - t):
                    row[t + e] += level[j][e]
            nxt.append(row)
        level = nxt
    return level[order]
