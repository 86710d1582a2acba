"""Test presentations of the Witt rings of iterated Laurent fields over R."""

from __future__ import annotations


def laurent_tower_entry(k: int) -> dict:
    """The catalog entry `R_t<k>` for W(R((t_1))...((t_k))).

    By Springer's theorem this is the group ring Z[(Z/2)^k] (Lam,
    *Introduction to Quadratic Forms over Fields*, ch. VI), with vcd2 = k.
    Basis vector a is the group element whose bits are a, so e_a e_b =
    e_(a xor b); <-1> = -e_0, every basis element has rank 1, and I is
    generated by 2 and the 1 - g.
    """
    size = 2**k

    def e(a, c=1):
        return [c if b == a else 0 for b in range(size)]

    return {
        "name": f"R_t{k}",
        "additive": {"free_rank": size, "torsion": []},
        "mult_table": [[e(a ^ b) for b in range(size)] for a in range(size)],
        "unit": e(0),
        "minus_one": e(0, -1),
        "rank_mod2": [1] * size,
        "ideal_generators": [e(0, 2)] + [[x - y for x, y in zip(e(0), e(g))] for g in range(1, size)],
        "vcd2": k,
    }
