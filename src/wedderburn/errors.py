"""Shared exception types."""

from __future__ import annotations


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class ModularCaseError(ValueError):
    """The field characteristic divides the group order (non-semisimple case)."""

    def __init__(self, p: int, group_order: int):
        self.p = p
        self.group_order = group_order
        divs = ", ".join(str(d) for d in _prime_divisors(group_order))
        super().__init__(
            f"modular case unsupported: p = {p} divides |G| = {group_order} "
            f"(prime divisors of |G|: {divs})"
        )
