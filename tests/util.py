"""Shared test helpers: independent reference implementations and
constrained random instance generators."""

from __future__ import annotations

from permmind import GameConfig


def _random_injective(rng, n: int, k: int) -> tuple:
    return tuple(rng.sample(range(1, k + 1), n))


def _shuffled_derangement(rng, values):
    """Random permutation of `values` that fixes none of them in place.
    Expects len(values) != 1."""
    values = list(values)
    if not values:
        return []
    while True:
        out = values[:]
        rng.shuffle(out)
        if all(a != b for a, b in zip(out, values)):
            return out


def make_same_colors_instance(rng, n: int | None = None, m: int | None = None) -> tuple:
    """Random (config, queries, secret) for the equal-colors adaption.

    Premises built in: k == n; the current query agrees with the current
    secret on at least m+1 colors; and no earlier query agrees with the
    secret on any of those agreement positions.  The last premise is what
    makes "earlier counts are preserved" provable at all: the rewrite only
    touches agreement positions, and a rewrite can only lower an earlier
    count if that earlier query matched the secret right there.
    """
    if n is None:
        n = rng.randint(3, 8)
    if m is None:
        m = rng.randint(1, max(1, n - 2))
    config = GameConfig(n, n)
    secret = _random_injective(rng, n, n)
    agree_size = rng.choice([a for a in range(m + 1, n + 1) if a != n - 1])
    agree_positions = sorted(rng.sample(range(n), agree_size))
    rest = [i for i in range(n) if i not in agree_positions]
    current = list(secret)
    for pos, color in zip(rest, _shuffled_derangement(rng, [secret[i] for i in rest])):
        current[pos] = color
    priors = []
    for _ in range(m - 1):
        while True:
            q = _random_injective(rng, n, n)
            if all(q[i] != secret[i] for i in agree_positions):
                priors.append(q)
                break
    return config, tuple(priors) + (tuple(current),), secret


def make_spare_colors_instance(rng, n: int | None = None, m: int | None = None) -> tuple:
    """Random (config, queries, secret) for the spare-colors adaption.

    Premises built in: k > n; the current query IS the current secret (the
    all-black situation the procedure exists for); and no earlier query
    agrees with the secret anywhere, since here the rewrite may touch any
    position at all.
    """
    if n is None:
        n = rng.randint(2, 8)
    k = n + rng.randint(1, 4)
    if m is None:
        m = rng.randint(1, min(k - 1, n + 1))
    config = GameConfig(n, k)
    secret = _random_injective(rng, n, k)
    priors = []
    for _ in range(m - 1):
        while True:
            q = _random_injective(rng, n, k)
            if all(a != b for a, b in zip(q, secret)):
                priors.append(q)
                break
    return config, tuple(priors) + (secret,), secret


def all_rotations(config: GameConfig) -> list:
    """Rotations 1..k of the board, in order."""
    return [config.rotation(j) for j in range(1, config.k + 1)]


def overspend_on_2x2(oracle, config):
    """A `solver=` for the adversary on (2,2), whose bound is 3: asks (1,2),
    then (2,1) three times, and names (2,1).  Its answers keep every floor."""
    oracle.answer((1, 2))
    for _ in range(3):
        oracle.answer((2, 1))
    return (2, 1), oracle.transcript
