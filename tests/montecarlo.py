"""Monte-Carlo estimate of a clique's probability over sampled possible
worlds: an independent check of the product semantics, shared by the
oracle and acceptance tests."""

import math
import random
from itertools import combinations

from umc.graph import UncertainGraph, clique_probability


def estimate_clique_probability(g: UncertainGraph, c, samples: int,
                                seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo estimate of the clique probability of c: the fraction
    of sampled possible worlds (each edge drawn independently) in which all
    internal edges of c appear.  Returns (estimate, standard error)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if clique_probability(g, c) is None:
        raise ValueError(f"{sorted(set(c))} is not a clique")
    probs = [g.row(u)[v] for u, v in combinations(sorted(set(c)), 2)]
    rand = random.Random(seed).random
    hits = 0
    for _ in range(samples):
        for p in probs:
            if rand() >= p:
                break  # this edge is absent from the sampled world
        else:
            hits += 1
    est = hits / samples
    stderr = math.sqrt(est * (1.0 - est) / samples)
    return est, stderr
