"""Game-tracker model: per-room player participation (§7.1 methodology).

"For each game, we compute the average and maximum player participation
per session across top 500 game rooms using data from online game
trackers."  Room occupancies follow a truncated geometric-style
distribution: most rooms are near-empty, a few run at capacity — the
shape visible on gametracker.com listings.
"""

from __future__ import annotations

import random
from typing import List

from .steam import SteamEcosystem

__all__ = ["GameTracker"]


def _truncated_exp_mean_inverse(target: float, cap: float) -> float:
    """The exponential mean ``mu`` such that E[min(Exp(mu), cap)] equals
    ``target`` — solved by bisection (the map is monotone in mu)."""
    import math

    def truncated_mean(mu: float) -> float:
        return mu * (1.0 - math.exp(-cap / mu))

    low, high = 1e-3, cap * 50.0
    if target >= truncated_mean(high):
        return high
    for _ in range(80):
        mid = (low + high) / 2.0
        if truncated_mean(mid) < target:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


class GameTracker:
    """Synthetic gametracker.com: top-room occupancy samples per title."""

    def __init__(self, ecosystem: SteamEcosystem, seed: int = 2018):
        self.ecosystem = ecosystem
        self.seed = seed

    def top_rooms(self, game: str, count: int = 500) -> List[int]:
        """Occupancy of the ``count`` most-populated rooms of a title.

        A mixture of a busy tail (rooms near the player cap) and a bulk
        of sparse rooms drawn from a cap-truncated exponential whose
        mean is moment-matched to the title's published average, so the
        sample mean lands on Table 2's Avg column and the sample max on
        its Max column.
        """
        title = self.ecosystem.title(game)
        rng = random.Random(f"tracker:{self.seed}:{game}")
        cap = title.max_players
        ratio = title.avg_players / cap if cap else 0.0
        p_busy = min(0.3, max(0.01, 0.3 * ratio * ratio))
        busy_mean = 0.9 * cap
        bulk_target = max(
            0.05, (title.avg_players - p_busy * busy_mean) / (1.0 - p_busy)
        )
        mu = _truncated_exp_mean_inverse(bulk_target, cap)
        rooms: List[int] = []
        for _ in range(count):
            if rng.random() < p_busy:
                occupancy = rng.randint(max(1, int(cap * 0.8)), cap)
            else:
                occupancy = min(cap, int(rng.expovariate(1.0 / mu)))
            rooms.append(occupancy)
        # "Top" rooms: at least one is full, as trackers show for live games.
        rooms[0] = cap
        rooms.sort(reverse=True)
        return rooms

    def average_participation(self, game: str, count: int = 500) -> float:
        rooms = self.top_rooms(game, count)
        return sum(rooms) / len(rooms)
