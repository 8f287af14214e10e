"""Demo (recorded session) format, loading/saving and trace statistics.

The paper analyses "25 real-world Doom game sessions provided by the
community … Overall, the 25 Doom sessions clocked over 6 hours of
gameplay and logged ∼350K events" (§7.2.1).  A :class:`Demo` is the
event stream one shim observes during one session, with the statistics
the evaluation plots: per-category counts, per-second frequency series
(Fig. 3a) and per-category maximum frequency (Fig. 3b).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, TextIO

from .doom import DoomMap, MapItem
from .events import Category, GameEvent, event_category

__all__ = ["Demo", "load_demo", "save_demo"]


@dataclass
class Demo:
    """One recorded game session (a Doom demo's shim-visible events).

    ``game_map`` carries the item placement the session was recorded
    against, so pickups in the trace validate against real map items.
    """

    session_id: str
    events: List[GameEvent]
    tickrate: int = 35
    player: str = "p1"
    game_map: Optional[DoomMap] = None

    def __post_init__(self) -> None:
        if any(
            self.events[i].t_ms > self.events[i + 1].t_ms
            for i in range(len(self.events) - 1)
        ):
            self.events = sorted(self.events, key=lambda e: e.t_ms)

    # ------------------------------------------------------------------
    # basic properties

    @property
    def duration_ms(self) -> float:
        return self.events[-1].t_ms if self.events else 0.0

    @property
    def duration_minutes(self) -> float:
        return self.duration_ms / 60_000.0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # ------------------------------------------------------------------
    # statistics (Figs. 3a/3b)

    def category_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            cat = event_category(event)
            counts[cat] = counts.get(cat, 0) + 1
        return counts

    def category_share(self, category: str) -> float:
        """Fraction of all events in ``category`` (location ≈ 99.3% in
        the paper's longest session)."""
        if not self.events:
            return 0.0
        return self.category_counts().get(category, 0) / len(self.events)

    def frequency_series(
        self, category: Optional[str] = None, bin_ms: float = 1000.0
    ) -> List[int]:
        """Events per ``bin_ms`` over the session (Fig. 3a's time series)."""
        n_bins = int(self.duration_ms // bin_ms) + 1
        series = [0] * n_bins
        for event in self.events:
            if category is not None and event_category(event) != category:
                continue
            series[int(event.t_ms // bin_ms)] += 1
        return series

    def max_frequency(self, category: str, bin_ms: float = 1000.0) -> int:
        """Maximum events/second for a category (Fig. 3b's bars)."""
        series = self.frequency_series(category, bin_ms)
        return max(series) if series else 0

    def max_frequencies(self) -> Dict[str, int]:
        return {cat: self.max_frequency(cat) for cat in Category.FREQUENT}

    def slice(self, duration_ms: float) -> "Demo":
        """A prefix of the session (used to keep long benches tractable)."""
        return Demo(
            session_id=f"{self.session_id}[:{duration_ms:.0f}ms]",
            events=[e for e in self.events if e.t_ms <= duration_ms],
            tickrate=self.tickrate,
            player=self.player,
            game_map=self.game_map,
        )


def save_demo(demo: Demo, fp: TextIO) -> None:
    """Write a demo as JSON lines: one header line, then one per event."""
    header = {
        "session_id": demo.session_id,
        "tickrate": demo.tickrate,
        "player": demo.player,
        "n_events": len(demo.events),
    }
    if demo.game_map is not None:
        header["map"] = {
            "name": demo.game_map.name,
            "width": demo.game_map.width,
            "height": demo.game_map.height,
            "spawn_points": [list(p) for p in demo.game_map.spawn_points],
            "items": [
                {"item_id": i.item_id, "kind": i.kind, "x": i.x, "y": i.y,
                 "respawn_ms": i.respawn_ms}
                for i in demo.game_map.items
            ],
        }
    fp.write(json.dumps(header) + "\n")
    for event in demo.events:
        fp.write(json.dumps(event.to_dict(), separators=(",", ":")) + "\n")


def load_demo(fp: TextIO) -> Demo:
    """Read a demo written by :func:`save_demo`."""
    header_line = fp.readline()
    if not header_line.strip():
        raise ValueError("empty demo file")
    header = json.loads(header_line)
    events = [GameEvent.from_dict(json.loads(line)) for line in fp if line.strip()]
    if len(events) != header.get("n_events", len(events)):
        raise ValueError(
            f"demo truncated: header says {header['n_events']} events, "
            f"found {len(events)}"
        )
    game_map = None
    if "map" in header:
        m = header["map"]
        game_map = DoomMap(
            name=m["name"],
            width=float(m["width"]),
            height=float(m["height"]),
            items=[
                MapItem(item_id=i["item_id"], kind=i["kind"], x=float(i["x"]),
                        y=float(i["y"]), respawn_ms=float(i["respawn_ms"]))
                for i in m["items"]
            ],
            spawn_points=[tuple(p) for p in m["spawn_points"]],
        )
    return Demo(
        session_id=header["session_id"],
        events=events,
        tickrate=int(header.get("tickrate", 35)),
        player=str(header.get("player", "p1")),
        game_map=game_map,
    )
