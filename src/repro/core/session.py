"""Game-session orchestration: instantiate, replay, measure, tear down.

:class:`GameSession` drives the full §4.2 lifecycle: network generation
(via :mod:`repro.core.netgen`), game instantiation (``addPlayer`` per
shim, then ``startGame`` from the initiator shim, §4.2.3), demo replay
through the shims at trace timestamps, and blockchain teardown at the
end of the ephemeral session (§4.2.6).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..blockchain.config import FabricConfig
from ..blockchain.policy import MAJORITY
from ..blockchain.transaction import TxValidationCode
from ..game.demo import Demo
from ..game.doom import DoomMap
from ..game.events import GameEvent
from ..simnet.latency import INTERNET_US, LatencyProfile
from .netgen import GameNetwork, build_game_network
from .shim import ShardRouter, Shim, ShimConfig, ShimStats

__all__ = ["SessionError", "GameSession", "ShardedSessionPool"]


class SessionError(RuntimeError):
    """Invalid session lifecycle operation."""


class GameSession:
    """A blockchain-backed multi-player game session.

    Typical use::

        session = GameSession(n_peers=4)
        session.setup()                 # join players, start the game
        session.play_demo(demo)         # schedule a trace through shim 0
        session.run_until_idle()
        print(session.shims[0].stats.avg_latency_ms)
        session.teardown()
    """

    def __init__(
        self,
        n_peers: int,
        n_players: Optional[int] = None,
        profile: LatencyProfile = INTERNET_US,
        fabric_config: Optional[FabricConfig] = None,
        shim_config: Optional[ShimConfig] = None,
        policy: str = MAJORITY,
        game_map: Optional[DoomMap] = None,
        player_names: Optional[Sequence[str]] = None,
        contract_factory=None,
        seed: int = 0,
    ):
        self.network: GameNetwork = build_game_network(
            n_peers=n_peers,
            n_players=n_players,
            profile=profile,
            fabric_config=fabric_config,
            shim_config=shim_config,
            policy=policy,
            game_map=game_map,
            player_names=player_names,
            contract_factory=contract_factory,
            seed=seed,
        )
        self.started = False
        self.ended = False
        self._setup_failures: List[str] = []

    # ------------------------------------------------------------------
    # accessors

    @property
    def shims(self) -> List[Shim]:
        return self.network.shims

    @property
    def chain(self):
        return self.network.chain

    @property
    def scheduler(self):
        return self.network.scheduler

    @property
    def now(self) -> float:
        return self.network.now

    def shim_for(self, player: str) -> Shim:
        for shim in self.shims:
            if shim.player == player:
                return shim
        raise SessionError(f"no shim for player {player!r}")

    # ------------------------------------------------------------------
    # lifecycle (§4.2.3)

    def setup(self) -> None:
        """Join every player and start the game.

        addPlayer transactions all touch the shared roster key, so they
        are submitted one at a time (setup is a one-off, §4.2.2).
        """
        if self.started:
            raise SessionError("session already set up")

        def expect_valid(result, _latency):
            if result.code != TxValidationCode.VALID:
                self._setup_failures.append(f"{result.tx_id}: {result.code}")

        for shim in self.shims:
            shim.add_player(on_complete=expect_valid)
            self.network.run_until_idle()
        self.shims[0].start_game(on_complete=expect_valid)
        self.network.run_until_idle()
        if self._setup_failures:
            raise SessionError(f"setup failed: {self._setup_failures}")
        self.started = True

    # ------------------------------------------------------------------
    # replay

    def play_demo(
        self,
        demo: Demo,
        shim: Optional[Shim] = None,
        speedup: float = 1.0,
    ) -> None:
        """Schedule a demo's events through a shim at trace timestamps.

        ``speedup`` > 1 compresses time (stress replay).  The shim must
        belong to this session and the session must be set up.
        """
        if not self.started:
            raise SessionError("call setup() before replaying demos")
        if self.ended:
            raise SessionError("session has been torn down")
        shim = shim if shim is not None else self.shims[0]
        offset = self.now
        for event in demo.events:
            when = offset + event.t_ms / speedup
            self.scheduler.call_at(when, self._feed_event, shim, event)

    def _feed_event(self, shim: Shim, event: GameEvent) -> None:
        if not self.ended:
            shim.on_game_event(event)

    def inject_event(self, event: GameEvent, shim: Optional[Shim] = None) -> None:
        """Feed a single event right now (used by cheat injection)."""
        if not self.started:
            raise SessionError("call setup() before injecting events")
        if self.ended:
            raise SessionError("session has been torn down")
        shim = shim if shim is not None else self.shims[0]
        shim.on_game_event(event)

    # ------------------------------------------------------------------
    # running

    def run(self, until: Optional[float] = None) -> None:
        self.network.run(until=until)

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        self.network.run_until_idle(max_events=max_events)

    # ------------------------------------------------------------------
    # metrics

    def stats(self, shim_index: int = 0) -> ShimStats:
        return self.shims[shim_index].stats

    def ledgers_agree(self) -> bool:
        """All reachable peers hold identical state (sanity invariant)."""
        hashes = {
            peer.ledger.state_hash()
            for peer in self.chain.peers
            if not self.chain.net.condition(peer.name).down
        }
        return len(hashes) == 1

    # ------------------------------------------------------------------
    # teardown (§4.2.6)

    def teardown(self) -> None:
        """End the ephemeral session and tear down the blockchain.

        "Since a game session is ephemeral and state does not persist
        across sessions, the shim tears down the blockchain at the end
        of the game session."
        """
        if self.ended:
            return
        self.ended = True
        for shim in self.shims:
            shim.teardown()


# ----------------------------------------------------------------------
# many sessions, one sharded deployment


class ShardedSessionPool:
    """Thousands of lightweight sessions over one sharded deployment.

    A full :class:`GameSession` builds its own blockchain per room; at
    MMOG scale (the ``sharded-replay`` workloads simulate 1000+ sessions
    and 100k+ players) sessions are instead multiplexed onto the shards
    of one :class:`~repro.blockchain.shardworker.BridgedShardEngine`
    (any placement of its shards onto processes).  Each session's
    entire key space (``sess/<id>/...``) lives on the shard the
    :class:`~repro.core.shim.ShardRouter` assigns it, so in-session
    events are single-shard transactions; only cross-session trades can
    cross shards (and go through the swap protocol).
    """

    def __init__(
        self,
        engine,
        n_sessions: int,
        players_per_session: int = 100,
        contract_name: str = "shardasset",
        poll_interval_ms: Optional[float] = None,
    ):
        if n_sessions < 1:
            raise SessionError("need at least one session")
        self.engine = engine
        self.n_sessions = n_sessions
        self.players_per_session = players_per_session
        self.router = ShardRouter(
            engine, contract_name=contract_name,
            poll_interval_ms=poll_interval_ms,
        )
        self.events_submitted = 0

    def session_id(self, index: int) -> str:
        if not 0 <= index < self.n_sessions:
            raise SessionError(f"no session #{index}")
        return f"g{index:05d}"

    def player_id(self, player_index: int) -> str:
        if not 0 <= player_index < self.players_per_session:
            raise SessionError(f"no player #{player_index}")
        return f"p{player_index:03d}"

    @property
    def n_players(self) -> int:
        return self.n_sessions * self.players_per_session

    def shard_of(self, session_index: int) -> int:
        return self.router.shard_of_session(self.session_id(session_index))

    def sessions_per_shard(self) -> List[int]:
        counts = [0] * self.engine.n_shards
        for index in range(self.n_sessions):
            counts[self.shard_of(index)] += 1
        return counts

    def submit_event(
        self,
        session_index: int,
        player_index: int,
        delta: int = 1,
        on_complete=None,
        effect_time=None,
    ):
        """One in-session game-state update, routed to its shard.

        ``effect_time`` (absolute sim ms) pre-plans the injection;
        without it the event is reactive and pays one bridge transit.
        """
        self.events_submitted += 1
        return self.router.submit_session_event(
            self.session_id(session_index),
            self.player_id(player_index),
            delta,
            on_complete=on_complete,
            effect_time=effect_time,
        )
