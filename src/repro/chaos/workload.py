"""Deterministic game-like workloads driven against the chain under chaos.

The default workload is a bank of named counters — the same shape the
integration tests use — because its conservation law is exact: a counter
must equal the sum of its committed-valid deltas, whatever the fault
schedule did to the messages in between.  Conflicting same-tick updates
are injected on a fixed cadence so the block-level MVCC lock is
exercised continuously, not just on the happy path.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional

from ..blockchain.contracts import Contract, ContractError, check_args

__all__ = ["ChaosCounterContract", "CounterWorkload"]


class ChaosCounterContract(Contract):
    """Named non-negative counters: ``init``, ``add``, ``sub``.

    ``sub`` below zero is rejected — the workload's stand-in for a cheat.
    """

    name = "chaoscounter"

    @staticmethod
    def key(counter: str) -> str:
        return f"ctr/{counter}"

    #: Function -> the types of its positional args.
    SIGNATURES = {"init": (str,), "add": (str, int), "sub": (str, int)}

    def invoke(self, ctx, function, args):
        signature = self.SIGNATURES.get(function)
        if signature is None:
            raise ContractError(f"unknown function {function}")
        check_args(signature, args)
        if function == "init":
            (counter,) = args
            if ctx.view.get(self.key(counter)) is not None:
                raise ContractError(f"counter {counter} already exists")
            ctx.view.put(self.key(counter), 0)
        else:
            counter, delta = args
            delta = int(delta) if function == "add" else -int(delta)
            key = self.key(counter)
            value = ctx.view.get(key)
            if value is None:
                raise ContractError(f"no such counter {counter}")
            if value + delta < 0:
                raise ContractError("counter would go negative")
            ctx.view.put(key, value + delta)

    def functions(self):
        return list(self.SIGNATURES)


class CounterWorkload:
    """An open-loop tick workload over :class:`ChaosCounterContract`.

    Every ``interval_ms`` one client submits a counter update; every
    ``conflict_every``-th tick submits *two* updates to the same counter
    back-to-back (an intra-block MVCC conflict for the honest ledger to
    reject).  All submission times and argument choices come from the
    seeded RNG, so a given ``(seed, parameters)`` pair replays the
    identical transaction stream.

    ``max_inflight`` turns the loop closed: a tick whose submission
    would push the number of unresolved updates past the cap is *shed*
    (counted in :attr:`shed`) instead of submitted.  On the simulated
    backend commit latency is a few sim-ms, so a generous cap never
    engages and the stream is unchanged; on real sockets it is the
    backpressure that keeps an over-capacity host degrading in
    throughput rather than in unbounded queueing delay.
    """

    def __init__(
        self,
        chain,
        duration_ms: float,
        interval_ms: float = 40.0,
        n_counters: int = 3,
        conflict_every: int = 4,
        seed: int = 0,
        poll_timeout_ms: float = 20_000.0,
        max_inflight: Optional[int] = None,
    ):
        self.chain = chain
        self.duration_ms = duration_ms
        self.interval_ms = interval_ms
        self.n_counters = n_counters
        self.conflict_every = conflict_every
        self.rng = random.Random(seed)
        self.codes: Counter = Counter()
        self.submitted = 0
        self.shed = 0
        self.inflight = 0
        self.probe_codes: List[str] = []
        self._clients = []
        self._probe_client = None
        self._poll_timeout_ms = poll_timeout_ms
        self._max_inflight = max_inflight
        self._installed = False

    # ------------------------------------------------------------------

    def counters(self) -> List[str]:
        return [f"c{i}" for i in range(self.n_counters)]

    def install(self) -> "CounterWorkload":
        """Create clients, install the contract, schedule every tick."""
        if self._installed:
            raise RuntimeError("workload already installed")
        self._installed = True
        self.chain.install_contract(ChaosCounterContract)
        anchors = [
            self.chain.peers[0],
            self.chain.peers[len(self.chain.peers) // 2],
        ]
        # Client names carry the chain's prefix so several sessions can
        # share one transport (the soak harness) without name clashes.
        prefix = getattr(self.chain, "name_prefix", "")
        for index, anchor in enumerate(anchors):
            client = self.chain.create_client(f"{prefix}wl{index}", anchor=anchor)
            client.poll_timeout_ms = self._poll_timeout_ms
            self._clients.append(client)
        self._probe_client = self.chain.create_client(
            f"{prefix}wl-probe", anchor=self.chain.peers[0]
        )
        self._probe_client.poll_timeout_ms = self._poll_timeout_ms

        scheduler = self.chain.scheduler
        for counter in self.counters():
            scheduler.call_at(1.0, self._submit, 0, "init", (counter,), counter)

        tick = 0
        t = 50.0
        while t < self.duration_ms:
            tick += 1
            counter = self.rng.choice(self.counters())
            client_index = self.rng.randrange(len(self._clients))
            if self.conflict_every and tick % self.conflict_every == 0:
                scheduler.call_at(t, self._submit, client_index, "add", (counter, 1), counter)
                scheduler.call_at(t, self._submit, client_index, "add", (counter, 1), counter)
            elif self.rng.random() < 0.15:
                # An occasional oversized sub: the contract-level cheat.
                scheduler.call_at(
                    t, self._submit, client_index, "sub", (counter, 1000), counter
                )
            else:
                scheduler.call_at(t, self._submit, client_index, "add", (counter, 1), counter)
            t += self.interval_ms
        return self

    def _submit(self, client_index: int, function: str, args, counter: str) -> None:
        if self._max_inflight is not None and self.inflight >= self._max_inflight:
            self.shed += 1
            return
        client = self._clients[client_index]
        self.submitted += 1
        self.inflight += 1

        def done(result, latency) -> None:
            self.inflight -= 1
            self.codes.update([result.code])

        client.invoke(
            ChaosCounterContract.name,
            function,
            args,
            touched_keys=(ChaosCounterContract.key(counter),),
            on_complete=done,
        )

    # ------------------------------------------------------------------

    def submit_probes(self, count: int = 3) -> None:
        """Submit post-heal liveness probes (one update per counter, round
        robin): each must commit VALID once the network has healed, and
        their delivery is what triggers gap detection at revived peers."""
        names = self.counters()
        for i in range(count):
            counter = names[i % len(names)]
            self._probe_client.invoke(
                ChaosCounterContract.name,
                "add",
                (counter, 1),
                touched_keys=(ChaosCounterContract.key(counter),),
                on_complete=lambda result, latency: self.probe_codes.append(result.code),
            )

    def summary(self) -> Dict[str, int]:
        return dict(sorted(self.codes.items()))

    def expected_totals(self) -> Optional[Dict[str, int]]:
        """Final counter values implied by peer0's committed ledger (for
        assertions in tests); None before any commit."""
        peer = self.chain.peers[0]
        return {
            name: peer.ledger.state.get(ChaosCounterContract.key(name))
            for name in self.counters()
        }
