"""Recorded transmit corpus: the network's observable behaviour, pinned.

Each seed draws one random transfer schedule from ``random.Random(seed)``:
1-12 sends among three endpoints, payloads of 0..2**20 bytes, start delays
of 0-200 us, each send blocking (``Network.transmit`` inside the sender's
process) or posted (``Network.post``, fire-and-forget).  Half the schedules
also give some senders an interrupt time, so a transfer may be cut while
queued for the NIC, while serializing, or while in the fabric.

For every seed the corpus stores one sha256 over the full observable state
of the run: the obs stream, each mailbox's contents with send/receive
times, the per-endpoint byte and message counters, ``total_bytes`` /
``total_messages``, every NIC's final occupancy, each sender's outcome and
the engine's ``events_processed``.  Any change to transfer timing, event
structure or interrupt handling shows up as a digest mismatch.

Re-recording (``python tests/test_transmit_corpus.py --record``) is a
conscious re-golden and needs a changelog note, like the golden stream
hashes in ``test_obs_determinism``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import List, NamedTuple, Optional

from repro.sim.engine import Environment, Interrupt, Timeout
from repro.sim.network import QDR_INFINIBAND, Network

CORPUS_PATH = Path(__file__).with_name("transmit_corpus.json")
NUM_SEEDS = 1024
NUM_ENDPOINTS = 3


class Send(NamedTuple):
    src: int
    dst: int
    nbytes: int
    delay_us: int
    blocking: bool
    #: virtual time (us) at which the sender process is interrupted
    interrupt_us: Optional[int]


def make_schedule(seed: int) -> List[Send]:
    """The transfer schedule of one corpus seed."""
    rng = random.Random(seed)
    with_interrupts = rng.random() < 0.5
    sends = []
    for _ in range(rng.randint(1, 12)):
        src = rng.randrange(NUM_ENDPOINTS)
        dst = rng.randrange(NUM_ENDPOINTS)
        nbytes = rng.randint(0, 2 ** 20)
        delay_us = rng.randint(0, 200)
        blocking = rng.random() < 0.5
        interrupt_us = None
        if with_interrupts and rng.random() < 0.5:
            # Relative to the start, so the cut lands before, during or
            # after the transfer (1 MiB serializes in ~330 us).
            interrupt_us = delay_us + rng.randint(0, 400)
        sends.append(Send(src, dst, nbytes, delay_us, blocking,
                          interrupt_us))
    if all(s.src == s.dst for s in sends):
        last = sends[-1]
        sends[-1] = last._replace(dst=(last.src + 1) % NUM_ENDPOINTS)
    return sends


def run_schedule(sends: List[Send]) -> tuple:
    """Run one schedule; return its full observable state."""
    env = Environment()
    env.obs.enabled = True
    net = Network(env, QDR_INFINIBAND)
    endpoints = [net.attach(i) for i in range(NUM_ENDPOINTS)]
    outcomes: List[str] = []

    def sender(index: int, send: Send):
        try:
            yield Timeout(env, send.delay_us * 1e-6)
            payload = (send.src, send.dst, send.nbytes)
            if send.blocking:
                yield from net.transmit(endpoints[send.src], send.dst, "msg",
                                        payload, float(send.nbytes))
                outcomes[index] = "delivered"
            else:
                net.post(endpoints[send.src], send.dst, "msg",
                         payload, float(send.nbytes))
                outcomes[index] = "posted"
        except Interrupt:
            outcomes[index] = f"interrupted@{env.now!r}"

    def interrupter(proc, at_us: int):
        yield Timeout(env, at_us * 1e-6)
        proc.interrupt("cut")

    for send in sends:
        if send.src == send.dst:
            continue
        outcomes.append("pending")
        proc = env.process(sender(len(outcomes) - 1, send))
        if send.interrupt_us is not None:
            env.process(interrupter(proc, send.interrupt_us))
    env.run()
    mailboxes = [
        [(m.src, m.tag, m.payload, m.nbytes, m.send_time, m.recv_time)
         for m in ep.mailbox.items]
        for ep in endpoints]
    counters = [(ep.bytes_sent, ep.bytes_received, ep.messages_sent,
                 ep.messages_received) for ep in endpoints]
    nics = [(ep.nic.count, ep.nic.queue_length) for ep in endpoints]
    return (env.obs.serialize(), mailboxes, counters, net.total_bytes,
            net.total_messages, nics, outcomes, env.events_processed)


def digest(seed: int) -> str:
    state = run_schedule(make_schedule(seed))
    return hashlib.sha256(repr(state).encode()).hexdigest()


def _load() -> List[str]:
    return json.loads(CORPUS_PATH.read_text())["digests"]


def test_corpus_covers_the_input_space():
    schedules = [make_schedule(seed) for seed in range(NUM_SEEDS)]
    sends = [s for sched in schedules for s in sched]
    assert len(_load()) == NUM_SEEDS >= 256
    assert {len(sched) for sched in schedules} == set(range(1, 13))
    assert {s.blocking for s in sends} == {True, False}
    assert min(s.delay_us for s in sends) == 0
    assert max(s.delay_us for s in sends) == 200
    assert max(s.nbytes for s in sends) > 2 ** 20 - 2 ** 12
    with_cuts = [sched for sched in schedules
                 if any(s.interrupt_us is not None for s in sched)]
    assert NUM_SEEDS // 3 < len(with_cuts) < 2 * NUM_SEEDS // 3


def test_corpus_interrupts_cut_blocking_transfers():
    """Some interrupts must land mid-transfer, not only before or after."""
    cut = 0
    for seed in range(NUM_SEEDS):
        sends = [s for s in make_schedule(seed) if s.src != s.dst]
        outcomes = run_schedule(sends)[6]
        for send, outcome in zip(sends, outcomes):
            if (send.blocking and outcome.startswith("interrupted")
                    and float(outcome.split("@")[1]) > send.delay_us * 1e-6):
                cut += 1
    assert cut >= 50


def test_transmit_corpus_matches_recorded_digests():
    recorded = _load()
    mismatched = [seed for seed in range(NUM_SEEDS)
                  if digest(seed) != recorded[seed]]
    assert not mismatched, (
        f"{len(mismatched)} transmit schedules changed behaviour "
        f"(first seeds: {mismatched[:10]})")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_transmit_corpus.py --record")
    CORPUS_PATH.write_text(json.dumps({
        "schedule": "tests/test_transmit_corpus.py:make_schedule",
        "digests": [digest(seed) for seed in range(NUM_SEEDS)],
    }, indent=1) + "\n")
