"""Unit tests for the interconnect model."""

import pytest

from repro.sim import (Environment, Interrupt, Network, NetworkSpec, QDR_INFINIBAND,
                       SimulationError)


def make_net(num_nodes=2, spec=None):
    env = Environment()
    net = Network(env, spec or NetworkSpec("test", bandwidth_bps=1e9, latency_s=1e-3))
    eps = [net.attach(i) for i in range(num_nodes)]
    return env, net, eps


def test_transfer_time_formula():
    spec = NetworkSpec("t", bandwidth_bps=1e9, latency_s=1e-3, per_message_overhead_s=1e-4)
    assert spec.transfer_time(1e9) == pytest.approx(1e-4 + 1e-3 + 1.0)


def test_message_delivery_and_timing():
    env, net, (a, b) = make_net()
    received = []

    def sender():
        yield from a.send(1, "data", payload={"x": 1}, nbytes=1e9)

    def receiver():
        msg = yield b.recv()
        received.append((msg.payload, env.now))

    env.process(sender())
    env.process(receiver())
    env.run()
    # 1 GB at 1 GB/s = 1 s serialize + 1 ms latency
    assert received[0][0] == {"x": 1}
    assert received[0][1] == pytest.approx(1.001)


def test_sends_from_one_node_serialize_on_nic():
    env, net, (a, b) = make_net()
    arrivals = []

    def sender():
        yield from a.send(1, "m1", nbytes=1e9)

    def sender2():
        yield from a.send(1, "m2", nbytes=1e9)

    def receiver():
        for _ in range(2):
            msg = yield b.recv()
            arrivals.append(env.now)

    env.process(sender())
    env.process(sender2())
    env.process(receiver())
    env.run()
    # Second message waits for the first to leave the NIC.
    assert arrivals[0] == pytest.approx(1.001)
    assert arrivals[1] == pytest.approx(2.001)


def test_sends_from_different_nodes_parallel():
    env, net, eps = make_net(3)
    arrivals = []

    def sender(ep):
        yield from ep.send(2, "m", nbytes=1e9)

    def receiver():
        for _ in range(2):
            yield eps[2].recv()
            arrivals.append(env.now)

    env.process(sender(eps[0]))
    env.process(sender(eps[1]))
    env.process(receiver())
    env.run()
    assert arrivals[0] == pytest.approx(1.001)
    assert arrivals[1] == pytest.approx(1.001)


def test_recv_by_tag_filters():
    env, net, (a, b) = make_net()
    got = []

    def sender():
        yield from a.send(1, "steal-reply", nbytes=10)
        yield from a.send(1, "result", nbytes=10)

    def receiver():
        msg = yield b.recv(tag="result")
        got.append(msg.tag)

    env.process(sender())
    env.process(receiver())
    env.run()
    assert got == ["result"]
    # The untagged message remains queued.
    assert len(b.mailbox.items) == 1


def test_statistics_accumulate():
    env, net, (a, b) = make_net()

    def sender():
        yield from a.send(1, "m", nbytes=500)
        yield from a.send(1, "m", nbytes=700)

    env.process(sender())
    env.run()
    assert a.bytes_sent == 1200
    assert a.messages_sent == 2
    assert b.bytes_received == 1200
    assert net.total_messages == 2


def test_broadcast_reaches_all_other_nodes():
    env, net, eps = make_net(4)
    got = []

    def master():
        yield from net.broadcast(eps[0], "init", {"n": 42}, nbytes=100)

    def slave(ep):
        msg = yield ep.recv(tag="init")
        got.append((ep.rank, msg.payload["n"]))

    env.process(master())
    for ep in eps[1:]:
        env.process(slave(ep))
    env.run()
    assert sorted(got) == [(1, 42), (2, 42), (3, 42)]


def test_send_to_unknown_rank_raises():
    env, net, (a, b) = make_net()

    def sender():
        yield from a.send(99, "m", nbytes=10)

    env.process(sender())
    with pytest.raises(SimulationError):
        env.run()


def test_duplicate_attach_rejected():
    env = Environment()
    net = Network(env, QDR_INFINIBAND)
    net.attach(0)
    with pytest.raises(SimulationError):
        net.attach(0)


def test_qdr_infiniband_is_fast():
    # The DAS-4 network: ~3.2 GB/s, microsecond latency.
    t = QDR_INFINIBAND.transfer_time(3.2e9)
    assert 1.0 < t < 1.01


def test_interrupted_queued_transmit_withdraws_its_nic_claim():
    """A blocking send interrupted while queued behind another transfer on
    the same NIC must withdraw its claim: otherwise the dead claim is
    granted later, never released, and every later send from that node
    hangs.  Only delivered messages are counted."""
    env, net, (a, b) = make_net()
    outcome = {}

    def first():
        yield from a.send(1, "first", nbytes=1e9)  # holds the NIC for 1 s

    def queued():
        try:
            yield from a.send(1, "cut", nbytes=1e9)
        except Interrupt:
            outcome["cut_at"] = env.now

    def later():
        yield env.timeout(2.0)
        yield from a.send(1, "later", nbytes=1e9)
        outcome["later_at"] = env.now

    env.process(first())
    victim = env.process(queued())

    def interrupter():
        yield env.timeout(0.5)
        assert a.nic.queue_length == 1  # still waiting for the NIC
        victim.interrupt("node crashed")

    env.process(interrupter())
    env.process(later())
    env.run()
    assert outcome["cut_at"] == pytest.approx(0.5)
    assert a.nic.queue_length == 0 and a.nic.count == 0
    assert outcome["later_at"] == pytest.approx(3.001)
    assert [m.tag for m in b.mailbox.items] == ["first", "later"]
    assert (a.messages_sent, b.messages_received, net.total_messages) == \
        (2, 2, 2)
    assert (a.bytes_sent, b.bytes_received, net.total_bytes) == \
        (2 * 10 ** 9, 2 * 10 ** 9, 2 * 10 ** 9)
