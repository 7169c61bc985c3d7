import random
from bisect import bisect_right

import pytest

from pipelink.errors import ConfigError, ProtocolError
from pipelink.profiles import LinkProfile, Phase
from pipelink.transport import (
    LinkPolicy,
    LinkQueue,
    Payload,
    s_to_ns,
    transmission_ns,
)

from simsetup import LinkEvent, first_emit_delay_ns, replay_link


def payload(pid, pclass, size):
    return Payload(id=pid, phase=pclass, size_bytes=size)


def drain(queue):
    chunks = []
    while (c := queue.next_chunk()) is not None:
        chunks.append(c)
    return chunks


# -- LinkQueue --------------------------------------------------------------


@pytest.mark.parametrize("size", [0, -1])
def test_enqueue_refuses_a_payload_under_one_byte_and_queues_nothing(size):
    queue = LinkQueue(chunk_size=1024)
    with pytest.raises(ConfigError, match="size must be >= 1"):
        queue.enqueue(payload(0, Phase.PREFILL, size))
    assert queue.next_chunk() is None


def test_decode_payload_into_empty_link():
    q = LinkQueue(chunk_size=1024)
    q.enqueue(payload(1, Phase.DECODE, 64))
    chunks = drain(q)
    assert [(c.payload_id, c.is_last) for c in chunks] == [(1, True)]


def test_prefill_fifo_order():
    q = LinkQueue(chunk_size=None)
    q.enqueue(payload(1, Phase.PREFILL, 100))
    q.enqueue(payload(2, Phase.PREFILL, 100))
    assert [c.payload_id for c in drain(q)] == [1, 2]


def test_duplicate_id_rejected():
    q = LinkQueue()
    q.enqueue(payload(1, Phase.DECODE, 10))
    with pytest.raises(ProtocolError):
        q.enqueue(payload(1, Phase.DECODE, 10))


def test_chunk_split_with_remainder():
    q = LinkQueue(chunk_size=262_144)
    q.enqueue(payload(1, Phase.PREFILL, 600_000))
    chunks = drain(q)
    assert [c.size_bytes for c in chunks] == [262_144, 262_144, 75_712]
    assert [c.index for c in chunks] == [0, 1, 2]
    assert [c.is_last for c in chunks] == [False, False, True]


def test_decode_preempts_at_chunk_boundary():
    q = LinkQueue(chunk_size=100)
    q.enqueue(payload(1, Phase.PREFILL, 350))
    first = q.next_chunk()
    assert (first.payload_id, first.index) == (1, 0)
    q.enqueue(payload(2, Phase.DECODE, 8))
    order = [(c.payload_id, c.index) for c in drain(q)]
    assert order == [(2, 0), (1, 1), (1, 2), (1, 3)]


def test_decode_never_split():
    q = LinkQueue(chunk_size=16)
    q.enqueue(payload(1, Phase.DECODE, 4096))
    chunks = drain(q)
    assert len(chunks) == 1 and chunks[0].size_bytes == 4096


def test_both_queues_empty_gives_none():
    assert LinkQueue().next_chunk() is None


def test_bad_chunk_size():
    with pytest.raises(ConfigError):
        LinkQueue(chunk_size=0)


def test_fcfs_policy_ignores_class_priority():
    q = LinkQueue(chunk_size=None, policy=LinkPolicy.FCFS)
    q.enqueue(payload(1, Phase.PREFILL, 100))
    q.enqueue(payload(2, Phase.DECODE, 8))
    assert [c.payload_id for c in drain(q)] == [1, 2]


# -- virtual-time replay ------------------------------------------------------


def test_single_chunk_delivery_time():
    link = LinkProfile("a", "b", latency_s=0.010, bandwidth_bps=12_500_000)
    events = replay_link(
        link, [(0, payload(1, Phase.PREFILL, 262_144))], chunk_size=None
    )
    deliver = [e for e in map(LinkEvent.of, events) if e.event == "deliver"]
    assert len(deliver) == 1
    assert deliver[0].time_ns == s_to_ns(0.03097152)


def test_decode_blocked_behind_unchunked_prefill():
    link = LinkProfile("a", "b", latency_s=0.010, bandwidth_bps=12_500_000)
    arrivals = [
        (0, payload(1, Phase.PREFILL, 8_192_000)),
        (0, payload(2, Phase.DECODE, 32_768)),
    ]
    events = replay_link(link, arrivals, chunk_size=None)
    assert first_emit_delay_ns(events, 2) >= s_to_ns(0.65536)


def test_chunking_bounds_decode_blocking():
    link = LinkProfile("a", "b", latency_s=0.010, bandwidth_bps=12_500_000)
    arrivals = [
        (0, payload(1, Phase.PREFILL, 8_192_000)),
        (0, payload(2, Phase.DECODE, 32_768)),
    ]
    events = replay_link(link, arrivals, chunk_size=262_144)
    # bounded by the residual of the chunk in flight
    assert first_emit_delay_ns(events, 2) <= s_to_ns(262_144 / 12_500_000)


def test_decode_arriving_as_a_chunk_ends_goes_next():
    # Arrivals are queued before a transmission that ends at the same time.
    link = LinkProfile("a", "b", latency_s=0.010, bandwidth_bps=12_500_000)
    chunk_end = transmission_ns(link, 262_144)
    arrivals = [
        (0, payload(1, Phase.PREFILL, 600_000)),
        (chunk_end, payload(2, Phase.DECODE, 64)),
    ]
    events = replay_link(link, arrivals, chunk_size=262_144)
    assert first_emit_delay_ns(events, 2) == 0


# -- invariant checker (shared with the acceptance suite) ---------------------


def check_link_invariants(
    events: list[tuple],
    policy: LinkPolicy = LinkPolicy.DECODE_PRIORITY,
) -> None:
    """Assert the invariants of one link's time-ordered log rows under ``policy``.

    Every clause is a sort or a sweep, so a log of n rows costs O(n log n).
    """
    events = [LinkEvent.of(row) for row in events]
    by_payload: dict[int, dict] = {}
    for e in events:
        rec = by_payload.setdefault(
            e.payload_id,
            {"enqueue": None, "emits": [], "sents": [], "delivered": 0,
             "size": None, "class": e.phase, "last_deliver": None},
        )
        if e.event == "enqueue":
            rec["enqueue"] = e.time_ns
            rec["size"] = e.size_bytes
        elif e.event == "emit":
            rec["emits"].append((e.time_ns, e.chunk_index, e.size_bytes))
        elif e.event == "sent":
            rec["sents"].append((e.time_ns, e.chunk_index))
        elif e.event == "deliver":
            rec["delivered"] += e.size_bytes
            rec["last_deliver"] = e.time_ns

    # byte conservation per payload; nothing goes out before it is queued
    for pid, rec in by_payload.items():
        assert rec["delivered"] == rec["size"], f"payload {pid} lost bytes"
        assert min(t for t, _, _ in rec["emits"]) >= rec["enqueue"], (
            f"payload {pid} emitted before it was enqueued"
        )

    emits = sorted(e.time_ns for e in events if e.event == "emit")
    sents = sorted(e.time_ns for e in events if e.event == "sent")
    # transmissions never overlap: emit_k+1 >= sent_k
    for nxt, done in zip(emits[1:], sents):
        assert nxt >= done, "link carried two chunks at once"

    # work conservation: no idle gap while a payload still has chunks to send.
    # Gaps come in time order, so one sweep over the payloads by enqueue time
    # keeps the last to finish of those queued by each gap's start.
    last_sent = {pid: max(t for t, _ in rec["sents"]) for pid, rec in by_payload.items()}
    gaps = [(done, nxt) for done, nxt in zip(sents, emits[1:]) if nxt > done]
    by_enqueue = sorted(by_payload, key=lambda p: by_payload[p]["enqueue"])
    i, latest = 0, None
    for g0, g1 in gaps:
        while i < len(by_enqueue) and by_payload[by_enqueue[i]]["enqueue"] <= g0:
            pid = by_enqueue[i]
            if latest is None or last_sent[pid] > last_sent[latest]:
                latest = pid
            i += 1
        assert latest is None or last_sent[latest] <= g0, (
            f"link idle in ({g0}, {g1}) with {latest} queued"
        )

    if policy is LinkPolicy.FCFS:
        # each payload goes out whole, without interleaving, in
        # (enqueue time, payload id) order
        emitted = [e.payload_id for e in events if e.event == "emit"]
        runs = [pid for i, pid in enumerate(emitted) if i == 0 or emitted[i - 1] != pid]
        arrival_order = sorted(by_payload, key=lambda p: (by_payload[p]["enqueue"], p))
        assert runs == arrival_order, "FCFS payloads interleaved or reordered"
    else:
        # decode priority at chunk boundaries: a decode waits from its enqueue
        # to its emit, so the waiting count at t is the enqueues by t minus the
        # emits by t (no emit precedes its enqueue, checked above)
        boundary_times = set(sents)
        decodes = [rec for rec in by_payload.values() if rec["class"] is Phase.DECODE]
        enqueued = sorted(rec["enqueue"] for rec in decodes)
        started = sorted(min(t for t, _, _ in rec["emits"]) for rec in decodes)
        for e in events:
            if e.event != "emit" or e.phase is not Phase.PREFILL:
                continue
            if e.time_ns not in boundary_times:
                continue  # idle-start emission, no boundary decision was due
            blocked = bisect_right(enqueued, e.time_ns) - bisect_right(started, e.time_ns)
            assert not blocked, (
                f"prefill chunk emitted at {e.time_ns} while {blocked} decode queued"
            )

    # class-internal FIFO by completion order
    for pclass in (Phase.PREFILL, Phase.DECODE):
        rows = [
            (rec["enqueue"], rec["last_deliver"], pid)
            for pid, rec in by_payload.items()
            if rec["class"] is pclass
        ]
        by_enqueue = [pid for _, _, pid in sorted(rows, key=lambda r: (r[0], r[2]))]
        by_done = [pid for _, _, pid in sorted(rows, key=lambda r: (r[1], r[2]))]
        assert by_enqueue == by_done, f"{pclass} payloads reordered"


def random_payload_schedule(rng: random.Random, count: int):
    arrivals = []
    t = 0
    for pid in range(count):
        t += rng.randrange(0, 2_000_000)
        if rng.random() < 0.5:
            p = payload(pid, Phase.DECODE, rng.randrange(8, 4096))
        else:
            p = payload(pid, Phase.PREFILL, rng.randrange(1, 2_000_000))
        arrivals.append((t, p))
    return arrivals


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_schedules_hold_invariants(seed):
    rng = random.Random(seed)
    link = LinkProfile("a", "b", latency_s=0.002, bandwidth_bps=50_000_000)
    for _ in range(20):
        arrivals = random_payload_schedule(rng, rng.randrange(1, 30))
        chunk = rng.choice([None, 4096, 65_536, 262_144])
        events = replay_link(link, arrivals, chunk_size=chunk)
        check_link_invariants(events)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_fcfs_schedules_hold_invariants(seed):
    rng = random.Random(seed)
    link = LinkProfile("a", "b", latency_s=0.002, bandwidth_bps=50_000_000)
    for _ in range(20):
        arrivals = random_payload_schedule(rng, rng.randrange(1, 30))
        chunk = rng.choice([None, 4096, 65_536, 262_144])
        events = replay_link(link, arrivals, chunk_size=chunk, policy=LinkPolicy.FCFS)
        check_link_invariants(events, LinkPolicy.FCFS)


def test_transmission_ns_rounding():
    link = LinkProfile("a", "b", 0.0, 12_500_000)
    assert transmission_ns(link, 262_144) == 20_971_520
