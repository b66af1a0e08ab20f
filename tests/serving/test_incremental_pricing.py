"""The :class:`TransferFeed` running token counter.

Routers read ``queued_tokens`` on every decision, so the feed keeps it as a
running total instead of walking its heap.  The counter must follow every
push and take, whatever order requests become ready in.
"""

from __future__ import annotations

from repro.serving.engine import TransferFeed
from repro.serving.request import Request


def _request(request_id, input_len, output_len):
    return Request(
        request_id=request_id, arrival_time_s=0.0, input_len=input_len, output_len=output_len
    )


def test_transfer_feed_counter_tracks_push_and_take():
    feed = TransferFeed()
    assert feed.queued_tokens == 0
    requests = [_request(i, 100 + i, 10 + i) for i in range(20)]
    expected = 0
    for i, request in enumerate(requests):
        feed.push(float(20 - i), request)  # deliberately out of order
        expected += request.total_seq_len
        assert feed.queued_tokens == expected
    while len(feed):
        taken = feed.take(100.0)
        expected -= taken.total_seq_len
        assert feed.queued_tokens == expected
    assert feed.queued_tokens == 0
