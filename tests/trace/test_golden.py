"""Golden payload digests: the recorder's bytes are pinned.

Each workload in ``GOLDEN`` (``conftest.py``) is re-recorded and its
payload SHA-256 compared with the committed digest.
Any change to the byte format, the string-intern order or the recorded
event stream fails here; a faster encoder must leave every byte alone.
"""

import pytest

from repro.trace.format import OP_EVENT, OP_PUSH, TraceReader

from tests.trace.conftest import GOLDEN


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_digest_is_pinned(golden_traces, name):
    reader = TraceReader(golden_traces[name])
    assert reader.verify()
    assert reader.digest == GOLDEN[name]
    # the whole-payload digest is independent of where segments are cut
    assert len(reader.segments) > 1


def test_golden_set_covers_the_wide_fields(golden_traces):
    """The pinned traces exercise threads, deep call chains, long string
    tables and operands past 64 bits."""
    readers = {name: TraceReader(data) for name, data in golden_traces.items()}
    records = {name: list(reader.records()) for name, reader in readers.items()}
    tids = {rec[3] for rec in records["memcached"] if rec[0] == OP_EVENT}
    assert len(tids) > 1
    pushes = [rec for rec in records["call-heavy"] if rec[0] == OP_PUSH]
    assert len(pushes) >= 128 and readers["call-heavy"].meta["n_strings"] >= 128
    widest = max(abs(value) for rec in records["water_ns"] if rec[0] == OP_EVENT
                 for value in rec[5] + (rec[6] or 0,))
    assert widest.bit_length() > 64
