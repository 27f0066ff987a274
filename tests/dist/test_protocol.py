"""Tests for the distributed wire protocol: framing, index encoding and
campaign specs."""

import json
import socket
import struct

import pytest

from repro.dist.protocol import (
    MAX_MESSAGE_BYTES,
    CampaignSpec,
    decode_indices,
    encode_indices,
    recv_message,
    send_message,
)
from repro.errors import DistError

from tests.conftest import DEMO_SOURCE


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, pair):
        a, b = pair
        message = {"type": "hello", "name": "wörker-π", "procs": 3}
        send_message(a, message)
        assert recv_message(b) == message

    def test_multiple_messages_keep_frame_boundaries(self, pair):
        a, b = pair
        sent = [{"type": "request"}, {"type": "heartbeat"},
                {"type": "result", "task_id": 7, "part": {"n": [1, 2, 3]}}]
        for message in sent:
            send_message(a, message)
        assert [recv_message(b) for _ in sent] == sent

    def test_clean_eof_returns_none(self, pair):
        a, b = pair
        a.close()
        assert recv_message(b) is None

    def test_torn_payload_raises(self, pair):
        a, b = pair
        payload = json.dumps({"type": "request"}).encode()
        a.sendall(struct.pack(">I", len(payload)) + payload[:3])
        a.close()
        with pytest.raises(DistError, match="mid-message"):
            recv_message(b)

    def test_header_without_payload_raises(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", 10))
        a.close()
        with pytest.raises(DistError):
            recv_message(b)

    def test_oversize_frame_rejected_before_allocation(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
        with pytest.raises(DistError, match="exceeds protocol limit"):
            recv_message(b)

    def test_garbage_payload_raises(self, pair):
        a, b = pair
        payload = b"\xff\xfenot json"
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(DistError, match="malformed"):
            recv_message(b)

    @pytest.mark.parametrize("payload", [b"[1,2,3]", b'"hi"', b'{"no":1}'])
    def test_non_message_json_raises(self, pair, payload):
        a, b = pair
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(DistError, match="'type'"):
            recv_message(b)

    def test_send_on_closed_socket_raises_disterror(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(DistError, match="sending"):
            send_message(a, {"type": "request"})


class TestIndexEncoding:
    def test_contiguous_run_is_one_range(self):
        assert encode_indices((4, 5, 6, 7)) == [[4, 8]]

    def test_gaps_split_ranges(self):
        assert encode_indices((0, 1, 5, 6, 9)) == [[0, 2], [5, 7], [9, 10]]

    def test_empty(self):
        assert encode_indices(()) == []
        assert decode_indices([]) == ()

    def test_round_trip(self):
        indices = (0, 1, 2, 10, 11, 40)
        assert decode_indices(encode_indices(indices)) == indices


class TestCampaignSpec:
    def _spec(self, **overrides):
        kwargs = dict(
            workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=8
        )
        kwargs.update(overrides)
        return CampaignSpec(**kwargs)

    def test_dict_round_trip(self):
        spec = self._spec(keep_records=True, base_seed=99)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_dict_survives_json(self):
        spec = self._spec()
        data = json.loads(json.dumps(spec.to_dict()))
        assert CampaignSpec.from_dict(data) == spec

    def test_key_is_matrix_cell(self):
        assert self._spec().key == ("demo", "REFINE")

    def test_make_tool_carries_all_parameters(self):
        spec = self._spec(
            keep_records=True, opt_level="O1", fi_funcs="main",
            fi_instrs="arithm", opcode_faults=0.25, engine="reference",
            fault_model="multi-bit:k=3",
        )
        tool = spec.make_tool()
        assert tool.name == "REFINE"
        assert tool.workload == "demo"
        assert tool.opt_level == "O1"
        assert (tool.config.funcs, tool.config.instrs) == ("main", "arithm")
        assert tool.opcode_faults == 0.25
        assert tool.engine_spec == "reference"
        assert tool.fault_model.spec == spec.fault_model
        # for_tool inverts make_tool: the spec a tool was built from.
        again = CampaignSpec.for_tool(
            tool, spec.n, spec.base_seed, spec.keep_records
        )
        assert again == spec

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"tool_name": "NOPE"},
            {"fi_instrs": "bogus"},
            {"opcode_faults": 1.5},
        ],
    )
    def test_invalid_spec_raises(self, overrides):
        with pytest.raises(DistError):
            self._spec(**overrides)

    def test_from_dict_missing_field_raises(self):
        data = self._spec().to_dict()
        del data["source"]
        with pytest.raises(DistError, match="malformed campaign spec"):
            CampaignSpec.from_dict(data)
