"""The worker wire protocol: typed constructors, accessors, arity."""

import pytest

from repro.edge import wire


# One message from every constructor: the shapes the protocol sends.
MESSAGES = [
    wire.hello_message("w0"),
    wire.spec_message(object()),
    wire.weights_message("blocks.0.norm1.weight", b"array"),
    wire.weights_end_message(),
    wire.infer_message(7, "x"),
    wire.stop_message(),
    wire.ready_message("w0"),
    wire.failed_message("w0", "boom"),
    wire.features_message(7, b"data", {"t": 1.0}),
    wire.error_message(7, "bad"),
    wire.stopped_message("w0"),
]


class TestConstructors:
    def test_every_constructor_matches_declared_arity(self):
        for message in MESSAGES:
            assert wire.check(message) is message

    def test_constructors_cover_every_command(self):
        assert {message[0] for message in MESSAGES} == set(wire.ARITY)

    @pytest.mark.parametrize("message", MESSAGES,
                             ids=lambda message: message[0])
    def test_one_element_short_or_long_is_rejected(self, message):
        """Each command's bounds are its constructor's length, at both
        ends: ``ARITY`` admits nothing the constructors do not send."""
        with pytest.raises(wire.WireError):
            wire.check(message[:-1])
        with pytest.raises(wire.WireError):
            wire.check(message + (None,))

    def test_infer_is_always_a_3_tuple(self):
        assert wire.infer_message(3, "x") == (wire.INFER, 3, "x")
        assert wire.ARITY[wire.INFER] == (3, 3)
        with pytest.raises(wire.WireError):
            wire.check((wire.INFER, 3, "x", {"trace_id": 3}))


class TestBootMessages:
    def test_hello_names_its_worker(self):
        message = wire.hello_message("w3")
        assert wire.command(message) == wire.HELLO
        assert wire.worker_id(message) == "w3"

    def test_worker_id_reads_every_reply_that_carries_one(self):
        for message in (wire.ready_message("w1"),
                        wire.failed_message("w1", "boom"),
                        wire.stopped_message("w1")):
            assert wire.worker_id(message) == "w1"

    def test_spec_round_trips_the_object_it_was_given(self):
        spec = object()
        message = wire.spec_message(spec)
        assert wire.command(message) == wire.SPEC
        assert wire.spec(message) is spec

    def test_weights_entry_is_the_pair(self):
        array = object()
        message = wire.weights_message("head.weight", array)
        assert wire.command(message) == wire.WEIGHTS
        assert wire.weights_entry(message) == ("head.weight", array)

    def test_weights_end_marker_has_no_entry(self):
        message = wire.weights_end_message()
        assert wire.command(message) == wire.WEIGHTS
        assert wire.weights_entry(message) is None

    def test_an_entry_with_an_empty_array_is_not_the_end(self):
        entry = wire.weights_entry(wire.weights_message("scalar", None))
        assert entry == ("scalar", None)


class TestAccessors:
    def test_command_and_request_id(self):
        message = wire.features_message(11, b"f", {})
        assert wire.command(message) == wire.FEATURES
        assert wire.request_id(message) == 11

    def test_payload_and_stats(self):
        message = wire.features_message(1, b"encoded", {"infer_s": 0.5})
        assert wire.payload(message) == b"encoded"
        assert wire.stats(message) == {"infer_s": 0.5}

    def test_error_payload_is_the_detail(self):
        assert wire.payload(wire.error_message(None, "why")) == "why"

    def test_startup_detail_reads_failed_message(self):
        assert wire.startup_detail(wire.failed_message("w0", "oom")) == "oom"

    def test_startup_detail_degrades_on_short_messages(self):
        # Malformed legacy replies must still print *something*.
        assert wire.startup_detail(("ready", "w0")) == ("ready", "w0")


class TestCheck:
    def test_unknown_command_rejected(self):
        with pytest.raises(wire.WireError, match="unknown wire command"):
            wire.check(("banana", 1, 2))

    def test_arity_drift_rejected(self):
        with pytest.raises(wire.WireError, match="elements"):
            wire.check((wire.READY, "w0", "extra"))

    def test_non_tuple_rejected(self):
        with pytest.raises(wire.WireError):
            wire.check(["infer", 1, "x"])

    def test_every_command_has_arity(self):
        assert set(wire.ARITY) == set(wire.COMMANDS)
