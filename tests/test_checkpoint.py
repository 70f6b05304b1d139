"""Checkpoint format: round trips, validation, and offset-bearing errors."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crosstill.checkpoint
from crosstill.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from crosstill.encoder import EncoderConfig, SentenceEncoder
from crosstill.errors import FormatError


def make_encoder(dtype=np.float32, **overrides):
    base = dict(
        vocab_size=20, hidden=8, ffn_size=16, heads=2,
        distinct_layers=2, recurrence_count=2, max_positions=10,
        bottleneck_size=4,
    )
    base.update(overrides)
    return SentenceEncoder.init(EncoderConfig(**base), seed=3, dtype=dtype)


class TestRoundTrip:
    def test_bitwise_params_and_config(self, tmp_path):
        enc = make_encoder()
        path = tmp_path / "enc.xdst"
        save_checkpoint(enc, path)
        loaded = load_checkpoint(path)
        assert loaded.config == enc.config
        for name, p in enc.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, p.data)

    def test_save_load_save_identical_bytes(self, tmp_path):
        enc = make_encoder()
        first = tmp_path / "a.xdst"
        second = tmp_path / "b.xdst"
        save_checkpoint(enc, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_float64_encoder_downcast_to_float32(self, tmp_path):
        enc = make_encoder(dtype=np.float64)
        path = tmp_path / "wide.xdst"
        save_checkpoint(enc, path)
        loaded = load_checkpoint(path)
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(
            loaded.params["layer1.attn.q.w"].data,
            enc.params["layer1.attn.q.w"].data.astype(np.float32),
        )

    def test_forward_identical_after_roundtrip(self, tmp_path):
        enc = make_encoder()
        path = tmp_path / "enc.xdst"
        save_checkpoint(enc, path)
        loaded = load_checkpoint(path)
        ids = np.array([[4, 5, 6]])
        mask = np.ones((1, 3), dtype=np.uint8)
        np.testing.assert_array_equal(
            loaded.encode(ids, mask).data, enc.encode(ids, mask).data
        )

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "enc.xdst"
        save_checkpoint(make_encoder(), path)
        previous = path.read_bytes()
        real_open = open

        class TornFile:
            """Writes half of what it is given, then fails like a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, blob):
                self.fh.write(blob[: len(blob) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(
            crosstill.checkpoint, "open",
            lambda file, mode: TornFile(real_open(file, mode)), raising=False,
        )
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(make_encoder(distinct_layers=1), path)
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["enc.xdst"]


class TestValidation:
    def write_good(self, tmp_path):
        enc = make_encoder()
        path = tmp_path / "enc.xdst"
        save_checkpoint(enc, path)
        return path, path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path, blob = self.write_good(tmp_path)
        path.write_bytes(b"WRONG" + blob[5:])
        with pytest.raises(FormatError, match="magic.*offset 0"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path, blob = self.write_good(tmp_path)
        path.write_bytes(blob[:5] + struct.pack("<I", 99) + blob[9:])
        with pytest.raises(FormatError, match="version 99.*offset 5"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path, blob = self.write_good(tmp_path)
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_truncation_reports_offset(self, tmp_path):
        path, blob = self.write_good(tmp_path)
        path.write_bytes(blob[:3])
        with pytest.raises(FormatError, match="offset 0"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, blob = self.write_good(tmp_path)
        path.write_bytes(blob + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_dims_config_disagreement(self, tmp_path):
        # rewrite the header config to a different hidden size: the first
        # tensor's dims no longer match what the config requires
        enc = make_encoder()
        path = tmp_path / "enc.xdst"
        save_checkpoint(enc, path)
        blob = path.read_bytes()
        import json
        cfg_len = struct.unpack("<Q", blob[9:17])[0]
        cfg = json.loads(blob[17:17 + cfg_len])
        cfg["bottleneck_size"] = 5
        new_cfg = json.dumps(cfg, sort_keys=True).encode()
        path.write_bytes(
            blob[:9] + struct.pack("<Q", len(new_cfg)) + new_cfg + blob[17 + cfg_len:]
        )
        with pytest.raises(FormatError, match="dims"):
            load_checkpoint(path)

    def test_invalid_config_blob(self, tmp_path):
        path, blob = self.write_good(tmp_path)
        cfg_len = struct.unpack("<Q", blob[9:17])[0]
        garbage = b"{" * cfg_len
        path.write_bytes(blob[:17] + garbage + blob[17 + cfg_len:])
        with pytest.raises(FormatError, match="config"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda cfg: b'"x"',
        lambda cfg: b"[1, 2]",
        lambda cfg: json.dumps({**cfg, "warp": 1}).encode(),
        lambda cfg: json.dumps({**cfg, "hidden": -1}).encode(),
        lambda cfg: b"[" * 100_000,
    ], ids=["string", "list", "unknown-key", "negative-hidden", "deeply-nested"])
    def test_bad_config_blob_reports_offset(self, tmp_path, edit):
        path, blob = self.write_good(tmp_path)
        cfg_len = struct.unpack("<Q", blob[9:17])[0]
        new_cfg = edit(json.loads(blob[17:17 + cfg_len]))
        path.write_bytes(
            blob[:9] + struct.pack("<Q", len(new_cfg)) + new_cfg + blob[17 + cfg_len:]
        )
        with pytest.raises(FormatError, match="invalid config blob") as info:
            load_checkpoint(path)
        assert info.value.offset == 17

    def test_bottleneck_enabled_key_rejected(self, tmp_path):
        """A file written while `bottleneck_enabled` was a config field fails the schema."""
        path, blob = self.write_good(tmp_path)
        cfg_len = struct.unpack("<Q", blob[9:17])[0]
        old_cfg = json.loads(blob[17:17 + cfg_len])
        old_cfg["bottleneck_enabled"] = old_cfg["bottleneck_size"] is not None
        new_cfg = json.dumps(old_cfg, sort_keys=True).encode("utf-8")
        path.write_bytes(
            blob[:9] + struct.pack("<Q", len(new_cfg)) + new_cfg + blob[17 + cfg_len:]
        )
        with pytest.raises(FormatError) as info:
            load_checkpoint(path)
        assert "unknown encoder config fields: ['bottleneck_enabled']" in str(info.value)
        assert info.value.offset == 17

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_reports_tensor_and_element_offset(self, tmp_path, bad):
        enc = make_encoder()
        weight = enc.params["layer1.ffn.w1"].data
        weight[2, 5] = 12345.678  # a value whose four bytes occur once in the file
        path = tmp_path / "enc.xdst"
        save_checkpoint(enc, path)
        element_at = path.read_bytes().index(np.float32(12345.678).tobytes())
        weight[2, 5] = bad
        save_checkpoint(enc, path)
        with pytest.raises(FormatError, match="'layer1.ffn.w1'.*non-finite.*element 37") as info:
            load_checkpoint(path)
        assert info.value.offset == element_at

    def test_undecodable_tensor_name_reports_header_offset(self, tmp_path):
        path, blob = self.write_good(tmp_path)
        cfg_len = struct.unpack("<Q", blob[9:17])[0]
        header = 17 + cfg_len + 8  # past the config blob and the tensor count
        name_at = header + 8
        path.write_bytes(blob[:name_at] + b"\xff" + blob[name_at + 1:])
        with pytest.raises(FormatError, match="not UTF-8") as info:
            load_checkpoint(path)
        assert info.value.offset == header


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A valid checkpoint's bytes and a scratch path to write corruptions to."""
    path = tmp_path_factory.mktemp("xdst") / "small.xdst"
    save_checkpoint(make_encoder(distinct_layers=1, recurrence_count=1), path)
    return path.read_bytes(), path


# truncate at the first position, or flip the bit at each; positions wrap around the blob
_CORRUPTIONS = st.tuples(
    st.sampled_from(["truncate", "flip"]),
    st.lists(st.integers(min_value=0), min_size=1, max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(corruption=_CORRUPTIONS)
def test_corrupt_checkpoint_raises_only_format_error(small_checkpoint, corruption):
    blob, path = small_checkpoint
    op, positions = corruption
    if op == "truncate":
        corrupt = blob[: positions[0] % len(blob)]
    else:
        corrupt = bytearray(blob)
        for bit in positions:
            corrupt[(bit // 8) % len(blob)] ^= 1 << (bit % 8)
    path.write_bytes(bytes(corrupt))
    try:
        load_checkpoint(path)
    except FormatError as exc:
        assert exc.offset is not None, exc

