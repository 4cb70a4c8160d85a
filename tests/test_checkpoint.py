import copy
import json
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltpnet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from ltpnet.model import build_model, forward_batch, forward_full
from ltpnet.rng import SeededRng


def tiny_model(seed=0, **overrides):
    args = dict(
        n_features=2, lstm_hidden=4, lstm_layers=2,
        transformer_layers=1, attention_heads=2, d_model=8, head_width=4,
        rng=SeededRng(seed),
    )
    args.update(overrides)
    return build_model(**args)


def rewrite_header(path, rewrite):
    """Replace the header bytes of the checkpoint at ``path`` by ``rewrite(header)``.

    The payload keeps its length, so only the header checks can object.
    """
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    new = rewrite(json.loads(blob[16 : 16 + header_len]))
    path.write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + header_len :])


def edit_header(path, edit):
    """Rewrite the header of the checkpoint at ``path`` by ``edit(header)``."""

    def rewrite(header):
        edit(header)
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()

    rewrite_header(path, rewrite)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        model = tiny_model(seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        names_a = [n for n, _ in model.named_arrays()]
        names_b = [n for n, _ in loaded.named_arrays()]
        assert names_a == names_b
        for (_, a), (_, b) in zip(model.named_arrays(), loaded.named_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = tiny_model(seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        window = SeededRng(3).uniform(-1, 1, (6, 2))
        assert forward_full(window, model)[0] == forward_full(window, loaded)[0]

    def test_variants_round_trip(self, tmp_path):
        for flags in ({"lstm_enabled": False}, {"transformer_enabled": False}):
            model = tiny_model(seed=4, **flags)
            path = tmp_path / "variant.ckpt"
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
            assert loaded.structure() == model.structure()
            for (_, a), (_, b) in zip(model.named_arrays(), loaded.named_arrays()):
                np.testing.assert_array_equal(a, b)

    def test_metadata_preserved_in_header(self, tmp_path):
        model = tiny_model(seed=5)
        path = tmp_path / "meta.ckpt"
        save_checkpoint(model, path, metadata={"init_seed": 5})
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + header_len].decode())
        assert header["metadata"] == {"init_seed": 5}


class TestErrors:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "v.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_format_1_is_refused(self, tmp_path):
        # format 1 stored every LSTM gate apart; its files are not read
        path = tmp_path / "v1.ckpt"
        save_checkpoint(tiny_model(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_a_format_2_file_is_refused_by_its_version(self, tmp_path):
        # the header a format-2 writer made: the same dimensions plus four keys
        path = tmp_path / "v2.ckpt"
        save_checkpoint(tiny_model(), path)

        def format_2(header):
            structure = header["structure"]
            structure["encoder"]["max_len"] = 6
            structure["head"]["pooling"] = "mean"
            structure.update(lstm_enabled=True, transformer_enabled=True)

        edit_header(path, format_2)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
        with pytest.raises(CheckpointError, match="version 2, expected 3"):
            load_checkpoint(path)

    @pytest.mark.parametrize("rewrite", [
        pytest.param(
            lambda h: json.dumps({k: v for k, v in h.items() if k != "structure"}).encode(),
            id="no-structure",
        ),
        pytest.param(lambda h: b"\xff\xfe" + json.dumps(h).encode(), id="not-utf8"),
        pytest.param(lambda h: json.dumps(h).encode()[:-1], id="not-json"),
        pytest.param(lambda h: json.dumps([h]).encode(), id="json-list"),
        pytest.param(
            lambda h: json.dumps({**h, "structure": {**h["structure"], "lstm": "x"}}).encode(),
            id="lstm-not-a-list",
        ),
    ])
    def test_malformed_header(self, tmp_path, rewrite):
        path = tmp_path / "header.ckpt"
        save_checkpoint(tiny_model(), path)
        rewrite_header(path, rewrite)
        with pytest.raises(CheckpointError, match="malformed header"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "t.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_a_header_claiming_more_than_the_file_holds_allocates_nothing(self, tmp_path):
        # 224 MB of LSTM weights claimed by a file with no payload
        h = 2000
        header = json.dumps({
            "manifest": [["lstm.0.W_x", [4 * h, 2]], ["lstm.0.W_h", [4 * h, h]],
                         ["lstm.0.W_c", [3 * h, h]], ["lstm.0.b", [4 * h]]],
            "metadata": {},
            "structure": {"bypass": None, "encoder": None, "head": None, "lstm": [[2, h]]},
        }, sort_keys=True, separators=(",", ":")).encode()
        path = tmp_path / "claims.ckpt"
        path.write_bytes(b"LTPC" + struct.pack("<IQ", 3, len(header)) + header)
        assert path.stat().st_size == 215
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "tail.ckpt"
        save_checkpoint(tiny_model(), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="8 trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry, field, value", [
        (0, 0, "lstm.0.W_renamed"),  # a name the structure does not have
        (3, 1, [5]),                 # lstm.0.b is (16,) in the structure
    ])
    def test_manifest_must_fit_structure(self, tmp_path, entry, field, value):
        path = tmp_path / "manifest.ckpt"
        save_checkpoint(tiny_model(), path)

        def edit(header):
            header["manifest"][entry][field] = value

        edit_header(path, edit)
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(path)

    @pytest.mark.parametrize("part, key, value", [
        # keys that format 2 stored; a model's structure has none of them
        (None, "lstm_enabled", False),
        (None, "transformer_enabled", False),
        ("head", "pooling", "max"),
        ("encoder", "max_len", 6),
    ])
    def test_structure_must_agree_with_its_components(self, tmp_path, part, key, value):
        path = tmp_path / "structure.ckpt"
        save_checkpoint(tiny_model(), path)

        def edit(header):
            structure = header["structure"]
            (structure[part] if part else structure)[key] = value

        edit_header(path, edit)
        with pytest.raises(CheckpointError, match="contradicts"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("n_heads", 2.0), ("n_heads", True), ("n_layers", True)])
    def test_encoder_dimensions_must_be_integers(self, tmp_path, key, value):
        # 2.0 == 2 and True == 1, so the model gives back an equal structure;
        # n_heads 2.0 and true once loaded and failed at the first forward
        path = tmp_path / "dims.ckpt"
        save_checkpoint(tiny_model(), path)

        def edit(header):
            header["structure"]["encoder"][key] = value

        edit_header(path, edit)
        with pytest.raises(CheckpointError, match=rf"structure\.encoder\.{key} must be an integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("n_heads", [3, 0])
    def test_heads_must_split_d_model(self, tmp_path, n_heads):
        # the criterion-01 model has d_model 8
        path = tmp_path / "heads.ckpt"
        save_checkpoint(tiny_model(), path)

        def edit(header):
            header["structure"]["encoder"]["n_heads"] = n_heads

        edit_header(path, edit)
        with pytest.raises(CheckpointError, match="n_heads"):
            load_checkpoint(path)


class TestByteLength:
    def test_written_length_matches_prediction(self, tmp_path):
        model = tiny_model(seed=6)
        path = tmp_path / "len.ckpt"
        written = save_checkpoint(model, path)
        assert path.stat().st_size == written

    def test_zeroed_reference_model_length_is_stable(self, tmp_path):
        # frozen for the zero-initialized reference tiny model: 16 byte
        # preamble + 857 byte header (format 3) + 8 * 1273 parameter payload
        model = tiny_model(seed=0)
        model.flat[...] = 0.0
        n_params = sum(a.size for _, a in model.named_arrays())
        assert n_params == 1273
        path = tmp_path / "frozen.ckpt"
        written = save_checkpoint(model, path)
        assert written == path.stat().st_size
        assert written == 16 + 857 + 8 * 1273

    def test_save_holds_no_copy_of_the_payload(self, tmp_path):
        # the file is the preamble, the header and ``flat``'s bytes, while
        # the save itself allocates less than half a payload (a blob built
        # as one bytes object holds the payload twice)
        model = build_model(n_features=2, lstm_hidden=32, lstm_layers=1, transformer_layers=2,
                            attention_heads=2, d_model=128, d_ff=512, head_width=8,
                            rng=SeededRng(4))
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            written = save_checkpoint(model, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        assert blob[:8] == b"LTPC" + struct.pack("<I", 3)
        assert blob[16 + header_len:] == model.flat.tobytes()
        assert written == len(blob) == 16 + header_len + model.flat.nbytes
        assert model.flat.nbytes > 3 * 2**20
        assert peak < model.flat.nbytes // 2


@st.composite
def small_structures(draw):
    """build_model arguments for a small random model of any variant."""
    variant = draw(st.sampled_from(["full", "no-lstm", "no-transformer"]))
    heads = draw(st.sampled_from([1, 2]))
    return dict(
        n_features=draw(st.integers(1, 3)),
        lstm_hidden=draw(st.integers(1, 4)),
        lstm_layers=draw(st.integers(1, 3)),
        transformer_layers=draw(st.integers(0, 2)),
        attention_heads=heads,
        d_model=2 * heads * draw(st.integers(1, 2)),
        d_ff=draw(st.none() | st.integers(1, 5)),
        head_width=draw(st.integers(1, 4)),
        lstm_enabled=variant != "no-lstm",
        transformer_enabled=variant != "no-transformer",
        rng=SeededRng(draw(st.integers(0, 2**16))),
    )


@settings(max_examples=40)
@given(args=small_structures(), lookback=st.integers(1, 4), data_seed=st.integers(0, 2**16))
def test_round_trip_is_bit_exact_over_random_structures(
    tmp_path_factory, args, lookback, data_seed
):
    model = build_model(**args)
    path = tmp_path_factory.mktemp("prop") / "model.ckpt"
    assert save_checkpoint(model, path) == path.stat().st_size
    loaded = load_checkpoint(path)
    assert loaded.structure() == model.structure()
    assert loaded.flat.tobytes() == model.flat.tobytes()
    windows = SeededRng(data_seed).uniform(-1, 1, (2, lookback, args["n_features"]))
    assert forward_batch(windows, loaded)[0].tobytes() == forward_batch(windows, model)[0].tobytes()


@settings(max_examples=40)
@given(args=small_structures())
def test_variant_flags_are_the_components_present(tmp_path_factory, args):
    model = build_model(**args)
    path = tmp_path_factory.mktemp("flags") / "model.ckpt"
    save_checkpoint(model, path)
    for m in (model, copy.deepcopy(model), pickle.loads(pickle.dumps(model)), load_checkpoint(path)):
        assert bool(m.lstm_stack) == args["lstm_enabled"]
        assert (m.encoder is not None) == args["transformer_enabled"]


def _int_leaves(node, path=()):
    """The paths of every int in a header's structure and manifest shapes."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _int_leaves(value, (*path, key))
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path


_MUTATIONS = {
    "float": float, "true": lambda v: True, "false": lambda v: False,
    "string": str, "negative": lambda v: -v - 1,
}
_HEADER_LEAVES = list(_int_leaves({  # the ints of the header that ``tiny_model()`` saves
    "structure": tiny_model().structure(),
    "manifest": [[name, list(arr.shape)] for name, arr in tiny_model().named_arrays()],
}))


@settings(max_examples=300)
@given(mutations=st.lists(
    st.tuples(st.sampled_from(_HEADER_LEAVES), st.sampled_from([*_MUTATIONS, "drop"])),
    min_size=1, max_size=2, unique_by=lambda m: m[0],
))
@example(mutations=[(("structure", "encoder", "n_heads"), "float")])
@example(mutations=[(("structure", "encoder", "n_heads"), "true")])
def test_a_mutated_header_loads_a_working_model_or_is_refused(tmp_path_factory, mutations):
    # one or two values of the criterion-01 checkpoint's header (1,273
    # parameters) become floats, bools, strings or negatives, or are dropped
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(tiny_model(), path)

    def edit(header):
        for (*parents, key), kind in mutations:
            try:
                holder = header
                for part in parents:
                    holder = holder[part]
                if kind == "drop":
                    del holder[key]
                else:
                    holder[key] = _MUTATIONS[kind](holder[key])
            except (IndexError, KeyError):  # an earlier drop took the value away
                pass

    edit_header(path, edit)
    tracemalloc.start()
    try:
        try:
            model = load_checkpoint(path)
        except CheckpointError:
            model = None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    if model is not None:
        windows = SeededRng(7).uniform(-1, 1, (2, 3, 2))
        preds, _ = forward_batch(windows, model, keep_cache=False)
        assert preds.shape == (2,) and np.isfinite(preds).all()
