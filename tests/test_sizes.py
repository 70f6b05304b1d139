"""Size formulas against published table values and live encoders."""

from dataclasses import replace

import pytest

from crosstill.encoder import EncoderConfig, SentenceEncoder
from crosstill.errors import ContractError
from crosstill.pipeline import toy_config
from crosstill.sizes import (
    PRESETS, SizePreset, embedding_size, encoder_size, model_report, render_millions,
)


def preset_of(cfg: EncoderConfig) -> SizePreset:
    """Counting preset for an encoder config: it has no token-type table."""
    return SizePreset(
        name="live", vocab_size=cfg.vocab_size, hidden=cfg.hidden,
        ffn_size=cfg.ffn_size, max_positions=cfg.max_positions,
        token_type_count=0, layers=cfg.distinct_layers,
        bottleneck=cfg.bottleneck_size,
    )


def report_total(preset: SizePreset) -> int:
    report = model_report(preset)
    return report.embedding_params + report.encoder_params


class TestEncoderSize:
    @pytest.mark.parametrize("h,f,layers,count,rendered", [
        (768, 3072, 12, 85_054_464, "85.05M"),
        (768, 3072, 6, 42_527_232, "42.52M"),
        (768, 3072, 3, 21_263_616, "21.26M"),
        (384, 1536, 12, 21_293_568, "21.29M"),
        (384, 1536, 6, 10_646_784, "10.64M"),
        (384, 1536, 3, 5_323_392, "5.32M"),
    ])
    def test_reference_rows(self, h, f, layers, count, rendered):
        got = encoder_size(h, f, layers)
        assert got == count
        assert render_millions(got, "floor") == rendered

    def test_linear_in_layers(self):
        one = encoder_size(64, 128, 1)
        for n in (2, 5, 9):
            assert encoder_size(64, 128, n) == n * one

    def test_bad_dims_rejected(self):
        with pytest.raises(ContractError):
            encoder_size(0, 128, 1)


class TestEmbeddingSize:
    @pytest.mark.parametrize("name,count,rendered", [
        ("xlmr-full-ru12", 192_397_056, "192.40M"),
        ("xlmr-b128-ru12", 32_494_080, "32.49M"),
        ("xlmr-b256-ru12", 64_592_640, "64.59M"),
        ("minilm-b128-ru12", 32_049_408, "32.05M"),
        ("minilm-b256-ru12", 64_098_816, "64.10M"),
    ])
    def test_reference_rows(self, name, count, rendered):
        got = embedding_size(PRESETS[name])
        assert got == count
        assert render_millions(got, "half-up") == rendered

    def test_minilm_full_near_reference(self):
        # the source table prints 96.21M; the best reconstruction is 0.012% off
        got = embedding_size(PRESETS["minilm-full-ru12"])
        assert abs(got - 96_210_000) / 96_210_000 < 0.0005

    def test_bottleneck_smaller_than_full_across_grid(self):
        for name, preset in PRESETS.items():
            if preset.bottleneck is None:
                continue
            v, h, b = preset.vocab_size, preset.hidden, preset.bottleneck
            if b < v * h / (v + h):
                full = embedding_size(replace(preset, bottleneck=None))
                assert embedding_size(preset) < full, name


class TestRendering:
    def test_floor_vs_half_up_disagree_where_expected(self):
        assert render_millions(42_527_232, "floor") == "42.52M"
        assert render_millions(42_527_232, "half-up") == "42.53M"

    def test_exact_boundary(self):
        assert render_millions(10_000_000, "half-up") == "10.00M"
        assert render_millions(10_005_000, "half-up") == "10.01M"
        assert render_millions(10_005_000, "floor") == "10.00M"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError):
            render_millions(1, "nearest-even")


class TestRegistryAudit:
    def toy_config(self, b, m, r):
        return EncoderConfig(
            vocab_size=64, hidden=16, ffn_size=32, heads=4,
            distinct_layers=m, recurrence_count=r,
            bottleneck_size=8 if b else None,
            max_positions=10,
        )

    @pytest.mark.parametrize("b", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_grid_roundtrip(self, b, m, r):
        cfg = self.toy_config(b, m, r)
        enc = SentenceEncoder.init(cfg, seed=0)
        assert report_total(preset_of(cfg)) == enc.n_params()

    def test_recurrence_does_not_change_report(self):
        r1 = model_report(preset_of(self.toy_config(True, 2, 1)))
        r3 = model_report(preset_of(self.toy_config(True, 2, 3)))
        assert r1.embedding_params == r3.embedding_params
        assert r1.encoder_params == r3.encoder_params

    def test_bottleneck_at_b_equals_h_adds_projection(self):
        base = dict(
            name="x", vocab_size=64, hidden=16, ffn_size=32, max_positions=10,
            token_type_count=0, layers=2,
            include_embedding_extras=False,
        )
        full = embedding_size(SizePreset(bottleneck=None, **base))
        factored = embedding_size(SizePreset(bottleneck=16, **base))
        assert factored - full == 16 * 16

    # the toy presets are the sizes quoted for the models the toy run trains
    def test_toy_student_preset_matches_live_encoder(self, tmp_path):
        student = toy_config(tmp_path, tmp_path).student
        enc = SentenceEncoder.init(student, seed=1)
        assert report_total(PRESETS["toy-student"]) == enc.n_params()

    def test_toy_assistant_preset_matches_live_encoder(self, tmp_path):
        assistant = toy_config(tmp_path, tmp_path).assistant
        enc = SentenceEncoder.init(assistant, seed=1)
        assert report_total(PRESETS["toy-assistant"]) == enc.n_params()


class TestTsvShape:
    def test_row_has_five_fields(self):
        report = model_report(PRESETS["xlmr-full-ru12"])
        fields = report.tsv_row().split("\t")
        assert len(fields) == 5
        assert fields[0] == "xlmr-full-ru12"
        assert fields[3] == "192.40M"
        assert fields[4] == "85.05M"
