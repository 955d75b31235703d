import pytest

from mono3dkit.config import DEFAULT_PRIORS, PipelineConfig, load_config, parse_config_text
from mono3dkit.errors import ConfigError


class TestDefaults:
    def test_shipped_hyperparameters(self):
        cfg = PipelineConfig()
        assert cfg.score_threshold == 0.1
        assert cfg.outlier_k == 2.0
        assert (cfg.virtual_focal, cfg.virtual_width, cfg.virtual_height) == (900.0, 1274, 644)
        assert (cfg.lambda_dice, cfg.lambda_bce) == (0.7, 0.3)
        assert (cfg.clamp_alpha, cfg.clamp_beta) == (0.5, 2.0)
        assert cfg.depth_window == 5
        assert cfg.fallback_grid == 5

    def test_default_priors_cover_kitti_classes(self):
        assert {"Car", "Pedestrian", "Cyclist"} <= set(DEFAULT_PRIORS)

    def test_derived_objects(self):
        cfg = PipelineConfig()
        spec = cfg.virtual_camera()
        assert (spec.focal, spec.width, spec.height) == (900.0, 1274, 644)
        prior = cfg.dimension_prior()
        assert prior.alpha == 0.5 and prior.beta == 2.0
        assert "Car" in prior.classes


class TestParsing:
    def test_overrides_and_comments(self):
        cfg = parse_config_text(
            """
            # tuned run
            score_threshold = 0.25
            depth_window = 7      # wider patch
            prior.Person = 0.6 0.7 1.7
            """
        )
        assert cfg.score_threshold == 0.25
        assert cfg.depth_window == 7
        assert cfg.priors["Person"].height == 1.7
        # untouched keys keep their defaults
        assert cfg.outlier_k == 2.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("scorethreshold = 0.5\n")

    def test_bad_value_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("score_threshold = 0.2\ndepth_window = wide\n")

    def test_non_integer_for_int_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("virtual_width = 2.5\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("score_threshold 0.2\n")

    def test_bad_prior_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("prior.Car = 1.0 2.0\n")

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("depth_window = 7\n")
        assert load_config(path).depth_window == 7

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")


class TestValidation:
    def test_even_depth_window_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(depth_window=4)

    def test_threshold_range(self):
        with pytest.raises(ConfigError):
            PipelineConfig(score_threshold=1.5)

    def test_clamp_bounds(self):
        with pytest.raises(ConfigError):
            PipelineConfig(clamp_alpha=0.0)


class TestEcho:
    def test_echo_is_deterministic_and_complete(self):
        cfg = PipelineConfig()
        lines = cfg.echo_lines()
        assert lines == cfg.echo_lines()
        joined = "\n".join(lines)
        assert "score_threshold = 0.1" in joined
        assert "virtual_focal = 900.0" in joined
        assert "prior.Car = 1.63 3.88 1.53" in joined
