import json
import math
import types
import warnings

import numpy as np
import pytest

from mixcluster.cli import OUT_ENV, apply_overrides, main, validate_config, ConfigError


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _gen_cfg(n=50, k=2, dist_tag="gaussian", **mix):
    mixture = {"k": k, "d": 2, "separation": 10.0, "dist_tag": dist_tag, "seed": 1}
    mixture.update(mix)
    return {"mixture": mixture, "n": n}


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"mixture": {"k": 2, "d": 2}, "n": 5, "bogus": 1}, "generate")

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"mixture": {"k": 2, "d": 2, "shape": "x"}, "n": 5}, "generate")

    def test_missing_required_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"mixture": {"k": 2, "d": 2}}, "generate")

    def test_type_checked(self):
        with pytest.raises(ConfigError):
            validate_config({"mixture": {"k": 2, "d": 2}, "n": "five"}, "generate")

    def test_dotted_override(self):
        cfg = {"mixture": {"k": 2, "d": 2}, "n": 5}
        apply_overrides(cfg, ["mixture.k=3", "n=10"])
        assert cfg["mixture"]["k"] == 3 and cfg["n"] == 10

    def test_override_without_equals_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["justakey"])

    def test_override_on_a_non_object_config_rejected(self):
        with pytest.raises(ConfigError, match="crosses a non-object key"):
            apply_overrides([1], ["k=3"])


def _cluster_cfg(**keys):
    doc = {
        "mixture": {"k": 2, "d": 2, "separation": 12.0, "dist_tag": "point_mass", "seed": 1},
        "variant": "poincare",
        "sep": 12.0,
        "w_min": 0.4,
        "eval_samples": 50,
    }
    doc.update(keys)
    return doc


class TestNonFiniteNumbers:
    # json.load reads NaN, Infinity and -Infinity; each must exit 2 with no output
    @pytest.mark.parametrize(
        "command, doc, overrides, named",
        [
            ("generate", _gen_cfg(separation=math.inf), [], "mixture.separation"),
            ("cluster", _cluster_cfg(sep=math.nan), [], "sep"),
            ("cluster", _cluster_cfg(alpha=math.nan), [], "alpha"),
            ("cluster", _cluster_cfg(), ["c=-Infinity"], "c"),
            (
                "bench",
                {"mixture": {"k": 2, "d": 2, "dist_tag": "point_mass"}, "separations": [8.0, math.nan]},
                [],
                "separations[1]",
            ),
        ],
    )
    def test_exits_2_with_no_output(self, tmp_path, monkeypatch, capsys, command, doc, overrides, named):
        import mixcluster.cli as cli
        from mixcluster.poincare_cluster import LearnedMixture

        def fake_learner(mix, *args, **kwargs):
            return LearnedMixture(np.array(mix.spec.means), np.array(mix.spec.weights))

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "learn_means", fake_learner)
        monkeypatch.setattr(cli, "_bench_cell", no_cell)
        cfg = _write(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--config", cfg, "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 2
        assert f"{named} must be a finite number" in capsys.readouterr().err
        assert not any(out.iterdir())


class TestGenerate:
    def test_row_count_and_columns(self, tmp_path):
        cfg = _write(tmp_path / "c.json", _gen_cfg(n=37))
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "samples.csv").read_text().strip().splitlines()
        assert lines[0] == "id,x_0,x_1,label"
        assert len(lines) == 38

    def test_k1_single_label(self, tmp_path):
        cfg = _write(tmp_path / "c.json", _gen_cfg(n=20, k=1))
        main(["generate", "--config", cfg, "--out", str(tmp_path)])
        labels = {line.rsplit(",", 1)[1] for line in
                  (tmp_path / "samples.csv").read_text().strip().splitlines()[1:]}
        assert labels == {"0"}

    def test_rerun_byte_identical(self, tmp_path):
        cfg = _write(tmp_path / "c.json", _gen_cfg(n=25))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", cfg, "--out", str(out1)])
        main(["generate", "--config", cfg, "--out", str(out2)])
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        assert (out1 / "spec.json").read_bytes() == (out2 / "spec.json").read_bytes()

    def test_unknown_key_exits_2(self, tmp_path):
        doc = _gen_cfg()
        doc["bogus"] = 1
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["generate", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)]) == 2

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mix", [{"weight_profile": "zipf"}, {"dist_tag": "cauchy"}])
    def test_unknown_weight_profile_or_base_exits_2(self, tmp_path, capsys, mix):
        cfg = _write(tmp_path / "c.json", _gen_cfg(**mix))
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error: unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("mix", [{"separation": -3.0}, {"profile": "hierarchical", "ratios": [10.0, 0]}])
    def test_nonpositive_separation_or_ratio_exits_2(self, tmp_path, capsys, mix):
        cfg = _write(tmp_path / "c.json", _gen_cfg(**mix))
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    def test_separation_with_hierarchical_profile_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.json", _gen_cfg(profile="hierarchical", ratios=[10.0, 1000.0]))
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "'mixture.separation' is not read by profile 'hierarchical'" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()
        mix = _gen_cfg(profile="hierarchical", ratios=[10.0, 1000.0])
        del mix["mixture"]["separation"]
        cfg = _write(tmp_path / "c.json", mix)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_workers_is_a_usage_error(self, tmp_path):
        cfg = _write(tmp_path / "c.json", _gen_cfg())
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--config", cfg, "--workers", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_negative_n_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.json", _gen_cfg(n=-1))
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "n must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ENV, str(tmp_path / "envout"))
        cfg = _write(tmp_path / "c.json", _gen_cfg(n=5))
        assert main(["generate", "--config", cfg]) == 0
        assert (tmp_path / "envout" / "samples.csv").exists()


class TestCluster:
    def test_point_mass_noise_free_accuracy(self, tmp_path):
        doc = {
            "mixture": {"k": 2, "d": 2, "separation": 12.0, "dist_tag": "point_mass", "seed": 1},
            "variant": "poincare",
            "sep": 12.0,
            "w_min": 0.4,
            "reps": 2,
            "n_per_stage": 400,
            "eval_samples": 100,
        }
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--seed", "3", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["metrics"]["accuracy"] == 1.0
        assert report["metrics"]["max_mean_error"] < 1e-9
        lines = (tmp_path / "assignments.csv").read_text().strip().splitlines()
        assert lines[0] == "id,assigned,flags"
        assert len(lines) == 101

    def test_unknown_variant_exits_2(self, tmp_path):
        doc = {"mixture": {"k": 2, "d": 2, "seed": 1}, "variant": "spectral"}
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "variant, keys, named",
        [
            ("gaussian-recursive", {"t": 2}, "t"),
            ("gaussian-recursive", {"reps": 8}, "reps"),
            ("gaussian-recursive", {"n_per_stage": 1_000}, "n_per_stage"),
            ("gaussian-recursive", {"sep": 10.0}, "sep"),
            ("gaussian-recursive", {"desk": False}, "desk"),
            ("poincare", {"desk": True}, "desk"),
            ("poincare", {"sep_hint": 10.0}, "sep_hint"),
        ],
    )
    def test_key_the_variant_ignores_exits_2(self, tmp_path, monkeypatch, capsys, variant, keys, named):
        import mixcluster.cli as cli
        from mixcluster.poincare_cluster import LearnedMixture

        def fake_learner(mix, *args, **kwargs):
            return LearnedMixture(np.array(mix.spec.means), np.array(mix.spec.weights))

        monkeypatch.setattr(cli, "learn_means", fake_learner)
        monkeypatch.setattr(cli.gc, "recursive_cluster", fake_learner)
        doc = {
            "mixture": {"k": 2, "d": 2, "separation": 10.0, "dist_tag": "gaussian", "seed": 1},
            "variant": variant,
            "eval_samples": 50,
            **keys,
        }
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config key {named!r}" in err
        # a key neither variant reads is not in the schema at all
        assert ("unknown config key" in err) == (named not in cli.SCHEMAS["cluster"])

    @pytest.mark.parametrize("mix", [{"weight_profile": "zipf"}, {"dist_tag": "cauchy"}])
    def test_unknown_weight_profile_or_base_exits_2(self, tmp_path, capsys, mix):
        doc = {"mixture": _gen_cfg(**mix)["mixture"], "variant": "poincare"}
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error: unknown" in capsys.readouterr().err

    def test_pipeline_error_reported_with_exit_1(self, tmp_path, monkeypatch):
        import mixcluster.cli as cli

        def starving_learner(*args, **kwargs):
            raise cli.gc.StarvationError("kept 3 of 70000 drawn rows, wanted 20000")

        monkeypatch.setattr(cli.gc, "recursive_cluster", starving_learner)
        doc = {
            "mixture": {"k": 2, "d": 2, "separation": 10.0, "dist_tag": "gaussian", "seed": 1},
            "variant": "gaussian-recursive",
        }
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["error"].startswith("StarvationError: kept 3")

    @pytest.mark.parametrize(
        "mix, named",
        [({"profile": "hierarchical", "ratios": ["a"]}, "ratios"), ({"weights": ["0.5", "0.5"]}, "weights")],
    )
    def test_non_number_list_element_exits_2(self, tmp_path, capsys, mix, named):
        doc = {"mixture": _gen_cfg(**mix)["mixture"], "variant": "poincare"}
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"mixture.{named}[0] must be a number" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_nonpositive_separation_exits_2(self, tmp_path, capsys):
        doc = {"mixture": _gen_cfg(separation=-3.0)["mixture"], "variant": "poincare"}
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "separation must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("variant", ["poincare", "gaussian-recursive"])
    def test_separation_with_hierarchical_profile_exits_2(self, tmp_path, capsys, variant):
        doc = {"mixture": _gen_cfg(profile="hierarchical", ratios=[10.0])["mixture"], "variant": variant}
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "'mixture.separation' is not read by profile 'hierarchical'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_recursive_variant_on_non_gaussian_base_exits_2(self, tmp_path, capsys):
        doc = {
            "mixture": {"k": 2, "d": 2, "separation": 10.0, "dist_tag": "laplace", "seed": 1},
            "variant": "gaussian-recursive",
        }
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "requires a gaussian base" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_eval_samples_exits_2(self, tmp_path, capsys, n):
        doc = {
            "mixture": {"k": 2, "d": 2, "separation": 12.0, "dist_tag": "point_mass", "seed": 1},
            "variant": "poincare",
            "eval_samples": n,
        }
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "eval_samples must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "variant, key, value, want",
        [
            ("poincare", "w_min", 0, "w_min must be in (0, 1]"),
            ("poincare", "w_min", -0.5, "w_min must be in (0, 1]"),
            ("gaussian-recursive", "w_min", 2.0, "w_min must be in (0, 1]"),
            ("poincare", "sep", 0.0, "sep must be > 0"),
            ("gaussian-recursive", "sep_hint", 0, "sep_hint must be > 0"),
            ("poincare", "alpha", -1.0, "alpha must be > 0"),
            ("poincare", "c", 0, "c must be > 0"),
            ("gaussian-recursive", "c", -3.0, "c must be > 0"),
            ("poincare", "t", 0, "t must be in [1, 4]"),
            ("poincare", "t", 5, "t must be in [1, 4]"),
            ("poincare", "reps", 0, "reps must be >= 1"),
            ("poincare", "n_per_stage", 0, "n_per_stage must be >= 1"),
        ],
    )
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, variant, key, value, want):
        doc = {"mixture": {"k": 2, "d": 2, "separation": 12.0, "seed": 1}, "variant": variant, key: value}
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert want in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_unserializable_report_leaves_no_file(self, tmp_path):
        import mixcluster.cli as cli

        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            cli._write_report(str(path), {"metrics": {"accuracy": float("nan")}})
        assert not path.exists()

    def test_report_embeds_config_and_seed(self, tmp_path):
        doc = {
            "mixture": {"k": 1, "d": 2, "dist_tag": "point_mass", "seed": 1},
            "variant": "poincare",
            "sep": 12.0,
            "reps": 2,
            "n_per_stage": 200,
            "eval_samples": 50,
        }
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--seed", "7", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["seed"] == 7
        assert report["config"]["mixture"]["k"] == 1
        assert "versions" in report and "timings" in report

    def test_gaussian_recursive_band_uses_learner_default_c(self, tmp_path, monkeypatch):
        import mixcluster.cli as cli
        from mixcluster.poincare_cluster import LearnedMixture

        seen = {}
        real_band = cli.default_band

        def fake_recursive_cluster(mix, k, w_min, c, alpha, **kwargs):
            seen["learner"] = (w_min, c)
            return LearnedMixture(np.array(mix.spec.means), np.array(mix.spec.weights))

        def spy_band(k, w_min, c):
            seen["band"] = (w_min, c)
            return real_band(k, w_min, c)

        monkeypatch.setattr(cli.gc, "recursive_cluster", fake_recursive_cluster)
        monkeypatch.setattr(cli, "default_band", spy_band)
        doc = {
            "mixture": {"k": 2, "d": 2, "separation": 10.0, "dist_tag": "gaussian", "seed": 1},
            "variant": "gaussian-recursive",
            "eval_samples": 50,
            "w_min": 0.3,  # below the spec's 0.5, which the band must not fall back to
        }
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert seen == {"learner": (0.3, 1.0), "band": (0.3, 1.0)}

    @pytest.mark.parametrize(
        "variant, keys, want",
        [
            ("poincare", {}, ["sep", "w_min"]),
            ("poincare", {"sep": 10.0, "w_min": 0.3}, []),
            ("gaussian-recursive", {}, ["w_min"]),
            ("gaussian-recursive", {"w_min": 0.3}, []),
        ],
    )
    def test_report_lists_oracle_defaults(self, tmp_path, monkeypatch, variant, keys, want):
        import mixcluster.cli as cli
        from mixcluster.poincare_cluster import LearnedMixture

        def fake_learner(mix, *args, **kwargs):
            return LearnedMixture(np.array(mix.spec.means), np.array(mix.spec.weights))

        monkeypatch.setattr(cli, "learn_means", fake_learner)
        monkeypatch.setattr(cli.gc, "recursive_cluster", fake_learner)
        doc = {
            "mixture": {"k": 2, "d": 2, "separation": 10.0, "dist_tag": "gaussian", "seed": 1},
            "variant": variant,
            "eval_samples": 50,
            **keys,
        }
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["oracle_defaults"] == want


    def test_unrecovered_component_reports_strict_json_with_exit_1(self, tmp_path, monkeypatch):
        import mixcluster.cli as cli
        from mixcluster.poincare_cluster import LearnedMixture

        def fake_learner(mix, *args, **kwargs):
            return LearnedMixture(np.array(mix.spec.means[:-1]), np.array(mix.spec.weights[:-1]))

        monkeypatch.setattr(cli, "learn_means", fake_learner)
        doc = {
            "mixture": {"k": 3, "d": 2, "separation": 10.0, "dist_tag": "gaussian", "seed": 1},
            "variant": "poincare",
            "eval_samples": 50,
        }
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_reject_constant)
        metrics = report["metrics"]
        assert metrics["recovered_components"] == 2
        assert metrics["max_mean_error"] is None
        assert sum(e is None for e in metrics["mean_errors"]) == 1


class TestValidate:
    def test_unknown_suite_exits_2(self, tmp_path):
        assert main(["validate", "nosuch", "--out", str(tmp_path)]) == 2

    def test_projection_suite_passes(self, tmp_path):
        assert main(["validate", "projection", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validate_projection.json").read_text())
        assert report["result"]["passed"] is True
        assert report["result"]["max_deviation"] <= 1e-10

    @pytest.mark.parametrize("kernel", ["apply_rank1_batch", "word_images"])
    def test_projection_suite_fails_on_a_perturbed_kernel(self, tmp_path, monkeypatch, kernel):
        import mixcluster.cli as cli

        real = getattr(cli, kernel)
        monkeypatch.setattr(cli, kernel, lambda *args: real(*args) + 1e-8)
        assert main(["validate", "projection", "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "validate_projection.json").read_text())
        assert report["result"]["passed"] is False
        assert report["result"]["max_deviation"] > 1e-10

    @pytest.mark.parametrize("suite", ["rank1-identity", "hermite"])
    def test_oracle_suite_passes(self, tmp_path, suite):
        assert main(["validate", suite, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / f"validate_{suite}.json").read_text())
        assert report["result"]["passed"] is True
        assert report["result"]["max_deviation"] <= 1e-10

    @pytest.mark.parametrize("suite", ["rank1-identity", "hermite"])
    def test_oracle_suite_fails_on_a_perturbed_kernel(self, tmp_path, monkeypatch, suite):
        import mixcluster.cli as cli

        if suite == "rank1-identity":
            real = cli.r_poly_terms

            def shifted(*args):
                return types.SimpleNamespace(dense_sum=lambda: real(*args).dense_sum() + 1e-8)

            monkeypatch.setattr(cli, "r_poly_terms", shifted)
        else:
            real = cli.hermite_tensor
            monkeypatch.setattr(cli, "hermite_tensor", lambda *args: real(*args) + 1e-8)
        assert main(["validate", suite, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / f"validate_{suite}.json").read_text())
        assert report["result"]["passed"] is False
        assert report["result"]["max_deviation"] > 1e-10


class TestBench:
    def _cfg(self):
        return {
            "mixture": {"k": 2, "d": 2, "dist_tag": "point_mass"},
            "separations": [8.0, 16.0],
            "degrees": [1],
            "seeds_per_cell": 2,
            "reps": 2,
            "n_per_stage": 200,
            "eval_samples": 100,
        }

    def test_grid_size_and_timings(self, tmp_path):
        cfg = _write(tmp_path / "b.json", self._cfg())
        assert main(["bench", "--config", cfg, "--out", str(tmp_path), "--workers", "2"]) == 0
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["grid"]["cells"] == 4
        assert len(report["cells"]) == 4
        for i in range(4):
            assert "learn_s" in report["timings"][f"cell_{i}"]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_a_usage_error(self, tmp_path, capsys, workers):
        cfg = _write(tmp_path / "b.json", self._cfg())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", cfg, "--out", str(out), "--workers", workers])
        assert exc.value.code == 2
        assert "--workers: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_eval_samples_exits_2(self, tmp_path, capsys):
        doc = self._cfg()
        doc["eval_samples"] = 0
        cfg = _write(tmp_path / "b.json", doc)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "eval_samples must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "bench.json").exists()

    @pytest.mark.parametrize("key", ["seeds_per_cell", "reps", "n_per_stage"])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, key):
        doc = self._cfg()
        doc[key] = 0
        cfg = _write(tmp_path / "b.json", doc)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"{key} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "bench.json").exists()

    @pytest.mark.parametrize("separations", [[0.0], [12.0, -3.0]])
    def test_nonpositive_separation_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch, separations):
        import mixcluster.cli as cli

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "_bench_cell", no_cell)
        doc = self._cfg()
        doc["separations"] = separations
        cfg = _write(tmp_path / "b.json", doc)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
        bad = next(i for i, sep in enumerate(separations) if sep <= 0)
        assert f"separations[{bad}] must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "bench.json").exists()

    def test_mixture_separation_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch):
        import mixcluster.cli as cli

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "_bench_cell", no_cell)
        doc = self._cfg()
        doc["mixture"]["separation"] = 8.0
        cfg = _write(tmp_path / "b.json", doc)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "'mixture.separation' is not read by bench" in capsys.readouterr().err
        assert not (tmp_path / "bench.json").exists()

    def test_mixture_seed_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch):
        import mixcluster.cli as cli

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "_bench_cell", no_cell)
        doc = self._cfg()
        doc["mixture"]["seed"] = 2
        cfg = _write(tmp_path / "b.json", doc)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "'mixture.seed' is not read by bench" in capsys.readouterr().err
        assert not (tmp_path / "bench.json").exists()

    def test_hierarchical_profile_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch):
        import mixcluster.cli as cli

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "_bench_cell", no_cell)
        doc = self._cfg()
        doc["mixture"].update(profile="hierarchical", ratios=[10.0])
        cfg = _write(tmp_path / "b.json", doc)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "profile 'hierarchical'" in capsys.readouterr().err
        assert not (tmp_path / "bench.json").exists()

    @pytest.mark.parametrize(
        "key, value, want",
        [
            ("separations", ["a"], "a number"),
            ("degrees", [2, "x"], "int"),
            ("degrees", [2.0], "int"),
            ("separations", [], "a non-empty list"),
            ("degrees", [], "a non-empty list"),
        ],
    )
    def test_mistyped_list_element_exits_2(self, tmp_path, capsys, key, value, want):
        # an empty list, which would run no cell, names the list itself
        doc = self._cfg()
        doc[key] = value
        cfg = _write(tmp_path / "b.json", doc)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        where = f"{key}[{len(value) - 1}]" if value else key
        assert f"{where} must be {want}" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_cell_is_reported_with_exit_1(self, tmp_path, capsys, monkeypatch):
        import mixcluster.cli as cli

        real_learner = cli.learn_means

        def learner_failing_at_t2(*args, t, **kwargs):
            if t == 2:
                raise cli.gc.StarvationError("kept 3 of 70000 drawn rows")
            return real_learner(*args, t=t, **kwargs)

        monkeypatch.setattr(cli, "learn_means", learner_failing_at_t2)
        doc = self._cfg()
        doc["degrees"] = [2, 1]
        cfg = _write(tmp_path / "b.json", doc)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "bench.json").read_text(), parse_constant=_reject_constant)
        failed = [c for c in report["cells"] if c["t"] == 2]
        assert len(failed) == 4 and len(report["cells"]) == 8
        for cell in failed:
            assert cell["error"] == "StarvationError: kept 3 of 70000 drawn rows"
            assert cell["accuracy"] is None and cell["max_mean_error"] is None
        assert all("error" not in c and c["accuracy"] is not None for c in report["cells"] if c["t"] == 1)
        out, err = capsys.readouterr()
        assert "8 cells, 4 failed" in out and err.count("kept 3 of 70000") == 4

    def test_baseline_accuracy_present(self, tmp_path):
        cfg = _write(tmp_path / "b.json", self._cfg())
        main(["bench", "--config", cfg, "--out", str(tmp_path)])
        report = json.loads((tmp_path / "bench.json").read_text())
        assert all(0.0 <= c["baseline_accuracy"] <= 1.0 for c in report["cells"])

    def test_no_baseline_on_fewer_distinct_rows_than_k(self, tmp_path):
        # one evaluation row holds no 2-clustering, so the k-means fit is skipped
        doc = self._cfg()
        doc["eval_samples"] = 1
        cfg = _write(tmp_path / "b.json", doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bench.json").read_text())
        assert all(c["baseline_accuracy"] is None for c in report["cells"])
        assert [str(w.message) for w in caught] == []
