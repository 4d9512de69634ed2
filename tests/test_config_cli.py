"""Experiment config parsing, CLI subcommands, exit codes, plot emission."""

import csv
import json

import numpy as np
import pytest

from kstepkd import pipeline
from kstepkd.cli import EXIT_CONFIG, EXIT_OK, main
from kstepkd.config import ConfigError, DEFAULTS, from_dict, load_config


def tiny_config(tmp_path, **overrides):
    """A configuration small enough for second-scale pipeline runs."""
    data = {
        "vocab_size": 6,
        "horizon": 8,
        "window": 2,
        "task": {"kind": "markov_chain", "order": 1, "transition_seed": 3,
                 "eos_prob": 0.1, "cond_len": 1},
        "teacher": {"kind": "mlp1", "hidden": 8},
        "student": {"kind": "mlp1", "hidden": 4},
        "teacher_fit": {"epochs": 30, "lr": 1.0},
        "predistill": {"epochs": 1, "lr": 0.5},
        "rl": {"iterations": 4, "lr": 0.05, "batch_size": 2, "eval_every": 2},
        "k_list": [1, 2],
        "seeds": [0, 1],
        "include_baselines": False,
        "corpus": {"n_sequences": 30, "seed": 9, "n_val": 4, "n_test": 4},
        "sweep": {"samples_per_input": 4, "n_inputs": 4, "kl_bucket_epochs": [0, 1]},
        "out_dir": str(tmp_path / "runs"),
    }
    data.update(overrides)
    return data


class TestConfig:
    def test_defaults_validate(self):
        cfg = from_dict({})
        assert cfg.k_list == [1, 2, 4, 8, 16]
        assert len(cfg.seeds) == 10

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'horizonn'"):
            from_dict({"horizonn": 16})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="rl.lrr"):
            from_dict({"rl": {"lrr": 0.1}})

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            from_dict({"seeds": [0, 0, 1]})

    def test_empty_k_list_rejected(self):
        with pytest.raises(ConfigError, match="k_list"):
            from_dict({"k_list": []})

    @pytest.mark.parametrize("key", ["n_val", "n_test"])
    def test_empty_eval_split_rejected(self, key):
        with pytest.raises(ConfigError, match=f"corpus.{key}"):
            from_dict({"corpus": {key: 0}})

    @pytest.mark.parametrize("override", [
        {"corpus": {"n_sequences": 8, "n_val": 4, "n_test": 4}},
        {"rl": {"lr": -1.0}},
        {"rl": {"optimizer": "rmsprop"}},
        {"predistill": {"lr": -1.0}},
        {"sweep": {"samples_per_input": 1}},
        {"sweep": {"n_inputs": 0}},
        {"sweep": {"iid_var_s": -1.0}},
        {"predistill": {"lr": 0.0}},
        {"predistill": {"epochs": 0, "lr": 0.0}, "sweep": {"kl_bucket_epochs": [0, 2]}},
        {"teacher_fit": {"lr": 0.0}},
        {"teacher_fit": {"lr": -1.0}},
        {"rl": {"eval_every": 0}},
        {"rl": {"eval_every": -1}},
        {"teacher_fit": {"init_scale": -1.0}},
        {"k_list": [1, 2, 2]},
        {"seeds": []},
        {"sweep": {"iid_samples": 1}},
        {"teacher_fit": {"epochs": -1}},
        {"predistill": {"epochs": -1}},
        {"rl": {"iterations": -1}},
        {"sweep": {"kl_bucket_epochs": [0, -1]}},
        {"sweep": {"kl_bucket_epochs": [0, 0]}},
    ])
    def test_bad_stage_setting_rejected(self, override):
        with pytest.raises(ConfigError):
            from_dict(override)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_all_task_kinds_constructible(self):
        for kind in ("markov_chain", "copy", "reverse"):
            cfg = from_dict({"task": {"kind": kind}})
            assert cfg.task() is not None

    @pytest.mark.parametrize("which", ["teacher", "student"])
    def test_linear_kind_defaults_to_width_zero(self, which):
        cfg = from_dict({which: {"kind": "linear"}})
        assert cfg.arch(which).hidden == 0
        assert cfg.raw[which] == {"kind": "linear", "hidden": 0}

    @pytest.mark.parametrize("which", ["teacher", "student"])
    def test_linear_kind_with_hidden_width_rejected(self, tmp_path, capsys, which):
        with pytest.raises(ConfigError, match="linear model takes no hidden width"):
            from_dict({which: {"kind": "linear", "hidden": 4}})
        path = tmp_path / "c.json"
        data = tiny_config(tmp_path, **{which: {"kind": "linear", "hidden": 4}})
        path.write_text(json.dumps(data))
        assert main(["--config", str(path), "sweep-k"]) == EXIT_CONFIG
        assert "linear model takes no hidden width" in capsys.readouterr().err

    def test_defaults_not_mutated_by_overrides(self):
        before = json.dumps(DEFAULTS, sort_keys=True)
        from_dict({"rl": {"lr": 0.123}})
        assert json.dumps(DEFAULTS, sort_keys=True) == before


class TestCliBasics:
    def write_config(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_bad_config_exits_2(self, tmp_path):
        cfg = self.write_config(tmp_path, {"no_such_key": 1})
        assert main(["--config", cfg, "gen-corpus"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["train", "sweep-k", "sweep-bias-variance"])
    def test_empty_seeds_exit_2(self, tmp_path, command):
        cfg = self.write_config(tmp_path, tiny_config(tmp_path, seeds=[]))
        assert main(["--config", cfg, command]) == EXIT_CONFIG
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        cfg = self.write_config(tmp_path, tiny_config(tmp_path))
        assert main(["--config", cfg, "--threads", threads, "sweep-k"]) == EXIT_CONFIG
        assert "config error: --threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("argv,override,message", [
        (["fit-teacher"], {"seeds": [-1]}, "seeds must be >= 0"),
        (["sweep-k"], {"seeds": [-1]}, "seeds must be >= 0"),
        (["gen-corpus"], {"corpus": {"seed": -5}}, "corpus.seed must be >= 0"),
        (["gen-corpus"], {"task": {"transition_seed": -3}}, "task.transition_seed must be >= 0"),
        (["--seed", "-2", "fit-teacher"], {}, "--seed must be >= 0"),
    ], ids=["seeds-fit-teacher", "seeds-sweep-k", "corpus-seed", "transition-seed", "seed-flag"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, argv, override, message):
        """A negative seed would reach ``np.random.default_rng``, which
        raises; it is rejected as a config error before any stage runs."""
        data = tiny_config(tmp_path)
        for key, value in override.items():
            data[key] = {**data[key], **value} if isinstance(value, dict) else value
        cfg = self.write_config(tmp_path, data)
        assert main(["--config", cfg, *argv]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_gen_corpus(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, tiny_config(tmp_path))
        assert main(["--config", cfg, "gen-corpus", "--n", "7"]) == EXIT_OK
        lines = (tmp_path / "runs" / "corpus.txt").read_text().splitlines()
        assert len(lines) == 7

    def test_fit_teacher_and_predistill(self, tmp_path):
        cfg = self.write_config(tmp_path, tiny_config(tmp_path))
        assert main(["--config", cfg, "fit-teacher"]) == EXIT_OK
        assert (tmp_path / "runs" / "teacher.json").exists()
        assert main(["--config", cfg, "predistill"]) == EXIT_OK
        assert (tmp_path / "runs" / "student_predistill.json").exists()

    def test_train_subcommand(self, tmp_path):
        cfg = self.write_config(tmp_path, tiny_config(tmp_path))
        assert main(["--config", cfg, "train", "--estimator", "kstep", "--k", "2"]) == EXIT_OK
        assert (tmp_path / "runs" / "trainlog.csv").exists()

    def test_oracle_check(self, tmp_path):
        cfg = self.write_config(tmp_path, tiny_config(tmp_path))
        assert main(["--config", cfg, "oracle-check"]) == EXIT_OK
        report = (tmp_path / "runs" / "oracle_report.csv").read_text().splitlines()
        assert report[0] == "metric,value,threshold,status"
        assert "fail" not in "".join(report[1:])

    @pytest.mark.slow
    def test_sweep_bias_variance_iid_mode(self, tmp_path):
        data = tiny_config(tmp_path)
        data["k_list"] = [1, 2, 4, 8, 16]
        data["sweep"]["iid_mode"] = True
        data["sweep"]["iid_samples"] = 20000
        cfg = self.write_config(tmp_path, data)
        assert main(["--config", cfg, "sweep-bias-variance"]) == EXIT_OK
        with open(tmp_path / "runs" / "bias_variance.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(pipeline.BIAS_VARIANCE_HEADER)
        assert all(r[1] == "iid" for r in rows[1:])
        variances = [float(r[3]) for r in sorted(rows[1:], key=lambda r: int(r[0]))]
        assert all(b <= a for a, b in zip(variances, variances[1:])), variances


class TestCliErrors:
    def test_splits_too_large_exit_2(self, tmp_path):
        data = tiny_config(tmp_path)
        data["corpus"] = {"n_sequences": 6, "seed": 1, "n_val": 4, "n_test": 4}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        assert main(["--config", str(path), "sweep-k"]) == EXIT_CONFIG

    def test_train_rl_failure_exit_3(self, tmp_path, capsys):
        """At rl.lr 1e308 the first update overflows the student's parameters;
        the train subcommand reports its RL stage as failed."""
        from kstepkd import cli

        data = tiny_config(tmp_path, rl={"iterations": 4, "lr": 1e308, "batch_size": 2})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with np.errstate(all="ignore"):
            code = main(["--config", str(path), "train", "--estimator", "kstep", "--k", "2"])
        assert code == cli.EXIT_STAGE
        assert "stage 'rl:kstep_k2' failed (seed 0)" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_train_bad_k_exits_2_before_any_stage(self, tmp_path, monkeypatch, capsys, k):
        """A K below 1 is a bad setting: exit 2 before the corpus or the
        teacher fit, with no run directory written."""

        def stage_ran(*args, **kwargs):
            raise AssertionError("a stage ran before the RL setting was checked")

        monkeypatch.setattr(pipeline, "build_corpus", stage_ran)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(tmp_path)))
        assert main(["--config", str(path), "train", "--estimator", "kstep", "--k", k]) == EXIT_CONFIG
        assert f"k must be >= 1, got {k}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_stage_failure_exit_3(self, tmp_path, monkeypatch):
        from kstepkd import cli

        def boom(cfg, threads=1):
            raise pipeline.StageError("rl:llmr", 0, RuntimeError("synthetic"))

        monkeypatch.setattr(pipeline, "run_pipeline", boom)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(tmp_path)))
        assert main(["--config", str(path), "sweep-k"]) == cli.EXIT_STAGE

    @pytest.mark.parametrize(
        "command,stage", [("sweep-k", "teacher_fit"), ("train", "predistill")]
    )
    def test_zero_learning_rate_exit_2(self, tmp_path, capsys, command, stage):
        data = tiny_config(tmp_path)
        data[stage] = {**data[stage], "lr": 0}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        assert main(["--config", str(path), command]) == EXIT_CONFIG
        assert "lr must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command,override,message", [
        ("train", {"rl": {"eval_every": 0}}, "eval_every must be >= 1"),
        ("fit-teacher", {"teacher_fit": {"init_scale": -1}}, "init_scale must be >= 0"),
        ("sweep-k", {"k_list": [1, 2, 2]}, "k_list entries must be distinct"),
    ], ids=["eval_every", "init_scale", "k_list"])
    def test_rejected_setting_exit_2(self, tmp_path, capsys, command, override, message):
        data = tiny_config(tmp_path)
        for key, value in override.items():
            data[key] = {**data[key], **value} if isinstance(value, dict) else value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        assert main(["--config", str(path), command]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("override,message", [
        ({"vocab_size": "x"}, "'vocab_size' must be a number"),
        ({"corpus": {"n_sequences": "a"}}, "'corpus.n_sequences' must be a number"),
        ({"clip_range": [0]}, "clip_range must be two numbers"),
        ({"k_list": [1.5]}, "'k_list' must be an integer"),
        ({"horizon": 2.5}, "'horizon' must be an integer"),
        ({"seeds": [0.5]}, "'seeds' must be an integer"),
        ({"sweep": {"iid_mode": "no"}}, "'sweep.iid_mode' must be a bool"),
        ({"out_dir": 5}, "'out_dir' must be a str"),
        ({"vocab_size": 200, "window": 4}, "teacher Q table"),
    ], ids=["vocab_size-str", "n_sequences-str", "clip_range-one", "k_list-float",
            "horizon-float", "seeds-float", "iid_mode-str", "out_dir-int", "table-too-large"])
    def test_mistyped_or_oversized_setting_exit_2(self, tmp_path, capsys, override, message):
        data = tiny_config(tmp_path)
        for key, value in override.items():
            data[key] = {**data[key], **value} if isinstance(value, dict) else value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        assert main(["--config", str(path), "sweep-k"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["sweep-k", "train"])
    def test_collapsed_rl_policy_exit_3(self, tmp_path, capsys, command):
        """At rl.lr 1e300 the first update leaves every parameter finite but
        makes every sampled softmax one-hot, so the policy entropy reads 0.0
        and no later score or update can move it."""
        from kstepkd import cli

        data = tiny_config(tmp_path, rl={"iterations": 4, "lr": 1e300, "batch_size": 2})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with np.errstate(all="ignore"):
            code = main(["--config", str(path), command])
        assert code == cli.EXIT_STAGE
        err = capsys.readouterr().err
        assert "failed (seed 0)" in err and "entropy 0.0" in err

    def test_first_failed_variant_is_the_stage(self, tmp_path, capsys, monkeypatch):
        """The RL runs of a seed train as one population.  When two of them
        fail (non-finite signals for both baselines), the first in variant
        order is the failed stage; the variants before it keep their
        artifacts, and nothing after it is written."""
        from kstepkd import cli, trainer

        signals = trainer.estimator_signals

        def spoiled(g, g_hat, lengths, sq_norms, cfg):
            out = signals(g, g_hat, lengths, sq_norms, cfg)
            return out * np.nan if cfg.estimator.endswith("_baseline") else out

        monkeypatch.setattr(trainer, "estimator_signals", spoiled)
        data = tiny_config(tmp_path, include_baselines=True, seeds=[0])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with np.errstate(all="ignore"):
            code = main(["--config", str(path), "sweep-k"])
        assert code == cli.EXIT_STAGE
        err = capsys.readouterr().err
        assert "stage 'rl:mean_baseline' failed (seed 0)" in err
        assert "non-finite gradient from trajectory" in err
        runs = tmp_path / "runs" / "runs"
        for variant in ("llmr", "kstep_k2"):
            assert (runs / variant / "seed0" / "eval.json").exists()
        assert sorted(p.name for p in (runs / "mean_baseline" / "seed0").iterdir()) == [
            "student_predistill.json", "teacher.json"
        ]
        assert not (runs / "minvar_baseline").exists()

    def test_empty_test_split_exit_2(self, tmp_path):
        data = tiny_config(tmp_path)
        data["corpus"] = {**data["corpus"], "n_test": 0}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        assert main(["--config", str(path), "sweep-k"]) == EXIT_CONFIG

    def test_worker_stage_failure_exit_3(self, tmp_path, capsys):
        """A divergent teacher fit fails inside a pool worker; its StageError
        must cross the process boundary intact."""
        from kstepkd import cli

        # at lr 1e308 the parameters overflow within 10 epochs
        data = tiny_config(tmp_path, teacher_fit={"epochs": 10, "lr": 1e308})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with np.errstate(all="ignore"):
            code = main(["--config", str(path), "--threads", "2", "sweep-k"])
        assert code == cli.EXIT_STAGE
        assert "stage 'fit-teacher' failed (seed 0)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep-k", "fit-teacher", "sweep-bias-variance"])
    def test_divergent_teacher_fit_exit_3(self, tmp_path, capsys, command):
        """At lr 1e300 the loss climbs to ~1e301 while every parameter stays
        finite; the fit must fail as a stage from every subcommand."""
        from kstepkd import cli

        data = tiny_config(tmp_path, teacher_fit={"epochs": 10, "lr": 1e300})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with np.errstate(all="ignore"):
            code = main(["--config", str(path), command])
        assert code == cli.EXIT_STAGE
        err = capsys.readouterr().err
        assert "stage 'fit-teacher' failed (seed 0)" in err and "diverged" in err

    def test_stage_error_pickles(self):
        import pickle

        err = pipeline.StageError("rl:llmr", 4, ValueError("diverged"))
        back = pickle.loads(pickle.dumps(err))
        assert (type(back), str(back), back.stage, back.seed) == (
            pipeline.StageError, str(err), "rl:llmr", 4
        )


class TestPipeline:
    def test_sweep_k_artifacts_and_determinism(self, tmp_path):
        data = tiny_config(tmp_path)
        cfg = from_dict(data)
        out = pipeline.run_pipeline(cfg)
        for variant in ("llmr", "kstep_k2"):
            for seed in (0, 1):
                d = out / "runs" / variant / f"seed{seed}"
                for artifact in ("teacher.json", "student_predistill.json",
                                 "student_rl.json", "trainlog.csv", "eval.json"):
                    assert (d / artifact).exists(), (d, artifact)
        meta = json.loads((out / "metadata.json").read_text())
        for key in ("numpy_version", "cpu_count",
                    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert key in meta, key
        summary1 = (out / "summary.csv").read_bytes()
        trainlog1 = (out / "runs" / "kstep_k2" / "seed0" / "trainlog.csv").read_bytes()

        data2 = tiny_config(tmp_path, out_dir=str(tmp_path / "runs2"))
        out2 = pipeline.run_pipeline(from_dict(data2))
        assert (out2 / "summary.csv").read_bytes() == summary1
        assert (out2 / "runs" / "kstep_k2" / "seed0" / "trainlog.csv").read_bytes() == trainlog1

    def test_shared_checkpoints_serialized_once_per_seed(self, tmp_path):
        """Every run directory of a seed holds the bytes ``save_teacher`` and
        ``save_model`` write for that seed's teacher and pre-distilled
        student, and they reload bitwise."""
        from kstepkd import models, teacher as teacher_mod

        cfg = from_dict(tiny_config(tmp_path, include_baselines=True))
        out = pipeline.run_pipeline(cfg)
        splits = pipeline.build_corpus(cfg)
        for seed in cfg.seeds:
            teacher = pipeline.fit_seed_teacher(cfg, splits, seed)
            student = pipeline.predistill_student(
                cfg, pipeline.init_seed_student(cfg, seed), teacher, splits, seed
            )
            teacher_mod.save_teacher(teacher, tmp_path / "teacher.json")
            models.save_model(student, tmp_path / "student.json")
            for name, _, _ in pipeline.variant_list(cfg):
                d = out / "runs" / name / f"seed{seed}"
                assert (d / "teacher.json").read_bytes() == (tmp_path / "teacher.json").read_bytes()
                assert ((d / "student_predistill.json").read_bytes()
                        == (tmp_path / "student.json").read_bytes())
                loaded = teacher_mod.load_teacher(d / "teacher.json")
                assert np.array_equal(loaded.model.params, teacher.model.params)
                assert np.array_equal(loaded.q, teacher.q)
                reloaded = models.load_model(d / "student_predistill.json")
                assert np.array_equal(reloaded.params, student.params)

    def test_summary_schema(self, tmp_path):
        cfg = from_dict(tiny_config(tmp_path))
        out = pipeline.run_pipeline(cfg)
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(pipeline.SUMMARY_HEADER)
        assert len(rows) == 1 + 2 * 2  # two variants x two seeds

    def test_threaded_sweep_matches_sequential(self, tmp_path):
        """Every artifact of a pool sweep, whose workers get the splits from
        their initializer, is byte-identical to the one-process sweep's,
        but metadata.json and config.json's out_dir."""
        data = tiny_config(tmp_path)
        seq = pipeline.run_pipeline(from_dict(data))
        data2 = tiny_config(tmp_path, out_dir=str(tmp_path / "runs_mt"))
        par = pipeline.run_pipeline(from_dict(data2), threads=2)
        files = sorted(p.relative_to(seq) for p in seq.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(par) for p in par.rglob("*") if p.is_file())
        assert len(files) > 10
        for rel in files:
            if rel.name == "config.json":
                a, b = (json.loads((d / rel).read_text()) for d in (seq, par))
                assert {**a, "out_dir": None} == {**b, "out_dir": None}
            elif rel.name != "metadata.json":
                assert (seq / rel).read_bytes() == (par / rel).read_bytes(), rel

    def test_corpus_built_once_per_sweep(self, tmp_path, monkeypatch):
        from kstepkd import tasks

        builds = []
        gen_corpus = tasks.gen_corpus
        monkeypatch.setattr(
            tasks, "gen_corpus", lambda *a, **kw: builds.append(a) or gen_corpus(*a, **kw)
        )
        pipeline.run_pipeline(from_dict(tiny_config(tmp_path)))
        assert len(builds) == 1

    def test_bias_variance_mdp_rows(self, tmp_path):
        cfg = from_dict(tiny_config(tmp_path))
        rows = pipeline.sweep_bias_variance(cfg, out_path=tmp_path / "bv.csv")
        # one row per (bucket, K); bucket column carries the measured KL
        assert len(rows) == 2 * 2
        for row in rows:
            assert row.k in (1, 2)
            float(row.bucket)  # parses as the measured KL
            if row.k == 1:
                assert abs(row.mean_bias) < 1e-12


class TestEmitPlots:
    def test_trainlog_and_summary_panels(self, tmp_path):
        cfg = from_dict(tiny_config(tmp_path))
        out = pipeline.run_pipeline(cfg)
        plots = pipeline.emit_plots(
            [out / "summary.csv", out / "runs" / "llmr" / "seed0" / "trainlog.csv"],
            tmp_path / "plots",
        )
        manifest = json.loads((plots / "manifest.json").read_text())
        names = {p["name"] for p in manifest["panels"]}
        assert any("final_returns" in n for n in names)
        assert any("learning_curve" in n for n in names)
        for panel in manifest["panels"]:
            for series in panel["series"]:
                assert (plots / series["file"]).exists()

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(pipeline.SchemaError, match="empty"):
            pipeline.emit_plots([empty], tmp_path / "plots")

    def test_unknown_schema_names_column(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        with pytest.raises(pipeline.SchemaError, match="foo"):
            pipeline.emit_plots([bad], tmp_path / "plots")

    def test_cli_emit_plots_error_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        assert main(["--out", str(tmp_path), "emit-plots", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("body", [
        "variant,k,seed,best_val_return,test_return\nllmr,1,0,1.0,oops\n",
        "variant,k,seed,best_val_return,test_return\nllmr,1,0,1.0\n",
        "K,student_kl_bucket,mean_bias,mean_variance\ntwo,iid,0.0,1.0\n",
    ], ids=["summary-not-a-number", "summary-short-row", "bias-variance-bad-k"])
    def test_cli_emit_plots_malformed_row_exit_2(self, tmp_path, body):
        bad = tmp_path / "bad.csv"
        bad.write_text(body)
        assert main(["--out", str(tmp_path), "emit-plots", str(bad)]) == EXIT_CONFIG
