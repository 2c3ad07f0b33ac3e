"""Command-line interface.

One subcommand per pipeline stage plus ``run`` (with ``--stage``) and
``synth`` for generating planted test corpora. Exit codes: 0 success,
1 usage or config error, 2 data error.
"""

from __future__ import annotations

import dataclasses
import logging
import sys
from pathlib import Path

import click
import yaml

from . import pipeline, synth
from .errors import ConfigError, DataError
from .pipeline import STAGES

logger = logging.getLogger(__name__)


def _apply_overrides(config: pipeline.PipelineConfig, **overrides) -> pipeline.PipelineConfig:
    out = overrides.pop("out", None)
    if out is not None:
        config.out_dir = Path(out)
    topic_n = overrides.pop("topic_n", ())
    if topic_n:
        config.topic_n = tuple(topic_n)
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, value)
    return config


def _shared_options(func):
    options = [
        click.option("--config", "config_path", required=True, type=click.Path(), help="YAML pipeline config."),
        click.option("--out", type=click.Path(), default=None, help="Override the output directory."),
        click.option("--n1", type=int, default=None, help="Override the keyword count."),
        click.option("--n2", type=int, default=None, help="Override the context-word count."),
        click.option("--k", type=int, default=None, help="Override the embedding rank."),
        click.option("--topic-n", type=int, multiple=True, help="Override topic keyword counts (repeatable)."),
        click.option("--extend-n", "extend_n", type=int, default=None, help="Override the extended-dictionary size."),
        click.option("-v", "--verbose", is_flag=True, help="Enable debug logging."),
    ]
    for option in reversed(options):
        func = option(func)
    return func


def _run_stage(stage, config_path, out, n1, n2, k, topic_n, extend_n, verbose):
    _setup_logging(verbose)
    config = pipeline.load_config(config_path)
    _apply_overrides(config, out=out, n1=n1, n2=n2, k=k, topic_n=topic_n, extend_n=extend_n)
    executed = pipeline.run(stage, config)
    for name, files in executed.items():
        click.echo(f"{name}: {', '.join(files)}")


def _setup_logging(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


@click.group()
def cli() -> None:
    """Quantify moral-foundation loadings in short-text corpora."""


@cli.command()
@click.option("--stage", default="all", type=click.Choice(("all",) + STAGES), help="Stage to run.")
@_shared_options
def run(stage, **kwargs) -> None:
    """Run one pipeline stage or the whole pipeline."""
    _run_stage(stage, **kwargs)


def _make_stage_command(stage_name: str):
    @cli.command(name=stage_name, help=f"Run the {stage_name!r} stage.")
    @_shared_options
    def _command(**kwargs):
        _run_stage(stage_name, **kwargs)

    return _command


for _stage in STAGES:
    _make_stage_command(_stage)


@cli.command(name="synth")
@click.option("--out", required=True, type=click.Path(), help="Directory for generated corpora.")
@click.option("--tweets", "-m", default=5000, type=int, show_default=True, help="Immorality corpus size.")
@click.option("--topic-tweets", default=1000, type=int, show_default=True, help="Per-topic corpus size.")
@click.option("--seed", default=42, type=int, show_default=True)
@click.option("-v", "--verbose", is_flag=True)
def synth_cmd(out, tweets, topic_tweets, seed, verbose) -> None:
    """Generate planted synthetic corpora plus a ready-to-run config."""
    _setup_logging(verbose)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = synth.default_plan()
    synth.synth_corpus(plan, tweets, seed, out_dir / "immorality.jsonl")
    query_words = {"immorality": ["immoral", "immorality"]}
    topics = {}
    for i, (topic, cluster) in enumerate(synth.DEFAULT_TOPICS):
        query_token = topic.replace("_", "")
        synth.synth_topic_corpus(
            plan, cluster, topic_tweets, seed + 1 + i, out_dir / f"{topic}.jsonl", query_token
        )
        topics[topic] = f"{topic}.jsonl"
        query_words[topic] = [query_token]
    config_text = _render_config(topics, query_words)
    (out_dir / "config.yaml").write_text(config_text, encoding="utf-8")
    click.echo(f"wrote corpora and config.yaml under {out_dir}")


def _render_config(topics: dict[str, str], query_words: dict[str, list[str]]) -> str:
    defaults = {f.name: f.default for f in dataclasses.fields(pipeline.PipelineConfig)}
    params = {key: defaults[key] for key in ("n1", "n2", "k", "topic_n", "extend_n")}
    params["topic_n"] = list(params["topic_n"])  # safe_dump writes lists, not tuples
    config = {
        "inputs": {"immorality": "immorality.jsonl", "topics": dict(sorted(topics.items()))},
        "output": "out",
        "params": params,
        "cleaning": {"lang_filter": "en", "query_words": dict(sorted(query_words.items()))},
    }
    return yaml.safe_dump(config, sort_keys=False)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
