"""The README's library example runs as written."""

import re
from pathlib import Path

from mfquant.synth import default_plan, synth_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    synth_corpus(default_plan(fillers_per_cluster=60, noise_pool=120), 300, 3, tmp_path / "immorality.jsonl")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(example, str(README), "exec"), namespace)
    assert namespace["matrix"].shape == (namespace["corpus"].counts.shape[0], 5)
    assert sum(namespace["counts"].values()) > 0
