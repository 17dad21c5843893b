"""Matrix harness tests: config parsing, expansion, seeds, caching, CLI.

The execution tests use tiny cells so they run in tier-1 time: the
caching and rendering tests stay on the engine path (``shards: [0]``),
and one 2-shard serving cell checks the live path end to end.  The
`matrix-smoke` CI step runs the committed config's smoke slice.
"""

from __future__ import annotations

import textwrap

import pytest

yaml = pytest.importorskip("yaml")

from repro.experiments.matrix import (  # noqa: E402 - after importorskip
    AXES,
    ConfigError,
    derive_cell_seed,
    expand_cells,
    load_config,
    run_matrix,
)
from repro.experiments.matrix.render import (  # noqa: E402
    render_accuracy_csv,
    render_serving_md,
)


def write_config(tmp_path, body: str, name: str = "cfg.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


SMALL = """
    name: small
    kind: serving
    description: tiny engine-only matrix for tests
    seed: 7
    matrix:
      protocol: [hashtogram, explicit]
      epsilon: [1.0]
      domain_size: [256]
      users: [400]
      workers: [1, 2]
      shards: [0]
    quick:
      protocol: [hashtogram]
      workers: [2]
"""


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_load_applies_axis_defaults(tmp_path):
    config = load_config(write_config(tmp_path, """
        name: defaults
        kind: serving
        matrix:
          protocol: [cms]
    """))
    for axis, (_, default) in AXES.items():
        if axis != "protocol":
            assert config.matrix[axis] == default
    assert config.matrix["protocol"] == ("cms",)
    assert config.seed == 0 and config.committed and config.queries == 32


def test_invalid_axis_value_rejected(tmp_path):
    with pytest.raises(ConfigError, match="matrix.protocol"):
        load_config(write_config(tmp_path, """
            matrix:
              protocol: [hashtogram, bogus]
        """))
    with pytest.raises(ConfigError, match="matrix.workers"):
        load_config(write_config(tmp_path, """
            matrix:
              workers: [0]
        """))
    with pytest.raises(ConfigError, match="matrix.epsilon"):
        load_config(write_config(tmp_path, """
            matrix:
              epsilon: [-1.0]
        """))


def test_unknown_axis_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown axes.*beta"):
        load_config(write_config(tmp_path, """
            matrix:
              beta: [0.05]
        """))


def test_duplicate_axis_values_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write_config(tmp_path, """
            matrix:
              epsilon: [1.0, 1.0]
        """))


def test_cartesian_product_guard(tmp_path):
    path = write_config(tmp_path, """
        matrix:
          epsilon: [1.0, 2.0, 3.0]
          domain_size: [64, 128]
        max_cells: 5
    """)
    with pytest.raises(ConfigError, match="expands to 6 cells"):
        load_config(path)


def test_max_cells_ceiling_is_hard(tmp_path):
    with pytest.raises(ConfigError, match="hard ceiling"):
        load_config(write_config(tmp_path, """
            matrix:
              epsilon: [1.0]
            max_cells: 100000
        """))


def test_quick_slice_must_narrow(tmp_path):
    with pytest.raises(ConfigError, match="only narrows"):
        load_config(write_config(tmp_path, """
            matrix:
              protocol: [hashtogram]
            quick:
              protocol: [explicit]
        """))


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown top-level keys"):
        load_config(write_config(tmp_path, """
            matrix:
              epsilon: [1.0]
            cells: 4
        """))


def test_paper_config_section_validation(tmp_path):
    with pytest.raises(ConfigError, match="sections"):
        load_config(write_config(tmp_path, """
            kind: paper
        """))
    with pytest.raises(ConfigError, match="commentary"):
        load_config(write_config(tmp_path, """
            kind: paper
            sections:
              - experiment: table1
                title: T1
        """))
    with pytest.raises(ConfigError, match="duplicate experiments"):
        load_config(write_config(tmp_path, """
            kind: paper
            sections:
              - {experiment: table1, title: a, commentary: c}
              - {experiment: table1, title: b, commentary: c}
        """))


def test_paper_render_rejects_unknown_experiment(tmp_path):
    from repro.experiments.matrix.paper import render_paper_md
    config = load_config(write_config(tmp_path, """
        kind: paper
        sections:
          - {experiment: no-such-driver, title: T, commentary: c}
    """))
    with pytest.raises(ConfigError, match="unknown experiment"):
        render_paper_md(config, quick=True)


# ---------------------------------------------------------------------------
# expansion, quick slices, seeds
# ---------------------------------------------------------------------------

def test_expansion_order_and_quick_slice(tmp_path):
    config = load_config(write_config(tmp_path, SMALL))
    cells = expand_cells(config)
    assert len(cells) == 4
    # canonical order: protocol varies slower than workers
    assert [(c.protocol, c.workers) for c in cells] == [
        ("hashtogram", 1), ("hashtogram", 2),
        ("explicit", 1), ("explicit", 2)]
    assert [c.index for c in cells] == [0, 1, 2, 3]
    quick = expand_cells(config, quick=True)
    assert [(c.protocol, c.workers) for c in quick] == [("hashtogram", 2)]


def test_cell_seeds_are_distinct_stable_and_slice_independent(tmp_path):
    config = load_config(write_config(tmp_path, SMALL))
    cells = expand_cells(config)
    seeds = [c.seed for c in cells]
    assert len(set(seeds)) == len(seeds)
    assert seeds == [c.seed for c in expand_cells(config)]
    # the quick slice selects the same cell, not a reseeded one
    (quick_cell,) = expand_cells(config, quick=True)
    assert quick_cell.seed == cells[1].seed
    assert quick_cell.digest() == cells[1].digest()


def test_seed_derivation_ignores_axis_declaration_order():
    axes = {name: default[0] for name, (_, default) in AXES.items()}
    reordered = dict(reversed(list(axes.items())))
    assert derive_cell_seed(3, axes) == derive_cell_seed(3, reordered)
    assert derive_cell_seed(3, axes) != derive_cell_seed(4, axes)
    changed = dict(axes, epsilon=2.0)
    assert derive_cell_seed(3, axes) != derive_cell_seed(3, changed)


def test_repo_configs_parse():
    quick = load_config("experiments/configs/quick.yaml")
    protocols = {c.protocol for c in expand_cells(quick)}
    shards = {c.shards for c in expand_cells(quick)}
    assert len(protocols) >= 3 and 0 in shards and 2 in shards
    # the smoke slice covers both execution paths with few cells
    smoke = expand_cells(quick, quick=True)
    assert len(smoke) <= 4 and {c.shards for c in smoke} == {0, 2}
    assert load_config("experiments/configs/full.yaml").committed is False
    paper = load_config("experiments/configs/paper.yaml")
    assert paper.kind == "paper" and len(paper.sections) >= 12


# ---------------------------------------------------------------------------
# execution, caching, rendering (engine path only: tier-1 speed)
# ---------------------------------------------------------------------------

def test_run_matrix_caches_and_renders_byte_identically(tmp_path):
    config = load_config(write_config(tmp_path, SMALL))
    cache = tmp_path / "cache"
    results = run_matrix(config, cache_dir=cache)
    assert [r.cached for r in results] == [False] * 4
    assert all(r.bit_identical for r in results)
    assert all(r.deterministic["check"] == "engine==serial" for r in results)
    assert all("offline_reports_per_s" in r.timing for r in results)

    again = run_matrix(config, cache_dir=cache)
    assert [r.cached for r in again] == [True] * 4
    assert [r.deterministic for r in again] == [r.deterministic
                                                for r in results]
    assert render_serving_md(config, again) == \
        render_serving_md(config, results)
    assert render_accuracy_csv(again) == render_accuracy_csv(results)

    forced = run_matrix(config, cache_dir=cache, force=True)
    assert [r.cached for r in forced] == [False] * 4
    assert render_accuracy_csv(forced) == render_accuracy_csv(results)


def test_rendered_outputs_carry_no_timing_columns(tmp_path):
    config = load_config(write_config(tmp_path, SMALL))
    results = run_matrix(config, quick=True, cache_dir=tmp_path / "c")
    md = render_serving_md(config, results)
    csv = render_accuracy_csv(results)
    for text in (md, csv):
        assert "reports_per_s" not in text and "ingest" not in text
    assert "| yes |" in md


@pytest.mark.cluster
def test_serving_cell_is_bit_identical(tmp_path):
    from repro.experiments.matrix.runner import run_cell
    config = load_config(write_config(tmp_path, """
        name: serving
        kind: serving
        seed: 7
        matrix:
          protocol: [hashtogram]
          domain_size: [256]
          users: [400]
          shards: [2]
    """))
    [cell] = expand_cells(config)
    deterministic = run_cell(cell, num_queries=8)["deterministic"]
    assert deterministic["check"] == "served==offline"
    assert deterministic["bit_identical"] is True


def test_matrix_cli_run_and_render(tmp_path, capsys):
    from repro.cli import main
    config_path = write_config(tmp_path, SMALL + "    committed: false\n")
    cache = tmp_path / "cache"
    assert main(["matrix", "run", str(config_path), "--quick",
                 "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "all 1 cells BIT-IDENTICAL" in out
    assert (cache / "out" / "small.md").is_file()
    assert (cache / "out" / "small_accuracy.csv").is_file()
    assert (cache / "small_timing.csv").is_file()
    # render reuses the cache: the quick cell is restored, not re-run
    assert main(["matrix", "render", str(config_path), "--quick",
                 "--cache-dir", str(cache)]) == 0
    assert "(cached)" in capsys.readouterr().out


def test_matrix_cli_usage_errors(tmp_path, capsys):
    from repro.cli import main
    assert main(["matrix", "run"]) == 2
    assert main(["matrix", "run", str(tmp_path / "missing.yaml")]) == 2
    capsys.readouterr()
