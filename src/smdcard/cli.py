"""Command-line interface.

Subcommands: ``evaluate`` (compute a quality report), ``card`` (render a
dataset card from a manifest plus a report), ``calibrate`` (suggest
normalization bounds from reference self-splits), ``fixtures`` (emit
deterministic test datasets with injected defects).

Exit codes: 0 success, 2 validation/configuration error, 1 internal error.
Errors go to stderr as one machine-readable line each: ``E<code>: <message>``.
Output files are written atomically; a failing run never leaves partial
output behind. ``SMDCARD_SEED`` overrides the default seed when the config
omits one.
"""

from __future__ import annotations

import argparse
import os
import sys

import yaml

from . import __version__, card as card_mod, harness, ingest
from .config import EvalConfig
from .errors import ConfigError, SmdError
from .runner import (EvaluationInputs, PlanViolations, calibrate_bounds,
                     run_evaluation)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smdcard",
        description="Evaluate synthetic datasets against reference data and "
                    "render dataset cards.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="compute a quality report")
    p_eval.add_argument("--real", help="reference embeddings (CSV/JSONL)")
    p_eval.add_argument("--synthetic", required=True,
                        help="synthetic embeddings (CSV/JSONL)")
    p_eval.add_argument("--table", help="synthetic record table (CSV)")
    p_eval.add_argument("--images", help="two-column image-pair manifest")
    p_eval.add_argument("--config", required=True, help="evaluation config (YAML)")
    p_eval.add_argument("--out", required=True, help="report output path (JSON)")
    p_eval.add_argument("--validate-config", action="store_true",
                        help="check the full plan without computing")
    p_eval.add_argument("--workers", type=int, default=1,
                        help="worker processes for metric computation")
    p_eval.set_defaults(func=cmd_evaluate)

    p_card = sub.add_parser("card", help="render a dataset card")
    p_card.add_argument("--manifest", required=True,
                        help="descriptive manifest (YAML)")
    p_card.add_argument("--report", required=True, help="quality report (JSON)")
    p_card.add_argument("--format", required=True,
                        choices=["structured", "md", "html"])
    p_card.add_argument("--out", required=True, help="card output path")
    p_card.set_defaults(func=cmd_card)

    p_cal = sub.add_parser("calibrate",
                           help="suggest normalization bounds from a "
                                "reference self-run")
    p_cal.add_argument("--real", required=True,
                       help="reference embeddings (CSV/JSONL)")
    p_cal.add_argument("--config", required=True, help="evaluation config (YAML)")
    p_cal.add_argument("--out", required=True, help="bounds output path (YAML)")
    p_cal.set_defaults(func=cmd_calibrate)

    p_fix = sub.add_parser("fixtures",
                           help="emit deterministic fixtures with injected "
                                "defects")
    p_fix.add_argument("--recipe", required=True, help="fixture recipe (YAML)")
    p_fix.add_argument("--out", required=True, help="output directory")
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def _load_inputs(args, config: EvalConfig) -> EvaluationInputs:
    labels = (config.subgroup_column, config.region_column)
    real = features = None
    if args.real:
        real_labels, features = ingest.reference_columns(
            args.real, config.id_column, *labels)
    synthetic = ingest.read_embeddings(args.synthetic, config.id_column,
                                       *labels, features=features)
    if args.real:
        real = ingest.read_embeddings(args.real, config.id_column,
                                      *real_labels)
    table = None
    if args.table:
        if config.table_schema is None:
            raise ConfigError("a --table input needs tables.schema in the config")
        table = ingest.read_record_table(args.table, config.table_schema,
                                         config.missing_sentinel)
    real_table = None
    if config.real_table_path:
        if config.table_schema is None:
            raise ConfigError("tables.real needs tables.schema in the config")
        path = _resolve_relative(config.real_table_path, args.config)
        real_table = ingest.read_record_table(path, config.table_schema,
                                              config.missing_sentinel)
    image_pairs = None
    if args.images:
        image_pairs = []
        for real_path, synth_path in ingest.read_image_pairs(args.images):
            img_r, maxval_r = ingest.read_pgm(real_path)
            img_s, maxval_s = ingest.read_pgm(synth_path)
            peak = 255 if max(maxval_r, maxval_s) <= 255 else 65535
            image_pairs.append((img_r, img_s, peak))
    class_probs = None
    probs_path = config.param("inception_score", "probs_path")
    if probs_path and "inception_score" in config.metrics:
        eset = ingest.read_embeddings(_resolve_relative(probs_path, args.config),
                                      id_column=config.id_column)
        class_probs = eset.data
    return EvaluationInputs(synthetic=synthetic, real=real, table=table,
                            real_table=real_table, image_pairs=image_pairs,
                            class_probs=class_probs)


def _resolve_relative(path: str, anchor_file: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.path.dirname(os.path.abspath(anchor_file)), path)


def cmd_evaluate(args) -> int:
    config = ingest.read_eval_config(args.config)
    inputs = _load_inputs(args, config)
    if args.validate_config:
        from .runner import plan
        outcome = plan(inputs, config)
        if not outcome.ok:
            raise PlanViolations(outcome.violations)
        print("plan ok: "
              f"{len(config.metrics)} metrics, seed {config.effective_seed()}")
        return 0
    report = run_evaluation(inputs, config, workers=max(1, args.workers))
    ingest.write_report(report, args.out)
    print(f"{'criterion':<14} {'score':>7}  verdict")
    for block in report.scope("global").criteria:
        score = "-" if block.score is None else format(block.score, ".2f")
        print(f"{block.criterion:<14} {score:>7}  {block.verdict}")
    print(f"report written to {args.out}")
    return 0


def cmd_card(args) -> int:
    manifest = ingest.read_manifest(args.manifest)
    report, payload = ingest.read_report(args.report)
    digest = card_mod.digest_of(payload)
    card = card_mod.build_card(manifest, report, report_digest=digest)
    ingest.atomic_write(args.out, card_mod.render(card, args.format))
    print(f"card written to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    config = ingest.read_eval_config(args.config)
    real_labels, _ = ingest.reference_columns(
        args.real, config.id_column, config.subgroup_column,
        config.region_column)
    real = ingest.read_embeddings(args.real, config.id_column, *real_labels)
    bounds = calibrate_bounds(real, config)
    if not bounds:
        raise ConfigError("no embedding metrics selected; nothing to calibrate")
    ingest.write_bounds(args.out, bounds)
    print(f"bounds for {len(bounds)} metrics written to {args.out}")
    return 0


_RECIPE_KEYS = {"embedding", "table", "defects"}


def cmd_fixtures(args) -> int:
    with open(args.recipe, encoding="utf-8") as fh:
        recipe = yaml.safe_load(fh) or {}
    if not isinstance(recipe, dict):
        raise ConfigError(f"{args.recipe}: recipe must be a mapping")
    unknown = sorted(set(recipe) - _RECIPE_KEYS)
    if unknown:
        raise ConfigError(f"{args.recipe}: unknown recipe key(s) {unknown}")
    os.makedirs(args.out, exist_ok=True)

    real = None
    real_table = None
    written = []
    if "embedding" in recipe:
        spec = dict(recipe["embedding"])
        real = harness.make_gaussian_mixture(
            n=int(spec.get("n", 200)), d=int(spec.get("d", 8)),
            modes=spec.get("modes", [{"mean": 0.0, "scale": 1.0, "weight": 1.0}]),
            seed=int(spec.get("seed", 0)))
        path = os.path.join(args.out, "real.csv")
        ingest.write_embeddings(real, path)
        written.append(path)
    if "table" in recipe:
        spec = dict(recipe["table"])
        numeric = {k: (float(v[0]), float(v[1]))
                   for k, v in (spec.get("numeric_fields") or {}).items()}
        categorical = {k: [str(x) for x in v]
                       for k, v in (spec.get("categorical_fields") or {}).items()}
        real_table = harness.make_record_table(
            n=int(spec.get("n", 50)), seed=int(spec.get("seed", 0)),
            numeric_fields=numeric or None,
            categorical_fields=categorical or None)
        path = os.path.join(args.out, "real_table.csv")
        ingest.write_record_table(real_table, path)
        written.append(path)

    descriptors = []
    for i, defect in enumerate(recipe.get("defects") or []):
        defect = dict(defect)
        kind = defect.pop("kind", None)
        if kind not in harness.DEFECT_KINDS:
            raise ConfigError(f"{args.recipe}: unknown defect kind {kind!r}")
        seed = int(defect.pop("seed", 0))
        table_defect = kind in ("out_of_range", "delete_field", "mask_cells")
        source = real_table if table_defect else real
        if source is None:
            needs = "table" if table_defect else "embedding"
            raise ConfigError(f"{args.recipe}: defect {kind!r} needs a "
                              f"{needs} fixture in the recipe")
        result = harness.inject_defect(source, kind, seed=seed, **defect)
        if table_defect:
            path = os.path.join(args.out, f"synthetic_table_{i}_{kind}.csv")
            ingest.write_record_table(result.dataset, path)
        else:
            path = os.path.join(args.out, f"synthetic_{i}_{kind}.csv")
            ingest.write_embeddings(result.dataset, path)
        written.append(path)
        descriptors.append({"file": os.path.basename(path), "seed": seed,
                            **result.descriptor})

    manifest_path = os.path.join(args.out, "defects.json")
    ingest.atomic_write(manifest_path,
                        ingest.dumps_canonical(descriptors).encode("utf-8"))
    written.append(manifest_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlanViolations as exc:
        for violation in exc.violations:
            print(str(violation), file=sys.stderr)
        return 2
    except SmdError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"E211: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"E100: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
