#!/usr/bin/env bash
# Runs the CLI quickstart into OUT_DIR and checks its serving contracts:
# a stratified batch equals each of its rows scored alone, from the CLI and
# on one loaded model whose bag memory the batch has filled, and the
# predictions of a row-reversed test file, reversed back, equal those of
# the file. Every output the commands write, stdout included, lands in
# OUT_DIR, so two runs (say under other PYTHONHASHSEED or
# OPENBLAS_NUM_THREADS values) can be compared file by file.
#
# usage: scripts/quickstart.sh OUT_DIR
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -p "$1" && cd "$1"
# the one-row and reversed files go to a hidden directory that is gone when
# the script ends; its path is relative, so stdout.txt is the same in every run
scratch=.scratch
mkdir -p "$scratch"
trap 'rm -rf "$scratch"' EXIT

dppred() { python -m dppred.cli "$@" >> stdout.txt; }

dppred synth --kind medical --n-train 1500 --n-test 500 --seed 42 \
  --out-train train.csv --out-test test.csv --out-schema schema.csv
dppred train --data train.csv --schema schema.csv --out forward.txt \
  --method forward --trees 20 --seed 13 --trace forward_trace.csv
dppred train --data train.csv --schema schema.csv --out lasso.txt \
  --method lasso --trees 20 --seed 13 --trace lasso_trace.csv
dppred predict --model forward.txt --data test.csv --out forward_preds.csv
dppred predict --model lasso.txt --data test.csv --out lasso_preds.csv
dppred evaluate --predictions forward_preds.csv --data test.csv --schema schema.csv
dppred sweep --data train.csv --schema schema.csv --test test.csv \
  --param k --values 5,1,5 --trees 20 --seed 13 --out sweep_k.csv
dppred sweep --data train.csv --schema schema.csv --test test.csv \
  --param trees --values 5,20 --trees 20 --seed 13 --out sweep_trees.csv
dppred synth --kind subtyped --groups 3 --n-train 1000 --n-test 300 --seed 6 \
  --out-train str_train.csv --out-test str_test.csv --out-schema str_schema.csv
dppred train --data str_train.csv --schema str_schema.csv --out reg.txt \
  --trees 20 --seed 13 --trace reg_trace.csv
dppred sweep --data str_train.csv --schema str_schema.csv --test str_test.csv \
  --param k --values 5,10 --trees 20 --seed 13 --out reg_sweep_k.csv
dppred stratify-train --data str_train.csv --schema str_schema.csv \
  --out strat_model.txt --global-patterns 10 --local-patterns 5 --groups 3 \
  --trees 20 --gibbs-iterations 100 --seed 3
# one topic and one Gibbs sweep, so no burn-in
dppred stratify-train --data str_train.csv --schema str_schema.csv \
  --out strat_one_sweep.txt --global-patterns 10 --local-patterns 5 --groups 1 \
  --trees 20 --gibbs-iterations 1 --seed 3
dppred stratify-predict --model strat_model.txt --data str_test.csv --out str_preds.csv
dppred importance --model strat_model.txt --out importance.csv

# batch == stream: each of the first 10 rows scored alone
for i in $(seq 1 10); do
  { head -n 1 str_test.csv; sed -n "$((i + 1))p" str_test.csv; } > "$scratch/one.csv"
  dppred stratify-predict --model strat_model.txt --data "$scratch/one.csv" \
    --out "$scratch/one_preds.csv"
  cmp <(sed -n 2p "$scratch/one_preds.csv" | cut -d, -f2) \
    <(sed -n "$((i + 1))p" str_preds.csv | cut -d, -f2)
done

# batch == stream on one loaded model, whose bag memory the
# batch has filled: every row scored alone, last row first
python -c 'if True:
  import sys
  from dppred.data import load_csv, subset
  from dppred.stratify import load_stratified, predict_stratified
  m = load_stratified("strat_model.txt")
  ds = load_csv("str_test.csv", m.schema, m.label_kind, allow_missing_labels=True)
  batch = predict_stratified(m, ds)
  bad = [i for i in reversed(range(ds.n))
         if predict_stratified(m, subset(ds, [i])).tobytes() != batch[i:i + 1].tobytes()]
  sys.exit(f"{len(bad)} rows differ alone, row {bad[0]} first" if bad else 0)'

# order independence: the predictions of a row-reversed file,
# reversed back, equal those of the file
for job in "predict forward.txt test.csv forward_preds.csv" \
    "predict lasso.txt test.csv lasso_preds.csv" \
    "stratify-predict strat_model.txt str_test.csv str_preds.csv"; do
  set -- $job
  { head -n 1 "$3"; tail -n +2 "$3" | tac; } > "$scratch/reversed.csv"
  dppred "$1" --model "$2" --data "$scratch/reversed.csv" \
    --out "$scratch/reversed_preds.csv"
  cmp <(tail -n +2 "$scratch/reversed_preds.csv" | cut -d, -f2- | tac) \
    <(tail -n +2 "$4" | cut -d, -f2-)
done
