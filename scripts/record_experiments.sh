#!/usr/bin/env bash
# Inlines the latest reproduce-run markdown into EXPERIMENTS.md between the
# RESULTS_BEGIN/RESULTS_END markers.
set -euo pipefail
cd "$(dirname "$0")/.."
ART="${SENECA_ARTIFACTS:-target/seneca-artifacts}/experiments"
[ -d "$ART" ] || { echo "no experiments at $ART — run the reproduce harness first" >&2; exit 1; }

tmp=$(mktemp)
{
  sed -n '1,/<!-- RESULTS_BEGIN -->/p' EXPERIMENTS.md
  echo
  for f in "$ART"/table1-*.md "$ART"/table2-*.md "$ART"/table3-*.md \
           "$ART"/table4-*.md "$ART"/table5-*.md "$ART"/fig3-*.md \
           "$ART"/fig4-*.md "$ART"/fig5-*.md "$ART"/fig6-*.md \
           "$ART"/ablation-*.md "$ART"/boundary-*.md; do
    [ -f "$f" ] && { cat "$f"; echo; }
  done
  sed -n '/<!-- RESULTS_END -->/,$p' EXPERIMENTS.md
} > "$tmp"
mv "$tmp" EXPERIMENTS.md
echo "EXPERIMENTS.md updated from $ART"
