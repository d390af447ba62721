#!/usr/bin/env bash
# Refresh the golden digest fixtures after an intentional behaviour change.
#
# Re-runs the paper study at the pinned scale/seed and rewrites
# tests/golden/study_scale_0.01.digests (the baseline preferred-policy
# study) plus one tests/golden/study_<policy>_0.01.digests file per
# registered selection policy.  Review the diff before committing: every
# changed line is a claim that the simulator's output was *meant* to
# change.  The preferred per-policy file must stay byte-identical to the
# baseline file — the script fails if they diverge.
set -euo pipefail

cd "$(dirname "$0")/.."

OUT=tests/golden/study_scale_0.01.digests

PYTHONPATH=src REPRO_CACHE=off python -m repro study --scale 0.01 --seed 7 \
    --digests | grep '^digest ' > "$OUT.tmp"
mv "$OUT.tmp" "$OUT"

echo "updated $OUT:"
cat "$OUT"

POLICIES=$(PYTHONPATH=src python -c \
    'from repro.cdn.selection import registered_policy_kinds
print("\n".join(registered_policy_kinds()))')

for policy in $POLICIES; do
    POUT="tests/golden/study_${policy}_0.01.digests"
    # `repro eval --digests` emits "digest <policy> <dataset> <sha256>";
    # the fixture stores "digest <dataset> <sha256>".
    PYTHONPATH=src REPRO_CACHE=off python -m repro eval --scale 0.01 --seed 7 \
        --policy "$policy" --digests | grep '^digest ' \
        | awk '{print $1, $3, $4}' > "$POUT.tmp"
    mv "$POUT.tmp" "$POUT"
    echo "updated $POUT"
done

# The preferred policy IS the baseline study; the fixtures must agree.
if ! diff -q "$OUT" tests/golden/study_preferred_0.01.digests > /dev/null; then
    echo "ERROR: study_preferred_0.01.digests diverged from $OUT" >&2
    exit 1
fi

# The monitor timeline: per-epoch snapshot digests over the built-in
# demo evolution (8 one-day epochs).
MOUT=tests/golden/monitor_0.01.digests
PYTHONPATH=src REPRO_CACHE=off python -m repro monitor --scale 0.01 --seed 7 \
    --digests | grep '^digest ' > "$MOUT.tmp"
mv "$MOUT.tmp" "$MOUT"
echo "updated $MOUT:"
cat "$MOUT"

# CBG geolocation: one digest per landmark bestline and per geolocated /24
# (study at scale 0.01, seed 7, 60 landmarks).  The flow-log digests above
# never see geolocation, so this file is what pins it.
COUT=tests/golden/cbg_0.01.digests
PYTHONPATH=src REPRO_CACHE=off python tests/test_golden_cbg.py > "$COUT.tmp"
mv "$COUT.tmp" "$COUT"
echo "updated $COUT ($(wc -l < "$COUT") lines)"
