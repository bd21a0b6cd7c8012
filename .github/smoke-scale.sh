# The scale every CI smoke and `cmp` gate runs its scenarios at; each
# step sources this file and sets its own SPNN_MC. 300 training samples
# x 30 epochs train fig4 to about 80 % test accuracy at SPNN_NTEST=40,
# so the gates compare a classifier that classifies (120 x 2 trained it
# to chance, 10 %, where a fault that only changes which class wins
# passes every gate).
export SPNN_NTRAIN=300 SPNN_NTEST=40 SPNN_EPOCHS=30

# check_classifies REPORT.json: fails unless every topology of the JSON
# report trained past chance (software accuracy above 0.3). Each gate
# job calls it on the first report it writes, so a scale that drifts
# back to chance fails every gate loudly.
check_classifies() {
  python3 - "$1" <<'PY'
import json, sys
for t in json.load(open(sys.argv[1]))['topologies']:
    print(t['topology'], 'software accuracy', t['software_accuracy'])
    assert t['software_accuracy'] > 0.3, sys.argv[1] + ': the smoke scale trains to chance'
PY
}
