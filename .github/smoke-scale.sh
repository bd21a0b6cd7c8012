# The scale every CI smoke and `cmp` gate runs its scenarios at; each
# step sources this file and sets its own SPNN_MC. 300 training samples
# x 30 epochs train fig4 to about 80 % test accuracy at SPNN_NTEST=40,
# so the gates compare a classifier that classifies (120 x 2 trained it
# to chance, 10 %, where a fault that only changes which class wins
# passes every gate). The CLI smoke step fails if fig4's software
# accuracy falls to 0.3 or below.
export SPNN_NTRAIN=300 SPNN_NTEST=40 SPNN_EPOCHS=30
