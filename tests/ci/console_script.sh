#!/usr/bin/env bash
# Runs the installed `ouphase` console script and compares what it writes.
#
# Usage: bash tests/ci/console_script.sh   (with `ouphase` on PATH)
#
# It works in a temporary directory, removed on exit, and fails on the first
# command that fails or on the first pair of files that differ.
#
# The dual arg run is of trials of three blocks that read both measurement
# streams: with two or more CPUs, the serial loop draws them on its helper
# thread, each trial's first block during the last block of the trial before
# it. The last two runs must write the same bytes: serially, and in a
# 2-process pool whose tasks of 8 trials each run a loop of their own (with a
# helper each on 4 or more CPUs; under forkserver, the default start method
# from Python 3.14). The dual run on the fine grid does the same for
# multi-block trials that read meas2, whose draws chain from trial to trial,
# so both detectors' keyed streams are compared across worker counts. The chi
# sweep does the same for the reports of two configs, each read from the
# per-trial sample array that the pool joins from its tasks' chunks, and the
# phihat run for the feedback loop's state, carried from block to block, in
# pool tasks that each build their draw pipeline from the pool's size. The run
# pinned to one CPU asks for 2 workers but may use one CPU: a pool of one is
# the serial loop, with no helper, and writes the same bytes. A run from a
# config file writes the same manifest as the same run from flags, and a file
# that sets a key twice exits 1 (the status is tested by hand: set -e ignores a
# failing command under `!`).
set -eu
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

ouphase --version
ouphase analytic
ouphase compare --trials 30 --duration 2e-4
ouphase simulate --scheme dual_homodyne --dual-mode arg --trials 30 --duration 6e-3
ouphase simulate --trials 40 --duration 6e-3 --seed 7 --out serial.csv
ouphase simulate --trials 40 --duration 6e-3 --seed 7 --workers 2 --out pool.csv
cmp serial.csv pool.csv
taskset -c 0 ouphase simulate --trials 40 --duration 6e-3 --seed 7 --workers 2 --out pinned.csv
cmp serial.csv pinned.csv
ouphase simulate --scheme dual_homodyne --dt 5e-9 --trials 40 --duration 2e-3 --seed 7 --out dual-serial.csv
ouphase simulate --scheme dual_homodyne --dt 5e-9 --trials 40 --duration 2e-3 --seed 7 --workers 2 --out dual-pool.csv
cmp dual-serial.csv dual-pool.csv
ouphase sweep-chi --relative --values 1.8,3 --trials 40 --duration 2e-3 --seed 7 --out sweep-serial.csv
ouphase sweep-chi --relative --values 1.8,3 --trials 40 --duration 2e-3 --seed 7 --workers 2 --out sweep-pool.csv
cmp sweep-serial.csv sweep-pool.csv
ouphase simulate --source phihat --trials 40 --duration 6e-3 --seed 7 --out phihat-serial.csv
ouphase simulate --source phihat --trials 40 --duration 6e-3 --seed 7 --workers 2 --out phihat-pool.csv
cmp phihat-serial.csv phihat-pool.csv
printf 'kappa = 2e4\nchi = 2e5\nsource = phihat\nw_minus = 0.3\nw_plus = 0.7\n' > run.cfg
ouphase simulate --config run.cfg --trials 30 --duration 2e-3 --seed 7 --format json --out from-file.json
ouphase simulate --kappa 2e4 --chi 2e5 --source phihat --w-minus 0.3 --w-plus 0.7 --trials 30 --duration 2e-3 --seed 7 --format json --out from-flags.json
cmp from-file.json from-flags.json
printf 'chi = 1e5\n# again\nchi = 2e5\n' > twice.cfg
status=0; ouphase analytic --config twice.cfg || status=$?
test "$status" -eq 1
