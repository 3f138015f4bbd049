# `elephant` must refuse malformed loss flags, and any numeric run flag that
# is not a number in its range (an integer where a count is meant), with exit
# status 2 instead of silently running a different cell, and still run a
# valid lossy cell, a valid fault-burst cell and a valid link-flap cell. A
# cell whose buffer holds less than one packet delivers nothing and fails the
# invariant checker with exit status 1. An ELEPHANT_DURATION_SCALE that is not a finite number > 0
# exits 2 at start-up.
#
#   cmake -DELEPHANT=<path to elephant> -DWORKDIR=<scratch dir> -P cli_loss_flags.cmake
set(cell run --cca1 cubic --cca2 cubic --bw 10e6 --bdp 1 --duration 1)
set(ENV{ELEPHANT_RESULTS_DIR} "${WORKDIR}/results")

function(expect_exit want)
  execute_process(COMMAND ${ELEPHANT} ${cell} ${ARGN}
                  RESULT_VARIABLE got OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT got STREQUAL "${want}")
    message(FATAL_ERROR "elephant ${ARGN}: exit ${got}, want ${want}\n${err}")
  endif()
endfunction()

expect_exit(2 --loss abc)
expect_exit(2 --loss 1.5)
expect_exit(2 --loss -0.1)
expect_exit(2 --loss 0.01x)
expect_exit(2 --fault-loss 1:2:1)
expect_exit(2 --fault-loss -1:0.1:1)
expect_exit(2 --fault-loss 1:0.1:1:1)
expect_exit(2 --fault-flap 1:10:0)
expect_exit(2 --fault-flap a:10:1)
expect_exit(2 --fault-flap 1:10)
# A zero-length outage is never reverted (a zero duration means "until the
# run ends"), so DOWN_MS must be > 0.
expect_exit(2 --fault-flap 1:0:1)
expect_exit(2 --fault-flap 1:1e-9:1)
# The last link-up, 1e9 s + 19999 x 1e6 s, is past sim::Time's int64
# nanoseconds; wrapped instants would take the link down at t ~ 0.
expect_exit(2 --fault-flap 1e9:1e9:10000)
expect_exit(2 --bdp abc)
expect_exit(2 --bdp 0)
expect_exit(2 --bdp -1)
expect_exit(2 --bw 0)
expect_exit(2 --bw 1e8x)
expect_exit(2 --flows 1.5)
expect_exit(2 --flows 0)
expect_exit(2 --flows abc)
expect_exit(2 --duration 0)
expect_exit(2 --duration abc)
expect_exit(2 --seed -1)
expect_exit(2 --seed 1.0)
expect_exit(2 --rtt 62.5)
expect_exit(2 --rtt 0)
expect_exit(2 --episode-window 0)
expect_exit(2 --episode-enter 1.5)
expect_exit(2 --check-digest 1)
set(ENV{ELEPHANT_DURATION_SCALE} abc)
expect_exit(2)
set(ENV{ELEPHANT_DURATION_SCALE} 0.01x)
expect_exit(2)
set(ENV{ELEPHANT_DURATION_SCALE} 0)
expect_exit(2)
unset(ENV{ELEPHANT_DURATION_SCALE})
expect_exit(1 --bdp 0.001)
expect_exit(0 --loss 0.01)
expect_exit(0 --fault-loss 0.2:0.05:0.5)
expect_exit(0 --fault-flap 0.6:50:2)
