# `elephant` must refuse malformed loss flags, and any numeric run flag that
# is not a number in its range (an integer where a count is meant), with exit
# status 2 instead of silently running a different cell, and still run a
# valid lossy cell. A cell whose buffer holds less than one packet delivers
# nothing and fails the invariant checker with exit status 1. An
# ELEPHANT_DURATION_SCALE that is not a finite number > 0 exits 2 at start-up.
# `elephant explore --schedules 0` (which would explore nothing and report no
# violation) exits 2, and so does a counterexample trace that cannot be
# written, which is never reported as written.
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

set(explore explore --cca1 cubic --cca2 bbr1 --aqm fifo --bw 20e6 --flows 2
    --duration 1 --seed 7)
execute_process(COMMAND ${ELEPHANT} ${explore} --schedules 0
                RESULT_VARIABLE got OUTPUT_QUIET ERROR_QUIET)
if(NOT got STREQUAL "2")
  message(FATAL_ERROR "elephant explore --schedules 0: exit ${got}, want 2")
endif()

# Every schedule of this cell breaks the 0.99 Jain floor, so the first one
# is a counterexample to write.
set(planted ${explore} --fault-loss 0.2:0.05:0.5 --depth 6 --schedules 20
    --jain-floor 0.99)
file(REMOVE_RECURSE "${WORKDIR}/no-such-dir")
set(unwritable "${WORKDIR}/no-such-dir/x.trace")
execute_process(COMMAND ${ELEPHANT} ${planted} --trace-out ${unwritable}
                RESULT_VARIABLE got OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT got STREQUAL "2" OR out MATCHES "written to" OR NOT err MATCHES "cannot write"
   OR EXISTS "${unwritable}")
  message(FATAL_ERROR "explore --trace-out ${unwritable}: exit ${got}, want 2 and no "
                      "'written to'\nstdout: ${out}\nstderr: ${err}")
endif()
file(MAKE_DIRECTORY "${WORKDIR}")
set(written "${WORKDIR}/counterexample.trace")
file(REMOVE "${written}")
execute_process(COMMAND ${ELEPHANT} ${planted} --trace-out ${written}
                RESULT_VARIABLE got OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT got STREQUAL "1" OR NOT out MATCHES "written to" OR NOT EXISTS "${written}")
  message(FATAL_ERROR "explore --trace-out ${written}: exit ${got}, want 1 and the "
                      "trace written\nstdout: ${out}\nstderr: ${err}")
endif()
