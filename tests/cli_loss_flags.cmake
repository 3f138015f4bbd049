# `elephant` must refuse malformed loss flags with exit status 2 instead of
# silently running a different cell, and still run a valid lossy cell.
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
expect_exit(0 --loss 0.01)
