# `elephant sweep` must refuse a lease that is not a number > 0, and --resume
# without a manifest to resume from, with exit status 2; a valid manifest
# sweep still runs.
#
#   cmake -DELEPHANT=<path to elephant> -DWORKDIR=<scratch dir> -P cli_sweep_flags.cmake
set(sweep sweep --pairs intra --bw 100e6 --duration 0.2)
set(ENV{ELEPHANT_RESULTS_DIR} "${WORKDIR}/results")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(expect_exit want)
  execute_process(COMMAND ${ELEPHANT} ${sweep} ${ARGN}
                  RESULT_VARIABLE got OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT got STREQUAL "${want}")
    message(FATAL_ERROR "elephant ${sweep} ${ARGN}: exit ${got}, want ${want}\n${err}")
  endif()
endfunction()

set(manifest --manifest "${WORKDIR}/m.jsonl")
expect_exit(2 ${manifest} --lease-s 0)
expect_exit(2 ${manifest} --lease-s -1)
expect_exit(2 ${manifest} --lease-s abc)
expect_exit(2 ${manifest} --lease-s 5x)
expect_exit(2 --resume)
expect_exit(0 ${manifest} --lease-s 5)
