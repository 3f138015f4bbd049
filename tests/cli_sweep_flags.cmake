# `elephant sweep` must refuse a lease that is not a number > 0, a pool or
# budget flag that is not a number in its range (an integer where a count is
# meant), --resume without a manifest to resume from, and the retry flags
# older builds took (--retries, --backoff: every run is one attempt at its
# own seed, so they are unknown options now), with exit status 2; a valid
# manifest sweep still runs. `run` and `sweep` both refuse a
# --reps that is not an integer >= 1 with exit status 2. A
# sweep without --manifest journals to $ELEPHANT_RESULTS_DIR/runs.jsonl and
# resumes from it. chaos_sweep refuses a numeric flag that is not a number in
# its range with exit status 2 before it starts a worker.
#
#   cmake -DELEPHANT=<path to elephant> -DCHAOS=<path to chaos_sweep> -DWORKDIR=<scratch dir> \
#         -P cli_sweep_flags.cmake
set(sweep sweep --pairs intra --bw 100e6 --duration 1)
set(ENV{ELEPHANT_RESULTS_DIR} "${WORKDIR}/results")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(expect_exit want)
  expect_cmd_exit(${want} ${sweep} ${ARGN})
endfunction()

function(expect_cmd_exit want)
  execute_process(COMMAND ${ELEPHANT} ${ARGN}
                  RESULT_VARIABLE got OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT got STREQUAL "${want}")
    message(FATAL_ERROR "elephant ${ARGN}: exit ${got}, want ${want}\n${err}")
  endif()
endfunction()

set(manifest --manifest "${WORKDIR}/m.jsonl")
expect_exit(2 ${manifest} --lease-s 0)
expect_exit(2 ${manifest} --lease-s -1)
expect_exit(2 ${manifest} --lease-s abc)
expect_exit(2 ${manifest} --lease-s 5x)
expect_exit(2 --resume)
expect_exit(2 ${manifest} --threads 1.5)
expect_exit(2 ${manifest} --threads -1)
expect_exit(2 ${manifest} --retries 1)
expect_exit(2 ${manifest} --event-budget 1e3)
expect_exit(2 ${manifest} --wall-budget -1)
expect_exit(2 ${manifest} --backoff 0.25)
expect_exit(2 ${manifest} --stats-interval abc)
expect_exit(0 ${manifest} --lease-s 5)

set(run run --bw 100e6 --duration 1)
foreach(bad 0 -1 abc 1.5 2x "")
  expect_exit(2 ${manifest} --reps "${bad}")
  expect_cmd_exit(2 ${run} --reps "${bad}")
endforeach()
expect_cmd_exit(0 ${run} --reps 2)

# No --manifest: the default journal stores every run, and a second sweep is
# served from it without appending a line.
set(journal "${WORKDIR}/results/runs.jsonl")
expect_exit(0)
file(READ "${journal}" first)
expect_exit(0)
file(READ "${journal}" second)
if(first STREQUAL "" OR NOT first STREQUAL second)
  message(FATAL_ERROR "default journal ${journal} missing or grew on a resumed sweep")
endif()

set(chaos --elephant "${ELEPHANT}" --workdir "${WORKDIR}/chaos")
foreach(bad "--workers;0" "--workers;2x" "--kills;x" "--lease-s;0" "--duration;abc"
            "--kill-interval-ms;-1" "--timeout-s;1e9x" "--seed;1.5")
  execute_process(COMMAND ${CHAOS} ${chaos} ${bad}
                  RESULT_VARIABLE got OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT got STREQUAL "2")
    message(FATAL_ERROR "chaos_sweep ${bad}: exit ${got}, want 2\n${err}")
  endif()
endforeach()
