# `elephant sweep` must refuse a pool or budget flag that is not a number in
# its range (an integer where a count is meant), a --pairs other than
# inter|intra|all, --resume without a manifest to resume from, and the flags
# older builds took (--retries, --backoff, --worker-id, --lease-s: every run
# is one attempt at its own seed, and one sweep writes a journal), with exit
# status 2; a valid manifest sweep still runs. `run` and `sweep` both refuse
# a --reps that is not an integer >= 1 with exit status 2. Every command
# refuses a flag it does not read with exit status 2, naming the flag and the
# command. A sweep without --manifest journals to
# $ELEPHANT_RESULTS_DIR/runs.jsonl and resumes from it. A sweep on a journal
# another process holds locked exits 1 naming the journal, and writes
# nothing to it.
#
#   cmake -DELEPHANT=<path to elephant> -DWORKDIR=<scratch dir> -P cli_sweep_flags.cmake
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
expect_exit(2 --resume)
expect_exit(2 ${manifest} --threads 1.5)
expect_exit(2 ${manifest} --threads -1)
expect_exit(2 ${manifest} --retries 1)
expect_exit(2 ${manifest} --event-budget 1e3)
expect_exit(2 ${manifest} --wall-budget -1)
expect_exit(2 ${manifest} --backoff 0.25)
expect_exit(2 ${manifest} --stats-interval abc)
expect_exit(2 ${manifest} --lease-s 5)
expect_exit(2 ${manifest} --worker-id w1)
expect_exit(2 --pairs bogus --aqm fifo)
expect_exit(0 ${manifest})

# A flag the command does not read: exit 2, naming the flag and the command.
foreach(case "claims;--aqm;red" "list;--reps;3" "run;--threads;4" "sweep;--bdp;2"
             "report;--reps;2")
  list(GET case 0 cmd)
  list(GET case 1 flag)
  execute_process(COMMAND ${ELEPHANT} ${case}
                  RESULT_VARIABLE got OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT got STREQUAL "2" OR NOT err MATCHES "^${cmd}: option ${flag} ")
    message(FATAL_ERROR "elephant ${case}: exit ${got}, want 2 naming the command\n${err}")
  endif()
endforeach()

# The journal has one writer: a sweep on one that flock(1) holds exits 1,
# names it, and leaves it as it was.
find_program(FLOCK flock)
if(FLOCK)
  file(READ "${WORKDIR}/m.jsonl" before)
  execute_process(COMMAND ${FLOCK} "${WORKDIR}/m.jsonl" ${ELEPHANT} ${sweep} ${manifest}
                  RESULT_VARIABLE got OUTPUT_QUIET ERROR_VARIABLE err)
  file(READ "${WORKDIR}/m.jsonl" after)
  string(FIND "${err}" "journal ${WORKDIR}/m.jsonl is in use" named)
  if(NOT got STREQUAL "1" OR named EQUAL -1 OR NOT before STREQUAL after)
    message(FATAL_ERROR "sweep on a locked journal: exit ${got}, want 1 naming it\n${err}")
  endif()
endif()

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
