# `paper_figures fig3` at ELEPHANT_DURATION_SCALE=0.02 prints Figure 3's
# banner, four panels and 18 pair rows; a second run is served from the
# journal without appending a line and prints the same bytes. An unknown or
# missing figure name, and an ELEPHANT_REPS or ELEPHANT_DURATION_SCALE that
# is not a number in range, exit 2 (for the studies as well).
#
#   cmake -DBENCH=<dir holding the bench binaries> -DWORKDIR=<scratch dir> \
#         -P paper_figures.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(ENV{ELEPHANT_RESULTS_DIR} "${WORKDIR}/results")
set(ENV{ELEPHANT_DURATION_SCALE} 0.02)
unset(ENV{ELEPHANT_REPS})
set(journal "${WORKDIR}/results/runs.jsonl")

function(run_fig3 out_var)
  execute_process(COMMAND "${BENCH}/paper_figures" fig3 WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE got OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT got STREQUAL "0")
    message(FATAL_ERROR "paper_figures fig3: exit ${got}, want 0\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_fig3(first)
if(NOT first MATCHES "\nFigure 3: Jain's fairness index, AQM = FIFO\n")
  message(FATAL_ERROR "paper_figures fig3: no Figure 3 banner\n${first}")
endif()
string(REGEX MATCHALL "\n\\([a-d]\\) (inter|intra)-CCA, buffer = [0-9]+ BDP\n" panels
       "${first}")
list(LENGTH panels n)
if(NOT n EQUAL 4)
  message(FATAL_ERROR "paper_figures fig3: ${n} panel headers, want 4\n${first}")
endif()
string(REGEX MATCHALL "\n  [a-z0-9]+ vs [a-z0-9]+ +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-9.]+"
       rows "${first}")
list(LENGTH rows n)
if(NOT n EQUAL 18)
  message(FATAL_ERROR "paper_figures fig3: ${n} data rows, want 18\n${first}")
endif()

file(READ "${journal}" lines_before)
run_fig3(second)
file(READ "${journal}" lines_after)
if(NOT lines_before STREQUAL lines_after)
  message(FATAL_ERROR "paper_figures fig3: the re-run appended to ${journal}")
endif()
if(NOT first STREQUAL second)
  message(FATAL_ERROR "paper_figures fig3: the re-run printed different bytes")
endif()

function(expect_usage_error)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE got OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT got STREQUAL "2" OR NOT out STREQUAL "")
    message(FATAL_ERROR "ELEPHANT_REPS='$ENV{ELEPHANT_REPS}' ELEPHANT_DURATION_SCALE="
                        "'$ENV{ELEPHANT_DURATION_SCALE}' ${ARGN}: exit ${got}, want 2 "
                        "and no stdout\n${out}${err}")
  endif()
endfunction()

expect_usage_error("${BENCH}/paper_figures" fig9)
expect_usage_error("${BENCH}/paper_figures")
foreach(knob ELEPHANT_REPS ELEPHANT_DURATION_SCALE)
  set(ENV{${knob}} x)
  expect_usage_error("${BENCH}/paper_figures" fig3)
  expect_usage_error("${BENCH}/ablation_design_choices")
  if(knob STREQUAL "ELEPHANT_REPS")
    unset(ENV{ELEPHANT_REPS})
  else()
    set(ENV{ELEPHANT_DURATION_SCALE} 0.02)
  endif()
endforeach()
