# The examples run end to end: quickstart, cca_trace and elephant_transfer
# each simulate a few seconds at 50-100 Mb/s and must exit 0. cca_trace must
# write its CSV header plus one row per flow per simulated second, and
# elephant_transfer one table row per second. trace_replay's CSV, piped
# through trace2csv --type queue_depth, keeps the header and at least one
# row; unfiltered, trace2csv reproduces it byte for byte; a trace2csv --flow
# that is not a flow id exits 2. An example given a
# number that is not all number (abc, 2x) or an unknown CCA name exits 2.
#
#   cmake -DEXAMPLES=<dir holding the example binaries> -DTRACE2CSV=<path to trace2csv> \
#         -DWORKDIR=<scratch dir> -P examples_smoke.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(expect_ok out_var)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE got OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT got STREQUAL "0")
    message(FATAL_ERROR "${ARGN}: exit ${got}, want 0\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_usage_error)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE got OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT got STREQUAL "2")
    message(FATAL_ERROR "${ARGN}: exit ${got}, want 2\n${err}")
  endif()
endfunction()

expect_ok(out "${EXAMPLES}/quickstart" bbr1 cubic fifo 2 0.1 2)
expect_usage_error("${EXAMPLES}/quickstart" bbr1 cubic fifo 2 abc 2)
expect_usage_error("${EXAMPLES}/quickstart" bbr1 cubic fifo 2 0.1 2x)
expect_usage_error("${EXAMPLES}/quickstart" bbr9 cubic fifo 2 0.1 2)
expect_usage_error("${EXAMPLES}/cca_trace" "${WORKDIR}/bad.csv" abc 3 bbr1 cubic)
expect_usage_error("${EXAMPLES}/cca_trace" "${WORKDIR}/bad.csv" 50 3 bbr9)
expect_usage_error("${EXAMPLES}/elephant_transfer" bbr2 cubic 0.1 2x)
expect_usage_error("${EXAMPLES}/aqm_showdown" bbr1 cubic abc)
expect_usage_error("${EXAMPLES}/fairness_matrix" fifo 100 2x)
expect_usage_error("${EXAMPLES}/export_dataset" "${WORKDIR}/bad" fifo abc)
expect_usage_error("${EXAMPLES}/trace_replay" bbr9 cubic fifo "${WORKDIR}/bad.csv")

set(csv "${WORKDIR}/cca_trace.csv")
expect_ok(out "${EXAMPLES}/cca_trace" "${csv}" 50 3 bbr1 cubic)
file(STRINGS "${csv}" rows)
list(POP_FRONT rows header)
if(NOT header MATCHES "^label,flow,t_s,cwnd_segments,")
  message(FATAL_ERROR "cca_trace: unexpected CSV header '${header}'")
endif()
set(seen "")
foreach(row IN LISTS rows)
  string(REPLACE "," ";" fields "${row}")
  list(GET fields 1 flow)
  list(GET fields 2 t)
  string(APPEND seen "${flow}@${t} ")
endforeach()
if(NOT seen STREQUAL "1@1 1@2 1@3 2@1 2@2 2@3 ")
  message(FATAL_ERROR "cca_trace: rows are '${seen}', want one per flow per second")
endif()

expect_ok(out "${EXAMPLES}/elephant_transfer" bbr2 cubic 0.1 3)
string(REGEX MATCHALL "\n +[0-9]+ +[0-9.]+ +[0-9.]+" table "${out}")
list(LENGTH table n)
if(NOT n EQUAL 3)
  message(FATAL_ERROR "elephant_transfer: ${n} per-second rows, want 3\n${out}")
endif()

set(trace "${WORKDIR}/trace.csv")
expect_ok(out "${EXAMPLES}/trace_replay" bbr1 cubic fifo "${trace}")
execute_process(COMMAND "${TRACE2CSV}" - --type queue_depth INPUT_FILE "${trace}"
                RESULT_VARIABLE got OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT got STREQUAL "0" OR NOT out MATCHES "^t_ns,type,flow,seq,v0,v1,v2\n[0-9]+,queue_depth,")
  message(FATAL_ERROR "trace2csv --type queue_depth: exit ${got}, want 0, the CSV header "
                      "and a queue_depth row\n${err}")
endif()
set(roundtrip "${WORKDIR}/roundtrip.csv")
execute_process(COMMAND "${TRACE2CSV}" "${trace}" OUTPUT_FILE "${roundtrip}"
                RESULT_VARIABLE got ERROR_VARIABLE err)
if(NOT got STREQUAL "0")
  message(FATAL_ERROR "trace2csv ${trace}: exit ${got}, want 0\n${err}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${trace}" "${roundtrip}"
                RESULT_VARIABLE got)
if(NOT got STREQUAL "0")
  message(FATAL_ERROR "trace2csv ${trace} does not reproduce its input byte for byte")
endif()
execute_process(COMMAND "${TRACE2CSV}" "${trace}" --flow x
                RESULT_VARIABLE got OUTPUT_QUIET ERROR_QUIET)
if(NOT got STREQUAL "2")
  message(FATAL_ERROR "trace2csv --flow x: exit ${got}, want 2")
endif()
