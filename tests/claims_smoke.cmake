# `elephant claims --reps 2` at ELEPHANT_DURATION_SCALE=0.02 prints one
# markdown row per claim, each with the mark its 2-seed vote gives, and its
# ids are unique and those of the checked-in ledger. A second run is served from the journal
# without appending a line and prints the same bytes. A junk
# ELEPHANT_DURATION_SCALE, a bad --reps or an unknown flag exits 2.
#
#   cmake -DELEPHANT=<path to elephant> -DLEDGER=<results/claims.md> \
#         -DWORKDIR=<scratch dir> -P claims_smoke.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(ENV{ELEPHANT_RESULTS_DIR} "${WORKDIR}/results")
set(ENV{ELEPHANT_DURATION_SCALE} 0.02)
set(journal "${WORKDIR}/results/runs.jsonl")

function(run_claims out_var)
  execute_process(COMMAND "${ELEPHANT}" claims --reps 2 WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE got OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT got STREQUAL "0")
    message(FATAL_ERROR "elephant claims --reps 2: exit ${got}, want 0\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The id column of a ledger, in row order. Values hold ';', CMake's list
# separator, so it is blanked first.
function(ledger_ids text out_var)
  string(REPLACE ";" "," text "${text}")
  string(REGEX MATCHALL "\n\\| [a-z0-9_]+\\.[a-z0-9_]+ \\|" rows "${text}")
  set(ids "")
  foreach(row IN LISTS rows)
    string(REGEX REPLACE "^\n\\| ([^ ]+) \\|$" "\\1" id "${row}")
    list(APPEND ids "${id}")
  endforeach()
  set(${out_var} "${ids}" PARENT_SCOPE)
endfunction()

run_claims(first)
ledger_ids("${first}" ids)
list(LENGTH ids n)
string(REPLACE ";" "," safe "${first}")
string(REGEX MATCHALL
       "\n\\| [a-z0-9_]+\\.[a-z0-9_]+ \\| [^\n]* \\| (2 of 2 \\| ✅|1 of 2 \\| 🟡 1 of 2|0 of 2 \\| ❌) \\|"
       marked "${safe}")
list(LENGTH marked n_marked)
if(n EQUAL 0 OR NOT n EQUAL n_marked)
  message(FATAL_ERROR "claims: ${n} rows, ${n_marked} with a 2-seed vote and its mark\n${first}")
endif()
set(unique ${ids})
list(REMOVE_DUPLICATES unique)
if(NOT ids STREQUAL unique)
  message(FATAL_ERROR "claims: an id is printed twice: ${ids}")
endif()
file(READ "${LEDGER}" ledger)
ledger_ids("${ledger}" ledger_ids)
if(NOT ids STREQUAL ledger_ids)
  message(FATAL_ERROR "claims: ids differ from ${LEDGER}\n  printed: ${ids}\n  ledger:  ${ledger_ids}")
endif()

file(READ "${journal}" lines_before)
run_claims(second)
file(READ "${journal}" lines_after)
if(NOT lines_before STREQUAL lines_after)
  message(FATAL_ERROR "claims: the re-run appended to ${journal}")
endif()
if(NOT first STREQUAL second)
  message(FATAL_ERROR "claims: the re-run printed different bytes")
endif()

function(expect_usage_error)
  execute_process(COMMAND "${ELEPHANT}" claims ${ARGN} WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE got OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT got STREQUAL "2" OR NOT out STREQUAL "")
    message(FATAL_ERROR "ELEPHANT_DURATION_SCALE='$ENV{ELEPHANT_DURATION_SCALE}' elephant "
                        "claims ${ARGN}: exit ${got}, want 2 and no stdout\n${out}${err}")
  endif()
endfunction()

expect_usage_error(--bogus)
expect_usage_error(--reps 0)
set(ENV{ELEPHANT_DURATION_SCALE} x)
expect_usage_error(--reps 2)
