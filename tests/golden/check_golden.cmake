# Golden-output check for one bench invocation (run with `cmake -P`).
#
# Runs BENCH with BENCH_ARGS ("|"-separated) in a fresh WORK_DIR, then
# compares the SHA-256 of its stdout and of every *.json it wrote against
# the digest list in GOLDEN. A mismatch fails the test and prints both lists.
#
# Re-baselining is deliberate: set SALA_GOLDEN_UPDATE=1 in the environment
# (e.g. `SALA_GOLDEN_UPDATE=1 ctest -R '^golden\.'`) to rewrite GOLDEN with
# the digests of this run, and record why in CHANGES.md.

foreach(var BENCH BENCH_ARGS WORK_DIR GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: ${var} is not set")
  endif()
endforeach()

string(REPLACE "|" ";" args "${BENCH_ARGS}")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${BENCH}" ${args}
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
  ERROR_FILE "${WORK_DIR}/stderr.txt"
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  file(READ "${WORK_DIR}/stderr.txt" stderr_text)
  message(FATAL_ERROR "${BENCH} exited with ${exit_code}\n${stderr_text}")
endif()

file(GLOB outputs RELATIVE "${WORK_DIR}" "${WORK_DIR}/*.json")
list(SORT outputs)
set(digests "")
foreach(output stdout.txt ${outputs})
  file(SHA256 "${WORK_DIR}/${output}" digest)
  string(APPEND digests "${digest}  ${output}\n")
endforeach()

if("$ENV{SALA_GOLDEN_UPDATE}" STREQUAL "1")
  file(WRITE "${GOLDEN}" "${digests}")
  message(STATUS "re-baselined ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing golden digest file ${GOLDEN}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT digests STREQUAL expected)
  message(FATAL_ERROR
    "output of ${BENCH} differs from ${GOLDEN}\n"
    "expected:\n${expected}"
    "actual:\n${digests}"
    "outputs kept in ${WORK_DIR}")
endif()
