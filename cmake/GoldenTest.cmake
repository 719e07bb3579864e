# Golden-output test driver, invoked by CTest as
#   cmake -DBINARY=<exe> [-DARGS="<flag>;<flag>;..."] [-DMASK_TIMING=ON]
#         -DEXPECTED=<file> -DOUTPUT=<file> -P GoldenTest.cmake
# Runs BINARY with ARGS, captures stdout to OUTPUT, and fails unless it is
# byte-identical to EXPECTED. stderr is passed through (tools print
# wall-clock throughput there, which must not break determinism).
#
# MASK_TIMING=ON rewrites OUTPUT in place before the comparison: samples of
# timing histograms — metric lines whose name contains `latency_ns`, the
# obs/ naming convention for wall-clock histograms — are replaced by a
# fixed <t> token in both the Prometheus text and the JSON-lines exporter
# formats. Metric *names* and every deterministic counter/gauge line stay
# byte-exact; only the run-dependent durations are masked.
#
# To refresh a golden after an intentional output change, copy OUTPUT over
# EXPECTED (the failure message prints both paths; OUTPUT is already
# masked, so the copy works for MASK_TIMING goldens too).

if(NOT DEFINED BINARY OR NOT DEFINED EXPECTED OR NOT DEFINED OUTPUT)
  message(FATAL_ERROR "GoldenTest.cmake needs -DBINARY, -DEXPECTED, -DOUTPUT")
endif()

get_filename_component(_out_dir "${OUTPUT}" DIRECTORY)
file(MAKE_DIRECTORY "${_out_dir}")

if(DEFINED ARGS)
  separate_arguments(_args UNIX_COMMAND "${ARGS}")
else()
  set(_args "")
endif()

execute_process(
  COMMAND "${BINARY}" ${_args}
  OUTPUT_FILE "${OUTPUT}"
  RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${_rc}")
endif()

if(MASK_TIMING)
  file(READ "${OUTPUT}" _content)
  # Prometheus text: `<name>_bucket{le="..."} N`, `<name>_sum N` and
  # `<name>_count N` sample lines of latency histograms.
  string(REGEX REPLACE
    "(latency_ns[_a-z]*({le=\"[^\"]+\"})?) [0-9]+"
    "\\1 <t>" _content "${_content}")
  # JSON lines: the count/sum/mean/p50/p99 tail of a latency histogram.
  string(REGEX REPLACE
    "(latency_ns\",\"type\":\"histogram\"),[^\n]*"
    "\\1,\"samples\":\"<t>\"}" _content "${_content}")
  file(WRITE "${OUTPUT}" "${_content}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${OUTPUT}" "${EXPECTED}"
  RESULT_VARIABLE _diff)
if(NOT _diff EQUAL 0)
  find_program(_diff_tool diff)
  if(_diff_tool)
    execute_process(COMMAND "${_diff_tool}" -u "${EXPECTED}" "${OUTPUT}"
                    OUTPUT_VARIABLE _diff_text ERROR_VARIABLE _diff_text
                    RESULT_VARIABLE _ignored)
    message(STATUS "diff -u ${EXPECTED} ${OUTPUT}:\n${_diff_text}")
  endif()
  message(FATAL_ERROR
    "stdout diverged from the pinned golden output.\n"
    "  expected: ${EXPECTED}\n"
    "  actual:   ${OUTPUT}\n"
    "If the change is intentional, refresh the golden by copying the "
    "actual file over the expected one.")
endif()
