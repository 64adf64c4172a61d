# Runs one tool invocation and checks its exit status, and optionally its
# output (stdout + stderr), for the CLI contract tests in tools/CMakeLists.txt.
# CTest's WILL_FAIL only tells zero from nonzero; a usage error must be
# exactly 2 and an exit through std::terminate (134) must not pass.
#
# Expected -D inputs: TOOL (binary), ARGS (one space-separated string),
# EXPECT_RC; optional EXPECT_OUTPUT (regex the output must match).
cmake_minimum_required(VERSION 3.20)
if(NOT TOOL OR NOT DEFINED EXPECT_RC)
  message(FATAL_ERROR "usage: cmake -DTOOL=... -DARGS=... -DEXPECT_RC=... [-DEXPECT_OUTPUT=...] -P expect_exit.cmake")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${rc}, expected ${EXPECT_RC}\n${out}${err}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: output does not match '${EXPECT_OUTPUT}'\n${out}${err}")
endif()
